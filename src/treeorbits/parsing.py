"""Text input formats: chain notation for trees, JSON trees, product grammar.

Chain notation: ``a:1>b:2>r:4 | c:2>r`` lists leaf-to-root chains joined
with ``|``; a token is ``name:label`` or a bare integer serving as both.
Repeated names merge into one vertex (labels must agree).

JSON trees: ``{"labels": {...}, "edges": [[src, dst], ...]}`` with an
optional ``"root"`` that must match the inferred root.

Products: terms joined by ``*``.  A term is an atom ``F(k1,...,kr;n)`` or
Grassmannian sugar ``G(k;n)``, with an optional power ``^m``; at most
``trees.MAX_LABEL`` factors in all.  Whitespace may stand between any two
tokens, ``F (`` too, and an integer is a run of any decimal digits, read by
``int``.  ``parse_product`` raises, in this order:

* ParseError at the first character outside the grammar's alphabet or
  integer literal past Python's digit limit, over the whole text first;
* then, term by term from the left: ParseError for a malformed term or
  separator, naming where the term starts or where ``*`` or the end was
  expected; BoundsError for an ambient dimension unlike the first term's
  or an exponent below 1, as soon as the term is read; and BoundsError for
  a factor total above the cap, before the factor list grows;
* last, the errors of ``FlagProduct``'s own checks.

``parse_instance`` reads text as a product when it starts, after
whitespace, the way a term does (``F (`` or ``G(``).
"""

from __future__ import annotations

import json
import re

from .errors import BoundsError, EmptyInput, LabelViolation, NotATree, ParseError, count_text
from .products import FlagProduct
from .trees import MAX_LABEL, LabeledTree

# a vertex name, the only characters chain notation can carry in one
_NAME = r"[A-Za-z0-9_.\-]+"
_TOKEN_RE = re.compile(rf"^({_NAME}?)(?::(\d+))?$")
_NAME_RE = re.compile(_NAME)


def _integer(digits: str, pos: int) -> int:
    """``int(digits)``; a literal past Python's int_max_str_digits is a ParseError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer of {len(digits)} digits is too long", pos) from None


def parse_tree_dsl(text: str) -> LabeledTree:
    """Parse chain notation; raises ParseError with a character position."""
    if not text.strip():
        raise EmptyInput("empty tree text")
    chains: list[list[tuple[str, int]]] = []
    labels: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    offset = 0
    for chain_text in text.split("|"):
        chain: list[tuple[str, int]] = []
        token_pos = offset
        for raw in chain_text.split(">"):
            tok = raw.strip()
            pos = token_pos + len(raw) - len(raw.lstrip())
            token_pos += len(raw) + 1
            if not tok:
                raise ParseError("empty vertex token", pos)
            m = _TOKEN_RE.match(tok)
            if not m:
                raise ParseError(f"bad vertex token {tok!r}", pos)
            name, lab_text = m.groups()
            if lab_text is None and name.isdigit():
                lab_text = name
            if lab_text is not None:
                lab = _integer(lab_text, pos + len(tok) - len(lab_text))
                if name in labels and labels[name] != lab:
                    raise ParseError(
                        f"vertex {name!r} relabeled from {labels[name]} to {lab}", pos
                    )
                labels[name] = lab
            first_seen.setdefault(name, pos)
            chain.append((name, pos))
        offset += len(chain_text) + 1
        chains.append(chain)
    for name, pos in first_seen.items():
        if name not in labels:
            raise ParseError(f"vertex {name!r} never gets a label, like {name}:3", pos)
    edges: list[tuple[str, str]] = []
    for chain in chains:
        for (prev, _), (name, pos) in zip(chain, chain[1:]):
            if labels[prev] >= labels[name]:
                raise LabelViolation(
                    f"label must increase along {prev!r}>{name!r} "
                    f"({labels[prev]} >= {labels[name]}, at position {pos})"
                )
            edges.append((prev, name))
    return LabeledTree(labels, edges)


def load_json(text: str, what: str = "JSON") -> object:
    """``json.loads``, any failure raised as a ParseError about ``what``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad {what}: {e.msg}", e.pos) from None
    except RecursionError:
        raise ParseError(f"bad {what}: nested too deeply") from None
    except ValueError:  # an integer literal past Python's int_max_str_digits
        raise ParseError(f"bad {what}: an integer has too many digits") from None


def parse_tree_json(text: str) -> LabeledTree:
    """Parse the JSON tree form, checking any declared root against the inferred one.

    A vertex name must be one chain notation can carry (letters, digits,
    ``_``, ``.`` and ``-``): every record echoes the tree as chain text,
    which must read back as the same tree.
    """
    data = load_json(text)
    if not isinstance(data, dict) or "labels" not in data or "edges" not in data:
        raise ParseError('JSON tree needs "labels" and "edges" keys')
    if not isinstance(data["labels"], dict):
        raise ParseError('"labels" must map vertex names to integers')
    for name in data["labels"]:
        if not _NAME_RE.fullmatch(name):
            raise ParseError(f"vertex name {name!r} cannot be written in chain notation; "
                             "use letters, digits, '_', '.' and '-'")
    edges = data["edges"]
    if not isinstance(edges, list) or any(
        not isinstance(e, (list, tuple)) or len(e) != 2 for e in edges
    ):
        raise ParseError('"edges" must be a list of [source, target] pairs')
    tree = LabeledTree(data["labels"], [tuple(e) for e in edges])
    declared = data.get("root")
    if declared is not None and str(declared) != tree.root:
        raise NotATree(f"declared root {declared!r} but the edges lead to {tree.root!r}")
    return tree


def parse_tree_spec(text: str) -> LabeledTree:
    """Tree text in either format: JSON when it starts with '{', else chains."""
    if text.lstrip().startswith("{"):
        return parse_tree_json(text)
    return parse_tree_dsl(text)


# how a term starts; parse_instance reads text that starts with one as a product
_ATOM_HEAD = r"[FG]\s*\("
_PRODUCT_HEAD = re.compile(_ATOM_HEAD)
# a term, F(k1,...,kr;n) or G(k;n) with an optional power ^m; then a separator,
# "*" with the whitespace around it, or the whitespace before the end
_TERM = re.compile(_ATOM_HEAD + r"\s*(\d+(?:\s*,\s*\d+)*)\s*;\s*(\d+)\s*\)(?:\s*\^\s*(\d+))?")
_SEPARATOR = re.compile(r"\s*(\*\s*)?")
_DIGITS = re.compile(r"\d+")
# a character outside the grammar, or a literal long enough that int() may
# refuse it: Python lets no int_max_str_digits below 640 be set
_UNREADABLE = re.compile(r"([^\s\dFG*^();,])|\d{640,}")


def parse_product(text: str) -> FlagProduct:
    """Parse the product grammar; all atoms must share one ambient dimension."""
    for m in _UNREADABLE.finditer(text):
        if m.group(1):
            raise ParseError(f"unexpected character {m.group(1)!r}", m.start())
        _integer(m.group(), m.start())
    factors: list[tuple[int, ...]] = []
    ambient = None
    pos = len(text) - len(text.lstrip())
    while True:
        term = _TERM.match(text, pos)
        if term is None:
            raise ParseError("expected a term F(k1,...,kr;n) or G(k;n), with an optional ^m", pos)
        ks, n, power = term.groups()
        ks = tuple(map(int, _DIGITS.findall(ks)))
        if text[pos] == "G" and len(ks) != 1:
            raise ParseError("G takes a single dimension, like G(2;5)", pos)
        n = int(n)
        if ambient is None:
            ambient = n
        elif n != ambient:
            raise BoundsError(f"factors disagree on the ambient dimension: {ambient} vs {n}")
        count = 1 if power is None else int(power)
        if count < 1:
            raise BoundsError(f"exponent must be at least 1, got {count}")
        if len(factors) + count > MAX_LABEL:  # refused before the list grows
            raise BoundsError(f"{count_text(len(factors) + count)} factors exceed the cap {MAX_LABEL}")
        factors.extend([ks] * count)
        sep = _SEPARATOR.match(text, term.end())
        pos = sep.end()
        if sep.group(1) is None:
            if pos < len(text):
                raise ParseError("expected '*' or the end", pos)
            return FlagProduct(tuple(factors), ambient)


def parse_instance(text: str):
    """Auto-detect: JSON tree, product grammar, or chain notation."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_tree_json(text)
    if _PRODUCT_HEAD.match(stripped):
        return parse_product(text)
    return parse_tree_dsl(text)
