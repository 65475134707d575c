"""Rewrite-and-rule engine deciding dense-orbit existence.

``decide`` takes a labeled tree or a flag product and repeatedly:

1. scans a catalog of terminal rules, each a proved theorem that settles
   the instance outright (Dense, Sparse, or TriviallySparse);
2. failing that, applies one density-preserving rewrite (``reduce_span``,
   ``reduce_half``, ``tree_to_product``) and loops.

R3 and R7 leave out what R2 and R5 answer before them (``_SCAN``).  Every
rewrite lowers the ambient dimension, so the loop ends; past its bound it
raises RuntimeError, a fault of the engine.

At entry and after every rewrite a product is put in one canonical form,
the smaller of its sorted factors and its dual's (k -> n - k), so no
verdict depends on factor order or dualizing; only the side kept is built.
At the fixpoint, rule R9 tries every single-vertex surjective deletion and
propagates sparseness back from the image (a surjective equivariant map
sends a dense orbit onto a dense orbit).  If nothing fires the verdict is
Unknown: the procedure never guesses.

The dimension check R1 runs once, where ``decide`` takes the instance in,
and again only after a rewrite: reading a tree as a product, sorting and
dualizing keep the dimension.  An R9 image is not checked either: R9 runs
on an instance that passed R1, and a surjective deletion never raises a
subtree dimension.  Deleting v with parent u adds (phi(u) - phi(v))(sum of
phi over the sources of v - phi(v)) <= 0 to each ancestor's; dropping an
entry k between a and b from a factor adds -(k - a)(b - k).

A product is matched on its factors from entry to verdict, R9 included
(``products.forget_entries``); only a tree input and the R9 images of a
tree are read as trees.

Every verdict carries a trace of the rules and rewrites that produced it.
The engine records it raw, as the instances themselves and an R9 image as
the pair (instance, vertex forgotten), and ``decide`` renders text only for
the verdict it returns: R9 reads all its images but a sparse one for their
status alone.  ``trees.to_dsl`` is the one writer of chain notation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import orbit_class, trivially_sparse
from .errors import BadRange
from .products import (
    FlagProduct,
    as_flag_product,
    as_tree,
    dual_factor,
    forget_entries,
    reduce_half,
    reduce_span,
    tree_to_product,
)
from .trees import LabeledTree, forget_vertex, to_dsl

DENSE = "Dense"
SPARSE = "Sparse"
TRIVIALLY_SPARSE = "TriviallySparse"
UNKNOWN = "Unknown"

Instance = LabeledTree | FlagProduct


@dataclass(frozen=True)
class Rule:
    rule_id: str
    kind: str  # "terminal" or "rewrite"
    summary: str
    citation: str


RULES: tuple[Rule, ...] = (
    Rule("R0", "terminal", "finite orbit class is dense",
         "an irreducible variety with finitely many orbits contains a dense one"),
    Rule("R1", "terminal", "dimension-count obstruction",
         "a subtree of dimension above phi(v)^2 - 1 leaves no room for a dense orbit"),
    Rule("R2", "terminal", "complementary pair in a triple self-product",
         "a triple self-product with k_i + k_j = n (i != j) carries a continuous invariant"),
    Rule("R3", "terminal", "two-step triple self-product",
         "F(k1,k2;n)^3 is sparse exactly when k1 + k2 = n"),
    Rule("R4", "terminal", "up to four Grassmannian factors",
         "m <= 4 Grassmannians are sparse exactly when m = 4 and k1+k2+k3+k4 = 2n"),
    Rule("R5", "terminal", "small sources",
         "if the source labels sum to at most the label at every vertex, the generic orbit is dense"),
    Rule("R6", "terminal", "doubling chain in a triple self-product",
         "2 k_r <= n and 2 k_i <= k_{i+1} for 2 <= i <= r-1 force a dense orbit"),
    Rule("R7", "terminal", "one large Grassmannian among small ones",
         "sum_{i<m} k_i <= n and k_m <= n - sum_{i<m} k_i + min_{i<m} k_i force a dense orbit"),
    Rule("R8", "terminal", "five Grassmannian factors, one of codimension above the other four",
         "factors (d1,...,d4, n-d5; n) with d5 > d4 >= ... >= d1 and d1+...+d4 <= n are dense iff d1+d2+d3+d4 != 2 d5"),
    Rule("R9", "terminal", "sparse forgetful image",
         "a surjective forgetful map sends a dense orbit onto a dense orbit"),
    Rule("as-product", "rewrite", "read chain union as a product",
         "chains joined only at the root index a product of flag varieties"),
    Rule("dualize-normalize", "rewrite", "sort the factors and keep the smaller of the product and its dual",
         "factor order does not change the variety, and sending each k to n - k "
         "identifies the orbit structures of dual configurations"),
    Rule("reduce_span", "rewrite", "cut one factor to the span of the rest",
         "a generic configuration spans a subspace of dimension n' = sum of the other top dimensions; cutting to it preserves density both ways"),
    Rule("reduce_half", "rewrite", "halve a triple self-product with n = 2 k_r",
         "when n = 2 k_r the triple self-product is dense exactly when the prefix triple inside the top subspace is"),
    Rule("tree_to_product", "rewrite", "reduce a three-leaf tree at its junction",
         "a three-leaf tree is dense exactly when the product of its chains at the deepest junction is"),
)

_RULES_BY_ID = {r.rule_id: r for r in RULES}


@dataclass(frozen=True)
class Step:
    """One trace entry: a rule firing or a rewrite application."""

    rule_id: str
    citation: str
    before: str
    after: str
    note: str = ""
    subtrace: tuple["Step", ...] = ()

    def to_json_dict(self) -> dict:
        d = {
            "rule_id": self.rule_id,
            "citation": self.citation,
            "before": self.before,
            "after": self.after,
        }
        if self.note:
            d["note"] = self.note
        if self.subtrace:
            d["subtrace"] = [s.to_json_dict() for s in self.subtrace]
        return d


@dataclass(frozen=True)
class Verdict:
    """Decision outcome with the derivation that produced it."""

    status: str
    trace: tuple[Step, ...]
    input: str
    final: str

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "input": self.input,
            "final": self.final,
            "trace": [s.to_json_dict() for s in self.trace],
        }


def display(inst: Instance) -> str:
    return to_dsl(inst) if isinstance(inst, LabeledTree) else inst.spec_string()


class _Trace(list):
    """Raw steps ``(rule_id, after, note, sub)`` from the instance ``start``.

    The trace is a chain: each step starts where the one before ended, and
    ``after`` is None when the step keeps the instance.  An instance is held
    as itself, and an R9 image as the pair (instance, vertex forgotten);
    ``sub`` is the trace of the image behind an R9 step.  Nothing is
    rendered here: ``decide`` renders the trace it returns (``_render``).
    """

    __slots__ = ("start",)

    def __init__(self, start):
        self.start = start

    def add(self, rule_id: str, after=None, note: str = "", sub: _Trace | None = None) -> None:
        self.append((rule_id, after, note, sub))


def _text(x) -> str:
    """The text of an instance, or of the tree an (instance, vertex) pair leaves."""
    return to_dsl(forget_vertex(as_tree(x[0]), x[1])[0]) if isinstance(x, tuple) else display(x)


def _render(trace: _Trace, start: str | None = None) -> tuple[str, tuple[Step, ...]]:
    """The text of ``trace.start`` (``start`` when already rendered) and the
    public steps of ``trace``, R9 subtraces included.  Each instance is
    rendered once, as a step's ``before`` is the ``after`` of the one before."""
    shown = start = _text(trace.start) if start is None else start
    steps = []
    for rule_id, after, note, sub in trace:
        before = shown
        if after is not None:
            shown = _text(after)
        subtrace = () if sub is None else _render(sub, shown if sub.start is after else None)[1]
        steps.append(Step(rule_id, _RULES_BY_ID[rule_id].citation, before, shown, note, subtrace))
    return start, tuple(steps)


def _match_r2(p: FlagProduct):
    if p.num_factors != 3 or len(set(p.factors)) != 1:
        return None
    k = p.factors[0]
    for i in range(len(k)):
        for j in range(i + 1, len(k)):
            if k[i] + k[j] == p.ambient:
                return SPARSE, f"k_{i + 1} + k_{j + 1} = {k[i]} + {k[j]} = n"
    return None


def _match_r3(p: FlagProduct):
    if p.num_factors != 3 or len(set(p.factors)) != 1 or len(p.factors[0]) != 2:
        return None
    k1, k2 = p.factors[0]
    return DENSE, f"k1 + k2 = {k1 + k2} != {p.ambient} = n"


def _match_r4(p: FlagProduct):
    if not all(len(f) == 1 for f in p.factors) or p.num_factors > 4:
        return None
    ks = [f[0] for f in p.factors]
    if len(ks) == 4 and sum(ks) == 2 * p.ambient:
        return SPARSE, f"four Grassmannians with {'+'.join(map(str, ks))} = 2n"
    return DENSE, f"{len(ks)} Grassmannian factors, sum {sum(ks)} != 2n"


def _match_r5(x: Instance):
    # on a product's tree only the root has more than one source
    if isinstance(x, FlagProduct):
        holds = sum(f[-1] for f in x.factors) <= x.ambient
    else:
        lab = x.labels
        holds = all(sum(lab[c] for c in x.children[v]) <= lab[v] for v in lab)
    return (DENSE, "source labels sum to at most the label at every vertex") if holds else None


def _match_r6(p: FlagProduct):
    if p.num_factors != 3 or len(set(p.factors)) != 1:
        return None
    k = p.factors[0]
    if 2 * k[-1] <= p.ambient and all(2 * k[i] <= k[i + 1] for i in range(1, len(k) - 1)):
        return DENSE, f"2 k_r = {2 * k[-1]} <= n and the doubling chain holds"
    return None


def _match_r7(p: FlagProduct):
    if p.num_factors < 2 or not all(len(f) == 1 for f in p.factors):
        return None
    ks = [f[0] for f in p.factors]
    rest, kmax = ks[:-1], ks[-1]
    if sum(rest) <= p.ambient and kmax <= p.ambient - sum(rest) + rest[0]:
        return DENSE, f"sum of the small Grassmannians is {sum(rest)} <= n and k_m = {kmax} fits"
    return None


def _match_r8(p: FlagProduct):
    if p.num_factors != 5 or not all(len(f) == 1 for f in p.factors):
        return None
    n = p.ambient
    ks = [f[0] for f in p.factors]
    for idx in range(5):
        d5 = n - ks[idx]
        rest = ks[:idx] + ks[idx + 1 :]
        if d5 > rest[-1] and sum(rest) <= n:
            tag = f"(d1..d4) = {tuple(rest)}, d5 = {d5}"
            if sum(rest) == 2 * d5:
                return SPARSE, f"{tag}: d1+d2+d3+d4 = 2 d5"
            return DENSE, f"{tag}: d1+d2+d3+d4 = {sum(rest)} != {2 * d5} = 2 d5"
    return None


def _match_r0(x: Instance):
    oc = orbit_class(x)
    if oc.finite:
        return DENSE, f"orbit class {oc.kind}" + (f" (case {oc.case_label})" if oc.case_label else "")
    return None


def _match_r1(x: Instance):
    ts = trivially_sparse(x)
    if ts.violated:
        return SPARSE, f"subtree at {ts.vertex} has dimension {ts.lhs} > {ts.rhs} = phi^2 - 1"
    return None


# (rule id, matcher) in scan order; the order shapes the trace, and R3 and R7
# rely on it: R2 answers every F(k1,k2;n)^3 with k1 + k2 = n, so R3 meets only
# dense ones, and R5 every product of at most one factor (its last entry is
# below n), so R7 reads two or more.  R1, R5 and R0 take either kind of
# instance, the others read factors, so a tree is scanned with the first three
# alone.  R1 comes first so that a scan can skip it: an instance reaches _decide
# having passed R1 (see the module docstring), and the first scan sees the same
# variety (read as a product, sorted, maybe dualized), so only a scan after a
# rewrite tries R1 again.  A product is scanned on its canonical side L only.  On
# the other side H, R1 fails only at the root, as on L; and as L's least first
# entry a_1 <= n - (largest last entry), R5 on H (sum n - a_j <= n) leaves one
# factor or L = G(a)*G(n-a), where R5 holds on L; R6 on H needs L's k_1 >= n/2,
# so L = H; R7 on H forces m <= 3, holds on L for m = 2 and for m = 3 forces L
# = (k, n-k, n-k), so H < L unless L = H; R8 on H at i needs sum_{j != i} k_j
# >= 3n, which k_1 + k_5 <= n leaves only for i = 1 and L = (k_1, (n-k_1)^4),
# so H < L.
_SCAN = (
    ("R1", _match_r1),
    ("R2", _match_r2),
    ("R3", _match_r3),
    ("R5", _match_r5),
    ("R6", _match_r6),
    ("R7", _match_r7),
    ("R8", _match_r8),
    ("R4", _match_r4),
    ("R0", _match_r0),
)
_TREE_SCAN = tuple(s for s in _SCAN if s[0] in ("R1", "R5", "R0"))


def _terminal(inst: Instance, trace: _Trace, r1: bool) -> str | None:
    """Scan the catalog on ``inst``, R1 only when ``r1`` is set.  Returns the
    status of the first rule that fires, its step added to ``trace``, or None."""
    scan = _SCAN if isinstance(inst, FlagProduct) else _TREE_SCAN
    for rid, match in scan if r1 else scan[1:]:
        hit = match(inst)
        if hit:
            trace.add(rid, note=hit[1])
            return hit[0]
    return None


def _sorted(p: FlagProduct) -> FlagProduct:
    factors = tuple(sorted(p.factors))
    return p if factors == p.factors else FlagProduct(factors, p.ambient)


def _canonical(p: FlagProduct, trace: _Trace) -> FlagProduct:
    """The smaller of ``p`` and its dual, factors sorted.

    The two sides are compared as sorted factor tuples and a product is
    built only for the side kept, and only when it is not ``p`` itself.
    Records one dualize-normalize step when the result is not ``p``.
    """
    n = p.ambient
    own = tuple(sorted(p.factors))
    other = tuple(sorted([dual_factor(f, n) for f in p.factors]))
    if other < own:
        low, note = FlagProduct(other, n), "the dual is smaller once both sides are sorted"
    elif own == p.factors:
        return p
    else:
        low, note = FlagProduct(own, n), "factors sorted"
    trace.add("dualize-normalize", low, note)
    return low


def _rewrite_once(inst: Instance):
    if isinstance(inst, LabeledTree):
        p = tree_to_product(inst)
        return ("tree_to_product", p) if p is not None else None
    p = reduce_span(inst)
    if p is not None:
        return "reduce_span", p
    p = reduce_half(inst)
    if p is not None:
        return "reduce_half", p
    return None


def decide(x: Instance, depth: int = 1) -> Verdict:
    """Decide density for a tree or flag product; Unknown when no rule fires.

    ``depth`` bounds the nesting of rule R9: each surjective single-vertex
    deletion is decided recursively with depth - 1, and depth 0 disables
    R9 entirely.  Each level forgets a vertex and no rewrite adds one, so a
    depth past (vertices - 1) changes nothing.  Raises BadRange unless
    ``depth`` is a non-negative int, and TypeError (from R1) unless ``x``
    is a tree or a product.  This is the engine's one entry: R1
    is checked here, a chain union is read as its sorted product, and the
    raw trace of the verdict returned is rendered here, once.
    """
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 0:
        raise BadRange(f"depth must be a non-negative integer, got {depth!r}")
    hit = _match_r1(x)
    if hit:
        text = display(x)
        step = Step("R1", _RULES_BY_ID["R1"].citation, text, text, hit[1])
        return Verdict(TRIVIALLY_SPARSE, (step,), text, text)
    p = None if isinstance(x, FlagProduct) else as_flag_product(x)
    status, trace = _decide(x if p is None else _sorted(p), x, depth, {})
    start, steps = _render(trace)
    # a verdict is reached where its last step starts (a terminal step keeps
    # the instance, and R9 moves on to its image), Unknown where the trace ends
    final = start if not steps else steps[-1].after if status == UNKNOWN else steps[-1].before
    return Verdict(status, steps, start, final)


def _decide(inst: Instance, source, depth: int, memo: dict) -> tuple[str, _Trace]:
    """``decide`` within one memo, on an instance that passes R1 and has been
    read: a tree that is not a chain union, or a product, sorted when it was
    read from a tree.  ``source`` is where the trace starts: the instance
    ``decide`` was given, or an R9 image's pair (instance, vertex
    forgotten), with an as-product step when ``inst`` is a product read
    from it.  Returns the raw ``(status, trace)``; nothing is rendered, as
    an R9 image is read for its status alone."""
    trace = _Trace(source)
    if isinstance(inst, FlagProduct) and inst is not source:
        trace.add("as-product", inst)
    rewritten = False  # until a rewrite changes the dimension, R1 holds
    for _ in range(inst.ambient + 16):
        if isinstance(inst, FlagProduct):
            inst = _canonical(inst, trace)
        status = _terminal(inst, trace, rewritten)
        if status is not None:
            return status, trace
        nxt = _rewrite_once(inst)
        if nxt is None:
            return SPARSE if depth >= 1 and _r9(inst, depth, trace, memo) else UNKNOWN, trace
        rule_id, new_inst = nxt
        inst = _sorted(new_inst)  # every rewrite yields a product
        trace.add(rule_id, inst)
        rewritten = True
    raise RuntimeError(f"rewriting did not reach a fixpoint from {_text(trace.start)}")


def _r9(inst: Instance, depth: int, trace: _Trace, memo: dict) -> bool:
    """Rule R9 on ``inst``: whether some surjective deletion has a sparse
    image, its step appended to ``trace`` with the image's raw trace.

    Each image is read once (a product image is sorted) and decided with no
    R1 check, as ``inst`` passed R1 (see the module docstring).  ``memo``
    maps (image, depth) to the image's raw ``_decide`` result for the
    length of one top-level ``decide`` call, so an image reached twice is
    decided once, a product image whatever its vertex names.  A result is
    read only for its status, and none is rendered here: a sparse one ends
    every R9 above it, and ``decide`` renders its trace at the end.
    """
    images = forget_entries(inst) if isinstance(inst, FlagProduct) else _tree_images(inst)
    for v, image in images:
        if isinstance(image, FlagProduct):
            image = _sorted(image)
        source = (inst, v)
        key = (image, depth - 1)
        sub = memo.get(key)
        if sub is None:
            sub = memo[key] = _decide(image, source, depth - 1, memo)
        if sub[0] == SPARSE:
            trace.add("R9", source, f"forgetting vertex {v} is surjective and the image is sparse",
                      sub[1])
            return True
    return False


def _tree_images(tree: LabeledTree):
    """(vertex, image) for every surjective deletion, in vertex-name order,
    as ``forget_entries`` gives them for a product.  A chain-union image is
    read as its product, in factor order."""
    for v in sorted(tree.parent):  # the non-root vertices
        image, surjective = forget_vertex(tree, v)
        if surjective:
            p = as_flag_product(image)
            yield v, image if p is None else p
