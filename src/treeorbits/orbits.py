"""Exhaustive orbit enumeration over tiny finite fields.

Configurations over F_q (q in {2, 3, 4, 5}) are tuples of subspaces, one
per non-root vertex, nested along the edges.  Orbits are counted on the
fibres over two fixed flags, on numpy arrays, in five steps.

* Reduction.  The vertices on a chain from a root child down to a leaf
  carry a flag.  Chain 1 is the chain whose flag variety X1 has the most
  points, ties to the first child in name order; chain 2 is the same under
  the other root children, with flag variety X2 (a point when the root
  has one child).  A product of at most two factors is read on its
  factors, the one with more points as chain 1, a tie to the lower index
  (the counts do not depend on the tie); a product of three or more has a
  factor on neither chain and is read as its tree.  GL(n, q)
  is transitive on X1, and the orbits of the
  stabilizer P1 of the standard flag x1 = span(e_0..e_{d-1}) on X2 are
  the double cosets P1 w P2 (Bruhat), one per contingency matrix: a
  nonnegative integer matrix M whose row and column sums are the two
  flags' quotient sizes.  Each double coset is listed once, as the
  nonzero entries (a, b, M[a, b]) of M row by row, and every later step
  reads that record.  Entry (a, b, m) is a class of m consecutive basis
  vectors with level a on chain 1 and level b on chain 2, which places
  the coordinate flag w.x2 that represents the double coset.  So the
  GL-orbits on the variety X are, summed over the double cosets, the
  orbits of H_w, the stabilizer of both x1 and w.x2, on the fibre over
  (x1, w.x2).  Subspaces are row spans acted on by right multiplication,
  so H_w holds the invertible g with g[i, j] = 0 unless j's levels are
  at most i's on both chains.  Its order is a product over the record's
  entries of |GL(m, q)|, times q for each allowed entry that links two
  classes.  It is generated, modulo the scalars, which act trivially,
  by generators of GL on each class of basis vectors with equal levels (a
  cycle, a transvection and a primitive scalar in one slot) and one
  elementary matrix per covering pair of classes; the scalar of one 1 x 1
  class is redundant and left out.  With one chain the classes are P1's
  diagonal blocks.  Each fibre has |X| / (|X1| |X2|) points, and when no
  vertex is off both chains it is one point, so the orbits are the
  double cosets and nothing is enumerated: a product of two flag
  varieties gets its answer with no tree built.
* Field layer.  ``_Field`` holds the addition, negation, multiplication
  and inverse tables of F_q as uint8 arrays (so F_4, whose addition is
  xor, needs no special case past its tables), and they act elementwise
  on uint8 arrays: a whole stack of bases is multiplied by a matrix, or
  brought to reduced row echelon form, in one pass over its rows.  The
  d-subspaces of F_q^n are listed by pivot set and then by their free
  entries read as a base-q number, so the index of an echelon basis is
  its pivot set's offset plus that number: no dict of subspaces is built.
  The field tables are built once per q and are read-only; subspace
  tables are built on every call, only for the labels of vertices off
  both chains.
* Points.  Point i is a mixed-radix number with one digit for the double
  coset and one per non-root vertex: the subspace index where the parent
  is the root, otherwise the child's position among the subspaces of its
  parent (a chain 2 parent's span depends on the double coset).  A chain
  vertex's digit has radix 1.  This numbers the points of all fibres
  0..N-1 as a grid with a leading double-coset axis and one axis per
  vertex.
* Moves.  The generators of every H_w are padded with the identity to a
  (G, W) array of matrices.  Each distinct one acts on each subspace
  table once: one stacked product and one row reduction give the table's
  images under all of them.  Where a child lands inside the image of its
  parent is looked up once per (parent, child) pair, in the parent's
  sorted children; a fixed span is its own image.  The moves are then
  sums of gathers from these tables over the grid, a (G, N) int64 array
  with one row per generator slot, which keeps every point in its double
  coset.
* Orbits.  They are the connected components of the Schreier graph of the
  moves, found by min-label propagation along every move and its inverse,
  with pointer jumping, until no label changes.

The checks run in this order on every call.  X has at least 2^dim points,
so past ``_EXACT_DIM`` its dimension alone refuses a variety over the cap.
Then one table of point counts, a Gaussian binomial per edge of a tree or
a product of them per factor of a product, gives the projected point count
of X, checked against the cap before anything else is done, and the
weights of the chains; a product of three or more factors builds its tree
only now, and weighs its chains on the tree's edges.  The fibre's size,
the product over the edges off both chains, times |X1| |X2| must equal the
projected count, and the orbit sizes |P1| / |H_w| must add up to |X2|.
Only then, and only when a vertex is off both chains, are the subspace
tables built: their sizes must give the same fibre, each generator's
entries off the identity must fix both flags before any matrix is built,
every lookup must hit and every move must permute the points.  Every
subspace table is an image of X, so it fits under the cap too.  A failed
check is a fault of the enumerator and raises RuntimeError.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import prod

import numpy as np

from .errors import BadRange, CapExceeded, UnsupportedField
from .products import FlagProduct, as_tree, instance_dimension, product_to_tree
from .trees import heaviest_chains, top_down


DEFAULT_CAP = 200_000
# the largest dimension for which a refusal computes the exact point count,
# whose cost grows with its digits; above it 2^dim bounds the count
_EXACT_DIM = 4096


def _check_field(q: int) -> None:
    if isinstance(q, bool) or not isinstance(q, int) or q not in (2, 3, 4, 5):
        raise UnsupportedField(f"field order must be one of 2, 3, 4, 5, got {q!r}")


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n; 0 when k is not in 0..n.

    Raises BadRange unless n and k are ints and q is an int of at least 2
    (booleans are refused).
    """
    for name, value in (("n", n), ("k", k), ("q", q)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise BadRange(f"{name} must be an integer, got {value!r}")
    if q < 2:
        raise BadRange(f"q must be at least 2, got {q!r}")
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)  # [n k] = [n n-k]
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


class _Field:
    """F_q for q in {2, 3, 4, 5} on the elements 0..q-1, as uint8 lookup tables.

    ``add`` and ``mul`` are q x q tables, ``neg`` and ``inv`` (``inv[0]``
    unused) vectors, and ``primitive`` a generator of F_q^*; indexing a
    table with uint8 arrays computes elementwise.  For prime q the tables
    are the residues mod q; F_4 is F_2[x]/(x^2 + x + 1) with x = 2, whose
    addition is xor.
    """

    def __init__(self, q: int):
        _check_field(q)
        self.q = q
        e = np.arange(q)
        if q == 4:
            self.add = np.bitwise_xor.outer(e, e).astype(np.uint8)
            self.mul = np.array([[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]], np.uint8)
        else:
            self.add = (np.add.outer(e, e) % q).astype(np.uint8)
            self.mul = (np.multiply.outer(e, e) % q).astype(np.uint8)
        self.neg = (self.add == 0).argmax(axis=1).astype(np.uint8)
        self.inv = (self.mul == 1).argmax(axis=1).astype(np.uint8)
        # order[a] = least i >= 1 with a^i = 1 (0 for a = 0); a primitive
        # element has order q - 1
        order, power = np.zeros(q, np.int64), e
        for i in range(1, q):
            order[(power == 1) & (order == 0)] = i
            power = self.mul[power, e]
        self.primitive = int(np.flatnonzero(order == q - 1)[0])
        for table in (self.add, self.mul, self.neg, self.inv):
            table.flags.writeable = False

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b over F_q, broadcasting over the leading axes."""
        out = self.mul[a[..., :, :1], b[..., :1, :]]
        for k in range(1, a.shape[-1]):
            out = self.add[out, self.mul[a[..., :, k:k + 1], b[..., k:k + 1, :]]]
        return out

    def rref(self, m: np.ndarray) -> np.ndarray:
        """Reduced row echelon forms of a stack of shape (count, d, n) of rank-d matrices."""
        count, d, _ = m.shape
        each = np.arange(count)
        m = m.copy()
        for r in range(d):
            # the pivot column of row r is the first one with a nonzero entry
            # in rows r.., and the pivot row the first of those rows with it
            rest = m[:, r:] != 0
            col = rest.any(axis=1).argmax(axis=1)
            piv = r + rest[each, :, col].argmax(axis=1)
            row = m[each, piv]
            m[each, piv] = m[:, r]
            row = self.mul[self.inv[row[each, col]][:, None], row]
            factor = m[each, :, col]
            factor[:, r] = 0
            m = self.add[m, self.neg[self.mul[factor[:, :, None], row[:, None, :]]]]
            m[:, r] = row
        return m


# the enumerator's field: built once per q (there are four) and shared,
# which the read-only tables make safe
_field = cache(_Field)


class _Subspaces:
    """The d-dimensional subspaces of F_q^n as reduced echelon bases, in a fixed order.

    ``bases[i]`` is subspace i.  The order is by pivot set, as
    ``combinations`` lists them, then by the free entries (row by row, left
    to right) read as a base-q number; ``index`` inverts it.
    """

    def __init__(self, n: int, d: int, field: _Field):
        self.field = field
        q = field.q
        blocks, keys, offsets, weights = [], [], [], []
        start = 0
        for pivots in combinations(range(n), d):
            free = [(i, c) for i, p in enumerate(pivots) for c in range(p + 1, n) if c not in pivots]
            size = q ** len(free)
            place = q ** np.arange(len(free) - 1, -1, -1)
            block = np.zeros((size, d, n), np.uint8)
            block[:, range(d), pivots] = 1
            weight = np.zeros((d, n), np.int64)
            if free:
                rows, cols = zip(*free)
                block[:, rows, cols] = np.arange(size)[:, None] // place % q
                weight[rows, cols] = place
            blocks.append(block)
            keys.append(sum(1 << p for p in pivots))
            offsets.append(start)
            weights.append(weight)
            start += size
        self.bases = np.concatenate(blocks)
        # pivot sets as bitmasks, sorted for searchsorted, with the offset of
        # each set's block and the place value of each of its free entries
        by_key = np.argsort(keys)
        self.keys = np.array(keys, np.int64)[by_key]
        self.offsets = np.array(offsets, np.int64)[by_key]
        self.weights = np.array(weights)[by_key]

    def __len__(self) -> int:
        return len(self.bases)

    def index(self, mats: np.ndarray) -> np.ndarray:
        """Indices in ``bases`` of the row spans of a stack of rank-d matrices."""
        m = self.field.rref(mats)
        piv = (m != 0).argmax(axis=2)
        at = np.searchsorted(self.keys, (1 << piv).sum(axis=1))
        return self.offsets[at] + (m * self.weights[at]).sum(axis=(1, 2))


def _blocks(flag: list[int], n: int) -> list[int]:
    """Sizes of the successive quotients of a flag of the given dimensions in F_q^n."""
    cuts = [0, *sorted(flag), n]
    return [b - a for a, b in zip(cuts, cuts[1:])]


def _double_cosets(rows: list[int], cols: list[int]) -> list[tuple[tuple[int, int, int], ...]]:
    """The double cosets P1 w P2, each as the entries (a, b, M[a, b] > 0) of its matrix M, row by row.

    P1 and P2 stabilize flags with the quotient sizes ``rows`` and ``cols``,
    and M has these row and column sums.  Entry (a, b, m) is a class of m
    consecutive basis vectors at level a on the first flag (the standard
    one) and b on the second: the second flag's subspace of quotient b is
    spanned by the vectors at level b or lower.  A class's levels are both
    at most a later class's exactly when its second level is.  The list is
    in lexicographic order of the vectors' second levels.
    """
    done = [((), tuple(cols))]
    for a, size in enumerate(rows):
        for k in range(size):
            # vector k of block a takes a level b with room left, no lower
            # than vector k - 1's, and joins that vector's entry at its level
            done = [(entries[:-1] + ((a, b, entries[-1][2] + 1),) if k and b == entries[-1][1]
                     else entries + ((a, b, 1),), room[:b] + (room[b] - 1,) + room[b + 1:])
                    for entries, room in done
                    for b in range(entries[-1][1] if k else 0, len(room)) if room[b]]
    return [entries for entries, _ in done]


def _pattern_order(coset: tuple[tuple[int, int, int], ...], q: int, gl: list[int]) -> int:
    """Order of H_w, the invertible g with g[i, j] = 0 unless j's levels are at most i's.

    ``coset`` is a record of ``_double_cosets`` and ``gl[m]`` is |GL(m, q)|.
    H_w is the product of its classes' GL, times one F_q per allowed entry
    that links two classes.
    """
    links = sum(m * k for i, (_, lo, m) in enumerate(coset) for _, hi, k in coset[i + 1:] if lo <= hi)
    return prod(gl[m] for _, _, m in coset) * q**links


def _stabilizer_generators(coset: tuple[tuple[int, int, int], ...], field: _Field) -> list[tuple]:
    """Matrices generating, modulo scalars, the group H_w of ``_pattern_order``.

    H_w fixes both coordinate flags.  It is generated by generators of GL
    on each class (the cycle of its basis vectors, a transvection and a
    primitive scalar in one slot) and one elementary matrix per covering
    pair of classes, from the last vector of the lower class to the first
    of the upper one: the classes' GL spread it over the whole block of
    entries linking the two, and commutators reach every allowed entry
    beyond.  The scalar of the first 1 x 1 class is left out: it is a
    scalar matrix times the other classes' scalars.  With no second flag
    the classes are the first flag's blocks.  Each matrix is given by its
    (row, column, value) entries off the identity, a tuple that is the same
    for equal matrices.
    """
    gens, runs, start = [], [], 0
    dropped = False
    for _, level, m in coset:
        a, b = start, start + m
        if m > 1:
            cycle = tuple((i, a + (i + 1 - a) % m, 1) for i in range(a, b))
            gens += [tuple((i, i, 0) for i in range(a, b)) + cycle, ((a, a + 1, 1),)]
        if field.q > 2:
            if m == 1 and not dropped:
                dropped = True
            else:
                gens.append(((a, a, field.primitive),))
        runs.append((level, a, b))
        start = b
    for i, (lo, _, b) in enumerate(runs):
        for j, (hi, c, _) in enumerate(runs[i + 1:], i + 1):
            if lo <= hi and not any(lo <= mid <= hi for mid, _, _ in runs[i + 1:j]):
                gens.append(((c, b - 1, 1),))
    return gens


def _stabilizer_stack(cosets: list[tuple[tuple[int, int, int], ...]],
                      field: _Field) -> tuple[np.ndarray, np.ndarray]:
    """The generators of every double coset's H_w, each distinct matrix once.

    Returns ``distinct`` and ``which``: generator h of H_w is
    ``distinct[which[h, w]]``, the identity where H_w has fewer than h + 1
    generators.  Raises RuntimeError when a generator moves one of its two
    coordinate flags, before any array is built.
    """
    gens = [_stabilizer_generators(w, field) for w in cosets]
    for w, stack in zip(cosets, gens):
        # each basis vector's (first, second) level
        pairs = [(a, b) for a, b, m in w for _ in range(m)]
        if any(pairs[j][0] > pairs[i][0] or pairs[j][1] > pairs[i][1] for g in stack for i, j, _ in g):
            raise RuntimeError("a generator moves a fixed flag")
    ids = {}
    which = np.array([[ids.setdefault(stack[h] if h < len(stack) else (), len(ids)) for stack in gens]
                      for h in range(max(1, *map(len, gens)))], np.intp)
    n = sum(m for _, _, m in cosets[0])
    distinct = np.tile(np.eye(n, dtype=np.uint8), (len(ids), 1, 1))
    u, row, col, value = np.array([(k, *entry) for g, k in ids.items() for entry in g], np.intp).reshape(-1, 4).T
    distinct[u, row, col] = value
    return distinct, which


def _spans(levels: np.ndarray, k: int, d: int) -> np.ndarray:
    """Bases of span(e_i : levels[i] <= k), a d-subspace, one per row of ``levels``: (P, d, n)."""
    pick = np.argsort(levels > k, axis=1, kind="stable")[:, :d]
    return np.eye(levels.shape[1], dtype=np.uint8)[pick]


@dataclass(frozen=True)
class OrbitReport:
    """Full orbit census of the configuration variety over F_q."""

    q: int
    cap: int
    point_count: int
    orbit_count: int


def _edge_counts(tree, q: int) -> dict[str, int]:
    """The F_q points of each edge's Grassmannian, keyed by the edge's source."""
    return {s: gaussian_binomial(tree.labels[t], tree.labels[s], q) for s, t in tree.parent.items()}


def _flag_count(f: tuple[int, ...], n: int, q: int) -> int:
    """The F_q points of the flag variety F(f; n).

    It is the product of the Gaussian binomials of consecutive dimensions,
    the last one under n: the edge counts of the factor's chain in
    ``product_to_tree``.
    """
    return prod(gaussian_binomial(b, a, q) for a, b in zip(f, (*f[1:], n)))


def projected_point_count(x, q: int) -> int:
    """Exact number of F_q points: product of one Gaussian binomial per edge.

    A product is read on its factors, as the product of their point counts.
    Equal factors and equal edge counts are multiplied as one power, so
    ``G(1;2)^1000000`` costs one flag count and one exponentiation.
    """
    tree = None if isinstance(x, FlagProduct) else as_tree(x)
    _check_field(q)
    if tree is None:
        powers = [(_flag_count(f, x.ambient, q), m) for f, m in Counter(x.factors).items()]
    else:
        powers = Counter(_edge_counts(tree, q).values()).items()
    return prod(c**m for c, m in powers)


def enumerate_orbits(x, q: int = 2, cap: int = DEFAULT_CAP) -> OrbitReport:
    """Count GL(n, q) orbits on the F_q points of the configuration variety.

    Only the fibres over two fixed flags, one per double coset, are
    enumerated (see the module docstring); ``point_count`` is the
    variety's full count.  Raises CapExceeded when that count exceeds
    ``cap``, before any work is done.  The variety's dimension is read
    first: each Gaussian binomial [n k]_q is at least 2^{k(n-k)}, so the
    count is at least 2^dim, and a variety of dimension above
    ``_EXACT_DIM`` with 2^dim > ``cap`` is refused with ``projected`` None
    and ``log2_bound`` = dim, as its exact count would cost time that
    grows with its digits.  Otherwise ``projected`` is the exact projected
    point count.
    A product's cap is read on its factors, and so is the answer for at
    most two factors, the two fixed flags, with no tree built; a product of
    three or more factors is then read as its tree, as a factor is on
    neither fixed chain.
    """
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise BadRange(f"cap must be a positive integer, got {cap!r}")
    tree = None if isinstance(x, FlagProduct) else as_tree(x)
    n = x.ambient
    _check_field(q)
    dim = instance_dimension(x)
    if dim > _EXACT_DIM and dim >= cap.bit_length():
        raise CapExceeded(None, cap, log2_bound=dim)
    if tree is None:
        counts = {i: _flag_count(f, n, q) for i, f in enumerate(x.factors)}
    else:
        counts = _edge_counts(tree, q)
    projected = prod(counts.values())
    if projected > cap:
        raise CapExceeded(projected, cap)
    if tree is None and len(counts) <= 2:
        # the factors are the two flags, the one with more points first (a
        # tie to the lower index); a missing one is an empty chain of one point
        fixed = sorted(zip(x.factors, counts.values()), key=lambda c: c[1], reverse=True)
        (dims1, x1), (dims2, x2) = fixed + [((), 1)] * (2 - len(fixed))
        free = []
    else:
        if tree is None:  # a third factor is on neither chain
            tree = product_to_tree(x)
            counts = _edge_counts(tree, q)
        # the chain whose flag variety has the most F_q points, then the same
        # under the other root children
        weight = {(tree.labels[tree.parent[s]], tree.labels[s]): c for s, c in counts.items()}
        (chain, x1), (second, x2) = heaviest_chains(tree, lambda t, s: weight[t, s])
        dims1, dims2 = (sorted(tree.labels[v] for v in c) for c in (chain, second))
        free = [v for v in tree.parent if v not in chain and v not in second]
    count = prod(counts[v] for v in free)
    if count * x1 * x2 != projected:
        raise RuntimeError("the fibre over the fixed flags has the wrong number of points")
    flags = {1: dims1, 2: dims2}
    rows, cols = _blocks(dims1, n), _blocks(dims2, n)
    cosets = _double_cosets(rows, cols)
    gl = [prod(q**m - q**i for i in range(m)) for m in range(n + 1)]
    p1 = _pattern_order(tuple((a, 0, m) for a, m in enumerate(rows)), q, gl)
    if sum(p1 // _pattern_order(w, q, gl) for w in cosets) != x2:
        raise RuntimeError("the double cosets do not cover the second flag variety")
    if not free:
        return OrbitReport(q=q, cap=cap, point_count=projected, orbit_count=len(cosets))

    field = _field(q)
    order = top_down(tree)
    pos = {v: i for i, v in enumerate(order)}
    # up[k] is the position of the parent of order[k], None where that is the root
    up = [pos.get(tree.parent[v]) for v in order]
    vdim = [tree.labels[v] for v in order]
    # on[k] is 1 or 2 for a vertex of the first or second chain, 0 for a free one
    on = [1 if v in chain else 2 if v in second else 0 for v in order]
    spaces = {d: _Subspaces(n, d, field) for d in sorted({d for d, f in zip(vdim, on) if not f})}
    # the fixed spans of a chain's vertices, as each basis vector's level:
    # one row for the first chain, one per double coset for the second
    levels = {1: np.repeat(np.arange(len(rows)), rows)[None],
              2: np.array([[b for _, b, m in w for _ in range(m)] for w in cosets])}

    # children[dt, ds, f][p] = indices in spaces[ds] of the ds-subspaces inside
    # subspace p of a free parent (f = 0), or inside the fixed span of a
    # parent on chain f (p = 0, or the double coset on chain 2), in the
    # order of _Subspaces(dt, ds)
    pair = [(vdim[j], vdim[k], on[j]) if not f and j is not None else None
            for k, (j, f) in enumerate(zip(up, on))]
    children = {}
    for dt, ds, f in set(pair) - {None}:
        parents = spaces[dt].bases if not f else _spans(levels[f], flags[f].index(dt), dt)
        inside = field.matmul(_Subspaces(dt, ds, field).bases[None], parents[:, None])
        children[dt, ds, f] = spaces[ds].index(inside.reshape(-1, ds, n)).reshape(inside.shape[:2])
    radix = [1 if f else len(spaces[d]) if t is None else children[t].shape[1]
             for d, f, t in zip(vdim, on, pair)]
    if prod(radix) != count:
        raise RuntimeError("the subspace tables give the fibre the wrong number of points")
    distinct, which = _stabilizer_stack(cosets, field)
    moves = _moves(field, distinct, which, spaces, children, up, vdim, on, pair, radix)
    return OrbitReport(q=q, cap=cap, point_count=projected,
                       orbit_count=_components(moves, len(cosets) * count))


def _moves(field, distinct, which, spaces, children, up, vdim, on, pair, radix) -> list[np.ndarray]:
    """The generators' permutations of the points and their inverses, as index arrays.

    Generator h of double coset w's stabilizer is ``distinct[which[h, w]]``.
    """
    # The points form a grid with one axis for the double coset and one per
    # vertex, raveled in C order; the axis of a chain vertex has length 1.
    # digit[k] and sub[k] (the subspace of vertex k, the double coset on
    # chain 2, 0 on chain 1) vary along the axes of k and its ancestors only
    # (and the double coset's), so they stay as small as the chain above k.
    g, cosets = which.shape
    shape = (cosets, *radix)
    axes = len(shape)
    digit = [np.arange(r).reshape([r if a == k else 1 for a in range(axes)])
             for k, r in enumerate(shape)]
    sub = []
    for k, j in enumerate(up):
        if on[k]:
            sub.append(0 if on[k] == 1 else digit[0])
        else:
            sub.append(digit[k + 1] if j is None else children[pair[k]][sub[j], digit[k + 1]])
    stride = [prod(shape[a + 1:]) for a in range(axes)]
    count = prod(shape)

    # each distinct generator acts once on each table; used[u, w] tells
    # whether generator u fixes double coset w's flag
    used = np.zeros((len(distinct), cosets), bool)
    used[which, np.arange(cosets)] = True
    # image[d][u, i] = index of the image of subspace i under generator u
    image = {}
    for d, s in spaces.items():
        moved = field.matmul(s.bases[None], distinct[:, None])
        image[d] = s.index(moved.reshape(-1, *s.bases.shape[1:])).reshape(len(distinct), len(s))
    # shift[t][u, p, i] = position of the image of child i of p among the
    # children of the image of p; each parent's children are sorted, keyed
    # parent * |T_ds| + child (every subspace table is at most the projected
    # count long, so the keys stay below its square).  A fixed span is its
    # own image, and a second-chain span is fixed only by its own double
    # coset's generators, so only those lookups must hit.
    shift = {}
    for (dt, ds, f), table in children.items():
        at = np.argsort(table, axis=1)
        keys = np.take_along_axis(table, at, axis=1)
        keys += np.arange(len(table))[:, None] * len(spaces[ds])
        keys, at = keys.ravel(), at.ravel()
        parent = image[dt] if not f else np.arange(len(table))[None]
        key = parent[:, :, None] * len(spaces[ds]) + image[ds][:, table]
        found = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        hit = keys[found] == key
        if not (hit[used] if f == 2 else hit).all():
            raise RuntimeError("an image child is missing from its image parent")
        shift[dt, ds, f] = at[found]

    which = which.reshape(g, *shape[:1], *[1] * len(radix))
    move = np.broadcast_to(digit[0] * stride[0], (g, *shape)).copy()
    for k, j in enumerate(up):
        if on[k]:
            continue
        if j is None:
            move += image[vdim[k]][which, sub[k]] * stride[k + 1]
        else:
            move += shift[pair[k]][which, sub[j], digit[k + 1]] * stride[k + 1]
    move = move.reshape(g, count)
    inverse = np.full((g, count), -1, np.int64)
    inverse[np.arange(g)[:, None], move] = np.arange(count)
    if (inverse < 0).any():
        raise RuntimeError("a generator does not permute the points")
    return [m for both in zip(move, inverse) for m in both]


def _components(moves: list[np.ndarray], count: int) -> int:
    """Connected components of the graph on range(count) with the edges i -> move[i].

    Each point keeps the least label among itself and its neighbours, and
    then every label jumps to its own label's label until that is fixed.
    A label is always a point of the same component, so at the fixed point
    each component holds one label, the one point labelled by itself.
    """
    point = np.arange(count)
    label = point.copy()
    while True:
        before = label.copy()
        for move in moves:
            np.minimum(label, label[move], out=label)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        if np.array_equal(label, before):
            return int(np.count_nonzero(label == point))
