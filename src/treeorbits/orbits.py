"""Exhaustive orbit enumeration over tiny finite fields.

Configurations over F_q (q in {2, 3, 4, 5}) are tuples of subspaces, one
per non-root vertex, nested along the edges.  Orbits are counted on the
fibre over one fixed flag, on numpy arrays, in five steps.

* Reduction.  The vertices on a chain from a root child down to a leaf
  carry a flag, and GL(n, q) acts transitively on that chain's flag
  variety X1.  So the GL-orbits on the variety X match the orbits of the
  stabilizer P of one flag x1 on the fibre over x1: every GL-orbit meets
  that fibre, and g maps a point of it into it exactly when g fixes x1.
  The chain fixed is the one whose X1 has the most points (for a product,
  its largest factor), and x1 is the standard flag span(e_0..e_{d-1}), d
  running over the chain's labels.
  Subspaces are row spans acted on by right multiplication, so P is block
  lower triangular.  It is generated, modulo the scalars, which act
  trivially, by generators of GL in each diagonal block (a cycle, a
  transvection and a primitive scalar in one slot) and one elementary
  matrix linking each pair of adjacent blocks; the scalar of one 1 x 1
  block is redundant and left out.  The fibre has |X| / |X1| points.
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
  the chain.
* Points.  Point i is a mixed-radix number with one digit per non-root
  vertex: the subspace index where the parent is the root, otherwise the
  child's position among the subspaces of its parent.  A chain vertex's
  digit has radix 1.  This numbers the points of the fibre 0..N-1 as a
  grid with one axis per vertex.
* Moves.  The G generators of P form one (G, n, n) stack, which acts on
  each subspace table in one pass: one stacked product and one row
  reduction give the table's images under all G at once.  Where a child
  lands inside the image of its parent is looked up once per (parent,
  child) pair for the whole stack, in the parent's sorted children; the
  moves are then sums of gathers from these tables over the grid, a
  (G, N) int64 array with one row per generator.  Every generator must
  fix the flag, every lookup must hit and every move must permute the
  points.
* Orbits.  They are the connected components of the Schreier graph of the
  moves, found by min-label propagation along every move and its inverse,
  with pointer jumping, until no label changes.

The projected point count of X (a product of Gaussian binomials, one per
edge) is checked against the cap before anything is enumerated, and the
fibre's size times |X1| must equal it.  Every subspace table is an image
of X, so it fits under the cap too.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cache
from itertools import combinations
from math import prod

import numpy as np

from .errors import BadRange, CapExceeded, UnsupportedField
from .products import as_tree
from .trees import heaviest_chain, top_down

DEFAULT_CAP = 200_000


def _check_field(q: int) -> None:
    if isinstance(q, bool) or not isinstance(q, int) or q not in (2, 3, 4, 5):
        raise UnsupportedField(f"field order must be one of 2, 3, 4, 5, got {q!r}")


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
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


def _generators(n: int, field: _Field) -> list[np.ndarray]:
    """Matrices generating GL(n, q) (acting by right multiplication on row spans)."""
    eye = np.eye(n, dtype=np.uint8)
    gens = []
    if n >= 2:
        transvection = eye.copy()
        transvection[0, 1] = 1
        gens += [np.roll(eye, 1, axis=1), transvection]  # the cycle e_i -> e_{i+1}
    if field.q > 2:
        scalar = eye.copy()
        scalar[0, 0] = field.primitive
        gens.append(scalar)
    return gens


def _parabolic_generators(n: int, flag: list[int], field: _Field) -> np.ndarray:
    """Matrices generating, modulo scalars, the stabilizer P of the standard flag.

    The flag is span(e_0..e_{d-1}) for each d in ``flag``; P is block lower
    triangular.  It is generated by ``_generators`` in each diagonal block and
    one elementary matrix linking each pair of adjacent blocks.  The scalar
    of the first 1 x 1 block is left out: it is a scalar matrix times the
    other blocks' scalars.  Returns them stacked, of shape (G, n, n).
    """
    cuts = [0, *sorted(flag), n]
    gens = []
    dropped = False
    for a, b in zip(cuts, cuts[1:]):
        for block in _generators(b - a, field):
            if b - a == 1 and not dropped:
                dropped = True
                continue
            g = np.eye(n, dtype=np.uint8)
            g[a:b, a:b] = block
            gens.append(g)
    for d in cuts[1:-1]:
        g = np.eye(n, dtype=np.uint8)
        g[d, d - 1] = 1
        gens.append(g)
    return np.array(gens, np.uint8).reshape(-1, n, n)


@dataclass(frozen=True)
class OrbitReport:
    """Full orbit census of the configuration variety over F_q."""

    q: int
    cap: int
    point_count: int
    orbit_count: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def projected_point_count(x, q: int) -> int:
    """Exact number of F_q points: product of one Gaussian binomial per edge."""
    tree = as_tree(x)
    _check_field(q)
    total = 1
    for s, t in tree.parent.items():
        total *= gaussian_binomial(tree.labels[t], tree.labels[s], q)
    return total


def enumerate_orbits(x, q: int = 2, cap: int = DEFAULT_CAP) -> OrbitReport:
    """Count GL(n, q) orbits on the F_q points of the configuration variety.

    Only the fibre over one fixed flag is enumerated (see the module
    docstring); ``point_count`` is the variety's full count.  Raises
    CapExceeded (with the exact projected point count) when that count
    exceeds ``cap``, before any work is done.
    """
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise BadRange(f"cap must be a positive integer, got {cap!r}")
    tree = as_tree(x)
    n = tree.ambient
    projected = projected_point_count(tree, q)
    if projected > cap:
        raise CapExceeded(projected, cap)
    field = _field(q)
    # the chain whose flag variety has the most F_q points
    chain, flag_points = heaviest_chain(tree, lambda big, d: gaussian_binomial(big, d, q))
    flag = [tree.labels[v] for v in chain]
    gens = _parabolic_generators(n, flag, field)
    if any(gens[:, :d, d:].any() for d in flag):
        raise RuntimeError("a generator moves the fixed flag")

    order = top_down(tree)
    pos = {v: i for i, v in enumerate(order)}
    # up[k] is the position of the parent of order[k], None where that is the root
    up = [pos.get(tree.parent[v]) for v in order]
    vdim = [tree.labels[v] for v in order]
    free = [v not in chain for v in order]
    spaces = {d: _Subspaces(n, d, field) for d in sorted({d for d, f in zip(vdim, free) if f})}

    # children[dt, ds, f][p] = indices in spaces[ds] of the ds-subspaces inside
    # subspace p of a free parent (f true), or inside the parent's fixed span
    # (f false, p = 0), in the order of _Subspaces(dt, ds)
    pair = [(vdim[j], vdim[k], free[j]) if f and j is not None else None
            for k, (j, f) in enumerate(zip(up, free))]
    children = {}
    for dt, ds, f in set(pair) - {None}:
        parents = spaces[dt].bases if f else np.eye(dt, n, dtype=np.uint8)[None]
        inside = field.matmul(_Subspaces(dt, ds, field).bases[None], parents[:, None])
        children[dt, ds, f] = spaces[ds].index(inside.reshape(-1, ds, n)).reshape(inside.shape[:2])
    radix = [1 if not f else len(spaces[d]) if t is None else children[t].shape[1]
             for d, f, t in zip(vdim, free, pair)]
    count = prod(radix)
    if count * flag_points != projected:
        raise RuntimeError("the fibre over the fixed flag has the wrong number of points")
    moves = _moves(field, gens, spaces, children, up, vdim, free, pair, radix)
    return OrbitReport(q=q, cap=cap, point_count=projected, orbit_count=_components(moves, count))


def _moves(field, gens, spaces, children, up, vdim, free, pair, radix) -> list[np.ndarray]:
    """The generators' permutations of the points and their inverses, as index arrays."""
    # The points form a grid with one axis per vertex, raveled in C order;
    # the axis of a chain vertex has length 1.  digit[k] and sub[k] (the
    # subspace of vertex k, 0 on the chain) vary along the axes of k and its
    # ancestors only, so they stay as small as the chain above k.
    axes = len(radix)
    digit = [np.arange(r).reshape([r if a == k else 1 for a in range(axes)])
             for k, r in enumerate(radix)]
    sub = []
    for k, j in enumerate(up):
        if not free[k]:
            sub.append(0)
        else:
            sub.append(digit[k] if j is None else children[pair[k]][sub[j], digit[k]])
    stride = [prod(radix[k + 1:]) for k in range(axes)]
    count, g = prod(radix), len(gens)

    # image[d][h, i] = index of the image of subspace i under generator h
    image = {}
    for d, s in spaces.items():
        moved = field.matmul(s.bases[None], gens[:, None])
        image[d] = s.index(moved.reshape(-1, *s.bases.shape[1:])).reshape(g, len(s))
    # shift[t][h, p, i] = position of the image of child i of p among the
    # children of the image of p; each parent's children are sorted, keyed
    # parent * |T_ds| + child (every subspace table is at most the projected
    # count long, so the keys stay below its square); the generators fix the
    # spans on the chain
    shift = {}
    for (dt, ds, f), table in children.items():
        at = np.argsort(table, axis=1)
        keys = np.take_along_axis(table, at, axis=1)
        keys += np.arange(len(table))[:, None] * len(spaces[ds])
        keys, at = keys.ravel(), at.ravel()
        parent = image[dt] if f else np.zeros((g, 1), np.int64)
        key = parent[:, :, None] * len(spaces[ds]) + image[ds][:, table]
        found = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        if not np.array_equal(keys[found], key):
            raise RuntimeError("an image child is missing from its image parent")
        shift[dt, ds, f] = at[found]

    move = np.zeros((g, *radix), np.int64)
    for k, j in enumerate(up):
        if not free[k]:
            continue
        if j is None:
            move += image[vdim[k]][:, sub[k]] * stride[k]
        else:
            move += shift[pair[k]][:, sub[j], digit[k]] * stride[k]
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
