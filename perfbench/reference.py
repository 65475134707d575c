"""Reference computations the benchmark checks the program against.

Everything here is written apart from ``treeorbits`` and uses only the
standard library: the variety dimension from the edge formula, a
stabilizer-rank certificate over F_p with its own random points and its
own elimination, point counts as products of Gaussian binomials, orbit
counts of a pair of flags as double cosets of Young subgroups, and orbits
of m points on the projective line by Burnside's lemma.  ``self_check``
compares each one with values worked out by hand.

A tree is given as ``labels`` (vertex 0 is the root) and ``parents``
(-1 for the root), both lists indexed by vertex.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product as iproduct
from math import factorial

CERT_PRIME = 2**31 - 1
CERT_TRIALS = 2


# -- dimensions ---------------------------------------------------------------

def product_tree(factors, n: int) -> tuple[list[int], list[int]]:
    """Chain-union tree of a flag product: each factor hangs from the root."""
    labels, parents = [n], [-1]
    for f in factors:
        up = 0
        for k in reversed(f):
            labels.append(k)
            parents.append(up)
            up = len(labels) - 1
    return labels, parents


def variety_dim(labels, parents) -> int:
    """Sum of phi(s) (phi(t) - phi(s)) over the edges s -> t."""
    return sum(labels[s] * (labels[t] - labels[s]) for s, t in enumerate(parents) if t >= 0)


def subtree_dims(labels, parents) -> list[int]:
    """Dimension of the configuration variety of the subtree at each vertex."""
    dims = [0] * len(labels)
    for s, t in enumerate(parents):
        edge = labels[s] * (labels[t] - labels[s]) if t >= 0 else 0
        while t >= 0:  # the edge s -> t lies in the subtree of t and of each vertex above it
            dims[t] += edge
            t = parents[t]
    return dims


def trivially_sparse(labels, parents) -> bool:
    """Some subtree is bigger than the group acting on it: dim > phi(v)^2 - 1."""
    return any(d > labels[v] ** 2 - 1 for v, d in enumerate(subtree_dims(labels, parents)))


def two_step_dense(k1: int, k2: int, n: int) -> bool:
    """The theorem: F(k1,k2;n)^3 has a dense orbit exactly when k1 + k2 != n."""
    return k1 + k2 != n


# -- stabilizer-rank certificate over F_p -----------------------------------

def _echelon(rows: list[list[int]], p: int, stop_at: int | None = None) -> tuple[int, list]:
    """Gauss-Jordan elimination mod p; returns the rank and the reduced pivot rows."""
    pivots: dict[int, list[int]] = {}
    for row in rows:
        row = [x % p for x in row]
        for c, prow in pivots.items():
            f = row[c]
            if f:
                row = [(x - f * y) % p for x, y in zip(row, prow)]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = pow(row[lead], p - 2, p)
        row = [x * inv % p for x in row]
        for prow in pivots.values():  # keep earlier pivot rows reduced at the new column
            f = prow[lead]
            if f:
                prow[:] = [(x - f * y) % p for x, y in zip(prow, row)]
        pivots[lead] = row
        if stop_at is not None and len(pivots) >= stop_at:
            break
    return len(pivots), sorted(pivots.items())


def rank_mod(rows: list[list[int]], p: int, stop_at: int | None = None) -> int:
    return _echelon(rows, p, stop_at)[0]


def left_kernel(b: list[list[int]], p: int) -> list[list[int]]:
    """Rows c with c b = 0: the kernel of the transpose of the n x k matrix b."""
    n, k = len(b), len(b[0])
    bt = [[b[i][j] for i in range(n)] for j in range(k)]
    _, piv = _echelon(bt, p)
    pivot_cols = [c for c, _ in piv]
    out = []
    for free in (c for c in range(n) if c not in pivot_cols):
        vec = [0] * n
        vec[free] = 1
        for c, row in piv:
            vec[c] = -row[free] % p
        out.append(vec)
    return out


def _matmul(a, b, p: int) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def random_point(labels, parents, p: int, rng: random.Random) -> list:
    """Bases (n x phi(v), rows first) of a random point, drawn top-down at full rank."""
    bases: list = [None] * len(labels)
    order = sorted(range(1, len(labels)), key=lambda v: _depth(parents, v))
    for v in order:
        up = parents[v]
        while True:
            cand = [[rng.randrange(p) for _ in range(labels[v])] for _ in range(labels[up])]
            if rank_mod(cand, p) == labels[v]:
                break
        bases[v] = cand if up == 0 else _matmul(bases[up], cand, p)
    return bases


def _depth(parents, v: int) -> int:
    d = 0
    while parents[v] >= 0:
        v, d = parents[v], d + 1
    return d


def orbit_rank(labels, parents, bases, p: int, stop_at: int | None = None) -> int:
    """Rank of X -> (X B_v mod span B_v)_v on gl_n: the orbit dimension at the point."""
    n = labels[0]
    rows = []
    for v in range(1, len(labels)):
        b = bases[v]
        for c in left_kernel(b, p):
            for col in range(labels[v]):
                rows.append([c[i] * b[j][col] % p for i in range(n) for j in range(n)])
    return rank_mod(rows, p, stop_at)


def certificate_ranks(labels, parents, p: int = CERT_PRIME, trials: int = CERT_TRIALS,
                      seed: int = 0) -> list[int]:
    """Orbit ranks at ``trials`` random points; stops early once one reaches the dimension."""
    dim = variety_dim(labels, parents)
    ranks = []
    for t in range(trials):
        rng = random.Random(f"{seed}:{t}")
        ranks.append(orbit_rank(labels, parents, random_point(labels, parents, p, rng), p, dim))
        if ranks[-1] == dim:
            break
    return ranks


# -- point and orbit counts over F_q ------------------------------------------

@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-subspaces of F_q^n, by [n,k] = [n-1,k-1] + q^k [n-1,k]."""
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    return gaussian_binomial(n - 1, k - 1, q) + q**k * gaussian_binomial(n - 1, k, q)


def flag_point_count(flag, n: int, q: int) -> int:
    """F_q points of F(flag; n): one Gaussian binomial per step of the chain."""
    total, top = 1, n
    for k in reversed(flag):
        total *= gaussian_binomial(top, k, q)
        top = k
    return total


def composition(flag, n: int) -> tuple[int, ...]:
    ext = (0,) + tuple(flag) + (n,)
    return tuple(b - a for a, b in zip(ext, ext[1:]))


def contingency_count(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    """Nonnegative integer matrices with the given row and column sums."""
    @lru_cache(maxsize=None)
    def count(i: int, left: tuple[int, ...]) -> int:
        if i == len(rows):
            return 1 if not any(left) else 0
        return sum(count(i + 1, tuple(c - x for c, x in zip(left, split)))
                   for split in _splits(rows[i], left))
    return count(0, tuple(cols))


def _splits(total: int, caps: tuple[int, ...]):
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    for x in range(min(total, caps[0]) + 1):
        for rest in _splits(total - x, caps[1:]):
            yield (x,) + rest


def flag_pair_orbits(a, b, n: int) -> int:
    """GL(n) orbits on F(a;n) x F(b;n): double cosets W_alpha \\ S_n / W_beta (Bruhat)."""
    return contingency_count(composition(a, n), composition(b, n))


def points_on_line_orbits(m: int, q: int) -> int:
    """GL(2,q) orbits on (P^1)^m over a prime field, by Burnside's lemma."""
    line = [(1, 0)] + [(x, 1) for x in range(q)]

    def norm(u, v):
        if v % q:
            return (u * pow(v, q - 2, q) % q, 1)
        return (1, 0)

    total = order = 0
    for a, b, c, d in iproduct(range(q), repeat=4):
        if (a * d - b * c) % q == 0:
            continue
        order += 1
        fixed = sum(norm(a * x + b * y, c * x + d * y) == (x, y) for x, y in line)
        total += fixed**m
    return total // order


# -- self-check against hand values ------------------------------------------

def self_check() -> None:
    """Raise AssertionError unless every reference matches its hand-worked values."""
    def ok(cond, what):
        if not cond:
            raise AssertionError(f"reference self-check failed: {what}")

    ok(variety_dim(*product_tree([(2,)], 4)) == 4, "dim G(2;4) = 2 * 2")
    ok(variety_dim(*product_tree([(1, 2)], 3)) == 3, "dim F(1,2;3) = 1 + 2")
    ok(variety_dim([4, 2, 2], [-1, 0, 0]) == 8, "dim of a:2>r:4 | b:2>r")
    ok(subtree_dims([5, 3, 1, 1], [-1, 0, 1, 1]) == [10, 4, 0, 0], "subtree dimensions")
    ok(trivially_sparse(*product_tree([(1,)] * 4, 2)), "four points on P^1: dim 4 > 3")
    ok(not trivially_sparse(*product_tree([(1,)] * 3, 2)), "three points on P^1: dim 3 = 3")
    ok(trivially_sparse([3, 2, 1, 1, 1, 1], [-1, 0, 1, 1, 1, 1]),
       "four points on the line inside F^3: the subtree at the 2 has dim 4 > 3")
    ok(gaussian_binomial(4, 2, 2) == 35 and gaussian_binomial(3, 1, 3) == 13, "Gaussian binomials")
    ok(flag_point_count((1, 2), 3, 2) == 21, "F(1,2;3) over F_2: 7 * 3 points")
    ok(flag_pair_orbits((1, 2), (1, 2), 3) == 6 and flag_pair_orbits((1, 2, 3), (1, 2, 3), 4) == 24,
       "two full flags in F^n: n! orbits")
    ok(flag_pair_orbits((1,), (1,), 3) == 2, "two points of P^2: equal or not")
    ok(flag_pair_orbits((2,), (2,), 4) == 3, "two planes in F^4: meet in 2, 1 or 0 dimensions")
    ok(all(flag_pair_orbits(a, a, n) == factorial(n)
           for n, a in ((2, (1,)), (5, (1, 2, 3, 4)))), "full flags, n = 2 and 5")
    ok([points_on_line_orbits(4, q) for q in (2, 3, 5)] == [14, 15, 17],
       "four points on P^1 over F_2, F_3, F_5")
    ok(points_on_line_orbits(3, 2) == 5, "three points on P^1 over F_2: 1 + 3 + 1 patterns")
    ok(rank_mod([[1, 2], [2, 4]], 7) == 1 and rank_mod([[1, 2], [3, 4]], 7) == 2, "ranks mod 7")
    ok(_matmul(left_kernel([[1, 0], [0, 1], [1, 1]], 5), [[1, 0], [0, 1], [1, 1]], 5) == [[0, 0]],
       "left kernel")
    # F(1,3;5)^3 is dense (1 + 3 != 5): a random point reaches rank dim = 24;
    # F(2,3;5)^3 is sparse (2 + 3 = 5): no point does.
    dense, sparse = product_tree([(1, 3)] * 3, 5), product_tree([(2, 3)] * 3, 5)
    ok(certificate_ranks(*dense)[-1] == 24, "F(1,3;5)^3 certifies at rank 24")
    ok(max(certificate_ranks(*sparse)) < variety_dim(*sparse) == 24, "F(2,3;5)^3 stays below 24")
    ok(certificate_ranks(*product_tree([(1,)] * 4, 3))[-1] == 8, "four points of P^2 certify at 8")
