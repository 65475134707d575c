"""Deterministic generators shared by the test modules."""

from __future__ import annotations

import random
from collections import deque
from functools import lru_cache
from itertools import product as iproduct

import numpy as np

from treeorbits import FlagProduct, LabeledTree
from treeorbits.modp import _left_annihilators, rank_mod


def random_tree(
    rng: random.Random,
    max_vertices: int = 12,
    max_label: int = 30,
) -> LabeledTree:
    """Build a random valid labeled tree.

    Labels are valid by construction: every child label is drawn from
    1..label(parent)-1, so monotonicity never needs a retry.
    """
    root_label = rng.randint(2, max_label)
    labels = {"v0": root_label}
    edges = []
    extra = rng.randint(0, max_vertices - 1)
    for i in range(1, extra + 1):
        candidates = sorted(v for v in labels if labels[v] >= 2)
        if not candidates:
            break
        parent = rng.choice(candidates)
        name = f"v{i}"
        labels[name] = rng.randint(1, labels[parent] - 1)
        edges.append((name, parent))
    return LabeledTree(labels, edges)


def rooted_trees(max_root: int, max_vertices: int) -> list[LabeledTree]:
    """Every label-decreasing rooted tree up to isomorphism, root label 2..max_root, at most max_vertices vertices.

    A tree is built as its shape, (label, sorted tuple of child shapes), by
    vertex count; a forest is a non-increasing tuple of shapes, so each
    multiset of children is listed once.  The root is named ``r`` and the
    other vertices ``v1``, ``v2``, ... in depth-first order.  With root
    label <= 5 and at most 6 vertices there are 1,271 (1,272 with ``r:1``).
    """

    @lru_cache(maxsize=None)
    def shapes(label: int, size: int) -> tuple:
        return tuple((label, kids) for kids in forests(label - 1, size - 1, None))

    @lru_cache(maxsize=None)
    def forests(top: int, size: int, cap) -> tuple:
        # forests of `size` vertices with labels <= top, each shape <= cap
        if size == 0:
            return ((),)
        return tuple((first, *rest)
                     for first_size in range(1, size + 1)
                     for label in range(1, top + 1)
                     for first in shapes(label, first_size) if cap is None or first <= cap
                     for rest in forests(top, size - first_size, first))

    def build(shape) -> LabeledTree:
        labels, edges = {}, []

        def visit(node, name, parent):
            labels[name] = node[0]
            if parent is not None:
                edges.append((name, parent))
            for kid in node[1]:
                visit(kid, f"v{len(labels)}", name)

        visit(shape, "r", None)
        return LabeledTree(labels, edges)

    return [build(shape) for root in range(2, max_root + 1)
            for size in range(1, max_vertices + 1) for shape in shapes(root, size)]


def full_system_rank(config) -> int:
    """Rank of the stabilizer system on all n^2 entries of X, one block per non-root vertex.

    The certificate's system before the chain reduction, kept as the
    reference that ``stabilizer_dim`` must match.
    """
    n, p = config.tree.ambient, config.p
    blocks = [np.zeros((0, n * n), dtype=np.int64)]
    for v in sorted(config.bases):
        b = config.bases[v]
        c = _left_annihilators(b[None], p)[0]
        # condition C X B = 0: coefficient of X[i,j] in row (a,col) is C[a,i] B[j,col]
        blocks.append(np.einsum("ai,jb->abij", c, b).reshape(-1, n * n) % p)
    return rank_mod(np.vstack(blocks), p)


def rand_gl(rng: np.random.Generator, k: int, p: int) -> np.ndarray:
    """A uniform random invertible k x k matrix mod p, by rejection."""
    while True:
        m = rng.integers(0, p, size=(k, k), dtype=np.int64)
        if rank_mod(m, p) == k:
            return m


def reference_rank(a, p: int) -> int:
    """Rank of a mod p by textbook Gaussian elimination on Python ints.

    Independent of ``modp``: no int64, no panels, no stacks.
    """
    rows = [[int(x) % p for x in row] for row in np.asarray(a).tolist()]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for r in range(rank + 1, len(rows)):
            if rows[r][c]:
                f = rows[r][c] * inv % p
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def bfs_distances(tree: LabeledTree) -> dict[str, int]:
    """Edges from every vertex to the root, by breadth-first search down the edges.

    Independent of ``LabeledTree.distance``, which walks up the parent map.
    """
    below = {v: [] for v in tree.labels}
    for s, t in tree.parent.items():
        below[t].append(s)
    dist = {tree.root: 0}
    queue = deque([tree.root])
    while queue:
        t = queue.popleft()
        for s in below[t]:
            dist[s] = dist[t] + 1
            queue.append(s)
    return dist


def random_product(
    rng: random.Random,
    max_ambient: int = 12,
    max_factors: int = 4,
    max_steps: int = 3,
) -> FlagProduct:
    """Build a random valid product of partial flag varieties."""
    n = rng.randint(2, max_ambient)
    count = rng.randint(1, max_factors)
    factors = []
    for _ in range(count):
        size = rng.randint(1, min(max_steps, n - 1))
        factors.append(tuple(sorted(rng.sample(range(1, n), size))))
    return FlagProduct(tuple(factors), n)


def burnside_line_orbits(m: int, q: int) -> int:
    """Count GL(2,q)-orbits on (P^1)^m by averaging fixed points.

    Independent of the package's orbit machinery: enumerates the full
    group and applies Burnside's lemma directly.  q must be prime.
    """

    def norm(v: tuple[int, int]) -> tuple[int, int]:
        a, b = v
        if b % q != 0:
            inv = pow(b, q - 2, q)
            return ((a * inv) % q, 1)
        return (1, 0)

    points = sorted(
        {norm((a, b)) for a in range(q) for b in range(q) if (a, b) != (0, 0)}
    )
    total = 0
    order = 0
    for a, b, c, d in iproduct(range(q), repeat=4):
        if (a * d - b * c) % q == 0:
            continue
        order += 1
        fixed = sum(
            1
            for z in points
            if norm(((a * z[0] + b * z[1]) % q, (c * z[0] + d * z[1]) % q)) == z
        )
        total += fixed**m
    assert total % order == 0
    return total // order


def contingency_count(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    """Number of nonnegative integer matrices with the given row and column sums.

    For the compositions of two flag types this is the number of double
    cosets W_rows \\ S_n / W_cols, the GL(n)-orbits on the pair of flag
    varieties (Bruhat decomposition).
    """
    if not rows:
        return int(not any(cols))
    return sum(
        contingency_count(rows[1:], tuple(c - x for c, x in zip(cols, row)))
        for row in _spread(rows[0], cols)
    )


def _spread(total: int, room: tuple[int, ...]):
    """Every way to write total as a sum of len(room) entries, entry i at most room[i]."""
    if not room:
        if total == 0:
            yield ()
        return
    for x in range(min(total, room[0]) + 1):
        for rest in _spread(total - x, room[1:]):
            yield (x, *rest)


def composition(flag: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Block sizes of a flag type: (a1, a2 - a1, ..., n - ak)."""
    steps = (0, *flag, n)
    return tuple(b - a for a, b in zip(steps, steps[1:]))
