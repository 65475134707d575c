"""Operation lists of the three workloads, generated from the workload seed.

An operation is a dict with the input ``text`` (it reaches the program
only through ``parse_instance``), the keyword arguments of the engine call
in ``kwargs``, and ``meta``, which the reference checks read and the
program never sees.
"""

from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement, permutations

from reference import flag_point_count

WORKLOADS = ("decide_sweep", "certify_ladder", "orbit_census")

# Five-Grassmannian multisets on which R8 answers Sparse in some factor
# orders although a full-rank point exists.  The first four are those of
# ROADMAP item 1, where _match_r8's first admissible index decides; the
# last four are Sparse in the ascending order as well.
R8_MULTISETS = (
    (7, (1, 1, 1, 3, 4)), (7, (3, 4, 6, 6, 6)), (8, (1, 1, 1, 3, 5)), (8, (3, 5, 7, 7, 7)),
    (6, (1, 1, 1, 3, 3)), (6, (3, 3, 5, 5, 5)), (8, (1, 1, 2, 4, 4)), (8, (4, 4, 6, 7, 7)),
)
# Trees that reach those products through R9: the one of ROADMAP item 1 and
# one whose forgetful image is G(1;6)^3*G(3;6)^2, both Sparse and dense.
R9_TREES = (
    ("v1:1>v0:2>r:7 | v2:4>r:7 | v3:3>r:7 | v4:1>v0:2>r:7 | v6:1>v5:2>r:7", 2),
    ("v1:1>v0:6 | v2:1>v0:6 | v4:1>v3:5>v0:6 | v5:3>v3:5>v0:6 | v6:3>v0:6", 3),
)

# decide_sweep random trees: count and shape.  Root labels stay small so
# that one tree's R9 recursion at depth 3 costs milliseconds, not seconds,
# and the pass time does not hinge on a few seed-dependent giants.  They
# stop at 5 because from 6 on R9 can reach the unsound R8 products above,
# which would make the failed share depend on the seed; those products
# and trees are in the fixed part of the list instead.
TREE_COUNT = 600
TREE_ROOT_LABELS = (4, 5)
TREE_VERTICES = (5, 7)
TREE_DEPTH = 3

# certify_ladder: every F(k1,k2;n)^3 with k1 < k2 < n for n in this range,
# plus larger instances whose verdict a theorem or the dimension count fixes.
LADDER_AMBIENTS = range(4, 11)
LADDER_LARGE = (
    ((4, 7), 12),     # k1 + k2 != n: dense by the theorem
    ((5, 7), 12),     # k1 + k2 = n: sparse by the theorem
    ((6, 7), 14),     # dense by the theorem
    ((6, 8), 14),     # sparse by the theorem
    ((3, 6, 9), 16),  # dimension 270 > 255 = n^2 - 1: sparse
)

# orbit_census: two-flag products up to CENSUS_POINTS points, enumerated at
# the default cap.  The six products of 151,725 points over F_4 are left out:
# with them a pass took 10-15 s, a 30-second run held two passes, and the
# estimates spread by 8-12% between runs.
CENSUS_FIELDS = (2, 3, 4, 5)
CENSUS_MAX_AMBIENT = 4
CENSUS_POINTS = 150_000
POINT_SET_FIELDS = (2, 3, 5)
POINT_SET_SIZES = range(1, 7)


def flag_types(n: int) -> list[tuple[int, ...]]:
    """Nonempty increasing dimension vectors inside F^n, by length then lexicographically."""
    return [c for r in range(1, n) for c in combinations(range(1, n), r)]


def product_text(factors, n: int) -> str:
    return "*".join(f"F({','.join(map(str, f))};{n})" for f in factors)


def dual_factors(factors, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(n - k for k in reversed(f)) for f in factors)


def multiset_key(factors, n: int) -> tuple:
    """Order- and duality-free key of a product: the smaller sorted side."""
    return (n, min(tuple(sorted(factors)), tuple(sorted(dual_factors(factors, n)))))


def _op(text: str, kwargs: dict, **meta) -> dict:
    return {"text": text, "kwargs": kwargs, "meta": meta}


def _random_tree(rng: random.Random) -> tuple[str, list[int], list[int]]:
    """A non-product tree with at least three leaves, as chain text, labels and parents."""
    while True:
        lab = [rng.randint(*TREE_ROOT_LABELS)]
        par = [-1]
        for _ in range(rng.randint(*TREE_VERTICES) - 1):
            p = rng.choice([v for v in range(len(lab)) if lab[v] >= 2])
            lab.append(rng.randint(1, lab[p] - 1))
            par.append(p)
        kids = [0] * len(lab)
        for p in par[1:]:
            kids[p] += 1
        leaves = [v for v in range(len(lab)) if kids[v] == 0]
        if len(leaves) >= 3 and any(kids[v] >= 2 for v in range(1, len(lab))):
            break
    chains = []
    for leaf in leaves:
        path, v = [], leaf
        while v != -1:
            path.append(f"v{v}:{lab[v]}")
            v = par[v]
        chains.append(">".join(path))
    return " | ".join(chains), lab, par


def decide_sweep(seed: int) -> list[dict]:
    ops = []
    for n in range(2, 6):
        for m in range(1, 5):
            for combo in combinations_with_replacement(flag_types(n), m):
                key = multiset_key(combo, n)
                for order in (combo, combo[::-1]):
                    ops.append(_op(product_text(order, n), {}, kind="product",
                                   factors=order, n=n, group=key))
    for n, ks in R8_MULTISETS:
        for order in sorted(set(permutations(ks))):
            factors = tuple((k,) for k in order)
            ops.append(_op("*".join(f"G({k};{n})" for k in order), {}, kind="product",
                           factors=factors, n=n, group=multiset_key(factors, n)))
    for text, depth in R9_TREES:
        ops.append(_op(text, {"depth": depth}, kind="tree", tree=_tree_meta(text)))
    rng = random.Random(seed)
    for _ in range(TREE_COUNT):
        text, lab, par = _random_tree(rng)
        ops.append(_op(text, {"depth": TREE_DEPTH}, kind="tree",
                       tree={"labels": lab, "parents": par}))
    return ops


def _tree_meta(text: str) -> dict:
    """Labels and parent indices of a chain-notation tree, root first."""
    lab: dict[str, int] = {}
    parent: dict[str, str] = {}
    for chain in text.split("|"):
        toks = [t.strip().split(":") for t in chain.split(">")]
        for (a, _), (b, _) in zip(toks, toks[1:]):
            parent[a] = b
        for name, k in toks:
            lab.setdefault(name, int(k))
    names = sorted(lab, key=lambda v: v in parent)  # the root is the one name without a parent
    idx = {v: i for i, v in enumerate(names)}
    return {"labels": [lab[v] for v in names],
            "parents": [idx[parent[v]] if v in parent else -1 for v in names]}


def certify_ladder(seed: int) -> list[dict]:
    del seed  # a fixed list
    ops = []
    for n in LADDER_AMBIENTS:
        for k1, k2 in combinations(range(1, n), 2):
            ops.append(_op(f"F({k1},{k2};{n})^3", {}, flag=(k1, k2), n=n))
    for flag, n in LADDER_LARGE:
        ops.append(_op(f"F({','.join(map(str, flag))};{n})^3", {}, flag=flag, n=n))
    return ops


def orbit_census(seed: int) -> list[dict]:
    del seed  # a fixed list
    ops = []
    for q in CENSUS_FIELDS:
        for n in range(2, CENSUS_MAX_AMBIENT + 1):
            for a, b in combinations_with_replacement(flag_types(n), 2):
                if flag_point_count(a, n, q) * flag_point_count(b, n, q) <= CENSUS_POINTS:
                    ops.append(_op(product_text((a, b), n), {"q": q}, kind="pair",
                                   factors=(a, b), n=n, q=q))
    for q in POINT_SET_FIELDS:
        for m in POINT_SET_SIZES:
            text = " | ".join(f"p{i}:1>r:2" for i in range(m))
            ops.append(_op(text, {"q": q}, kind="points", m=m, q=q))
    return ops


def make_ops(workload: str, seed: int) -> list[dict]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
    return globals()[workload](seed)
