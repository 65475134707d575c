"""Acceptance gate: six end-to-end criteria, each with a pinned wall-clock budget.

Every test prints one ACCEPTANCE line on success; run with -s to see them.
"""

import random
import time

import numpy as np
import pytest

from treeorbits import (
    DENSE,
    SPARSE,
    TRIVIALLY_SPARSE,
    UNKNOWN,
    CapExceeded,
    FlagProduct,
    LabeledTree,
    certify_density,
    cross_ratio,
    decide,
    dualize,
    enumerate_orbits,
    orbit_class,
    reduce_half,
    reduce_span,
    tree_to_product,
)
from treeorbits.modp import matmul_mod
from treeorbits.oracle import Configuration, random_config, stabilizer_dim
from treeorbits.orbits import projected_point_count
from treeorbits.parsing import parse_tree_dsl
from treeorbits.products import product_to_tree
from treeorbits.trees import dimension, truncate

from .helpers import burnside_line_orbits, rand_gl, random_product, random_tree

SPARSE_CLASS = {SPARSE, TRIVIALLY_SPARSE}
HONEST_TREE = "a:1>m:3>r:5 | b:1>m | c:2>m | d:2>m"


def _report(criterion: int, elapsed: float, budget: float, detail: str) -> None:
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.2f}s, budget {budget}s"
    print(f"ACCEPTANCE criterion-{criterion} PASS: {detail} in {elapsed:.2f}s")


def test_criterion_1_dimension_equals_truncation_sum():
    start = time.monotonic()
    rng = random.Random(101)
    trees = 0
    for _ in range(200):
        tree = random_tree(rng, max_vertices=12, max_label=30)
        total = dimension(tree)
        deepest = max(tree.distance(v) for v in tree.vertices)
        for m in range(1, deepest + 2):
            res = truncate(tree, m)
            assert total == dimension(res.base) + sum(
                dimension(h) for h in res.hanging
            )
        trees += 1
    _report(1, time.monotonic() - start, 1.0, f"{trees} trees, every cut depth, exact")


def test_criterion_2_two_step_triples_against_field_oracle():
    start = time.monotonic()
    expected_trivial = {(1, 2, 3), (2, 4, 6), (3, 6, 9)}
    checked = 0
    for n in range(3, 11):
        for k2 in range(2, n):
            for k1 in range(1, k2):
                p = FlagProduct(((k1, k2),) * 3, n)
                v = decide(p)
                if k1 + k2 == n:
                    assert v.status in SPARSE_CLASS, (k1, k2, n)
                else:
                    assert v.status == DENSE, (k1, k2, n)
                is_trivial = (k1, k2, n) in expected_trivial
                assert (v.status == TRIVIALLY_SPARSE) == is_trivial, (k1, k2, n)
                report = certify_density(p, trials=3)
                assert report.certified_dense == (v.status == DENSE), (k1, k2, n)
                checked += 1
    assert checked == 120
    _report(2, time.monotonic() - start, 120.0, "120 triples decided and rank-checked")


def test_criterion_3_finiteness_classifier_against_enumeration():
    start = time.monotonic()
    chain = parse_tree_dsl("1>2>4")
    two_leaf = parse_tree_dsl("a:2>r:4 | b:2>r")
    star_112 = parse_tree_dsl("a:1>r:3 | b:1>r | c1:1>c2:2>r")
    tree_123 = parse_tree_dsl("u:1>r:4 | v:1>w:2>r | x:1>y:2>z:3>r")
    tree_125_wide = parse_tree_dsl(
        "t:2>r:6 | s1:1>s2:2>r | c1:1>c2:2>c3:3>c4:4>c5:5>r"
    )
    tree_126_narrow = parse_tree_dsl(
        "t:3>j:7 | s1:2>s2:4>j | c1:1>c2:2>c3:3>c4:4>c5:5>c6:6>j"
    )
    tree_133 = parse_tree_dsl("u:1>r:4 | a1:1>a2:2>a3:3>r | b1:1>b2:2>b3:3>r")
    four_points = FlagProduct(((1,), (1,), (1,), (1,)), 2)

    expected_class = [
        (chain, "Homogeneous", None),
        (two_leaf, "FiniteType", "1"),
        (star_112, "FiniteType", "2a"),
        (tree_123, "FiniteType", "2b"),
        (tree_125_wide, "FiniteType", "2c"),
        (tree_126_narrow, "InfiniteType", None),
        (tree_133, "FiniteType", "2d"),
        (four_points, "InfiniteType", None),
    ]
    for fixture, kind, case_label in expected_class:
        tree = product_to_tree(fixture) if isinstance(fixture, FlagProduct) else fixture
        oc = orbit_class(tree)
        assert (oc.kind, oc.case_label) == (kind, case_label), oc

    # small enough to enumerate: the orbit count must not depend on the field
    for fixture, orbits in ((chain, 1), (two_leaf, 3), (star_112, 12)):
        counts = [enumerate_orbits(fixture, q=q).orbit_count for q in (2, 3)]
        assert counts == [orbits, orbits]

    # the remaining finite fixtures exceed the point cap; the projected
    # counts are exact and the refusal is up-front
    blocked = [
        (tree_123, 496_125, 43_264_000),
        (tree_133, 1_488_375, 173_056_000),
        (tree_125_wide, 782_160_768_585, projected_point_count(tree_125_wide, 3)),
    ]
    for fixture, at2, at3 in blocked:
        for q, projected in ((2, at2), (3, at3)):
            assert projected_point_count(fixture, q) == projected
            assert projected > 200_000
            with pytest.raises(CapExceeded) as exc:
                enumerate_orbits(fixture, q=q)
            assert exc.value.projected == projected

    # infinite type: the count grows with the field, matching Burnside
    growing = [enumerate_orbits(four_points, q=q).orbit_count for q in (2, 3)]
    assert growing == [14, 15]
    assert growing == [burnside_line_orbits(4, q) for q in (2, 3)]
    _report(3, time.monotonic() - start, 60.0, "8 fixtures classified, counts verified")


def test_criterion_4_rule_spot_checks_against_field_oracle():
    start = time.monotonic()

    def last_rule(v):
        return v.trace[-1].rule_id if v.trace else None

    # small joint span: dense, and a random point certifies it
    for p in (FlagProduct(((1,), (2,), (2,)), 5), FlagProduct(((1,), (1,), (1,)), 3)):
        v = decide(p)
        assert v.status == DENSE and last_rule(v) == "R5"
        assert certify_density(p).certified_dense

    # doubling flag self-product: dense
    doubling = FlagProduct(((1, 2, 4),) * 3, 8)
    v = decide(doubling)
    assert v.status == DENSE and last_rule(v) == "R6"
    report = certify_density(doubling)
    assert report.certified_dense and report.variety_dim == 63

    # five Grassmannians with overfull span: sparse, rank strictly short
    five = FlagProduct(((1,), (1,), (2,), (2,), (4,)), 7)
    v = decide(five)
    assert v.status == SPARSE and last_rule(v) == "R8"
    report = certify_density(five, trials=3)
    assert not report.certified_dense
    assert report.variety_dim == 44
    assert max(report.ranks) < 44

    # four points on a line: trivially sparse, rank capped by dim PGL(2)
    four = FlagProduct(((1,),) * 4, 2)
    v = decide(four)
    assert v.status == TRIVIALLY_SPARSE and last_rule(v) == "R1"
    report = certify_density(four, trials=3)
    assert not report.certified_dense
    assert report.variety_dim == 4
    assert max(report.ranks) <= 3
    _report(4, time.monotonic() - start, 120.0, "5 catalog instances rank-checked")


def test_criterion_5_crowded_junction_stays_unknown_but_looks_sparse():
    # four subspaces through a common 3-space in F^5: no rule applies in
    # either direction, and no random point over two primes ever reaches
    # the variety dimension, consistent with sparseness
    start = time.monotonic()
    tree = parse_tree_dsl(HONEST_TREE)
    v = decide(tree)
    assert v.status == UNKNOWN
    assert v.trace == ()
    for prime in (2**31 - 1, 65537):
        report = certify_density(tree, p=prime, trials=5)
        assert not report.certified_dense
        assert report.status == "Inconclusive"
        assert report.variety_dim == 14
        assert len(report.ranks) == 5
        assert all(r < 14 for r in report.ranks)
    _report(5, time.monotonic() - start, 10.0, "Unknown verdict, 10 rank probes short")


def _three_leaf_tree(rng: random.Random) -> LabeledTree:
    """Two chains meeting below the root plus one chain at the root."""
    n = rng.randint(4, 10)
    j = rng.randint(2, n - 1)
    labels = {"r": n, "j": j}
    edges = [("j", "r")]

    def add_chain(prefix: str, top_name: str, top_label: int) -> None:
        length = rng.randint(1, min(3, top_label - 1))
        vals = sorted(rng.sample(range(1, top_label), length))
        names = [f"{prefix}{i}" for i in range(length)]
        labels.update(zip(names, vals))
        edges.extend(zip(names, names[1:]))
        edges.append((names[-1], top_name))

    add_chain("a", "j", j)
    add_chain("b", "j", j)
    add_chain("c", "r", n)
    return LabeledTree(labels, edges)


def _verdicts_agree(a, b) -> None:
    assert (a.status in SPARSE_CLASS) == (b.status in SPARSE_CLASS)
    assert (a.status == DENSE) == (b.status == DENSE)


def test_criterion_6_invariance_suite():
    start = time.monotonic()

    rng = random.Random(61)
    for _ in range(50):
        p = random_product(rng, max_ambient=10)
        assert dualize(dualize(p)) == p
        _verdicts_agree(decide(p), decide(dualize(p)))

    rng = random.Random(62)
    for _ in range(50):
        p = random_product(rng, max_ambient=10)
        perm = list(p.factors)
        rng.shuffle(perm)
        _verdicts_agree(decide(p), decide(FlagProduct(tuple(perm), p.ambient)))

    # each rewrite must preserve the verdict; on small instances the
    # engine answer is cross-checked against the rank certificate
    def check_pair(x, y, oracle_budget: int) -> tuple[int, int]:
        a, b = decide(x), decide(y)
        if UNKNOWN in (a.status, b.status):
            return 0, 0
        _verdicts_agree(a, b)
        if x.ambient <= 8 and oracle_budget > 0:
            certified = certify_density(x, p=10007, trials=2).certified_dense
            assert certified == (a.status == DENSE)
            return 1, 1
        return 1, 0

    rng = random.Random(63)
    seen = decided = oracled = 0
    while seen < 50:
        p = random_product(rng)
        q = reduce_span(p)
        if q is None:
            continue
        seen += 1
        d, o = check_pair(p, q, 10 - oracled)
        decided, oracled = decided + d, oracled + o
    assert decided >= 45 and oracled == 10

    rng = random.Random(64)
    decided = oracled = 0
    for _ in range(50):
        k = tuple(sorted(rng.sample(range(1, 7), rng.randint(1, 3))))
        p = FlagProduct((k,) * 3, 2 * k[-1])
        q = reduce_half(p)
        assert q is not None
        d, o = check_pair(p, q, 10 - oracled)
        decided, oracled = decided + d, oracled + o
    assert decided >= 45 and oracled == 10

    rng = random.Random(65)
    decided = oracled = 0
    for _ in range(50):
        t = _three_leaf_tree(rng)
        q = tree_to_product(t)
        assert q is not None
        d, o = check_pair(t, q, 10 - oracled)
        decided, oracled = decided + d, oracled + o
    assert decided >= 40 and oracled == 10

    # the stabilizer rank only sees the point, not its matrix presentation
    p = 10007
    for i in range(20):
        t = random_tree(random.Random(900 + i), max_vertices=6, max_label=7)
        config = random_config(t, p=p, seed=i)
        base = stabilizer_dim(config).system_rank
        nrng = np.random.default_rng(i)
        changed = {
            v: matmul_mod(b, rand_gl(nrng, b.shape[1], p), p)
            for v, b in config.bases.items()
        }
        alt = Configuration(t, p, config.seed, config.trial, changed)
        assert stabilizer_dim(alt).system_rank == base
        g = rand_gl(nrng, t.ambient, p)
        moved = {v: matmul_mod(g, b, p) for v, b in config.bases.items()}
        alt = Configuration(t, p, config.seed, config.trial, moved)
        assert stabilizer_dim(alt).system_rank == base

    # cross-ratio is unchanged by any projective transformation
    cr_prime = 101
    for i in range(20):
        nrng = np.random.default_rng(1000 + i)
        n = int(nrng.integers(2, 6))
        d = int(nrng.integers(1, n))
        frame = rand_gl(nrng, n, cr_prime)[:, : d + 1]
        lower, u, v = frame[:, : d - 1], frame[:, d - 1], frame[:, d]
        t_val = int(nrng.integers(2, cr_prime))
        params = [(0, 1), (1, 0), (1, 1), (t_val, 1)]
        zs = [
            np.hstack([lower, ((a * u + b * v) % cr_prime)[:, None]])
            for a, b in params
        ]
        assert cross_ratio(zs, lower, frame, cr_prime) == t_val
        g = rand_gl(nrng, n, cr_prime)
        assert cross_ratio(
            [matmul_mod(g, z, cr_prime) for z in zs],
            matmul_mod(g, lower, cr_prime),
            matmul_mod(g, frame, cr_prime),
            cr_prime,
        ) == t_val

    _report(6, time.monotonic() - start, 60.0, "250 invariance checks, 30 rank-backed")
