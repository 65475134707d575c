"""Exhaustive orbit counts over tiny fields against closed-form and Burnside oracles."""

import gc
import hashlib
import random
import tracemalloc
from collections import Counter
from dataclasses import asdict
from functools import partial
from itertools import combinations, combinations_with_replacement
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeorbits import CapExceeded, FlagProduct, dualize, enumerate_orbits, orbit_class, orbits, parse_instance
from treeorbits.errors import BadRange, UnsupportedField
from treeorbits.orbits import (
    DEFAULT_CAP,
    _blocks,
    _double_cosets,
    _Field,
    _pattern_order,
    _stabilizer_stack,
    gaussian_binomial,
    projected_point_count,
)
from treeorbits.parsing import parse_tree_dsl
from treeorbits.products import as_tree
from treeorbits.trees import MAX_LABEL, heaviest_chains, to_dsl

from .helpers import burnside_line_orbits, composition, contingency_count, random_tree

FOUR_POINTS = FlagProduct(((1,), (1,), (1,), (1,)), 2)

# sha256 of repr() of the (point_count, orbit_count) list of
# TestCountInvariants.test_pinned_digest (1,708 enumerations), taken from the
# enumerator that fixed one flag only and reduced no second factor
RANDOM_TREE_DIGEST = "8089d2fbacae28fcf29aea75a60288b33462ef7d6a302371f3da20380bb01d16"
# the same for TestCountInvariants.test_pinned_digest_of_branching_roots (457
# enumerations), taken from the same enumerator
BRANCHING_ROOT_DIGEST = "f8162152f7680af65b1c88d312c253f67e3da3123d6c4489f6c1bb501fb01a9c"


class TestGaussianBinomial:
    @pytest.mark.parametrize(
        "n,k,q,value",
        [
            (4, 2, 2, 35),
            (4, 2, 3, 130),
            (6, 2, 2, 651),
            (4, 1, 3, 40),
            (3, 2, 3, 13),
            (5, 5, 2, 1),
            (5, 0, 3, 1),
        ],
    )
    def test_frozen_values(self, n, k, q, value):
        assert gaussian_binomial(n, k, q) == value

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_projective_line(self, q):
        assert gaussian_binomial(2, 1, q) == q + 1

    def test_out_of_range_is_zero(self):
        assert gaussian_binomial(3, 4, 2) == 0
        assert gaussian_binomial(3, -1, 2) == 0

    @given(st.integers(0, 8), st.integers(0, 8), st.sampled_from([2, 3, 4, 5]))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, n, k, q):
        assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)

    @pytest.mark.parametrize("q", [1, 0, -2, 2.5, 2.0, True, "2", None])
    def test_bad_field_order(self, q):
        # q = 1 divided by zero, q = 0 and q = -2 gave 1 and 3, q = 2.5 gave 9.0
        with pytest.raises(BadRange):
            gaussian_binomial(2, 1, q)

    @pytest.mark.parametrize("n,k", [(2, True), (True, 0), (2.0, 1), (4, 2.0), ("4", 2), (4, None)])
    def test_bad_dimensions(self, n, k):
        with pytest.raises(BadRange):
            gaussian_binomial(n, k, 2)


class TestFieldTables:
    def test_gf4_multiplication(self):
        field = _Field(4)
        assert field.mul[2, 2] == 3
        assert field.mul[2, 3] == 1
        assert field.mul[3, 3] == 2
        assert field.add[1, 2] == 3
        assert field.add[2, 2] == 0
        assert field.neg[3] == 3
        assert field.primitive == 2

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_inverses(self, q):
        field = _Field(q)
        for a in range(1, q):
            assert field.mul[a, field.inv[a]] == 1

    @pytest.mark.parametrize("q", [3, 4, 5])
    def test_primitive_generates(self, q):
        field = _Field(q)
        powers = set()
        x = 1
        for _ in range(q - 1):
            x = int(field.mul[x, field.primitive])
            powers.add(x)
        assert powers == set(range(1, q))

    def test_unsupported(self):
        for q in (1, 6, 7, 9):
            with pytest.raises(UnsupportedField):
                _Field(q)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_field_axioms(self, q):
        field = _Field(q)
        add, mul, e = field.add, field.mul, range(q)
        for a in e:
            assert add[a, 0] == a and mul[a, 1] == a
            assert add[a, field.neg[a]] == 0
            if a:
                assert mul[a, field.inv[a]] == 1
            for b in e:
                assert add[a, b] == add[b, a] and mul[a, b] == mul[b, a]
                for c in e:
                    assert add[add[a, b], c] == add[a, add[b, c]]
                    assert mul[mul[a, b], c] == mul[a, mul[b, c]]
                    assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]


def _gl_order(n: int, q: int) -> int:
    return prod(q**n - q**i for i in range(n))


def _closure_order(gens, field):
    """Order of the group that a (G, n, n) stack of invertible matrices generates."""
    n = gens.shape[-1]
    place = field.q ** np.arange(n * n, dtype=np.int64).reshape(n, n)

    def code(m):
        return (m.astype(np.int64) * place).sum(axis=(-2, -1))

    frontier = np.eye(n, dtype=np.uint8)[None]
    seen = code(frontier)
    while len(frontier):
        products = field.matmul(frontier[:, None], gens[None]).reshape(-1, n, n)
        keys, first = np.unique(code(products), return_index=True)
        fresh = ~np.isin(keys, seen)
        frontier, seen = products[first[fresh]], np.concatenate([seen, keys[fresh]])
    return len(seen)


def _flag_types(n: int) -> list[tuple[int, ...]]:
    """Every flag type in F^n, the empty one first."""
    return [c for r in range(n) for c in combinations(range(1, n), r)]


def _levels(coset) -> list[tuple[int, int]]:
    """Each basis vector's (first, second) level under a double coset's record."""
    return [(a, b) for a, b, m in coset for _ in range(m)]


def _entry_order(pairs, q: int) -> int:
    """Order of the pattern group of the level pairs, counted entry by entry."""
    sizes = Counter(pairs).values()
    linking = sum(s <= t and u <= v and (s, u) != (t, v) for s, u in pairs for t, v in pairs)
    return prod(_gl_order(m, q) for m in sizes) * q**linking


class TestDoubleCosets:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_cover_the_second_flag_variety(self, n, q):
        # for every pair of flag types the records are the distinct integer
        # matrices with the two block sizes as margins, each |H_w| is the
        # entry-by-entry count, and the orbits |P1| / |H_w| of P1 on the
        # second flag variety add up to its size, a Gaussian multinomial
        gl = [_gl_order(m, q) for m in range(n + 1)]
        checked = 0
        for a in _flag_types(n):
            rows = _blocks(list(a), n)
            # P1 is the pattern group of the first flag alone
            first = tuple((i, 0, m) for i, m in enumerate(rows))
            p1 = _pattern_order(first, q, gl)
            assert p1 == _entry_order(_levels(first), q)
            for b in _flag_types(n):
                cols = _blocks(list(b), n)
                cosets = _double_cosets(rows, cols)
                assert len(cosets) == len(set(cosets)) == contingency_count(rows, cols), (a, b)
                for w in cosets:
                    assert all(m > 0 for _, _, m in w), (a, b, w)
                    assert [sum(m for i, _, m in w if i == r) for r in range(len(rows))] == rows
                    assert [sum(m for _, j, m in w if j == c) for c in range(len(cols))] == cols
                orders = [_pattern_order(w, q, gl) for w in cosets]
                assert orders == [_entry_order(_levels(w), q) for w in cosets], (a, b)
                x2 = prod(gaussian_binomial(sum(cols[:i + 1]), c, q) for i, c in enumerate(cols))
                assert sum(p1 // h for h in orders) == x2, (a, b)
                checked += len(cosets)
        assert checked == {1: 1, 2: 5, 3: 33, 4: 281, 5: 2_961}[n]


class TestStabilizerGenerators:
    @pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (4, 2)])
    def test_generate_the_stabilizer_of_both_flags(self, n, q):
        # for every pair of flag types (the second one empty included) and
        # every double coset, with the scalar matrices they generate exactly
        # the pattern group, of order prod |GL(class)| * q^(allowed entries
        # linking two classes), and each of them fixes both coordinate flags
        field = _Field(q)
        gl = [_gl_order(m, q) for m in range(n + 1)]
        scalars = np.array([np.eye(n, dtype=np.uint8) * c for c in range(1, q)])
        types = _flag_types(n)
        checked = 0
        for a in types[1:]:
            rows = _blocks(list(a), n)
            for b in types:
                cosets = _double_cosets(rows, _blocks(list(b), n))
                assert len(cosets) == contingency_count(rows, _blocks(list(b), n))
                for coset in cosets:
                    distinct, which = _stabilizer_stack([coset], field)
                    gens = distinct[which[:, 0]]
                    pairs = _levels(coset)
                    level1, level2 = zip(*pairs)
                    # the first flag's levels are its blocks, read off the rows
                    assert list(level1) == [i for i, m in enumerate(rows) for _ in range(m)]
                    spans = [[i for i in range(n) if i < d] for d in a]
                    spans += [[i for i in range(n) if level2[i] <= k] for k in range(len(b))]
                    for g in gens:
                        for span in spans:
                            rest = [j for j in range(n) if j not in span]
                            assert not g[np.ix_(span, rest)].any(), (a, b, coset)
                    # the pattern group's order, counted entry by entry
                    expected = _entry_order(pairs, q)
                    assert _pattern_order(coset, q, gl) == expected, (a, b, coset)
                    order = _closure_order(np.concatenate([gens, scalars]), field)
                    assert order == expected, (a, b, coset)
                    checked += 1
        assert checked == {2: 3, 3: 29, 4: 273}[n]


class TestChecksRun:
    @pytest.mark.parametrize("spec", ["F(1;3)*F(1,2;3)", "a:1>b:2>r:3 | c:2>r"])
    def test_a_dropped_double_coset_is_caught(self, spec, monkeypatch):
        # two flags with no free vertex: the answer is the number of double
        # cosets, and the cover identity still runs before it is returned
        x = parse_instance(spec)
        assert enumerate_orbits(x, q=2).orbit_count == 3
        listed = orbits._double_cosets
        monkeypatch.setattr(orbits, "_double_cosets", lambda rows, cols: listed(rows, cols)[1:])
        with pytest.raises(RuntimeError, match="do not cover"):
            enumerate_orbits(x, q=2)


class TestProductsOnFactors:
    def test_two_flags_build_no_tree(self, monkeypatch):
        # the cap, the fibre and cover checks and a two-flag answer read the
        # factors; the tree is built only for a factor on neither chain
        def refuse(p):
            raise AssertionError(f"built the tree of {p}")

        monkeypatch.setattr(orbits, "product_to_tree", refuse)
        monkeypatch.setattr("treeorbits.products.product_to_tree", refuse)
        assert enumerate_orbits(parse_instance("F(1,2,3;4)^2"), q=2).orbit_count == 24
        assert enumerate_orbits(parse_instance("F(1;4)*F(1,2;4)"), q=4).orbit_count == 3
        with pytest.raises(CapExceeded) as exc:
            enumerate_orbits(parse_instance("F(1,2,3;4)^3"), q=2)
        assert exc.value.projected == 31_255_875
        with pytest.raises(AssertionError, match="built the tree"):
            enumerate_orbits(parse_instance("F(1;3)*F(2;3)*F(1,2;3)"), q=2)

    def test_argument_errors_keep_their_order(self):
        # the cap first, then the instance, then the field
        product = parse_instance("F(1;2)^2")
        with pytest.raises(BadRange):
            enumerate_orbits("F(1;2)^2", q=7, cap=0)
        with pytest.raises(BadRange):
            enumerate_orbits(product, q=7, cap=0)
        with pytest.raises(TypeError):
            enumerate_orbits("F(1;2)^2", q=7)
        with pytest.raises(TypeError):
            projected_point_count("F(1;2)^2", 7)
        with pytest.raises(UnsupportedField):
            enumerate_orbits(product, q=7)
        with pytest.raises(UnsupportedField):
            projected_point_count(product, 7)


class TestHomogeneousCounts:
    @pytest.mark.parametrize(
        "spec,q,points",
        [
            ("1>2>4", 2, 105),
            ("1>2>4", 3, 520),
            ("1>2", 3, 4),
            ("1>2", 5, 6),
            ("2>4", 2, 35),
            ("1>2>3", 2, 21),
        ],
    )
    def test_single_orbit(self, spec, q, points):
        report = enumerate_orbits(parse_tree_dsl(spec), q=q)
        assert report.point_count == points
        assert report.orbit_count == 1


class TestSmallConfigurations:
    def test_two_planes(self):
        tree = parse_tree_dsl("a:2>r:4 | b:2>r")
        r2 = enumerate_orbits(tree, q=2)
        assert (r2.point_count, r2.orbit_count) == (1225, 3)
        r3 = enumerate_orbits(tree, q=3)
        assert (r3.point_count, r3.orbit_count) == (16900, 3)

    def test_pair_of_points(self):
        pair = FlagProduct(((1,), (1,)), 2)
        r2 = enumerate_orbits(pair, q=2)
        assert (r2.point_count, r2.orbit_count) == (9, 2)
        r4 = enumerate_orbits(pair, q=4)
        assert (r4.point_count, r4.orbit_count) == (25, 2)

    def test_two_lines_and_a_flag(self):
        tree = parse_tree_dsl("a:1>r:3 | b:1>r | c1:1>c2:2>r")
        r2 = enumerate_orbits(tree, q=2)
        assert (r2.point_count, r2.orbit_count) == (1029, 12)
        r3 = enumerate_orbits(tree, q=3)
        assert (r3.point_count, r3.orbit_count) == (8788, 12)

    # distinct quadruples give one orbit per attainable cross-ratio, q - 2 of them
    @pytest.mark.parametrize("q,orbits", [(2, 14), (3, 15), (4, 16), (5, 17)])
    def test_four_points_on_a_line(self, q, orbits):
        report = enumerate_orbits(FOUR_POINTS, q=q)
        assert report.point_count == (q + 1) ** 4
        assert report.orbit_count == orbits

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_four_points_match_burnside(self, q):
        report = enumerate_orbits(FOUR_POINTS, q=q)
        assert report.orbit_count == burnside_line_orbits(4, q)

    def test_report_serialization(self):
        record = asdict(enumerate_orbits(parse_tree_dsl("1>2"), q=2))
        assert record == {
            "q": 2,
            "cap": 200_000,
            "point_count": 3,
            "orbit_count": 1,
        }


class TestExhaustiveGates:
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_two_flags_match_bruhat(self, n, q):
        # GL(n) orbits on F(a;n) x F(b;n) are the double cosets W_a \ S_n / W_b
        types = [c for r in range(1, n) for c in combinations(range(1, n), r)]
        checked = 0
        for a, b in combinations_with_replacement(types, 2):
            pair = FlagProduct((a, b), n)
            if projected_point_count(pair, q) > DEFAULT_CAP:
                continue
            report = enumerate_orbits(pair, q=q)
            expected = contingency_count(composition(a, n), composition(b, n))
            assert report.orbit_count == expected, (a, b)
            checked += 1
        assert checked >= len(types)

    def test_two_flags_ignore_order_and_duality(self):
        # the fixed chain, and so the fibre and the generators, change with
        # factor order and duality; the counts must not
        checked = 0
        for q in (2, 3):
            for n in (2, 3, 4):
                types = [c for r in range(1, n) for c in combinations(range(1, n), r)]
                for a, b in combinations_with_replacement(types, 2):
                    pair = FlagProduct((a, b), n)
                    if projected_point_count(pair, q) > DEFAULT_CAP:
                        continue
                    counts = {(r.point_count, r.orbit_count) for r in (
                        enumerate_orbits(x, q=q)
                        for x in (pair, FlagProduct((b, a), n), dualize(pair)))}
                    assert len(counts) == 1, (a, b, n, q, counts)
                    checked += 1
        assert checked == 59

    def test_finite_orbit_class_counts_agree_over_two_fields(self):
        """A finite ``orbit_class`` gives equal orbit counts over F_2 and F_3.

        A check on a seeded family, not a theorem.  The finite direction
        has this sketch.  The stabilizer in GL(n) of a configuration is the
        unit group of the algebra of endomorphisms keeping every subspace,
        an open subset of a vector space, so it is connected.  By Lang's
        theorem, each orbit defined over F_q then has its F_q-points in one
        GL(n, F_q)-orbit, so the F_q-orbits are counted by the orbits defined
        over F_q.  In finite type an orbit is a sum of indecomposables with
        given multiplicities, each defined over the prime field, so every
        orbit counts, for every q.
        """
        # the other direction is only observed: each of the 118 enumerable
        # trees here with an infinite orbit_class has more orbits over F_3
        rng = random.Random(0)
        enumerable = finite = 0
        for _ in range(1_000):
            tree = random_tree(rng, max_vertices=6, max_label=5)
            if max(projected_point_count(tree, q) for q in (2, 3)) > DEFAULT_CAP:
                continue
            enumerable += 1
            if orbit_class(tree).finite:
                finite += 1
                counts = [enumerate_orbits(tree, q=q).orbit_count for q in (2, 3)]
                assert counts[0] == counts[1], (to_dsl(tree), counts)
        assert (enumerable, finite) == (798, 680)

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_points_on_a_line_match_burnside(self, m, q):
        report = enumerate_orbits(FlagProduct(((1,),) * m, 2), q=q)
        assert report.point_count == (q + 1) ** m
        assert report.orbit_count == burnside_line_orbits(m, q)


class TestResources:
    def test_no_reference_cycle_left(self):
        # the whole working set is freed by reference counting on return; the
        # third plane is off both fixed chains, so its fibres are enumerated
        gc.collect()
        gc.disable()
        try:
            report = enumerate_orbits(parse_instance("F(2;4)^3"), q=2)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert (report.point_count, report.orbit_count) == (42_875, 17)

    def test_working_set_stays_linear(self):
        # the chains e>c and f>d are fixed, and a lies under the free b, so
        # the enumerator walks 11 double cosets times a fibre of 465 points,
        # not the 547,409,625 points of the variety, whose one int64 array
        # would take 4.4 GB.  The measured peak is 0.94 MB (Python 3.11,
        # numpy 2.4)
        tree = parse_tree_dsl("a:1>b:2>r:5 | c:1>e:3>r | d:1>f:3>r")
        tracemalloc.start()
        try:
            report = enumerate_orbits(tree, q=2, cap=10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.point_count, report.orbit_count) == (547_409_625, 409)
        assert peak < 4 * 2**20

    def test_raised_cap_count(self):
        # refused at the default cap; the count was read off the earlier,
        # dict-based enumerator at the same raised cap
        cube = parse_instance("F(1,2;4)^3")
        assert projected_point_count(cube, 2) > DEFAULT_CAP
        report = enumerate_orbits(cube, q=2, cap=1_200_000)
        assert (report.point_count, report.orbit_count) == (1_157_625, 156)

    @pytest.mark.parametrize(
        "spec,cap,points,orbits",
        [
            ("F(1,3;4)^3", 1_200_000, 1_157_625, 156),
            ("G(2;5)^3", 4_000_000, 3_723_875, 21),
        ],
    )
    def test_raised_cap_triple_products(self, spec, cap, points, orbits):
        # refused at the default cap; the counts were read off the earlier
        # enumerator, which walked every point, at the same raised caps
        x = parse_instance(spec)
        assert projected_point_count(x, 2) > DEFAULT_CAP
        report = enumerate_orbits(x, q=2, cap=cap)
        assert (report.point_count, report.orbit_count) == (points, orbits)

    def test_stacked_moves_stay_small(self):
        # the moves of all G generators of both double cosets are built as one
        # (G, 2 N) stack; on the 2 x 441 fibre points over F_4 the measured
        # peak is 0.14 MB (Python 3.11, numpy 2.4)
        x = parse_instance("F(1;3)^3*F(2;3)")
        tracemalloc.start()
        try:
            report = enumerate_orbits(x, q=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.point_count, report.orbit_count) == (194_481, 27)
        assert peak < 8 * 2**20

    def test_only_the_fibre_is_enumerated(self):
        # walking all 3,723,875 points took a 256 MB tracemalloc peak; the
        # fibres over two fixed planes, one per double coset, have 3 x 155
        # points and the measured peak is 0.55 MB (Python 3.11, numpy 2.4)
        cube = parse_instance("G(2;5)^3")
        tracemalloc.start()
        try:
            enumerate_orbits(cube, q=2, cap=4_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


class TestSideBranches:
    # side branches hang off the fixed chains (the census has none of these);
    # the counts were read off earlier enumerators, which walked every point
    # or fixed one flag only
    @pytest.mark.parametrize(
        "spec,q,points,orbits",
        [
            ("a:1>b:2>r:4 | c:1>b", 2, 315, 2),
            ("a:1>b:2>r:4 | c:1>b", 3, 2_080, 2),
            ("a:1>b:2>r:4 | c:1>b | d:2>r", 2, 11_025, 9),
            ("a:1>b:3>r:4 | c:2>b | d:1>r", 2, 11_025, 8),
            # the same tree with a and c renamed: the fixed chain is now the
            # flag (2, 3) in place of (1, 3)
            ("c:1>b:3>r:4 | a:2>b | d:1>r", 2, 11_025, 8),
            ("a:1>b:2>c:3>r:4 | d:1>c | e:2>c", 2, 15_435, 12),
            ("a:2>b:3>r:5 | c:1>b", 2, 7_595, 2),
            # a side branch on each fixed chain
            ("a:1>p:2>r:4 | b:1>p | c:1>s:2>r | d:1>s", 2, 99_225, 43),
            ("a:1>p:2>r:3 | b:1>p | c:1>s:2>r | d:1>s", 3, 43_264, 40),
            ("r:3", 2, 1, 1),
        ],
    )
    def test_golden_counts(self, spec, q, points, orbits):
        report = enumerate_orbits(parse_tree_dsl(spec), q=q)
        assert (report.point_count, report.orbit_count) == (points, orbits)

    @pytest.mark.parametrize(
        "spec,chain,points",
        [
            ("x:1>r:4 | a:1>b:3>r", ["b", "a"], 105),
            ("a:1>b:2>r:4 | c:1>b | d:2>r", ["b", "a"], 105),
            ("a:2>b:3>r:5 | c:1>b | d:4>r", ["b", "a"], 1_085),
            ("r:3", [], 1),
        ],
    )
    def test_fixed_chain_has_the_most_points(self, spec, chain, points):
        # the enumerator's weight: each edge's Grassmannian point count over F_2
        weight = partial(gaussian_binomial, q=2)
        assert heaviest_chains(parse_tree_dsl(spec), weight)[0] == (chain, points)


class TestCaps:
    def test_cap_checked_before_work(self):
        with pytest.raises(CapExceeded) as exc:
            enumerate_orbits(parse_tree_dsl("1>2>4"), q=2, cap=100)
        assert exc.value.projected == 105
        assert exc.value.cap == 100

    def test_three_branch_fixture_exceeds_default_cap(self):
        tree = parse_tree_dsl("u:1>r:4 | v:1>w:2>r | x:1>y:2>z:3>r")
        for q, projected in ((2, 496_125), (3, 43_264_000)):
            assert projected_point_count(tree, q) == projected
            with pytest.raises(CapExceeded) as exc:
                enumerate_orbits(tree, q=q)
            assert exc.value.projected == projected

    def test_large_dimension_refused_before_any_count(self, monkeypatch):
        # every [n k]_q is at least 2^{k(n-k)}: past _EXACT_DIM a variety of
        # dimension at least the cap's bit length is refused with 2^dim
        def count(*args):
            raise AssertionError("counted")

        monkeypatch.setattr(orbits, "gaussian_binomial", count)
        for text, dim in (("a:4000>r:8000", 16_000_000), ("G(1;2)^10000", 10_000),
                          (f"G(1;{orbits._EXACT_DIM + 2})", orbits._EXACT_DIM + 1),
                          # labels and the factor count at their limit: the
                          # bound is kept as its exponent, 2^dim is never built
                          (f"a:{MAX_LABEL // 2}>r:{MAX_LABEL}", MAX_LABEL**2 // 4),
                          (f"G({MAX_LABEL // 2};{MAX_LABEL})^{MAX_LABEL}", MAX_LABEL**3 // 4)):
            with pytest.raises(CapExceeded) as exc:
                enumerate_orbits(parse_instance(text), q=2)
            assert exc.value.projected is None, text
            assert exc.value.log2_bound == dim, text
            assert str(exc.value) == f"enumeration needs at least 2^{dim} points, cap is 200000"

    def test_exact_count_up_to_the_exact_dimension(self):
        # G(1;n) has dimension n - 1 and (q^n - 1)/(q - 1) points over F_q
        n = orbits._EXACT_DIM + 1
        for x in (parse_instance(f"G(1;{n})"), parse_instance(f"G({n - 1};{n})")):
            with pytest.raises(CapExceeded) as exc:
                enumerate_orbits(x, q=3)
            assert exc.value.projected == (3**n - 1) // 2 == projected_point_count(x, 3)
        # past _EXACT_DIM with a cap of more bits than the dimension, the
        # exact count decides
        x = parse_instance(f"G(1;{n + 1})")
        with pytest.raises(CapExceeded) as exc:
            enumerate_orbits(x, q=2, cap=1 << n)
        assert exc.value.projected == (1 << n + 1) - 1

    def test_equal_factors_are_counted_as_one_power(self):
        # one flag count and one exponentiation, not a million products
        assert projected_point_count(FlagProduct(((1,),) * 10**6, 2), 2) == 3 ** 10**6

    def test_wide_fixture_projection(self):
        tree = parse_tree_dsl(
            "t:2>r:6 | s1:1>s2:2>r | c1:1>c2:2>c3:3>c4:4>c5:5>r"
        )
        assert projected_point_count(tree, 2) == 782_160_768_585
        with pytest.raises(CapExceeded):
            enumerate_orbits(tree, q=2)

    def test_bad_cap(self):
        for cap in (0, -1, 1.5, True, False, "10"):
            with pytest.raises(BadRange):
                enumerate_orbits(parse_tree_dsl("1>2"), q=2, cap=cap)

    def test_unsupported_field(self):
        for q in (1, 6, 7):
            with pytest.raises(UnsupportedField):
                enumerate_orbits(parse_tree_dsl("1>2"), q=q)

    def test_field_order_must_be_an_int(self):
        # 2.0 == 2, so only the type tells a float order from an int one
        tree = parse_tree_dsl("1>2")
        for q in (2.0, 3.0, True, "2", None):
            with pytest.raises(UnsupportedField):
                enumerate_orbits(tree, q=q)
            with pytest.raises(UnsupportedField):
                projected_point_count(tree, q)
            with pytest.raises(UnsupportedField):
                _Field(q)


class TestCountInvariants:
    def test_pinned_digest(self):
        # every tree of the family at every field within the cap; side
        # branches on the first chain and trees with one root child occur
        rng = random.Random(5)
        counts = []
        for _ in range(600):
            tree = random_tree(rng, max_vertices=7, max_label=5)
            for q in (2, 3, 4, 5):
                if projected_point_count(tree, q) <= DEFAULT_CAP:
                    report = enumerate_orbits(tree, q=q)
                    counts.append((report.point_count, report.orbit_count))
        assert len(counts) == 1_708
        assert hashlib.sha256(repr(counts).encode()).hexdigest() == RANDOM_TREE_DIGEST

    def test_pinned_digest_of_branching_roots(self):
        # trees with two root children that have children of their own, so
        # that the second fixed chain carries free vertices too (in 145 of
        # the 457 enumerations)
        rng = random.Random(7)
        counts = []
        for _ in range(6_000):
            tree = random_tree(rng, max_vertices=9, max_label=4)
            if sum(1 for c in tree.children[tree.root] if tree.children[c]) < 2:
                continue
            for q in (2, 3):
                if projected_point_count(tree, q) <= DEFAULT_CAP:
                    report = enumerate_orbits(tree, q=q)
                    counts.append((report.point_count, report.orbit_count))
        assert len(counts) == 457
        assert hashlib.sha256(repr(counts).encode()).hexdigest() == BRANCHING_ROOT_DIGEST

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_orbits_partition_points(self, seed):
        rng = random.Random(seed)
        tree = random_tree(rng, max_vertices=4, max_label=4)
        q = rng.choice([2, 3])
        try:
            report = enumerate_orbits(tree, q=q, cap=50_000)
        except CapExceeded as exc:
            assert exc.projected > 50_000
            return
        assert report.point_count == projected_point_count(tree, q)
        assert 1 <= report.orbit_count <= report.point_count

    @given(st.integers(0, 10**6), st.sampled_from([2, 3, 4, 5]))
    @settings(max_examples=40, deadline=None)
    def test_grassmannians_fit_under_the_projection(self, seed, q):
        # each vertex's Grassmannian is an image of the point set, so a
        # variety within the cap has every subspace table within it too
        tree = random_tree(random.Random(seed), max_vertices=8, max_label=10)
        projected = projected_point_count(tree, q)
        for v, d in tree.labels.items():
            assert gaussian_binomial(tree.ambient, d, q) <= projected, v

    def test_product_and_tree_forms_agree(self):
        # every product of at most three factors with n <= 4, over each
        # field: the product is read on its factors, its tree on its chains
        within = over = 0
        for n in (2, 3, 4):
            types = [c for r in range(1, n) for c in combinations(range(1, n), r)]
            for k in range(4):
                for factors in combinations_with_replacement(types, k):
                    product = FlagProduct(factors, n)
                    tree = as_tree(product)
                    for q in (2, 3, 4, 5):
                        projected = projected_point_count(tree, q)
                        assert projected_point_count(product, q) == projected, (product, q)
                        if projected > DEFAULT_CAP:
                            with pytest.raises(CapExceeded) as exc:
                                enumerate_orbits(product, q=q)
                            assert exc.value.projected == projected
                            over += 1
                            continue
                        a, b = enumerate_orbits(product, q=q), enumerate_orbits(tree, q=q)
                        assert (a.point_count, a.orbit_count) == (b.point_count, b.orbit_count), (product, q)
                        within += 1
        assert (within, over) == (233, 343)
        # eleven tied factors: the product picks factors 0 and 1 by index and
        # hands the other nine to its tree, whose names sort f10 before f2
        product = FlagProduct(((1,),) * 11, 2)
        for x in (product, as_tree(product)):
            report = enumerate_orbits(x, q=2)
            assert (report.point_count, report.orbit_count) == (177_147, 29_525)
        assert burnside_line_orbits(11, 2) == 29_525
