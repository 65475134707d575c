"""Exhaustive orbit counts over tiny fields against closed-form and Burnside oracles."""

import gc
import random
import tracemalloc
from functools import partial
from itertools import combinations, combinations_with_replacement
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeorbits import CapExceeded, FlagProduct, dualize, enumerate_orbits, parse_instance
from treeorbits.errors import BadRange, UnsupportedField
from treeorbits.orbits import (
    DEFAULT_CAP,
    _Field,
    _parabolic_generators,
    gaussian_binomial,
    projected_point_count,
)
from treeorbits.parsing import parse_tree_dsl
from treeorbits.trees import heaviest_chain

from .helpers import burnside_line_orbits, composition, contingency_count, random_tree

FOUR_POINTS = FlagProduct(((1,), (1,), (1,), (1,)), 2)


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


class TestParabolicGenerators:
    @pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (4, 2)])
    def test_generate_the_flag_stabilizer(self, n, q):
        # with the scalar matrices they generate exactly the block lower
        # triangular group, of order prod |GL(b_i)| * q^(sum_{i<j} b_i b_j)
        field = _Field(q)

        def times(a, b):
            out = []
            for row in a:
                acc = [0] * n
                for x, brow in zip(row, b):
                    acc = [int(field.add[s, field.mul[x, y]]) for s, y in zip(acc, brow)]
                out.append(tuple(acc))
            return tuple(out)

        scalars = [tuple(tuple(c if i == j else 0 for j in range(n)) for i in range(n))
                   for c in range(1, q)]
        for r in range(1, n):
            for flag in combinations(range(1, n), r):
                gens = [tuple(map(tuple, g.tolist())) for g in _parabolic_generators(n, list(flag), field)]
                for g in gens:
                    assert all(not any(g[i][d:]) for d in flag for i in range(d))
                seen = set(scalars)
                todo = list(scalars)
                while todo:
                    a = todo.pop()
                    for g in gens:
                        b = times(a, g)
                        if b not in seen:
                            seen.add(b)
                            todo.append(b)
                blocks = [b - a for a, b in zip((0, *flag), (*flag, n))]
                unipotent = sum(x * y for x, y in combinations(blocks, 2))
                assert len(seen) == prod(_gl_order(b, q) for b in blocks) * q**unipotent, flag


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
        record = enumerate_orbits(parse_tree_dsl("1>2"), q=2).to_json_dict()
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

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_points_on_a_line_match_burnside(self, m, q):
        report = enumerate_orbits(FlagProduct(((1,),) * m, 2), q=q)
        assert report.point_count == (q + 1) ** m
        assert report.orbit_count == burnside_line_orbits(m, q)


class TestResources:
    def test_no_reference_cycle_left(self):
        # the whole working set is freed by reference counting on return
        gc.collect()
        gc.disable()
        try:
            report = enumerate_orbits(parse_instance("F(1;4)*F(1,3;4)"), q=4)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert (report.point_count, report.orbit_count) == (151_725, 3)

    def test_working_set_stays_linear(self):
        # a dense |T_3| x |T_2| table of F_2^7 would take 252 MB; the
        # measured peak is 14.5 MB (Python 3.11, numpy 2.4)
        tree = parse_tree_dsl("a:2>b:3>r:7")
        tracemalloc.start()
        try:
            report = enumerate_orbits(tree, q=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.point_count, report.orbit_count) == (82_677, 1)
        assert peak < 40 * 2**20

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
        # the moves of all G generators are built as one (G, N) stack; on
        # 357 fibre points over F_4 the measured peak is 0.13 MB with one
        # generator at a time and 0.49 MB stacked (Python 3.11, numpy 2.4)
        pair = parse_instance("F(2;4)*F(2;4)")
        tracemalloc.start()
        try:
            report = enumerate_orbits(pair, q=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.point_count, report.orbit_count) == (127_449, 3)
        assert peak < 8 * 2**20

    def test_only_the_fibre_is_enumerated(self):
        # walking all 3,723,875 points took a 256 MB tracemalloc peak; the
        # fibre over one fixed plane has 24,025 points and the measured peak
        # is 2.8 MB (Python 3.11, numpy 2.4)
        cube = parse_instance("G(2;5)^3")
        tracemalloc.start()
        try:
            enumerate_orbits(cube, q=2, cap=4_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


class TestSideBranches:
    # side branches hang off the fixed chain (the census has none of these);
    # the counts were read off the earlier enumerator, which walked every point
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
        assert heaviest_chain(parse_tree_dsl(spec), weight) == (chain, points)


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
        product = FlagProduct(((1,), (2,)), 3)
        tree = parse_tree_dsl("a:1>r:3 | b:2>r")
        a = enumerate_orbits(product, q=2)
        b = enumerate_orbits(tree, q=2)
        assert (a.point_count, a.orbit_count) == (b.point_count, b.orbit_count)
