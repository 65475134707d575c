"""Flag products, derived sequences, and the density-preserving rewrites."""

import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treeorbits import FlagProduct, dualize, reduce_half, reduce_span, tree_to_product
from treeorbits.errors import BadRange, BoundsError
from treeorbits.parsing import parse_tree_dsl
from treeorbits.products import as_flag_product, as_tree, derived_sequence, product_to_tree
from treeorbits.trees import dimension

from .helpers import random_product, random_tree


class TestFlagProduct:
    def test_display_with_exponent(self):
        assert FlagProduct(((1, 2), (1, 2), (1, 2)), 4).spec_string() == "F(1,2;4)^3"

    def test_display_mixed(self):
        assert FlagProduct(((1,), (2,), (2,)), 5).spec_string() == "F(1;5)*F(2;5)^2"

    def test_trivial_instance(self):
        p = FlagProduct((), 3)
        assert p.num_factors == 0
        assert p.spec_string() == "trivial(3)"

    # the message of each refusal; the first bad factor is the one named, and
    # a factor's range is checked before its order
    INVALID = {
        (((0,),), 3): "flag dimension 0 out of range (0, 3)",
        (((3,),), 3): "flag dimension 3 out of range (0, 3)",
        (((4,),), 3): "flag dimension 4 out of range (0, 3)",
        (((2, 2),), 5): "factor (2, 2) is not strictly increasing",
        (((3, 2),), 5): "factor (3, 2) is not strictly increasing",
        (((),), 4): "empty factor; drop it instead",
        (((1,), (2.0,)), 4): "flag dimension 2.0 out of range (0, 4)",
        (((1,),), 4.5): "ambient dimension must be a positive integer, got 4.5",
        (((1, 9), (3, 2)), 5): "flag dimension 9 out of range (0, 5)",
        (((3, 2), (1, 9)), 5): "factor (3, 2) is not strictly increasing",
        (((1, 2), (), (0,)), 5): "empty factor; drop it instead",
        (((2, 2, 7),), 5): "flag dimension 7 out of range (0, 5)",
    }

    @pytest.mark.parametrize("factors,n", list(INVALID))
    def test_invalid(self, factors, n):
        with pytest.raises(BoundsError, match=f"^{re.escape(self.INVALID[factors, n])}$"):
            FlagProduct(factors, n)

    def test_bad_ambient(self):
        with pytest.raises(BoundsError, match="^ambient dimension must be a positive integer, got 0$"):
            FlagProduct(((1,),), 0)

    BOOLEANS = {
        (((True, 2),) * 3, 4): "flag dimension True out of range (0, 4)",
        (((1, False),), 4): "flag dimension False out of range (0, 4)",
        (((1,),), True): "ambient dimension must be a positive integer, got True",
        ((), True): "ambient dimension must be a positive integer, got True",
    }

    @pytest.mark.parametrize("factors,n", list(BOOLEANS))
    def test_booleans_refused(self, factors, n):
        # True == 1, so a bool would pass every range check as an integer
        with pytest.raises(BoundsError, match=f"^{re.escape(self.BOOLEANS[factors, n])}$"):
            FlagProduct(factors, n)

    def test_slotted_and_frozen(self):
        # a product keeps no per-instance dict; validation still normalizes
        p = FlagProduct([[1, 2]], 4)
        assert not hasattr(p, "__dict__")
        assert p.factors == ((1, 2),)
        with pytest.raises(AttributeError):
            p.ambient = 5


class TestDerivedSequence:
    def test_middle_cut(self):
        assert derived_sequence((1, 3, 5), 2, 7) == (1, 3)

    def test_identity_cut(self):
        assert derived_sequence((1, 3, 5), 0, 7) == (1, 3, 5)

    def test_front_survivor(self):
        assert derived_sequence((2, 5), 2, 7) == (3,)

    def test_everything_cut_away(self):
        assert derived_sequence((1, 2), 2, 5) == ()
        assert derived_sequence((1, 2), 4, 5) == ()

    def test_bad_ranges(self):
        with pytest.raises(BadRange):
            derived_sequence((1, 2), -1, 5)
        with pytest.raises(BadRange):
            derived_sequence((1, 2), 5, 5)

    @given(st.integers(0, 10**6))
    def test_stays_strictly_increasing(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 15)
        k = tuple(sorted(rng.sample(range(1, n), rng.randint(1, min(4, n - 1)))))
        d = rng.randint(0, n - 1)
        out = derived_sequence(k, d, n)
        assert all(0 < a < n - d for a in out)
        assert all(a < b for a, b in zip(out, out[1:]))
        # entries above d survive, shifted down by exactly d
        assert out == tuple(a - d for a in k if a > d)


class TestDualize:
    def test_self_dual(self):
        p = FlagProduct(((1, 3), (1, 3), (1, 3)), 4)
        assert dualize(p) == p

    def test_grassmannian(self):
        assert dualize(FlagProduct(((2,),), 5)) == FlagProduct(((3,),), 5)

    def test_reverses_factor(self):
        assert dualize(FlagProduct(((1, 2), (3,)), 7)) == FlagProduct(((5, 6), (4,)), 7)

    @given(st.integers(0, 10**6))
    def test_involution(self, seed):
        p = random_product(random.Random(seed))
        assert dualize(dualize(p)) == p

    @given(st.integers(0, 10**6))
    def test_preserves_dimension(self, seed):
        p = random_product(random.Random(seed))
        assert dimension(product_to_tree(dualize(p))) == dimension(product_to_tree(p))


class TestReduceSpan:
    def test_three_grassmannians(self):
        p = FlagProduct(((2,), (2,), (3,)), 5)
        assert reduce_span(p) == FlagProduct(((2,), (2,), (2,)), 4)

    def test_not_applicable_when_tops_fit(self):
        # every complement of one factor already spans the ambient space
        assert reduce_span(FlagProduct(((2, 3), (2, 3), (2, 3)), 5)) is None

    def test_collapses_spread_out_lines(self):
        # two of three lines span a plane; the third line falls into it
        p = FlagProduct(((1,), (1,), (1,)), 5)
        assert reduce_span(p) == FlagProduct(((1,), (1,)), 2)

    def test_not_applicable_single_factor(self):
        assert reduce_span(FlagProduct(((1, 2),), 5)) is None

    def test_two_step_triple_chain(self):
        # three applications shrink F(1,2;5)^3 to a two-factor instance
        p = FlagProduct(((1, 2), (1, 2), (1, 2)), 5)
        q1 = reduce_span(p)
        assert q1 == FlagProduct(((1, 2), (1, 2), (1,)), 4)
        q2 = reduce_span(q1)
        assert q2 is not None and q2.ambient < q1.ambient
        q3 = reduce_span(q2)
        assert q3 is not None and q3.ambient < q2.ambient

    def test_strips_full_space_entries(self):
        # the kept factor tops the new ambient exactly and is dropped
        p = FlagProduct(((2,), (2,)), 4)
        assert reduce_span(p) == FlagProduct((), 2)

    @given(st.integers(0, 10**6))
    def test_output_is_valid_and_smaller(self, seed):
        p = random_product(random.Random(seed))
        q = reduce_span(p)
        if q is not None:
            assert 1 <= q.ambient < p.ambient
            for f in q.factors:
                assert all(0 < k < q.ambient for k in f)


class TestReduceHalf:
    def test_two_step(self):
        p = FlagProduct(((1, 3), (1, 3), (1, 3)), 6)
        assert reduce_half(p) == FlagProduct(((1,), (1,), (1,)), 3)

    def test_single_step_collapses_to_trivial(self):
        p = FlagProduct(((2,), (2,), (2,)), 4)
        assert reduce_half(p) == FlagProduct((), 2)

    def test_wrong_ambient(self):
        assert reduce_half(FlagProduct(((1, 3), (1, 3), (1, 3)), 7)) is None

    def test_not_a_self_product(self):
        assert reduce_half(FlagProduct(((1, 3), (1, 3), (2, 3)), 6)) is None
        assert reduce_half(FlagProduct(((3,), (3,)), 6)) is None


class TestProductTreeBridge:
    def test_star_is_a_product(self):
        tree = parse_tree_dsl("a:1>r:3 | b:2>r | c:1>r")
        assert as_flag_product(tree) == FlagProduct(((1,), (2,), (1,)), 3)

    def test_chain_is_a_one_factor_product(self):
        assert as_flag_product(parse_tree_dsl("1>2>4")) == FlagProduct(((1, 2),), 4)

    def test_junction_below_root_is_not_a_product(self):
        tree = parse_tree_dsl("d1:1>d2:2>d3:3>d4:4>n:6 | d5:2>d4")
        assert as_flag_product(tree) is None

    def test_single_vertex_is_trivial(self):
        assert as_flag_product(parse_tree_dsl("4:4")) == FlagProduct((), 4)

    @given(st.integers(0, 10**6))
    def test_as_tree_reads_either_kind(self, seed):
        rng = random.Random(seed)
        t = random_tree(rng)
        assert as_tree(t) is t
        p = random_product(rng)
        assert as_tree(p) == product_to_tree(p)

    @given(st.integers(0, 10**6))
    def test_round_trip(self, seed):
        p = random_product(random.Random(seed))
        back = as_flag_product(product_to_tree(p))
        assert back is not None
        assert sorted(back.factors) == sorted(p.factors)
        assert back.ambient == p.ambient

    @given(st.integers(0, 10**6))
    def test_bridge_preserves_dimension(self, seed):
        p = random_product(random.Random(seed))
        tree = product_to_tree(p)
        expect = sum(
            sum(k * (nxt - k) for k, nxt in zip(f, f[1:] + (p.ambient,)))
            for f in p.factors
        )
        assert dimension(tree) == expect


class TestTreeToProduct:
    def test_junction_example(self):
        tree = parse_tree_dsl("a:2>b:4>c:6>r:8 | d:1>b | e:3>c")
        assert tree_to_product(tree) == FlagProduct(((2,), (1,), (1,)), 4)

    def test_deep_chain_below_junction(self):
        tree = parse_tree_dsl("x1:1>x2:2>j:4>r:6 | b:1>j | e:2>r")
        assert tree_to_product(tree) == FlagProduct(((1,), (1, 2)), 4)

    def test_two_leaves_not_applicable(self):
        tree = parse_tree_dsl("d1:1>d2:2>d3:3>d4:4>n:6 | d5:2>d4")
        assert tree_to_product(tree) is None

    def test_three_chains_at_root_not_applicable(self):
        tree = parse_tree_dsl("a:1>r:3 | b:1>r | c:1>r")
        assert tree_to_product(tree) is None

    def test_derived_third_factor_can_vanish(self):
        # third chain sits entirely below the cut: factor drops out
        tree = parse_tree_dsl("a:2>j:4>r:9 | b:2>j | e:1>m:5>r")
        p = tree_to_product(tree)
        assert p == FlagProduct(((2,), (2,)), 4)

    @given(st.integers(0, 10**6))
    def test_valid_output_on_three_leaf_trees(self, seed):
        t = random_tree(random.Random(seed))
        p = tree_to_product(t)
        if len(t.leaves) != 3:
            assert p is None
        elif p is not None:
            assert 1 <= p.ambient < t.ambient
            for f in p.factors:
                assert all(0 < k < p.ambient for k in f)
                assert all(a < b for a, b in zip(f, f[1:]))
