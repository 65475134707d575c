"""Tree validation, dimension, vertex order, subtrees, deletion, truncation."""

import ast
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeorbits import LabeledTree, parse_instance
from treeorbits.errors import (
    BadRange,
    EmptyInput,
    LabelViolation,
    NotATree,
    RootForbidden,
    UnknownVertex,
)
from treeorbits.parsing import parse_tree_dsl
from treeorbits.trees import (
    MAX_LABEL,
    dimension,
    forget_vertex,
    subtree_at,
    to_dsl,
    top_down,
    truncate,
)

from .helpers import bfs_distances, random_tree


def two_branch_tree() -> LabeledTree:
    # main chain d1 < d2 < d3 < d4 < root with a side leaf d5 into d4
    return LabeledTree(
        {"d1": 1, "d2": 2, "d3": 3, "d4": 4, "d5": 2, "n": 6},
        [("d1", "d2"), ("d2", "d3"), ("d3", "d4"), ("d5", "d4"), ("d4", "n")],
    )


class TestValidation:
    def test_minimal_tree(self):
        t = LabeledTree({"a": 1, "b": 2}, [("a", "b")])
        assert t.root == "b"
        assert t.ambient == 2
        assert t.vertices == ["a", "b"]

    def test_single_vertex(self):
        t = LabeledTree({"r": 5}, [])
        assert t.root == "r"
        assert t.leaves == ["r"]
        assert dimension(t) == 0

    def test_empty(self):
        with pytest.raises(EmptyInput):
            LabeledTree({}, [])

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True, "x", MAX_LABEL + 1])
    def test_bad_label(self, bad):
        with pytest.raises(LabelViolation):
            LabeledTree({"a": bad}, [])

    def test_equal_labels_on_edge(self):
        with pytest.raises(LabelViolation):
            LabeledTree({"a": 2, "b": 2}, [("a", "b")])

    def test_decreasing_labels_on_edge(self):
        with pytest.raises(LabelViolation):
            LabeledTree({"a": 3, "b": 2}, [("a", "b")])

    def test_unknown_endpoint(self):
        with pytest.raises(NotATree):
            LabeledTree({"a": 1, "b": 2}, [("a", "c")])
        # an unknown source is named before an unknown target
        with pytest.raises(NotATree, match=r"^edge \('x', 'c'\) references unknown vertex 'x'$"):
            LabeledTree({"a": 1, "b": 2}, [("x", "c")])

    def test_two_outgoing_edges(self):
        with pytest.raises(NotATree):
            LabeledTree({"a": 1, "b": 2, "c": 3}, [("a", "b"), ("a", "c")])
        # two vertices with two outgoing edges: the first in input order is named
        labels = {"a": 1, "b": 1, "c": 2, "d": 2, "r": 3}
        edges = [("a", "c"), ("c", "r"), ("a", "d"), ("d", "r"), ("b", "c"), ("b", "d")]
        with pytest.raises(NotATree, match="'a' has two"):
            LabeledTree(labels, edges)
        with pytest.raises(NotATree, match="'b' has two"):
            LabeledTree(labels, edges[::-1])

    def test_disconnected(self):
        with pytest.raises(NotATree):
            LabeledTree({"a": 1, "b": 2, "c": 3}, [("a", "b")])

    def test_root_inferred(self):
        t = two_branch_tree()
        assert t.root == "n"
        assert t.ambient == 6
        assert t.leaves == ["d1", "d5"]
        assert t.depth == 4
        assert t.distance("d1") == 4
        assert t.distance("d5") == 2

    @given(st.integers(0, 10**6))
    def test_derived_views_match_the_parent_map(self, seed):
        t = random_tree(random.Random(seed))
        dist = bfs_distances(t)
        assert {v: t.distance(v) for v in t.labels} == dist
        assert t.depth == max(dist.values())
        assert t.children == {
            v: sorted(s for s, u in t.parent.items() if u == v) for v in t.labels
        }

    def test_unknown_vertex_lookups(self):
        t = two_branch_tree()
        with pytest.raises(UnknownVertex):
            t.distance("zz")
        with pytest.raises(UnknownVertex):
            forget_vertex(t, "zz")
        with pytest.raises(UnknownVertex):
            subtree_at(t, "zz")

    def test_top_down_order(self):
        assert top_down(two_branch_tree()) == ["d4", "d3", "d5", "d2", "d1"]
        assert top_down(LabeledTree({"r": 4}, [])) == []

    @given(st.integers(0, 10**6))
    def test_top_down_puts_parents_first(self, seed):
        t = random_tree(random.Random(seed))
        dist = bfs_distances(t)
        order = top_down(t)
        assert sorted(order) == sorted(v for v in t.labels if v != t.root)
        assert [(dist[v], v) for v in order] == sorted((dist[v], v) for v in order)


class TestDimension:
    def test_grassmannian_chain(self):
        assert dimension(LabeledTree({"a": 2, "b": 5}, [("a", "b")])) == 6

    def test_flag_chain(self):
        assert dimension(parse_tree_dsl("1>2>4")) == 5

    def test_two_branch_tree(self):
        assert dimension(two_branch_tree()) == 1 + 2 + 3 + 8 + 4


class TestSubtree:
    def test_at_root_is_identity(self):
        t = two_branch_tree()
        assert subtree_at(t, t.root) == t

    def test_prefix_chain(self):
        t = parse_tree_dsl("1>2>4")
        sub = subtree_at(t, "2")
        assert sub == parse_tree_dsl("1>2")
        assert sub.ambient == 2

    def test_two_branch_tree_at_d4(self):
        sub = subtree_at(two_branch_tree(), "d4")
        assert sub.root == "d4"
        assert sub.ambient == 4
        assert sub.vertices == ["d1", "d2", "d3", "d4", "d5"]

    @given(st.integers(0, 10**6))
    def test_idempotent(self, seed):
        rng = random.Random(seed)
        t = random_tree(rng)
        v = rng.choice(t.vertices)
        assert subtree_at(subtree_at(t, v), v) == subtree_at(t, v)


class TestForgetVertex:
    def test_middle_of_chain(self):
        t = parse_tree_dsl("1>2>4")
        image, surjective = forget_vertex(t, "2")
        assert image == parse_tree_dsl("1>4")
        assert surjective

    def test_leaf(self):
        t = parse_tree_dsl("1>2>4")
        image, surjective = forget_vertex(t, "1")
        assert image == parse_tree_dsl("2>4")
        assert surjective

    def test_overloaded_vertex_not_surjective(self):
        t = parse_tree_dsl("a:2>m:3>r:6 | b:2>m")
        image, surjective = forget_vertex(t, "m")
        assert not surjective  # 2 + 2 > 3
        assert image == parse_tree_dsl("a:2>r:6 | b:2>r")

    def test_exactly_filled_vertex_keeps_dimension(self):
        t = parse_tree_dsl("a:1>m:2>r:4 | b:1>m")
        image, surjective = forget_vertex(t, "m")
        assert surjective  # 1 + 1 = 2
        assert dimension(image) == dimension(t)

    def test_root_forbidden(self):
        with pytest.raises(RootForbidden):
            forget_vertex(parse_tree_dsl("1>2"), "2")

    @given(st.integers(0, 10**6))
    def test_surjective_never_raises_dimension(self, seed):
        rng = random.Random(seed)
        t = random_tree(rng)
        non_root = [v for v in t.vertices if v != t.root]
        if not non_root:
            return
        v = rng.choice(non_root)
        image, surjective = forget_vertex(t, v)
        assert image.ambient == t.ambient
        if surjective:
            assert dimension(image) <= dimension(t)
            incoming = sum(t.labels[s] for s in t.children[v])
            if incoming < t.labels[v]:
                assert dimension(image) < dimension(t)


class TestTruncate:
    def test_chain_split(self):
        res = truncate(parse_tree_dsl("1>2>4"), 1)
        assert res.base == parse_tree_dsl("2>4")
        assert [to_dsl(h) for h in res.hanging] == ["1>2"]

    def test_beyond_depth_is_identity(self):
        t = parse_tree_dsl("1>2>4")
        res = truncate(t, 7)
        assert res.base == t
        assert res.hanging == ()

    def test_two_branch_tree(self):
        t = two_branch_tree()
        res = truncate(t, 1)
        assert res.base == parse_tree_dsl("d4:4>n:6")
        assert len(res.hanging) == 1
        assert res.hanging[0] == subtree_at(t, "d4")
        assert dimension(res.base) + dimension(res.hanging[0]) == dimension(t)

    def test_bad_distance(self):
        t = parse_tree_dsl("1>2")
        for m in (0, -1, "x", 1.5):
            with pytest.raises(BadRange):
                truncate(t, m)

    @given(st.integers(0, 10**6))
    def test_dimension_additivity_every_level(self, seed):
        t = random_tree(random.Random(seed))
        total = dimension(t)
        for m in range(1, t.depth + 2):
            res = truncate(t, m)
            assert total == dimension(res.base) + sum(dimension(h) for h in res.hanging)

    @given(st.integers(0, 10**6))
    def test_vertex_partition(self, seed):
        t = random_tree(random.Random(seed))
        for m in range(1, t.depth + 1):
            res = truncate(t, m)
            cut = {v for v in t.vertices if t.distance(v) == m}
            covered = set(res.base.vertices)
            for h in res.hanging:
                assert h.root in cut
                overlap = covered & set(h.vertices)
                assert overlap <= cut  # hanging roots are the only shared vertices
                covered |= set(h.vertices)
            assert covered == set(t.vertices)


class TestSerialization:
    @given(st.integers(0, 10**6))
    def test_dsl_round_trip(self, seed):
        t = random_tree(random.Random(seed))
        assert parse_tree_dsl(to_dsl(t)) == t

    @given(st.integers(0, 10**6))
    def test_repr_reads_back(self, seed):
        t = random_tree(random.Random(seed))
        head, text = repr(t).split("(", 1)
        assert head == "LabeledTree"
        assert parse_instance(ast.literal_eval(text[:-1])) == t

    def test_equality_ignores_construction_order(self):
        a = LabeledTree({"a": 1, "b": 2}, [("a", "b")])
        b = LabeledTree({"b": 2, "a": 1}, (("a", "b"),))
        assert a == b
        assert hash(a) == hash(b)
        edges = [("d1", "d2"), ("d2", "d3"), ("d3", "d4"), ("d5", "d4"), ("d4", "n")]
        c = LabeledTree(two_branch_tree().labels, edges[::-1] + edges[:1])
        assert c == two_branch_tree()
        assert hash(c) == hash(two_branch_tree())

    def test_equality_reads_the_edges(self):
        labels = {"a": 1, "b": 2, "r": 3}
        chain = LabeledTree(labels, [("a", "b"), ("b", "r")])
        assert chain != LabeledTree(labels, [("a", "r"), ("b", "r")])
