"""Finite-orbit classification patterns and the dimension-count sparseness check."""

import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treeorbits import orbit_class
from treeorbits.classify import OrbitClass, SparsenessCheck, trivially_sparse
from treeorbits.parsing import parse_tree_dsl
from treeorbits.trees import LabeledTree, dimension, subtree_at

from .helpers import random_tree

# sha256 of orbit_class's (kind, case_label, witness) on the 30,000 trees of
# TestOrbitClass.test_pinned_digest, taken from the earlier branch walk in
# trees.py; every kind and case occurs among them (2c once, 2d five times)
ORBIT_CLASS_DIGEST = "c54496c3e32189a5c1c1655fe7eaa95d5a664a833f521fd970520164d24b2aa3"


class TestOrbitClass:
    def test_chain_is_homogeneous(self):
        assert orbit_class(parse_tree_dsl("1>2>4")).kind == "Homogeneous"
        assert orbit_class(parse_tree_dsl("3:3")).kind == "Homogeneous"

    def test_two_orbits(self):
        # two branches of length 1; the width of the leaf labeled 1 is 1
        oc = orbit_class(parse_tree_dsl("a:1>b:2>c:3 | d:1>b"))
        assert oc.kind == "TwoOrbits"

    def test_two_leaf_tree_without_width_one(self):
        oc = orbit_class(parse_tree_dsl("a:2>r:4 | b:2>r"))
        assert (oc.kind, oc.case_label) == ("FiniteType", "1")

    def test_two_leaves_deep(self):
        tree = parse_tree_dsl("d1:1>d2:2>d3:3>d4:4>n:6 | d5:2>d4")
        oc = orbit_class(tree)
        assert (oc.kind, oc.case_label) == ("FiniteType", "1")

    def test_case_2a(self):
        oc = orbit_class(parse_tree_dsl("a:1>r:3 | b:1>r | c1:1>c2:2>r"))
        assert (oc.kind, oc.case_label) == ("FiniteType", "2a")

    def test_case_2a_takes_priority_over_2b(self):
        # lengths sort to (1, 1, 2): both patterns apply, label says 2a
        oc = orbit_class(parse_tree_dsl("a:1>r:4 | b:1>r | c1:1>c2:2>r"))
        assert (oc.kind, oc.case_label) == ("FiniteType", "2a")

    def test_case_2b(self):
        tree = parse_tree_dsl("u:1>r:4 | v:1>w:2>r | x:1>y:2>z:3>r")
        oc = orbit_class(tree)
        assert (oc.kind, oc.case_label) == ("FiniteType", "2b")

    def test_case_2c_via_narrow_short_branch(self):
        tree = parse_tree_dsl("t:2>r:6 | s1:1>s2:2>r | c1:1>c2:2>c3:3>c4:4>c5:5>r")
        oc = orbit_class(tree)
        assert (oc.kind, oc.case_label) == ("FiniteType", "2c")

    def test_case_2c_fails_when_both_branches_wide(self):
        tree = parse_tree_dsl("t:3>r:6 | s1:2>s2:4>r | c1:1>c2:2>c3:3>c4:4>c5:5>r")
        assert orbit_class(tree).kind == "InfiniteType"

    def test_length_1_2_6_with_wide_branches(self):
        # widths 3 and 2 on the short branches: outside every finite pattern
        tree = parse_tree_dsl(
            "t:3>j:7 | s1:2>s2:4>j | c1:1>c2:2>c3:3>c4:4>c5:5>c6:6>j"
        )
        oc = orbit_class(tree)
        assert oc.kind == "InfiniteType"
        assert "branch lengths (1, 2, 6)" in oc.witness

    def test_case_2d(self):
        tree = parse_tree_dsl("u:1>r:4 | a1:1>a2:2>a3:3>r | b1:1>b2:2>b3:3>r")
        oc = orbit_class(tree)
        assert (oc.kind, oc.case_label) == ("FiniteType", "2d")

    def test_case_2d_needs_width_one(self):
        tree = parse_tree_dsl("u:2>r:4 | a1:1>a2:2>a3:3>r | b1:1>b2:2>b3:3>r")
        assert orbit_class(tree).kind == "InfiniteType"

    def test_four_leaves(self):
        tree = parse_tree_dsl("a:1>r:2 | b:1>r | c:1>r | d:1>r")
        assert orbit_class(tree).kind == "InfiniteType"

    # branch shapes that decide the kind or case: a branch stops below the
    # root and below a vertex where chains merge, and its width can be the
    # label gap at its top
    @pytest.mark.parametrize(
        "text,kind,case,witness",
        [
            ("a:1>r:3 | b:1>r | c:1>r", "FiniteType", "2a", "branch lengths (1, 1, 1)"),
            ("a:2>m:3>r:5 | b:2>m", "TwoOrbits", None,
             "two branches of length 1, one of minimum width 1: exactly two orbits"),
            ("a:2>m:4>r:5 | b:2>m", "FiniteType", "1", "2 leaves: finitely many orbits"),
            ("t:2>j:8>r:9 | s1:1>s2:3>j | c1:1>c2:2>c3:3>c4:4>c5:5>c6:7>j", "FiniteType", "2c",
             "branch lengths (1, 2, 6) with admissible widths "
             "(length-1 width 2, length-2 width 1)"),
        ],
    )
    def test_branch_shapes(self, text, kind, case, witness):
        assert orbit_class(parse_tree_dsl(text)) == OrbitClass(kind, case, witness)

    def test_pinned_digest(self):
        h = hashlib.sha256()
        rng = random.Random(19)
        for i in range(30_000):
            t = random_tree(rng, max_vertices=14, max_label=(3, 5, 9, 30)[i % 4])
            oc = orbit_class(t)
            h.update(f"{oc.kind}|{oc.case_label}|{oc.witness}\n".encode())
        assert h.hexdigest() == ORBIT_CLASS_DIGEST

    @given(st.integers(0, 10**6))
    def test_homogeneous_iff_one_branch(self, seed):
        t = random_tree(random.Random(seed))
        oc = orbit_class(t)
        single_chain = len(t.leaves) == 1
        assert (oc.kind == "Homogeneous") == single_chain

    @given(st.integers(0, 10**6))
    def test_invariant_under_renaming(self, seed):
        t = random_tree(random.Random(seed))
        renamed_labels = {f"x{v}": k for v, k in t.labels.items()}
        renamed_edges = [(f"x{s}", f"x{t_}") for s, t_ in t.parent.items()]

        t2 = LabeledTree(renamed_labels, renamed_edges)
        assert orbit_class(t2).kind == orbit_class(t).kind
        assert orbit_class(t2).case_label == orbit_class(t).case_label
        assert trivially_sparse(t2).violated == trivially_sparse(t).violated


class TestTriviallySparse:
    def test_triple_star_of_two_step_chains(self):
        tree = parse_tree_dsl("a1:2>a2:4>r:6 | b1:2>b2:4>r | c1:2>c2:4>r")
        check = trivially_sparse(tree)
        assert check.violated
        assert check.vertex == "r"
        assert (check.lhs, check.rhs) == (36, 35)

    def test_chains_never_violate(self):
        for text in ("1>2", "1>2>4", "2>5", "1>2>3>4>5"):
            assert not trivially_sparse(parse_tree_dsl(text)).violated

    def test_wide_interior_vertex(self):
        # four lines into a plane: subtree dimension 4 > 2^2 - 1
        tree = parse_tree_dsl("a:1>m:2>r:9 | b:1>m | c:1>m | d:1>m")
        check = trivially_sparse(tree)
        assert check.violated
        assert check.vertex == "m"
        assert (check.lhs, check.rhs) == (4, 3)

    def test_three_lines_into_a_plane_is_tight(self):
        tree = parse_tree_dsl("a:1>m:2>r:9 | b:1>m | c:1>m")
        assert not trivially_sparse(tree).violated  # 3 <= 3 at m, 17 <= 80 at r

    def test_crowded_interior_vertex_passes_root(self):
        tree = parse_tree_dsl("a:1>m:3>r:5 | b:1>m | c:2>m | d:2>m")
        check = trivially_sparse(tree)
        assert not check.violated
        # root: 14 <= 24; vertex m: 8 <= 8

    def test_report_fields_empty_when_clean(self):
        check = trivially_sparse(parse_tree_dsl("1>2"))
        assert (check.vertex, check.lhs, check.rhs) == (None, None, None)

    @given(st.integers(0, 10**6))
    def test_subtree_violation_propagates(self, seed):
        rng = random.Random(seed)
        t = random_tree(rng)

        v = rng.choice(t.vertices)
        if trivially_sparse(subtree_at(t, v)).violated:
            assert trivially_sparse(t).violated

    @given(st.integers(0, 10**6), st.sampled_from((3, 5, 8, 30)))
    def test_matches_subtree_dimensions(self, seed, max_label):
        # reference: the first vertex in sorted order whose induced subtree
        # has dimension above phi(v)^2 - 1
        t = random_tree(random.Random(seed), max_vertices=14, max_label=max_label)
        expected = SparsenessCheck(False)
        for v in sorted(t.labels):
            lhs, rhs = dimension(subtree_at(t, v)), t.labels[v] ** 2 - 1
            if lhs > rhs:
                expected = SparsenessCheck(True, v, lhs, rhs)
                break
        assert trivially_sparse(t) == expected
