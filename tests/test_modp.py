"""Exact linear algebra over prime fields, including the int64 overflow guard."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeorbits.errors import BadRange, NotPrime
from treeorbits.modp import (
    MAX_PRIME,
    _left_annihilators,
    _nested_annihilators,
    _reduce,
    check_prime,
    is_prime,
    matmul_mod,
    rank_mod,
    ranks_mod,
)

from .helpers import reference_rank


class TestPrimality:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(50):
            assert is_prime(n) == (n in primes)

    def test_carmichael_number(self):
        assert not is_prime(561)
        assert not is_prime(1729)

    def test_mersenne_default(self):
        assert is_prime(2**31 - 1)
        assert not is_prime(2**31)

    def test_check_prime(self):
        assert check_prime(10007) == 10007
        with pytest.raises(NotPrime):
            check_prime(10008)
        with pytest.raises(NotPrime):
            check_prime("7")
        with pytest.raises(BadRange):
            check_prime(2**31 + 11)  # prime, but past the int64-safe cap

    @pytest.mark.parametrize(
        "p,error",
        [(10008, NotPrime), (561, NotPrime), (True, NotPrime), (False, NotPrime), (7.0, NotPrime),
         ("7", NotPrime), (None, NotPrime), (2**31 + 11, BadRange)],
    )
    def test_check_prime_refuses_on_every_call(self, p, error):
        # is_prime keeps its answers between calls; the refusals must not
        for _ in range(2):
            with pytest.raises(error):
                check_prime(p)
        for _ in range(2):
            assert check_prime(MAX_PRIME) == MAX_PRIME

    def test_cap_is_mersenne(self):
        assert MAX_PRIME == 2**31 - 1


class TestMatmulMod:
    def test_matches_object_dtype_at_large_prime(self):
        # products of two residues near p overflow int64 without the split
        p = MAX_PRIME
        rng = np.random.default_rng(7)
        a = rng.integers(p - 50, p, size=(8, 9), dtype=np.int64)
        b = rng.integers(p - 50, p, size=(9, 7), dtype=np.int64)
        exact = (a.astype(object) @ b.astype(object)) % p
        got = matmul_mod(a, b, p)
        assert got.dtype == np.int64
        assert np.array_equal(got, exact.astype(np.int64))

    def test_small_case(self):
        a = [[1, 2], [3, 4]]
        b = [[5, 6], [7, 8]]
        assert np.array_equal(matmul_mod(a, b, 11), np.array([[8, 0], [10, 6]]))


class TestReduction:
    @pytest.mark.parametrize("p", [2, 3, 101, 65537, MAX_PRIME])
    def test_reduction_equals_remainder(self, p):
        # the extremes of the eliminations' updates, which lie in (-p^2, p^2)
        values = np.array([0, 1, -1, p, -p, p - 1, 1 - p, (p - 1) ** 2, -((p - 1) ** 2)], dtype=np.int64)
        x = values.copy()
        assert _reduce(x, p) is x
        assert np.array_equal(x, values % p)
        # strided slices are reduced in place, and nothing around them
        a = np.tile(values, (4, 3))
        expected = a.copy()
        expected[1::2, ::3] %= p
        expected[:, -1] %= p
        _reduce(a[1::2, ::3], p)
        _reduce(a[:, -1], p)
        assert np.array_equal(a, expected)


class TestElimination:
    def test_rank_depends_on_prime(self):
        a = [[1, 1], [1, 6]]  # determinant 5
        assert rank_mod(a, 5) == 1
        assert rank_mod(a, 7) == 2

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from((2, 3, 101, 65537, MAX_PRIME)),
        st.one_of(st.sampled_from((1, 63, 64, 65, 128, 129)), st.integers(1, 150)),
        st.one_of(st.sampled_from((1, 63, 64, 65, 128, 129)), st.integers(1, 150)),
        st.integers(0, 150),
        st.integers(0, 10**6),
    )
    def test_rank_matches_python_int_elimination(self, p, rows, cols, rank, seed):
        # low-rank products, tall and wide around the panel width, with forced zero lines
        rng = np.random.default_rng(seed)
        rank = min(rank, rows, cols)
        a = matmul_mod(rng.integers(0, p, (rows, rank)), rng.integers(0, p, (rank, cols)), p)
        a[:, rng.integers(0, cols, size=rng.integers(0, 4))] = 0
        a[rng.integers(0, rows, size=rng.integers(0, 4))] = 0
        assert rank_mod(a, p) == reference_rank(a, p)

    def test_rank_at_int64_edge(self):
        # residues p - 1 at the largest prime maximize every intermediate product
        p = MAX_PRIME
        assert rank_mod(np.full((150, 130), p - 1, dtype=np.int64), p) == 1
        a = np.full((150, 150), p - 1, dtype=np.int64)
        np.fill_diagonal(a, p - 2)  # -(J + I), determinant (-1)^150 * 151
        assert rank_mod(a, p) == 150

    def test_rank_leaves_argument_unchanged(self):
        p = 101
        rng = np.random.default_rng(5)
        for shape in ((90, 70), (70, 90)):
            a = rng.integers(0, p, size=shape)
            before = a.copy()
            rank_mod(a, p)
            assert np.array_equal(a, before)

    def test_rank_of_empty_matrix(self):
        assert rank_mod(np.zeros((0, 16), dtype=np.int64), 7) == 0
        assert rank_mod(np.zeros((16, 0), dtype=np.int64), 7) == 0
        with pytest.raises(ValueError):
            rank_mod([1, 2, 3], 7)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from((2, 3, 101, 65537, MAX_PRIME)),
        st.integers(1, 6),
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(0, 10**6),
    )
    def test_stacked_ranks_match_rank_mod(self, p, count, rows, cols, seed):
        # a stack of low-rank products, tall or wide, each of its own rank,
        # with forced zero lines
        rng = np.random.default_rng(seed)
        stack = np.empty((count, rows, cols), dtype=np.int64)
        for a in stack:
            rank = rng.integers(0, min(rows, cols) + 1)
            a[:] = matmul_mod(rng.integers(0, p, (rows, rank)), rng.integers(0, p, (rank, cols)), p)
            a[:, rng.integers(0, cols, size=rng.integers(0, 3))] = 0
            a[rng.integers(0, rows, size=rng.integers(0, 3))] = 0
        before = stack.copy()
        assert ranks_mod(stack, p).tolist() == [rank_mod(a, p) for a in stack]
        assert np.array_equal(stack, before)

    def test_stacked_ranks_at_int64_edge(self):
        p = MAX_PRIME
        full = np.full((12, 12), p - 1, dtype=np.int64)
        shifted = full.copy()
        np.fill_diagonal(shifted, p - 2)  # -(J + I), determinant 13
        diagonal = np.diag(np.full(12, p - 1))
        assert ranks_mod(np.stack([full, shifted, diagonal]), p).tolist() == [1, 12, 12]
        assert ranks_mod(np.full((2, 5, 12), p - 1), p).tolist() == [1, 1]

    def test_stacked_ranks_of_zero_and_empty_stacks(self):
        assert ranks_mod(np.zeros((4, 5, 3), dtype=np.int64), 7).tolist() == [0] * 4
        assert ranks_mod(np.zeros((0, 5, 3), dtype=np.int64), 7).tolist() == []
        assert ranks_mod(np.zeros((2, 0, 4), dtype=np.int64), 7).tolist() == [0, 0]
        assert ranks_mod(np.zeros((2, 4, 0), dtype=np.int64), 7).tolist() == [0, 0]

    def test_stacked_ranks_need_a_stack(self):
        for a in ([1, 2, 3], [[1, 2], [3, 4]], 5):
            with pytest.raises(ValueError):
                ranks_mod(a, 7)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from((2, 3, 65537, MAX_PRIME)),
        st.integers(1, 6),
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(0, 10**6),
    )
    def test_stacked_annihilators_span_the_left_kernel(self, p, count, rows, cols, seed):
        # tall and wide stacks of low-rank products, each of its own rank,
        # with forced zero lines
        rng = np.random.default_rng(seed)
        stack = np.empty((count, rows, cols), dtype=np.int64)
        for m in stack:
            rank = rng.integers(0, min(rows, cols) + 1)
            m[:] = matmul_mod(rng.integers(0, p, (rows, rank)), rng.integers(0, p, (rank, cols)), p)
            m[:, rng.integers(0, cols, size=rng.integers(0, 3))] = 0
            m[rng.integers(0, rows, size=rng.integers(0, 3))] = 0
        before = stack.copy()
        kernels = _left_annihilators(stack, p)
        assert np.array_equal(stack, before)
        assert kernels.shape == (count, max(rows - rank_mod(m, p) for m in stack), rows)
        for m, c in zip(stack, kernels):
            dim = rows - rank_mod(m, p)
            # the kernel rows come first, then zero padding
            assert not c[dim:].any()
            c = c[:dim]
            assert not matmul_mod(c, m, p).any()
            assert rank_mod(c, p) == dim

    def test_stacked_annihilators_of_empty_matrices(self):
        assert _left_annihilators(np.zeros((2, 3, 0), dtype=np.int64), 7).tolist() == [np.eye(3).tolist()] * 2
        assert _left_annihilators(np.zeros((0, 3, 2), dtype=np.int64), 7).shape == (0, 0, 3)


def nested_pair(rng, n: int, k: int, d: int, p: int, width: int, parent_width: int):
    """A random n x d basis M_u of full rank mod p and M_v = M_u R of rank k, zero-padded to the widths."""
    while True:
        u = rng.integers(0, p, (n, d), dtype=np.int64)
        r = rng.integers(0, p, (d, k), dtype=np.int64)
        v = matmul_mod(u, r, p)
        if reference_rank(u, p) == d and reference_rank(v, p) == k:
            break
    return np.pad(v, ((0, 0), (0, width - k))), np.pad(u, ((0, 0), (0, parent_width - d)))


class TestNestedAnnihilators:
    # rows of ann(M_v) modulo ann(M_u) for M_v < M_u, from one elimination of
    # [M_v | M_u | I_n]; the references are matmul_mod and the Python-int rank

    @pytest.mark.parametrize("p", [2, 3, MAX_PRIME])
    @pytest.mark.parametrize("seed", range(4))
    def test_complement_rows_against_references(self, p, seed):
        rng = np.random.default_rng(seed)
        n = 7
        # (k, d) = (rank of M_v, rank of M_u): the matrices of one padded
        # stack need different numbers of pivots in each block
        shapes = [(1, 2), (1, 6), (3, 4), (2, 7), (4, 6), (0, 3)]
        pairs = [nested_pair(rng, n, k, d, p, 4, 7) for k, d in shapes]
        vs, us = np.stack([v for v, _ in pairs]), np.stack([u for _, u in pairs])
        ranks = np.array(shapes)
        (complement, kernel), counts = _nested_annihilators([vs, us], p, ranks)
        assert counts.tolist() == [[d - k for k, d in shapes], [n - d for _, d in shapes]]
        for (k, d), v, u, c, a in zip(shapes, vs, us, complement, kernel):
            c, a = c[c.any(axis=1)], a[a.any(axis=1)]
            assert c.shape[0] == d - k
            assert a.shape[0] == n - d
            assert not matmul_mod(c, v, p).any()
            assert not matmul_mod(a, u, p).any()
            assert reference_rank(np.vstack([c, a]), p) == n - k

    @pytest.mark.parametrize("p", [2, 3, MAX_PRIME])
    def test_each_matrix_reaches_its_own_target(self, p):
        # matrix 0 finds its one new pivot in M_u's first column; matrix 1
        # finds nothing there, because that column lies in M_v, and its two
        # new pivots come after.  A stop on matrix 0's count, or on the
        # stack's least target, would leave matrix 1 short of rows
        n = 5
        eye = np.eye(n, dtype=np.int64)
        vs = np.stack([eye[:, [0]], eye[:, [0]]])
        us = np.stack([eye[:, [1, 0, 0]] * [1, 1, 0], eye[:, [0, 4, 2]]])
        ranks = np.array([[1, 2], [1, 3]])
        (complement, kernel), counts = _nested_annihilators([vs, us], p, ranks)
        assert [int(c.any(axis=1).sum()) for c in complement] == [1, 2]
        assert [int(a.any(axis=1).sum()) for a in kernel] == [3, 2]
        assert counts.tolist() == [[1, 2], [3, 2]]
        for v, u, c, a in zip(vs, us, complement, kernel):
            c, a = c[c.any(axis=1)], a[a.any(axis=1)]
            assert not matmul_mod(c, v, p).any()
            assert not matmul_mod(a, u, p).any()
            assert reference_rank(np.vstack([c, a]), p) == n - 1

    @pytest.mark.parametrize("p", [2, 3, MAX_PRIME])
    def test_chained_blocks_match_pairs(self, p):
        # M_0 < M_1 < M_2 in one elimination: entry i spans ann(M_i) modulo
        # ann(M_i+1), as the pair (M_i, M_i+1) alone gives, and the last ann(M_2)
        rng = np.random.default_rng(5)
        n, labels = 8, (2, 3, 6)
        top = rng.integers(0, p, (n, labels[-1]), dtype=np.int64)
        while reference_rank(top, p) < labels[-1]:
            top = rng.integers(0, p, (n, labels[-1]), dtype=np.int64)
        bases = [top]
        for k in labels[-2::-1]:
            r = rng.integers(0, p, (bases[0].shape[1], k), dtype=np.int64)
            while reference_rank(matmul_mod(bases[0], r, p), p) < k:
                r = rng.integers(0, p, (bases[0].shape[1], k), dtype=np.int64)
            bases.insert(0, matmul_mod(bases[0], r, p))
        steps, counts = _nested_annihilators([b[None] for b in bases], p, np.array([labels]))
        assert [s.shape[1] for s in steps] == [1, 3, 2]
        assert counts.tolist() == [[1], [3], [2]]
        for i, (b, s) in enumerate(zip(bases, steps)):
            assert not matmul_mod(s[0], b, p).any()
            upper = np.vstack([t[0] for t in steps[i:]])
            assert reference_rank(upper, p) == n - labels[i]
