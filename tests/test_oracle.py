"""Random configurations, exact stabilizer ranks, certification, cross-ratio."""

import collections
import hashlib
import json
import random
import tracemalloc
from dataclasses import asdict
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeorbits import FlagProduct, LabeledTree, certify_density, cli, cross_ratio, oracle, parse_instance, products
from treeorbits.errors import BadRange, BoundsError, Degenerate, NotAPencil, NotPrime
from treeorbits.modp import _left_annihilators, matmul_mod, rank_mod
from treeorbits.oracle import DEFAULT_PRIME, Configuration, random_config, stabilizer_dim
from treeorbits.parsing import parse_tree_dsl
from treeorbits.products import as_tree
from treeorbits.trees import dimension, heaviest_chains, top_down

from .helpers import full_system_rank, rand_gl, random_product, random_tree, rooted_trees

HONEST_TREE = "a:1>m:3>r:5 | b:1>m | c:2>m | d:2>m"

# the 124 products of the certificate ladder: F(k1,k2;n)^3 for 4 <= n <= 10
# and five larger instances
LADDER = [FlagProduct(((k1, k2),) * 3, n) for n in range(4, 11) for k1, k2 in combinations(range(1, n), 2)]
LADDER += [FlagProduct((flag,) * 3, n)
           for flag, n in [((4, 7), 12), ((5, 7), 12), ((6, 7), 14), ((6, 8), 14), ((3, 6, 9), 16)]]


class TestRandomConfig:
    def test_deterministic(self):
        t = parse_tree_dsl("d1:1>d2:2>d3:3>d4:4>n:6 | d5:2>d4")
        a = random_config(t, p=10007, seed=3, trial=1)
        b = random_config(t, p=10007, seed=3, trial=1)
        assert a.bases.keys() == b.bases.keys()
        for v in a.bases:
            assert np.array_equal(a.bases[v], b.bases[v])

    def test_trials_differ(self):
        t = parse_tree_dsl("1>2>4")
        a = random_config(t, p=10007, seed=0, trial=0)
        b = random_config(t, p=10007, seed=0, trial=1)
        assert any(not np.array_equal(a.bases[v], b.bases[v]) for v in a.bases)

    def test_bad_arguments(self):
        t = parse_tree_dsl("1>2")
        with pytest.raises(NotPrime):
            random_config(t, p=10)
        for bad in (-1, True, False, 1.5):
            with pytest.raises(BadRange):
                random_config(t, seed=bad)
            with pytest.raises(BadRange):
                random_config(t, trial=bad)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_containments_and_ranks_exact(self, seed):
        rng = random.Random(seed)
        t = random_tree(rng, max_vertices=7, max_label=8)
        p = 10007
        config = random_config(t, p=p, seed=seed)
        for v, b in config.bases.items():
            k = t.labels[v]
            assert b.shape[1] == k
            assert rank_mod(b, p) == k
            up = t.parent[v]
            if up != t.root:
                stacked = np.hstack([config.bases[up], b])
                assert rank_mod(stacked, p) == t.labels[up]


def bases_digest(configs) -> str:
    """sha256 of the trials' bases: trial, vertex and shape, then the int64 bytes."""
    h = hashlib.sha256()
    for config in configs:
        for v in sorted(config.bases):
            b = config.bases[v]
            assert b.dtype == np.int64
            h.update(f"{config.trial}:{v}:{b.shape}".encode())
            h.update(b.tobytes())
    return h.hexdigest()


class TestDraws:
    # read off the draw that checked one (trial, vertex) at a time; over F_2
    # and F_3 many first candidates are singular, so the redraws are pinned
    # too.  At 2^30 + 3 about a quarter of the 32-bit values are rejected by
    # the bounded map, so many streams are drawn by ``candidate``
    @pytest.mark.parametrize(
        "text,p,digest",
        [
            ("F(1,2;4)^3", 2, "0efb649672b37c71c783e3d7181de8b7b322821f2b111f1a4fc48e46311a4c9e"),
            ("F(1,2;4)^3", 3, "db41b9ae29a8e8112baa186dd0efe7e3ee0ce97f0fd6f5b56a11bf19b97d3a36"),
            (HONEST_TREE, 2, "8b312054ef97572e6f43f99b6f5334b4a835f337e691355387a6b28b0f93f24e"),
            (HONEST_TREE, 3, "b367625dcfc9d2a829251c36077caad401f462fadc44a14a1c5bec879cdee1fa"),
            ("F(1,2;4)^3", 2**30 + 3, "5fbb9ae54c7468c8223d49630b0d4c64aa95f42567a1fff68dd1121bcf5980c1"),
            (HONEST_TREE, 2**30 + 3, "feb703670bf0bb8be9833ffaeb3ed0854729119973f1642d0b04e7ebfd8e5664"),
        ],
    )
    def test_bases_pinned(self, text, p, digest):
        x = parse_instance(text)
        assert bases_digest([random_config(x, p=p, trial=t) for t in range(6)]) == digest

    # enough trials for two full chunks and a partial one
    @pytest.mark.parametrize("text", ["F(1,2;4)^3", HONEST_TREE])
    @pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
    def test_certificate_ranks_the_draws_of_random_config(self, monkeypatch, text, p):
        x = parse_instance(text)
        firsts, lifted, chunks = [], [], []
        arrows, lift, rank = oracle._arrows, oracle._lift, oracle._ranked

        def arrows_spy(tree, p, seed, first, count):
            firsts.append(first)
            return arrows(tree, p, seed, first, count)

        def lift_spy(tree, p, factors):
            lifted.append((firsts[-1], lift(tree, p, factors)))
            return lifted[-1][1]

        def ranked_spy(tree, p, *moved):
            # the bases ranked are those of the chunk's last lift
            chunks.append(lifted[-1])
            return rank(tree, p, *moved)

        monkeypatch.setattr(oracle, "_arrows", arrows_spy)
        monkeypatch.setattr(oracle, "_lift", lift_spy)
        monkeypatch.setattr(oracle, "_ranked", ranked_spy)
        trials = 2 * oracle._TRIAL_CHUNK + 3
        report = certify_density(x, p=p, trials=trials, seed=5)
        ranked = [
            Configuration(x, p, 5, first + i, {v: b[i] for v, b in bases.items()})
            for first, bases in chunks
            for i in range(len(next(iter(bases.values()))))
        ]
        assert [first for first, _ in chunks] == [0, oracle._TRIAL_CHUNK, 2 * oracle._TRIAL_CHUNK]
        assert [c.trial for c in ranked] == list(range(trials))
        drawn = [random_config(x, p=p, seed=5, trial=t) for t in range(trials)]
        assert bases_digest(ranked) == bases_digest(drawn)
        assert list(report.ranks) == [stabilizer_dim(c).system_rank for c in drawn]

    def test_peak_memory_does_not_grow_with_trials(self):
        # the draws of only a fixed number of trials are held at once; with
        # all 64 held, this peak grows threefold
        x = parse_instance("G(4;12)^5")
        certify_density(x, trials=1)
        peaks = []
        for trials in (3, 64):
            tracemalloc.start()
            try:
                certify_density(x, trials=trials)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_stream_key_is_the_key_of_the_seeded_generator(self):
        for seed, trial, vertex in [(0, 0, 0), (5, 17, 3), (2**40, 1, 9)]:
            philox = np.random.Philox(np.random.SeedSequence([seed, trial, vertex]))
            keys = np.frombuffer(oracle._trial_keys(seed, trial, vertex + 1), dtype=np.uint64)
            assert np.array_equal(keys[-2:], philox.state["state"]["key"])

    def test_cold_and_warm_keys_give_the_same_draws(self):
        cases = [("F(1,2;4)^3", 2, 9), ("F(1,2;4)^3", 3, 9), (HONEST_TREE, 101, 3),
                 ("F(2,5;8)^3", DEFAULT_PRIME, 3)]

        def run():
            out = []
            for text, p, trials in cases:
                x = parse_instance(text)
                out.append(certify_density(x, p=p, trials=trials, seed=4))
                out.append(bases_digest([random_config(x, p=p, seed=4, trial=t) for t in range(trials)]))
            return out

        oracle._trial_keys.cache_clear()
        cold = run()
        misses = oracle._trial_keys.cache_info().misses
        warm = run()
        # every key of the second run was derived in the first
        assert oracle._trial_keys.cache_info().misses == misses
        assert cold == warm

    def test_key_memo_stays_within_its_bound(self):
        x = parse_instance("F(1;2)^3")
        for seed in range(50):
            certify_density(x, trials=64, seed=seed)
        info = oracle._trial_keys.cache_info()
        assert info.currsize <= info.maxsize == 2**10

    def test_a_repeated_call_derives_no_key(self):
        # 19 trials of 7 non-root vertices are 133 streams; the memo holds
        # whole trials, so a repeated call derives no key
        x = parse_instance("a:1>b:3>r:6 | c:1>g:3>d:5>r | e:1>f:2>d")
        oracle._trial_keys.cache_clear()
        first = certify_density(x, trials=19)
        assert oracle._trial_keys.cache_info().misses == 19
        assert certify_density(x, trials=19) == first
        assert oracle._trial_keys.cache_info().misses == 19

    @pytest.mark.parametrize("p", [2, 3, 5, 101, 65537, 2**30 + 3, 2**31 - 1])
    @pytest.mark.parametrize(
        "text,first,count",
        [
            # entries 8 and 2 per stream
            ("F(1,2;4)^3", 0, 3),
            # odd entry counts (15 and 3), a full chunk starting inside the
            # first one and a partial chunk at a chunk boundary
            (HONEST_TREE, 5, oracle._TRIAL_CHUNK),
            (HONEST_TREE, 2 * oracle._TRIAL_CHUNK, 3),
            ("a:1>b:3>r:6 | c:1>g:3>d:5>r | e:1>f:2>d", oracle._TRIAL_CHUNK, oracle._TRIAL_CHUNK),
            # a root-only tree draws nothing
            ("r:3", 0, 4),
        ],
    )
    def test_arrow_draw_is_the_draw_of_one_generator_per_stream(self, text, first, count, p):
        # the reference holds a generator per (trial, vertex) stream, seeded
        # with SeedSequence([seed, trial, vertex index]), and draws the
        # stream's factor with integers(0, p)
        tree = as_tree(parse_instance(text))
        factors, _ = oracle._arrows(tree, p, 9, first, count)
        assert list(factors) == top_down(tree)
        index = {v: i for i, v in enumerate(sorted(tree.labels))}
        rejecting = 0
        for v, stack in factors.items():
            assert stack.dtype == np.int64
            assert stack.shape == (count, tree.labels[tree.parent[v]], tree.labels[v])
            for i, t in enumerate(range(first, first + count)):
                rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([9, t, index[v]])))
                drawn = rng.integers(0, p, size=stack.shape[1:], dtype=np.int64)
                assert np.array_equal(stack[i], drawn), (v, t)
                # the 32-bit values the reference read: more than its entries
                # when one was rejected
                state = rng.bit_generator.state
                words = 4 * int(state["state"]["counter"][0]) - 4 + state["buffer_pos"]
                rejecting += 2 * words - state["has_uint32"] > drawn.size
        # at 2^30 + 3 about a quarter of the values are rejected, so streams
        # are drawn by the fallback
        if p == 2**30 + 3 and factors:
            assert rejecting > 0


class TestStabilizerDim:
    def test_single_grassmannian(self):
        report = stabilizer_dim(random_config(parse_tree_dsl("2>4")))
        assert report.variety_dim == 4
        assert report.system_rank == 4
        assert report.lie_stab_dim == 12
        assert report.pgl_stab_dim == 11
        assert report.certified_dense

    def test_full_flag_has_borel_stabilizer(self):
        report = stabilizer_dim(random_config(parse_tree_dsl("1>2>3")))
        assert report.variety_dim == 3
        assert report.system_rank == 3
        assert report.lie_stab_dim == 6

    def test_sparse_triple_rank_gap(self):
        p = FlagProduct(((1, 3), (1, 3), (1, 3)), 4)
        report = stabilizer_dim(random_config(p, p=10007))
        assert report.variety_dim == 15
        assert report.system_rank == 14
        assert not report.certified_dense

    def test_report_serialization(self):
        # a plain dataclass: asdict is its record
        report = stabilizer_dim(random_config(parse_tree_dsl("1>3")))
        record = asdict(report)
        assert record["p"] == DEFAULT_PRIME
        assert record["system_rank"] == report.system_rank
        assert record["lie_stab_dim"] + record["system_rank"] == 9

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_rank_bounded_by_dimension_and_scalars_stabilize(self, seed):
        t = random_tree(random.Random(seed), max_vertices=6, max_label=7)
        report = stabilizer_dim(random_config(t, p=10007, seed=seed))
        assert report.system_rank <= report.variety_dim
        assert report.lie_stab_dim >= 1

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_basis_change_invariance(self, seed):
        t = random_tree(random.Random(seed), max_vertices=6, max_label=7)
        p = 10007
        config = random_config(t, p=p, seed=seed)
        rng = np.random.default_rng(seed + 1)
        changed = {
            v: matmul_mod(b, rand_gl(rng, b.shape[1], p), p)
            for v, b in config.bases.items()
        }
        alt = Configuration(t, p, config.seed, config.trial, changed)
        assert stabilizer_dim(alt).system_rank == stabilizer_dim(config).system_rank

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_conjugation_invariance(self, seed):
        t = random_tree(random.Random(seed), max_vertices=6, max_label=7)
        p = 10007
        config = random_config(t, p=p, seed=seed)
        g = rand_gl(np.random.default_rng(seed + 2), t.ambient, p)
        moved = {v: matmul_mod(g, b, p) for v, b in config.bases.items()}
        alt = Configuration(t, p, config.seed, config.trial, moved)
        assert stabilizer_dim(alt).system_rank == stabilizer_dim(config).system_rank


@st.composite
def branched_trees(draw):
    """Trees with labels <= 9 in which a vertex below the root has two children."""
    n = draw(st.integers(3, 9))
    labels = {"r": n, "m": draw(st.integers(2, n - 1))}
    edges = [("m", "r")]
    for k in range(draw(st.integers(2, 6))):
        wide = sorted(v for v in labels if labels[v] >= 2)
        up = "m" if k < 2 else draw(st.sampled_from(wide))
        labels[f"v{k}"] = draw(st.integers(1, labels[up] - 1))
        edges.append((f"v{k}", up))
    return LabeledTree(labels, edges)


@st.composite
def two_branched_trees(draw):
    """Trees with labels <= 9 whose root has two children, each with two children or more."""
    n = draw(st.integers(3, 9))
    labels = {"r": n}
    edges = []
    for top in ("a", "b"):
        labels[top] = draw(st.integers(2, n - 1))
        edges.append((top, "r"))
        for k in range(draw(st.integers(2, 4))):
            wide = sorted(v for v in labels if v.startswith(top) and labels[v] >= 2)
            up = top if k < 2 else draw(st.sampled_from(wide))
            labels[f"{top}{k}"] = draw(st.integers(1, labels[up] - 1))
            edges.append((f"{top}{k}", up))
    return LabeledTree(labels, edges)


def hand_built(tree="a:1>b:2>r:4 | c:1>b", **bases):
    """A configuration of the tree over F_101 with columns of I_4 as bases."""
    tree = parse_tree_dsl(tree)
    cols = {v: np.eye(4, dtype=np.int64)[:, idx] for v, idx in bases.items()}
    return Configuration(tree, 101, 0, 0, cols)


# two chains of the same flag type: b>a is chain 1 (first in name order), d>c
# chain 2, and e is the one vertex that gives conditions
TWO_CHAINS = "a:1>b:2>r:4 | c:1>d:2>r | e:1>r"


def small_products(factors):
    """Every product of ``factors`` flag varieties with ambient n <= 5."""
    for n in range(2, 6):
        types = [f for k in range(1, n) for f in combinations(range(1, n), k)]
        for chosen in combinations_with_replacement(types, factors):
            yield FlagProduct(chosen, n)


class TestChainReduction:
    # stabilizer_dim ranks the system on the entries that keep two chains'
    # coordinate flags; the full n^2-column system is the reference

    @pytest.mark.parametrize("p", [2, DEFAULT_PRIME])
    def test_two_step_triples_match_the_full_system(self, p):
        for n in range(3, 9):
            for flag in combinations(range(1, n), 2):
                config = random_config(FlagProduct((flag,) * 3, n), p=p)
                assert stabilizer_dim(config).system_rank == full_system_rank(config), (flag, n)

    @given(branched_trees(), st.sampled_from([2, 3, 101, DEFAULT_PRIME]), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_branched_trees_match_the_full_system(self, tree, p, seed):
        config = random_config(tree, p=p, seed=seed)
        assert stabilizer_dim(config).system_rank == full_system_rank(config)

    def test_nested_hand_built_chain_is_ranked(self):
        config = hand_built(a=[0], b=[0, 1], c=[1])
        assert stabilizer_dim(config).system_rank == full_system_rank(config)

    def test_non_nested_chain_is_refused(self):
        with pytest.raises(BadRange):
            stabilizer_dim(hand_built(a=[0], b=[1, 2], c=[1]))

    def test_rank_deficient_chain_basis_is_refused(self):
        # span(b) is the line e1: it lies in span(e0, e1), the rows of the
        # chain's first two pivots, but it is not a plane
        with pytest.raises(BadRange):
            stabilizer_dim(hand_built(a=[0], b=[1, 1], c=[1]))

    # at p = 2 and 3 many draws put chain 2 in a non-generic position
    # relative to chain 1
    @pytest.mark.parametrize("factors", [2, 3])
    @pytest.mark.parametrize("p", [2, 3])
    def test_small_products_match_the_full_system(self, factors, p):
        for product in small_products(factors):
            config = random_config(product, p=p)
            assert stabilizer_dim(config).system_rank == full_system_rank(config), product

    @given(st.integers(0, 10**6), st.sampled_from([2, 3, 101, DEFAULT_PRIME]))
    @settings(max_examples=60, deadline=None)
    def test_random_products_match_the_full_system(self, seed, p):
        product = random_product(random.Random(seed), max_ambient=9, max_factors=5)
        config = random_config(product, p=p, seed=seed)
        assert stabilizer_dim(config).system_rank == full_system_rank(config)

    @given(two_branched_trees(), st.sampled_from([2, 3, 101, DEFAULT_PRIME]), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_branched_second_chains_match_the_full_system(self, tree, p, seed):
        config = random_config(tree, p=p, seed=seed)
        assert stabilizer_dim(config).system_rank == full_system_rank(config)

    # the identity cell, where both flags are span(e0) < span(e0, e1), and
    # a second flag in general position
    @pytest.mark.parametrize("c,d", [([0], [0, 1]), ([3], [2, 3])], ids=["equal", "opposite"])
    def test_hand_built_second_chain_is_ranked(self, c, d):
        config = hand_built(TWO_CHAINS, a=[0], b=[0, 1], c=c, d=d, e=[1])
        assert stabilizer_dim(config).system_rank == full_system_rank(config)

    def test_non_nested_second_chain_is_refused(self):
        with pytest.raises(BadRange, match="vertex 'd'"):
            stabilizer_dim(hand_built(TWO_CHAINS, a=[0], b=[0, 1], c=[2], d=[1, 3], e=[2]))

    def test_chain_1_is_refused_first(self):
        # both chains are non-nested; chain 1's vertices are checked first
        with pytest.raises(BadRange, match="vertex 'b'"):
            stabilizer_dim(hand_built(TWO_CHAINS, a=[0], b=[1, 2], c=[2], d=[1, 3], e=[2]))

    def test_rank_deficient_second_chain_basis_is_refused(self):
        # span(d) is the line e1, which holds span(c) but is not a plane
        with pytest.raises(BadRange, match="vertex 'd'"):
            stabilizer_dim(hand_built(TWO_CHAINS, a=[0], b=[0, 1], c=[1], d=[1, 1], e=[2]))

    def test_second_chain_basis_on_too_few_coordinates_is_refused(self):
        # span(d) is the plane spanned by e1 and e2, so chain 2 has two
        # coordinate rows where d's label needs three
        tree = "a:1>b:3>r:4 | c:1>d:3>r | e:1>r"
        with pytest.raises(BadRange, match="vertex 'd'"):
            stabilizer_dim(hand_built(tree, a=[0], b=[0, 1, 2], c=[1], d=[1, 1, 2], e=[3]))

    def test_missing_or_misshapen_basis_is_refused(self):
        with pytest.raises(BadRange):
            stabilizer_dim(hand_built(a=[0], b=[0, 1]))
        with pytest.raises(BadRange):
            stabilizer_dim(hand_built(a=[0], b=[0, 1], c=[1, 2]))


def is_point(config) -> bool:
    """Whether every basis has full rank mod p and lies in its parent's span, one rank at a time."""
    tree, p = config.tree, config.p
    for v, b in config.bases.items():
        up = tree.parent[v]
        if rank_mod(b, p) < tree.labels[v]:
            return False
        if up != tree.root and rank_mod(np.hstack([config.bases[up], b]), p) > tree.labels[up]:
            return False
    return True


def replaced(config, **bases) -> Configuration:
    return Configuration(config.tree, config.p, config.seed, config.trial, {**config.bases, **bases})


class TestPointCheck:
    # stabilizer_dim ranks only points of the variety; b, c and d hang below
    # the 3-space m of HONEST_TREE

    @pytest.mark.parametrize("v", ["b", "c", "d"])
    def test_basis_outside_its_parent_is_refused(self, v):
        config = random_config(parse_tree_dsl(HONEST_TREE), p=101)
        k = config.tree.labels[v]
        outside = np.random.default_rng(7).integers(0, 101, size=(5, k), dtype=np.int64)
        with pytest.raises(BadRange, match=f"vertex '{v}' is not inside that of vertex 'm'"):
            stabilizer_dim(replaced(config, **{v: outside}))

    @pytest.mark.parametrize("v", ["b", "c", "d"])
    def test_zero_basis_is_refused(self, v):
        config = random_config(parse_tree_dsl(HONEST_TREE), p=101)
        zero = np.zeros_like(config.bases[v])
        with pytest.raises(BadRange, match=f"vertex '{v}' has rank 0"):
            stabilizer_dim(replaced(config, **{v: zero}))

    def test_basis_of_full_rank_only_over_the_integers_is_refused(self):
        # e0 and e0 + 101 e1 are independent, but equal mod 101
        b = np.array([[1, 1], [0, 101], [0, 0], [0, 0]])
        with pytest.raises(BadRange, match="vertex 'b' has rank 1 mod 101"):
            stabilizer_dim(replaced(hand_built(a=[0], b=[0, 1], c=[1]), b=b))

    # 2^40 + 15 and 2^31 + 11 are primes above the int64-safe cap
    @pytest.mark.parametrize(
        "p,error,message",
        [(4, NotPrime, "not prime"), (1, NotPrime, "not prime"), (0, NotPrime, "not prime"),
         (7.0, NotPrime, "not prime"), (True, NotPrime, "not prime"),
         (2**40 + 15, BadRange, "exceeds"), (2**31 + 11, BadRange, "exceeds")],
    )
    def test_modulus_that_is_no_safe_prime_is_refused(self, p, error, message):
        config = random_config(parse_tree_dsl(HONEST_TREE), p=101)
        with pytest.raises(error, match=message):
            stabilizer_dim(Configuration(config.tree, p, 0, 0, config.bases))

    @pytest.mark.parametrize("entry", [0.5, True, 2**63, "1", None])
    def test_entry_that_is_no_int64_integer_is_refused(self, entry):
        config = hand_built(a=[0], b=[0, 1], c=[1])
        b = config.bases["b"].astype(object)
        b[2, 0] = entry
        with pytest.raises(BadRange, match="vertex 'b' .*int"):
            stabilizer_dim(replaced(config, b=b))

    def test_float_basis_is_refused(self):
        config = hand_built(a=[0], b=[0, 1], c=[1])
        with pytest.raises(BadRange, match="integer entries"):
            stabilizer_dim(replaced(config, b=config.bases["b"] + 0.5))
        with pytest.raises(BadRange, match="integer entries"):
            stabilizer_dim(replaced(config, b=config.bases["b"].astype(bool)))

    def test_integer_bases_of_any_kind_are_ranked(self):
        config = hand_built(a=[0], b=[0, 1], c=[1])
        rank = stabilizer_dim(config).system_rank
        as_lists = {v: b.tolist() for v, b in config.bases.items()}
        as_uint8 = {v: b.astype(np.uint8) for v, b in config.bases.items()}
        for bases in (as_lists, as_uint8):
            assert stabilizer_dim(replaced(config, **bases)).system_rank == rank

    def test_product_configuration_is_read_as_its_tree(self):
        x = parse_instance("F(1,2;4)^3")
        config = random_config(x, p=101)
        assert stabilizer_dim(Configuration(x, 101, 0, 0, config.bases)) == stabilizer_dim(config)

    @given(st.integers(0, 10**6), st.sampled_from([2, 3, 101, DEFAULT_PRIME]),
           st.integers(0, 10**6), st.sampled_from(["entry", "zero column", "copy column"]))
    @settings(max_examples=80, deadline=None)
    def test_perturbed_configuration_is_ranked_exactly_when_a_point(self, seed, p, pick, kind):
        tree = random_tree(random.Random(seed), max_vertices=6, max_label=6)
        config = random_config(tree, p=p, seed=seed)
        if not config.bases:
            return
        v = sorted(config.bases)[pick % len(config.bases)]
        b = config.bases[v].copy()
        i, j = divmod(pick // len(config.bases), b.shape[1])
        i %= b.shape[0]
        if kind == "entry":
            b[i, j] = (b[i, j] + 1 + pick % (p - 1)) % p
        elif kind == "zero column":
            b[:, j] = 0
        else:
            b[:, j] = b[:, 0]
        perturbed = replaced(config, **{v: b})
        if is_point(perturbed):
            assert stabilizer_dim(perturbed).system_rank == full_system_rank(perturbed)
        else:
            with pytest.raises(BadRange, match="vertex"):
                stabilizer_dim(perturbed)


class TestChunkRanking:
    # certify_density ranks a chunk of trials in one stacked pipeline;
    # stabilizer_dim ranks each trial alone

    @pytest.mark.parametrize("p", [2, 3, 101, DEFAULT_PRIME])
    def test_chunk_ranks_equal_each_trial_alone(self, monkeypatch, p):
        entries = []
        conditions = oracle._conditions

        def spy(blocks, kernels, allowed, q):
            entries.append(allowed.sum(axis=(1, 2)).tolist())
            return conditions(blocks, kernels, allowed, q)

        monkeypatch.setattr(oracle, "_conditions", spy)
        count = oracle._TRIAL_CHUNK
        # seeded trees, and a product whose systems are ranked one at a time
        trees = [random_tree(random.Random(seed), max_vertices=9, max_label=9) for seed in range(40)]
        for seed, tree in enumerate(trees + [as_tree(parse_instance("F(5,7;12)^3"))]):
            bases = oracle._draw(tree, p, seed, 0, count)
            chunk = oracle._system_ranks(tree, p, bases, count).tolist()
            alone = [stabilizer_dim(random_config(tree, p=p, seed=seed, trial=t)).system_rank
                     for t in range(count)]
            assert chunk == alone, (seed, tree.labels)
        # over F_2 and F_3 the trials of one chunk put chain 2 in different
        # positions relative to chain 1, so their allowed entries differ
        if p < 5:
            assert any(len(set(e)) > 1 for e in entries)

    def test_root_only_tree_has_rank_zero(self):
        tree = parse_tree_dsl("r:3")
        assert certify_density(tree).ranks == (0, 0, 0)
        assert stabilizer_dim(random_config(tree)).system_rank == 0

    def test_rank_deficient_off_chain_basis_is_padded_exactly(self):
        # e is on neither chain; in trial 0 its basis spans only the line e3,
        # so its annihilator has one row more than in trial 1, which the
        # chunk pads with a zero row.  Trial 0 is not a point of the variety,
        # so stabilizer_dim refuses it; the pipeline still ranks it exactly
        tree = "a:1>b:2>r:4 | c:1>d:2>r | e:2>r"
        configs = [hand_built(tree, a=[0], b=[0, 1], c=[1], d=[1, 2], e=e) for e in ([3, 3], [2, 3])]
        bases = {v: np.stack([c.bases[v] for c in configs]) for v in configs[0].bases}
        chunk = oracle._system_ranks(configs[0].tree, 101, bases, 2).tolist()
        with pytest.raises(BadRange, match="vertex 'e'"):
            stabilizer_dim(configs[0])
        assert chunk[1] == stabilizer_dim(configs[1]).system_rank
        assert chunk == [full_system_rank(c) for c in configs]
        assert [_left_annihilators(c.bases["e"][None], 101)[0].shape[0] for c in configs] == [3, 2]

    @pytest.mark.parametrize("cut", [0, 10**6])
    def test_stacked_and_one_at_a_time_ranks_agree(self, capsys, monkeypatch, cut):
        # each system ranked one trial at a time by rank_mod (cut 0), then
        # every system in one stack: the records are those at the module's cut
        cases = [["F(6,7;14)^3"], ["F(6,8;14)^3"], ["F(3,6,9;16)^3"], ["G(4;12)^5"],
                 ["F(2,5;8)^3", "--prime", "3", "--trials", "9", "--seed", "7"]]

        def records():
            out = []
            for args in cases:
                assert cli.main(["certify", *args, "--json"]) == 0
                out.append(json.loads(capsys.readouterr().out))
            return out

        expected = records()
        monkeypatch.setattr(oracle, "_STACKED_SIDE", cut)
        assert records() == expected
        assert [r["ranks"] for r in expected[2:4]] == [[255] * 3, [143] * 3]

    def test_only_systems_above_the_cut_are_ranked_one_at_a_time(self, monkeypatch):
        calls = []
        rank = oracle.rank_mod

        def spy(a, p):
            calls.append(np.shape(a))
            return rank(a, p)

        monkeypatch.setattr(oracle, "rank_mod", spy)
        # the ladder's largest systems, 90 x 76 for F(3,6,9;16)^3, are stacked
        for x in LADDER:
            certify_density(x)
        assert calls == []
        # G(4;12)^5's 96 x 80 systems are not: one rank_mod call per trial
        certify_density(parse_instance("G(4;12)^5"), trials=oracle._TRIAL_CHUNK + 2)
        assert calls == [(96, 80)] * (oracle._TRIAL_CHUNK + 2)


def conditions_reference(blocks, kernels, allowed, p):
    """Row (a, b) of each vertex's block holds C[a, i] M[j, b] on each allowed (i, j), row-major, padded."""
    count, n, _ = allowed.shape
    width = max(int(a.sum()) for a in allowed)
    systems = []
    for t in range(count):
        entries = [(i, j) for i in range(n) for j in range(n) if allowed[t, i, j]]
        rows = []
        for m, c in zip(blocks, kernels):
            for a in range(c.shape[1]):
                for b in range(m.shape[2]):
                    rows.append([int(c[t, a, i]) * int(m[t, j, b]) % p for i, j in entries]
                                + [0] * (width - len(entries)))
        systems.append(rows)
    return systems


class TestConditions:
    # the stabilizer systems that _conditions builds, against explicit loops

    @pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
    @pytest.mark.parametrize(
        "n,shapes,tall",
        [
            # (k, q) per vertex: bases n x k, condition rows q x n.  2 rows and
            # at least 4 entries, so fewer rows than entries; then 12 rows and
            # at most 9 entries
            (4, [(2, 1)], False),
            (3, [(2, 3), (1, 2), (2, 2)], True),
        ],
    )
    def test_systems_against_explicit_loops(self, n, shapes, tall, p):
        rng = np.random.default_rng(n * p % 1009)
        count = 4
        blocks = [rng.integers(0, p, (count, n, k), dtype=np.int64) for k, _ in shapes]
        kernels = [rng.integers(0, p, (count, n, q), dtype=np.int64).transpose(0, 2, 1).copy()
                   for _, q in shapes]
        # a trial with a smaller kernel carries zero rows
        for c in kernels:
            c[1, c.shape[1] // 2 :] = 0
        # every trial has its own number of allowed entries
        allowed = np.zeros((count, n * n), dtype=bool)
        for t, size in enumerate(rng.choice(np.arange(1, n * n + 1), count, replace=False)):
            allowed[t, rng.permutation(n * n)[:size]] = True
        allowed = allowed.reshape(count, n, n)
        system = oracle._conditions(blocks, kernels, allowed, p)
        rows, width = sum(k * q for k, q in shapes), allowed.sum(axis=(1, 2)).max()
        assert system.shape == (count, rows, width)
        assert system.tolist() == conditions_reference(blocks, kernels, allowed, p)
        # held with the shorter side in the columns
        assert (rows >= width) == tall
        assert (system if tall else system.transpose(0, 2, 1)).flags.c_contiguous


def child_first(config) -> Configuration:
    """The same point, each basis of a vertex with children rebuilt to begin with a child's basis.

    The child is the first in name order; it is followed by those of the
    vertex's own columns that raise the rank, so the span is unchanged and
    the chain moves find the vertex's last pivot only in its last column.
    """
    tree, p = config.tree, config.p
    bases = dict(config.bases)
    for v in bases:
        if tree.children[v]:
            cols = list(config.bases[min(tree.children[v])].T)
            for col in config.bases[v].T:
                if rank_mod(np.array(cols + [col]).T, p) > len(cols):
                    cols.append(col)
            bases[v] = np.array(cols).T
    return Configuration(tree, p, config.seed, config.trial, bases)


def stacked(configs) -> dict[str, np.ndarray]:
    return {v: np.stack([c.bases[v] for c in configs]) for v in configs[0].bases}


def chain_stops(config) -> dict[str, int]:
    """For each vertex on the two chains, how many of its columns give all its pivots.

    That is the least k for which the first k columns of its basis and the
    basis of the chain vertex below it span its subspace.
    """
    tree, p = config.tree, config.p
    stops = {}
    for chain, _ in heaviest_chains(tree, oracle._flag_weight):
        for v, below in zip(chain, chain[1:] + [None]):
            b = config.bases[v]
            known = config.bases[below] if below else b[:, :0]
            stops[v] = next(k for k in range(b.shape[1] + 1)
                            if rank_mod(np.hstack([known, b[:, :k]]), p) == b.shape[1])
    return stops


class TestChainStop:
    # the chain moves skip a vertex's remaining columns once every trial of a
    # chunk has as many of the chain's pivots as the vertex's label; the full
    # system is the reference

    @pytest.mark.parametrize("b", [[0, 1], [1, 0]], ids=["child first", "child last"])
    def test_hand_built_chain_top(self, b):
        # b's basis begins (child first) or ends with a's column e0, so with
        # child last every trial leaves b's second column; d's basis begins
        # with c's column e1 in trial 0 and ends with it in trial 1, so trial
        # 1 alone would leave d's second column, but the chunk moves it
        configs = [hand_built(TWO_CHAINS, a=[0], b=b, c=[1], d=d, e=[2]) for d in ([1, 0], [0, 1])]
        chunk = oracle._system_ranks(configs[0].tree, 101, stacked(configs), 2).tolist()
        assert chunk == [full_system_rank(c) for c in configs]
        assert chunk == [stabilizer_dim(c).system_rank for c in configs]

    @pytest.mark.parametrize(
        "text", ["F(2,5;8)^3", "F(1,3,4;6)^3", HONEST_TREE, "a:1>b:3>r:6 | c:2>d:4>r | e:3>r"]
    )
    @pytest.mark.parametrize("p", [3, 101, DEFAULT_PRIME])
    def test_child_first_bases_stop_late(self, text, p):
        x = parse_instance(text)
        drawn = [random_config(x, p=p, seed=2, trial=t) for t in range(4)]
        # in a chunk with trials 0 and 2 no chain vertex stops before its
        # last column; trials 1 and 3 would stop early
        configs = [child_first(c) if t % 2 == 0 else c for t, c in enumerate(drawn)]
        assert any(k < c.tree.labels[v] for c in drawn[1::2] for v, k in chain_stops(c).items())
        for c in configs[::2]:
            assert all(k == c.tree.labels[v] for v, k in chain_stops(c).items())
        chunk = oracle._system_ranks(configs[0].tree, p, stacked(configs), len(configs)).tolist()
        assert chunk == [full_system_rank(c) for c in configs]
        assert chunk == [stabilizer_dim(c).system_rank for c in configs]

    # over F_2 and F_3 some draws are not generic, and trials of one chunk
    # need different numbers of a chain vertex's columns
    @pytest.mark.parametrize(
        "text,p", [("F(2,5;8)^3", 3), ("F(1,2;4)^3", 2), ("F(1,3;5)^3", 3), (HONEST_TREE, 3)]
    )
    def test_trials_of_one_chunk_stop_at_different_columns(self, text, p):
        x = parse_instance(text)
        report = certify_density(x, p=p, trials=9, seed=7)
        drawn = [random_config(x, p=p, seed=7, trial=t) for t in range(9)]
        assert list(report.ranks) == [full_system_rank(c) for c in drawn]
        stops = [chain_stops(c) for c in drawn[: oracle._TRIAL_CHUNK]]
        labels = drawn[0].tree.labels
        assert any(len({s[v] for s in stops}) > 1 and min(s[v] for s in stops) < labels[v]
                   for v in stops[0])


# two full flags as the chains, and x < w < c and y < w on neither chain
TWO_FLAGS_AND_A_FORK = "a1:1>a2:2>a3:3>a4:4>a5:5>r:6 | b1:1>b2:2>b3:3>b4:4>b5:5>r | x:1>w:2>c:4>r | y:1>w"


def tangent_rows(tree) -> int:
    """Rows of the tangent system: phi(v)(phi(u) - phi(v)) for each vertex v on neither chain, u its parent."""
    on_chains = {v for chain, _ in heaviest_chains(tree, oracle._flag_weight) for v in chain}
    return sum(tree.labels[v] * (tree.labels[u] - tree.labels[v])
               for v, u in tree.parent.items() if v not in on_chains)


@pytest.fixture
def systems(monkeypatch):
    """The shapes of the systems that ``oracle._conditions`` builds, as they are built."""
    shapes = []
    conditions = oracle._conditions

    def spy(blocks, kernels, allowed, q):
        system = conditions(blocks, kernels, allowed, q)
        shapes.append(system.shape)
        return system

    monkeypatch.setattr(oracle, "_conditions", spy)
    return shapes


class TestTangentRows:
    # each vertex on neither chain gives the rows of ann(M_v) modulo
    # ann(M_parent) only, the tangent space of its Grassmannian fibre

    def test_ladder_systems_have_the_tangent_rows(self, systems):
        for x in LADDER:
            systems.clear()
            certify_density(x)
            assert {rows for _, rows, _ in systems} == {tangent_rows(as_tree(x))}, x

    @pytest.mark.parametrize(
        "text,rows",
        [("F(4,6;10)^3", 32), ("F(3,6,9;16)^3", 90), ("G(5;20)^5", 225), (HONEST_TREE, 6),
         ("a:1>b:3>r:6 | c:1>g:3>d:5>r | e:1>f:2>d", 7), (TWO_FLAGS_AND_A_FORK, 14)],
    )
    def test_pinned_row_counts(self, systems, text, rows):
        # HONEST_TREE: three vertices on neither chain under the chain vertex m;
        # then the path e < f on neither chain hangs from chain vertex d; and
        # w, on neither chain, has two such children, so the path of y ends
        # in w's block and that of x runs through w
        x = parse_instance(text)
        assert tangent_rows(as_tree(x)) == rows
        certify_density(x, p=3, trials=2)
        assert {r for _, r, _ in systems} == {rows}


class TestPointFlags:
    # the certificate's chain moves and annihilators report, per trial,
    # whether every lifted basis has as many pivots as its label; that is
    # the check of every drawn factor for full rank, which they replace

    @staticmethod
    def factor_check(tree, p, factors):
        # per trial, whether each of its factors, one per stack, has full rank
        return [all(oracle.rank_mod(stack[i], p) == tree.labels[v] for v, stack in factors.items())
                for i in range(len(next(iter(factors.values()))))]

    @pytest.mark.parametrize("p", [2, 3, 101, DEFAULT_PRIME])
    def test_hand_made_short_factors(self, p):
        # HONEST_TREE has one chain, m > a; m is a root child, a a deeper
        # chain vertex, and b, c, d hang from m on neither chain
        tree = parse_tree_dsl(HONEST_TREE)
        (chain, _), (second, _) = heaviest_chains(tree, oracle._flag_weight)
        assert (chain, second) == (["m", "a"], [])
        short = [None, "m", "a", "b", "d"]
        factors, candidate = oracle._arrows(tree, p, 0, 0, len(short))
        oracle._redraw_singular(tree, p, factors, candidate)
        for t, v in enumerate(short):
            if v is not None:
                factor = factors[v][t]
                # its last column a multiple of its first, or zero
                factor[:, -1] = 2 * factor[:, 0] % p if factor.shape[1] > 1 else 0
        full = oracle._moved(tree, p, oracle._lift(tree, p, factors), len(short))[0]
        assert full.tolist() == self.factor_check(tree, p, factors)
        assert full.tolist() == [True, False, False, False, False]

    @pytest.mark.parametrize(
        "text", ["F(1,2;4)^3", HONEST_TREE, "a:1>b:3>r:6 | c:1>g:3>d:5>r | e:1>f:2>d", TWO_FLAGS_AND_A_FORK]
    )
    @pytest.mark.parametrize("p", [2, 3])
    def test_first_draws(self, text, p):
        # the unchecked first candidates of 64 trials over fields where many
        # are singular; over F_2 every trial of the last tree has one
        tree = as_tree(parse_instance(text))
        flags = []
        for first in range(0, 64, oracle._TRIAL_CHUNK):
            count = oracle._TRIAL_CHUNK
            factors, _ = oracle._arrows(tree, p, 1, first, count)
            full = oracle._moved(tree, p, oracle._lift(tree, p, factors), count)[0]
            assert full.tolist() == self.factor_check(tree, p, factors), first
            flags += full.tolist()
        assert not all(flags)

    @pytest.mark.parametrize("text", ["F(1,2;4)^3", HONEST_TREE, "a:1>b:3>r:6 | c:1>g:3>d:5>r | e:1>f:2>d"])
    @pytest.mark.parametrize("p", [2, 3])
    def test_redrawn_chunks_rank_the_points_of_random_config(self, monkeypatch, text, p):
        # over F_2 and F_3 some chunk of 19 trials falls short in stage 1, so
        # its factors are checked and redrawn before it is ranked
        x = parse_instance(text)
        checked = []
        check = oracle._redraw_singular

        def spy(*args):
            checked.append(True)
            return check(*args)

        monkeypatch.setattr(oracle, "_redraw_singular", spy)
        report = certify_density(x, p=p, trials=19, seed=3)
        assert 0 < len(checked) <= 3
        drawn = [random_config(x, p=p, seed=3, trial=t) for t in range(19)]
        assert list(report.ranks) == [stabilizer_dim(c).system_rank for c in drawn]

    def test_ladder_skips_the_factor_check(self, monkeypatch):
        # at p = 2^31 - 1 no first draw of the 124 ladder products is
        # singular, so each of their chunks is moved and ranked once
        calls = collections.Counter()
        for name in ("_redraw_singular", "_moved", "_ranked"):
            def spy(*args, f=getattr(oracle, name), name=name):
                calls[name] += 1
                return f(*args)
            monkeypatch.setattr(oracle, name, spy)
        assert len(LADDER) == 124
        for x in LADDER:
            assert len(certify_density(x).ranks) == 3 <= oracle._TRIAL_CHUNK
        assert calls == {"_moved": 124, "_ranked": 124}


class TestRootedTreeFamily:
    # every label-decreasing rooted tree with root label <= 5 and at most 6
    # vertices, up to isomorphism

    def test_family_size(self):
        assert len(rooted_trees(5, 6)) == 1271

    def test_every_tree_matches_the_full_system(self, systems):
        for tree in rooted_trees(5, 6):
            systems.clear()
            config = random_config(tree, p=3, seed=0)
            assert stabilizer_dim(config).system_rank == full_system_rank(config), tree.labels
            assert [rows for _, rows, _ in systems] == [tangent_rows(tree)], tree.labels


class TestSizeGuard:
    # the pipeline's arrays are bounded from the labels before any draw

    @pytest.mark.parametrize("text", ["G(1;100000)^3", "G(1;2000)^3", "F(1;300)^2"])
    def test_large_instances_are_refused_before_any_draw(self, monkeypatch, text):
        def draw(*args):
            raise AssertionError("drawn")

        monkeypatch.setattr(oracle, "_draw", draw)
        with pytest.raises(BoundsError, match="over the cap"):
            certify_density(parse_instance(text))

    def test_stabilizer_dim_refuses_before_ranking(self, monkeypatch):
        config = random_config(parse_instance("G(1;2000)^3"))

        def ranks(*args):
            raise AssertionError("ranked")

        monkeypatch.setattr(oracle, "ranks_mod", ranks)
        with pytest.raises(BoundsError, match="over the cap"):
            stabilizer_dim(config)

    def test_random_config_refuses_before_any_draw(self, monkeypatch):
        # one trial's candidates of G(5000;10000)^2 would hold 10^8 entries
        def draw(*args):
            raise AssertionError("drawn")

        monkeypatch.setattr(oracle, "_draw", draw)
        monkeypatch.setattr(oracle, "_arrows", draw)
        with pytest.raises(BoundsError, match="over the cap"):
            random_config(parse_instance("G(5000;10000)^2"))

    def test_random_config_draws_a_long_thin_instance(self):
        # 3 * 100,000 * 1 candidate entries: below the cap, unlike its certificate
        config = random_config(parse_instance("G(1;100000)^3"))
        assert [b.shape for b in config.bases.values()] == [(100000, 1)] * 3

    @pytest.mark.parametrize("text", ["G(1;100000)^3", "G(1;2000)^3", "F(1;300)^2"])
    def test_certificate_refuses_before_the_arrow_draw(self, monkeypatch, text):
        def draw(*args):
            raise AssertionError("drawn")

        monkeypatch.setattr(oracle, "_arrows", draw)
        with pytest.raises(BoundsError, match="over the cap"):
            certify_density(parse_instance(text))

    def test_the_bound_holds_the_largest_arrays(self, monkeypatch):
        # the draw's stack, the annihilators' stack and the systems of one
        # certificate, against the bound read off the labels
        sizes, bounds = [], []
        # the draw's largest arrays hold two 32-bit values per word read
        for name, size in [("_arrows", lambda out, *a: sum(len(f) * (f[0].size + f[0].size % 2)
                                                           for f in out[0].values())),
                           ("_padded", lambda out, *a: out.size),
                           ("_nested_annihilators", lambda out, blocks, *a: sum(b.size for b in blocks)
                            + blocks[0].shape[0] * blocks[0].shape[1] ** 2),
                           ("_conditions", lambda out, *a: out.size)]:
            def spy(*args, f=getattr(oracle, name), size=size):
                out = f(*args)
                sizes.append(size(out, *args))
                return out
            monkeypatch.setattr(oracle, name, spy)
        check = oracle._check_size

        def guard(tree, dim, count):
            bounds.append(check(tree, dim, count))
            return bounds[-1]

        monkeypatch.setattr(oracle, "_check_size", guard)
        full_flag = "F(" + ",".join(map(str, range(1, 12))) + ";12)^3"
        for text in ["F(3,6,9;16)^3", "G(5;20)^5", "a:1>b:3>r:6 | c:1>g:3>d:5>r | e:1>f:2>d",
                     full_flag, "G(1;2)^40", HONEST_TREE]:
            sizes.clear()
            bounds.clear()
            certify_density(parse_instance(text), trials=8)
            assert max(sizes) <= bounds[0] <= oracle._MAX_ENTRIES, text

    def test_a_product_is_refused_before_its_tree_is_built(self, monkeypatch):
        # the tree of G(1;2)^1000000 has 1,000,001 vertices; the guard reads the factors
        def build(*args):
            raise AssertionError("tree built")

        x = parse_instance("G(1;2)^1000000")
        for module in (oracle, products):
            monkeypatch.setattr(module, "as_tree", build)
        monkeypatch.setattr(products, "product_to_tree", build)
        with pytest.raises(BoundsError, match="over the cap"):
            certify_density(x)

    @given(st.integers(0, 10**6), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_a_product_has_the_bound_of_its_tree(self, seed, count):
        p = random_product(random.Random(seed), max_ambient=30, max_factors=6)
        tree, dim = as_tree(p), products.product_dimension(p)
        assert oracle._check_size(p, dim, count) == oracle._check_size(tree, dim, count)


class TestCertifyDensity:
    def test_homogeneous_certifies_immediately(self):
        report = certify_density(parse_tree_dsl("1>2>4"), trials=1)
        assert report.certified_dense
        assert report.status == "DenseCertified"
        assert report.ranks == (5,)

    def test_grassmannian_star_certifies(self):
        report = certify_density(FlagProduct(((1,), (1,), (1,)), 3))
        assert report.certified_dense

    def test_trivially_sparse_star_never_certifies(self):
        report = certify_density(FlagProduct(((2, 4), (2, 4), (2, 4)), 6))
        assert not report.certified_dense
        assert report.status == "Inconclusive"
        assert report.variety_dim == 36
        assert max(report.ranks) <= 35

    def test_crowded_junction_never_certifies(self):
        tree = parse_tree_dsl(HONEST_TREE)
        for p in (DEFAULT_PRIME, 65537):
            report = certify_density(tree, p=p, trials=5)
            assert not report.certified_dense
            assert report.variety_dim == 14
            assert all(r < 14 for r in report.ranks)

    def test_crowded_junction_variant_certifies(self):
        # moving one heavy leaf to the root makes the variety dense
        tree = parse_tree_dsl("a:1>m:3>r:5 | b:1>m | c:2>m | d:2>r")
        report = certify_density(tree)
        assert report.certified_dense
        assert report.variety_dim == 18

    def test_reproducible(self):
        p = FlagProduct(((1, 3), (1, 3), (1, 3)), 4)
        a = certify_density(p, p=10007, trials=2, seed=5)
        b = certify_density(p, p=10007, trials=2, seed=5)
        assert a == b
        record = a.to_json_dict()
        assert record["system_rank"] == max(a.ranks)
        assert record["trials"] == 2

    def test_bad_trials(self):
        x = FlagProduct(((1,),), 2)
        for bad in (0, -1, True, False, 1.5):
            with pytest.raises(BadRange):
                certify_density(x, trials=bad)
        for bad in (-1, True, False, 1.5):
            with pytest.raises(BadRange):
                certify_density(x, seed=bad)

    # F(k1,k2;n)^3 is dense exactly when k1 + k2 != n; ranks at the default arguments
    def test_dense_side_of_theorem_pinned(self):
        report = certify_density(FlagProduct(((4, 7),) * 3, 12))
        assert (report.status, report.ranks, report.variety_dim) == ("DenseCertified", (141,) * 3, 141)

    def test_sparse_side_of_theorem_pinned(self):
        report = certify_density(FlagProduct(((5, 7),) * 3, 12))
        assert (report.status, report.ranks, report.variety_dim) == ("Inconclusive", (133,) * 3, 135)

    # every F(k1,k2;n)^3 with 4 <= n <= 10 and five larger products at the
    # default arguments; then n <= 7 over F_3 with nine trials, which redraws,
    # ranks a partial chunk and stops the chain moves of its trials apart
    @pytest.mark.parametrize(
        "top,large,kwargs,digest",
        [
            (10, [((4, 7), 12), ((5, 7), 12), ((6, 7), 14), ((6, 8), 14), ((3, 6, 9), 16)], {},
             "442af3a725505ef945060eb04e8425e55bd51b7a83d5c1a8a75d38db44ab86a8"),
            (7, [], {"p": 3, "trials": 9},
             "f441052d4dc59f05da6cd12bce2692094db1bda966b3a632f3a3754fe75f70e8"),
        ],
        ids=["default", "F_3"],
    )
    def test_ladder_records_pinned(self, top, large, kwargs, digest):
        products = [FlagProduct(((k1, k2),) * 3, n)
                    for n in range(4, top + 1) for k1, k2 in combinations(range(1, n), 2)]
        products += [FlagProduct((flag,) * 3, n) for flag, n in large]
        h = hashlib.sha256()
        for x in products:
            h.update(json.dumps(certify_density(x, **kwargs).to_json_dict(), sort_keys=True).encode())
        assert h.hexdigest() == digest


def line_points(params, p):
    """Columns a*u + b*v in the plane with u = (1,0), v = (0,1)."""
    return [np.array([[a], [b]], dtype=np.int64) % p for a, b in params]


def moved_pencil(rng: np.random.Generator, n: int, d: int, p: int):
    """A random pencil of d-spaces in F_p^n with its parameters: (params, g, zs, lower, upper).

    The pencil of e_0, ..., e_{d-2}, a e_{d-1} + b e_d for four distinct
    points (a, b) of P^1, moved by a random g in GL(n), with each basis
    changed by a random GL(d).
    """
    params = []
    while len(params) < 4:
        a, b = (int(x) for x in rng.integers(0, p, size=2))
        if (a, b) != (0, 0) and all((a * y - b * x) % p for x, y in params):
            params.append((a, b))
    eye = np.eye(n, dtype=np.int64)
    g = rand_gl(rng, n, p)
    zs = [
        matmul_mod(g, np.hstack([eye[:, : d - 1], (a * eye[:, d - 1] + b * eye[:, d])[:, None]]), p)
        for a, b in params
    ]
    zs = [matmul_mod(z, rand_gl(rng, d, p), p) for z in zs]
    return params, g, zs, matmul_mod(g, eye[:, : d - 1], p), matmul_mod(g, eye[:, : d + 1], p)


class TestCrossRatio:
    def test_line_normalization(self):
        p = 101
        zs = line_points([(0, 1), (1, 0), (1, 1), (3, 1)], p)
        lower = np.zeros((2, 0), dtype=np.int64)
        upper = np.eye(2, dtype=np.int64)
        assert cross_ratio(zs, lower, upper, p) == 3

    def test_harmonic_tuple(self):
        p = 101
        zs = line_points([(0, 1), (1, 0), (1, 1), (-1, 1)], p)
        lower = np.zeros((2, 0), dtype=np.int64)
        upper = np.eye(2, dtype=np.int64)
        assert cross_ratio(zs, lower, upper, p) == p - 1

    def test_pencil_of_planes(self):
        # planes between a line and a 3-space inside F_101^4
        p = 101
        lower = np.array([[1], [2], [3], [4]], dtype=np.int64)
        u = np.array([1, 0, 0, 0], dtype=np.int64)
        v = np.array([0, 1, 0, 0], dtype=np.int64)
        upper = np.hstack([lower, u[:, None], v[:, None]])
        params = [(0, 1), (1, 0), (1, 1), (3, 1)]
        zs = [
            np.hstack([lower, ((a * u + b * v) % p)[:, None]]) for a, b in params
        ]
        assert cross_ratio(zs, lower, upper, p) == 3

    def test_projective_invariance(self):
        p = 101
        rng = np.random.default_rng(11)
        lower = np.array([[1], [2], [3], [4]], dtype=np.int64)
        u = np.array([1, 0, 0, 0], dtype=np.int64)
        v = np.array([0, 1, 0, 0], dtype=np.int64)
        upper = np.hstack([lower, u[:, None], v[:, None]])
        params = [(0, 1), (1, 0), (1, 1), (3, 1)]
        zs = [np.hstack([lower, ((a * u + b * v) % p)[:, None]]) for a, b in params]
        value = cross_ratio(zs, lower, upper, p)
        g = rand_gl(rng, 4, p)
        moved = [matmul_mod(g, z, p) for z in zs]
        assert cross_ratio(
            moved, matmul_mod(g, lower, p), matmul_mod(g, upper, p), p
        ) == value

    def test_degenerate_pair(self):
        p = 101
        zs = line_points([(0, 1), (1, 0), (1, 1), (0, 1)], p)
        lower = np.zeros((2, 0), dtype=np.int64)
        upper = np.eye(2, dtype=np.int64)
        with pytest.raises(Degenerate):
            cross_ratio(zs, lower, upper, p)

    def test_not_a_pencil_when_containment_fails(self):
        p = 101
        lower = np.array([[1], [0], [0], [0]], dtype=np.int64)
        upper = np.hstack([lower, np.eye(4, dtype=np.int64)[:, 1:3]])
        good = np.hstack([lower, np.eye(4, dtype=np.int64)[:, 1:2]])
        bad = np.eye(4, dtype=np.int64)[:, 2:4]  # does not contain the lower line
        with pytest.raises(NotAPencil):
            cross_ratio([good, good, good, bad], lower, upper, p)

    def test_wrong_shapes(self):
        p = 7
        zs = line_points([(0, 1), (1, 0), (1, 1), (3, 1)], p)
        with pytest.raises(BadRange):
            cross_ratio(zs[:3], np.zeros((2, 0)), np.eye(2), p)
        with pytest.raises(NotAPencil):
            cross_ratio(zs, np.zeros((2, 1)), np.eye(2), p)
        # a flag pair whose size is no multiple of n
        with pytest.raises(NotAPencil):
            cross_ratio(zs, np.zeros((3, 1), dtype=np.int64), np.eye(2, dtype=np.int64), p)

    @pytest.mark.parametrize("entry", [3.7, True, 2**64, "3"])
    def test_entry_that_is_no_int64_integer_is_refused(self, entry):
        zs = [z.astype(object) for z in line_points([(0, 1), (1, 0), (1, 1), (3, 1)], 101)]
        zs[3][0, 0] = entry
        with pytest.raises(BadRange, match="subspace 4"):
            cross_ratio(zs, np.zeros((2, 0), dtype=np.int64), np.eye(2, dtype=np.int64), 101)

    def test_float_flag_is_refused(self):
        zs = line_points([(0, 1), (1, 0), (1, 1), (3, 1)], 101)
        with pytest.raises(BadRange, match="upper flag"):
            cross_ratio(zs, np.zeros((2, 0), dtype=np.int64), np.eye(2), 101)

    @given(st.integers(1, 4), st.integers(0, 3), st.sampled_from([5, 7, 101, DEFAULT_PRIME]),
           st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_moved_standard_pencil_gives_the_cross_ratio_of_its_parameters(self, d, extra, p, seed):
        params, _, zs, lower, upper = moved_pencil(np.random.default_rng(seed), d + 1 + extra, d, p)

        def det2(u, v):
            return u[0] * v[1] - u[1] * v[0]
        z1, z2, z3, z4 = params
        expected = det2(z4, z1) * det2(z3, z2) * pow(det2(z4, z2) * det2(z3, z1), -1, p) % p
        assert cross_ratio(zs, lower, upper, p) == expected

    def test_outcomes_pinned(self):
        # moved standard pencils with d = 1..4, intact or with one corruption:
        # two subspaces made to coincide, a subspace moved outside the upper
        # flag (around the lower flag, or meeting the upper flag only in 0,
        # so missing a non-empty lower flag first), or a lower flag (d >= 2)
        # made rank-deficient; every input also carries multiples of p, so
        # it is read mod p
        outcomes = []
        for p in (5, 7, 101, DEFAULT_PRIME):
            for seed in range(100):
                rng = np.random.default_rng([seed, p])
                kind = seed % 4
                d = 1 + seed // 4 % 4 if kind != 3 else 2 + seed // 4 % 3
                n = (d + 1 if kind != 2 else 2 * d + 1) + int(rng.integers(0, 3))
                _, g, zs, lower, upper = moved_pencil(rng, n, d, p)
                i, j = sorted(int(x) for x in rng.choice(4, size=2, replace=False))
                if kind == 1:
                    zs[j] = matmul_mod(zs[i], rand_gl(rng, d, p), p)
                elif kind == 2 and seed % 8 == 2:
                    zs[j] = matmul_mod(g[:, [*range(d - 1), d + 1]], rand_gl(rng, d, p), p)
                elif kind == 2:
                    zs[j] = matmul_mod(g[:, d + 1 : 2 * d + 1], rand_gl(rng, d, p), p)
                elif kind == 3:
                    lower = lower.copy()
                    lower[:, -1] = matmul_mod(lower[:, :-1], rng.integers(0, p, size=d - 2), p)
                zs, lower, upper = ([m + p * rng.integers(0, 3, size=m.shape) for m in zs],
                                    lower + p * rng.integers(0, 3, size=lower.shape),
                                    upper + p * rng.integers(0, 3, size=upper.shape))
                try:
                    outcome = str(cross_ratio(zs, lower, upper, p))
                except (BadRange, Degenerate, NotAPencil) as e:
                    outcome = f"{type(e).__name__}: {e}"
                outcomes.append(f"{p} {seed} {outcome}")
        # each corruption is refused, by the first check that it fails, and
        # each intact pencil has a value
        refusals = collections.Counter(o.split(" ", 2)[2].split(":")[0] for o in outcomes if ":" in o)
        assert refusals == {"Degenerate": 100, "NotAPencil": 200}
        failed = collections.Counter(o.split(": ")[1].split(" ", 2)[2] for o in outcomes if "NotAPencil" in o)
        assert failed == {"is not (d-1)-dimensional": 100, "is not inside the upper flag": 52,
                          "does not contain the lower flag": 48}
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == "87d3e261046d95334ad8ea4873ab43ee0b47e02e2297dff8b80f39c17928e9e9"

    def test_more_than_two_axes_is_refused(self):
        with pytest.raises(NotAPencil):
            cross_ratio([[[[1]]]] * 4, [[1, 0]], [[0, 1]], 7)
        zs = line_points([(0, 1), (1, 0), (1, 1), (3, 1)], 7)
        with pytest.raises(NotAPencil):
            cross_ratio(zs, np.zeros((1, 2, 0)), np.eye(2), 7)
        with pytest.raises(NotAPencil):
            cross_ratio(zs, np.zeros((2, 0)), np.eye(2)[None], 7)

    def test_value_never_zero_or_one(self):
        p = 13
        rng = np.random.default_rng(5)
        for _ in range(30):
            t = int(rng.integers(2, p))
            zs = line_points([(0, 1), (1, 0), (1, 1), (t, 1)], p)
            value = cross_ratio(zs, np.zeros((2, 0)), np.eye(2, dtype=np.int64), p)
            assert value == t
            assert value not in (0, 1)
