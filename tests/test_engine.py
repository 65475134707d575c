"""Decision engine: frozen verdicts, trace shape, and the theorem invariants."""

import collections
import hashlib
import json
import random
from itertools import combinations, combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeorbits import (
    DENSE,
    SPARSE,
    TRIVIALLY_SPARSE,
    UNKNOWN,
    FlagProduct,
    LabeledTree,
    certify_density,
    decide,
    dualize,
    engine,
    orbit_class,
)
from treeorbits.classify import trivially_sparse
from treeorbits.engine import RULES
from treeorbits.errors import BadRange
from treeorbits.parsing import parse_product, parse_tree_dsl
from treeorbits.products import as_flag_product, forget_entries, product_to_tree
from treeorbits.trees import forget_vertex, to_dsl

from .helpers import random_product, random_tree, rooted_trees

RULE_IDS = {r.rule_id for r in RULES}
TERMINAL_IDS = {r.rule_id for r in RULES if r.kind == "terminal"}
SPARSE_CLASS = {SPARSE, TRIVIALLY_SPARSE}
# five-Grassmannian multisets on which R8 once answered Sparse in some factor
# order; the benchmark's decide_sweep decides every order of each
FIVE_GRASSMANNIANS = [(7, (1, 1, 1, 3, 4)), (7, (3, 4, 6, 6, 6)), (8, (1, 1, 1, 3, 5)),
                      (8, (3, 5, 7, 7, 7)), (6, (1, 1, 1, 3, 3)), (6, (3, 3, 5, 5, 5)),
                      (8, (1, 1, 2, 4, 4)), (8, (4, 4, 6, 7, 7))]
# TestTraceBytes.test_records_pinned, read off the engine before _canonical
# built only the side it keeps and R1 was rescanned only after a rewrite
TRACE_DIGEST = "b0c1a0cfea4a495a55580f91d39153e4c7067c0a1ec7f9f0b8b664f762d55f25"


def rule_ids(verdict):
    return [s.rule_id for s in verdict.trace]


def triple(k, n):
    return FlagProduct((tuple(k),) * 3, n)


def multisets(n, m):
    """Every product of m flag varieties in F^n, one factor order each."""
    types = [c for r in range(1, n) for c in combinations(range(1, n), r)]
    return combinations_with_replacement(types, m)


@st.composite
def products(draw, max_ambient=16, max_factors=7):
    """A product of up to ``max_factors`` flag varieties in F^n, n <= ``max_ambient``,
    with Grassmannian factors drawn apart so that R7 comes up."""
    n = draw(st.integers(2, max_ambient))
    flag = st.lists(st.integers(1, n - 1), min_size=1, unique=True).map(lambda ks: tuple(sorted(ks)))
    factor = st.one_of(st.integers(1, n - 1).map(lambda k: (k,)), flag)
    return FlagProduct(tuple(draw(st.lists(factor, min_size=1, max_size=max_factors))), n)


def assert_chain(steps, start):
    """Each step starts where the one before ended, an R9 subtrace at its image."""
    for step in steps:
        assert step.before == start
        if step.subtrace:
            assert_chain(step.subtrace, step.after)
        start = step.after


class TestFrozenVerdicts:
    def test_complementary_pair_sparse(self):
        v = decide(triple((2, 3), 5))
        assert v.status == SPARSE
        assert rule_ids(v) == ["R2"]

    def test_small_sources_dense(self):
        v = decide(FlagProduct(((1,), (2,), (2,)), 5))
        assert v.status == DENSE
        assert rule_ids(v) == ["R5"]

    def test_doubling_chain_dense(self):
        v = decide(triple((1, 2, 4), 8))
        assert v.status == DENSE
        assert rule_ids(v) == ["R6"]

    def test_halving_then_complementary_pair(self):
        v = decide(triple((1, 3, 4), 8))
        assert v.status == SPARSE
        assert rule_ids(v) == ["reduce_half", "R2"]

    def test_trivially_sparse_at_entry(self):
        v = decide(triple((1, 2), 3))
        assert v.status == TRIVIALLY_SPARSE
        assert rule_ids(v) == ["R1"]

    def test_span_chain_to_two_step(self):
        v = decide(triple((1, 2, 3), 7))
        assert v.status == DENSE
        assert rule_ids(v) == ["reduce_span", "reduce_span", "reduce_span", "R3"]
        assert v.final == "F(1,2;4)^3"

    def test_sparse_image_rule(self):
        v = decide(FlagProduct(((1, 2, 4), (1, 4), (1, 4)), 5))
        assert v.status == SPARSE
        assert rule_ids(v)[-1] == "R9"
        sub = v.trace[-1].subtrace
        assert sub and sub[-1].rule_id == "R2"

    def test_sparse_image_rule_disabled_at_depth_zero(self):
        v = decide(FlagProduct(((1, 2, 4), (1, 4), (1, 4)), 5), depth=0)
        assert v.status == UNKNOWN

    @pytest.mark.parametrize("depth", [-1, 1.5, True, "1", None])
    def test_depth_must_be_a_non_negative_int(self, depth):
        with pytest.raises(BadRange):
            decide(FlagProduct(((1,),), 2), depth=depth)

    def test_five_grassmannians_sparse(self):
        v = decide(FlagProduct(((1,), (1,), (2,), (2,), (4,)), 7))
        assert v.status == SPARSE
        assert rule_ids(v)[-1] == "R8"

    def test_four_grassmannians_sparse(self):
        v = decide(FlagProduct(((1,), (2,), (2,), (3,)), 4))
        assert v.status == SPARSE
        assert rule_ids(v)[-1] == "R4"

    def test_finite_type_tree_dense(self):
        v = decide(parse_tree_dsl("a:2>b:4>c:6>r:8 | d:1>b | e:3>c"))
        assert v.status == DENSE
        assert rule_ids(v) == ["R0"]

    def test_chain_dense(self):
        v = decide(parse_tree_dsl("1>2>4"))
        assert v.status == DENSE

    def test_single_grassmannian_dense(self):
        assert decide(FlagProduct(((2,),), 5)).status == DENSE

    def test_trivial_product_dense(self):
        assert decide(FlagProduct((), 3)).status == DENSE

    def test_crowded_junction_is_unknown(self):
        v = decide(parse_tree_dsl("a:1>m:3>r:5 | b:1>m | c:2>m | d:2>m"))
        assert v.status == UNKNOWN
        assert v.trace == ()
        assert v.final == v.input

    def test_crowded_junction_variant_is_unknown(self):
        v = decide(parse_tree_dsl("a:1>m:3>r:5 | b:1>m | c:2>m | d:2>r"))
        assert v.status == UNKNOWN

    def test_dual_normalization_recorded(self):
        v = decide(FlagProduct(((3, 4), (3, 4), (3, 4)), 5))
        assert rule_ids(v)[0] == "dualize-normalize"
        assert v.status == decide(triple((1, 2), 5)).status


class TestTraceBytes:
    """Every byte of every record, on the kinds of input of the benchmark's
    decide_sweep: rewrites, R9 subtraces and R1 after a rewrite included."""

    @staticmethod
    def inputs():
        for n in range(2, 6):
            for m in range(1, 5):
                for combo in multisets(n, m):
                    yield FlagProduct(combo, n), 1
                    yield FlagProduct(combo[::-1], n), 1
        for n, ks in FIVE_GRASSMANNIANS:
            for order in sorted(set(permutations(ks))):
                yield five_grassmannians(order, n), 1
        rng = random.Random(23)
        for _ in range(600):
            yield random_tree(rng, max_vertices=8, max_label=6), 3

    def test_records_pinned(self):
        h = hashlib.sha256()
        for x, depth in self.inputs():
            record = decide(x, depth=depth).to_json_dict()
            h.update(json.dumps(record, sort_keys=True).encode() + b"\n")
        assert h.hexdigest() == TRACE_DIGEST


class TestTwoStepTriples:
    def test_exhaustive_up_to_twelve(self):
        for n in range(3, 13):
            for k1, k2 in combinations(range(1, n), 2):
                v = decide(triple((k1, k2), n))
                if k1 + k2 == n:
                    assert v.status in SPARSE_CLASS, (k1, k2, n)
                else:
                    assert v.status == DENSE, (k1, k2, n)


class TestVerdictShape:
    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_trace_and_record(self, seed):
        rng = random.Random(seed)
        x = random_product(rng) if rng.random() < 0.5 else random_tree(rng, max_label=14)
        v = decide(x)
        assert v.status in {DENSE, SPARSE, TRIVIALLY_SPARSE, UNKNOWN}
        assert set(rule_ids(v)) <= RULE_IDS
        if v.status != UNKNOWN:
            assert v.trace
            assert v.trace[-1].rule_id in TERMINAL_IDS
        for step in v.trace:
            assert step.before and step.after
            if step.rule_id != "R9":
                assert step.subtrace == ()
        assert_chain(v.trace, v.input)
        if not v.trace:
            assert v.final == v.input
        elif v.trace[-1].rule_id == "R9":
            assert v.final == v.trace[-1].before
        else:
            assert v.final == v.trace[-1].after
        record = v.to_json_dict()
        assert record["status"] == v.status
        assert record["input"] == v.input
        assert len(record["trace"]) == len(v.trace)

    def test_trivially_sparse_only_at_entry(self):
        # the entry-level name appears only when the raw input violates the bound
        v = decide(FlagProduct(((2, 4), (2, 4), (2, 4)), 6))
        assert v.status == TRIVIALLY_SPARSE
        v2 = decide(FlagProduct(((1, 2, 4), (1, 4), (1, 4)), 5))
        assert v2.status == SPARSE


class TestEngineInvariants:
    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_duality_invariance(self, seed):
        p = random_product(random.Random(seed), max_ambient=10)
        a = decide(p).status
        b = decide(dualize(p)).status
        assert (a in SPARSE_CLASS) == (b in SPARSE_CLASS)
        assert (a == DENSE) == (b == DENSE)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_factor_permutation_invariance(self, seed):
        rng = random.Random(seed)
        p = random_product(rng, max_ambient=10)
        perm = list(p.factors)
        rng.shuffle(perm)
        q = FlagProduct(tuple(perm), p.ambient)
        a, b = decide(p).status, decide(q).status
        assert (a in SPARSE_CLASS) == (b in SPARSE_CLASS)
        assert (a == DENSE) == (b == DENSE)

    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_never_dense_on_trivially_sparse_trees(self, seed):
        t = random_tree(random.Random(seed), max_label=16)
        if trivially_sparse(t).violated:
            assert decide(t).status != DENSE

    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_finite_class_is_dense(self, seed):
        t = random_tree(random.Random(seed), max_label=16)
        if orbit_class(t).finite:
            assert decide(t).status == DENSE

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_vertex_renaming_invariance(self, seed):
        t = random_tree(random.Random(seed), max_label=14)
        t2 = LabeledTree(
            {f"w{v}": k for v, k in t.labels.items()},
            [(f"w{s}", f"w{d}") for s, d in t.parent.items()],
        )
        assert decide(t2).status == decide(t).status


class TestCanonicalProduct:
    # each pair got two statuses before products were put in one canonical form
    @pytest.mark.parametrize("a,b", [
        ("F(4,5;10)*F(7,8;10)*F(4,9;10)", "F(7,8;10)*F(4,5;10)*F(4,9;10)"),
        ("F(1,2;5)*F(4;5)^3", "F(1;5)^3*F(3,4;5)"),
        ("G(1;7)^3*G(3;7)*G(4;7)", "G(4;7)*G(3;7)*G(1;7)^3"),
    ], ids=["hypothesis-draw", "dual-choice", "r8-first-index"])
    def test_pinned_reorders(self, a, b):
        assert decide(parse_product(a)).status == decide(parse_product(b)).status

    def test_every_order_and_dual_agree(self):
        for n, m in [(n, m) for n in range(2, 6) for m in range(1, 5) if m < 4 or n <= 4]:
            for combo in multisets(n, m):
                statuses = set()
                for order in set(permutations(combo)):
                    p = FlagProduct(order, n)
                    for v in (decide(p), decide(dualize(p))):
                        assert_chain(v.trace, v.input)
                        statuses.add(v.status)
                assert len(statuses) == 1, (combo, n, statuses)

    def test_dimension_check_fails_only_at_the_root(self):
        # why the scan does not try R1 on the dual of a product
        for n in range(2, 6):
            for m in range(1, 5):
                for combo in multisets(n, m):
                    p = FlagProduct(combo, n)
                    ts = trivially_sparse(product_to_tree(p))
                    assert not ts.violated or ts.vertex == "r", (combo, n)
                    assert ts.violated == trivially_sparse(product_to_tree(dualize(p))).violated

    def test_builds_only_the_side_kept(self, monkeypatch):
        # a sorted product smaller than its dual, and one whose dual is
        # smaller but not sorted as dualizing leaves it
        own, dual = FlagProduct(((1,), (1, 2)), 4), FlagProduct(((2, 3), (3,)), 4)
        built = []
        inner = FlagProduct.__post_init__
        monkeypatch.setattr(FlagProduct, "__post_init__", lambda p: built.append(inner(p)))
        trace = engine._Trace(own)
        assert engine._canonical(own, trace) is own
        assert (len(built), trace) == (0, [])
        low = engine._canonical(dual, trace)
        assert low.factors == ((1,), (1, 2))
        assert len(built) == 1
        assert [(s[0], s[1]) for s in trace] == [("dualize-normalize", low)]

    @staticmethod
    def assert_one_side_suffices(p):
        # why the scan tries R5-R8 on the canonical side only
        low = engine._canonical(p, engine._Trace(""))
        other = {tuple(sorted(p.factors)), tuple(sorted(dualize(p).factors))} - {low.factors}
        high = FlagProduct(other.pop(), p.ambient) if other else low
        for rule_id, match in [("R5", lambda q: engine._match_r5(product_to_tree(q))),
                               ("R6", engine._match_r6), ("R7", engine._match_r7)]:
            assert not match(high) or match(low), (rule_id, low, high)
        assert not engine._match_r8(high), (low, high)

    def test_one_side_suffices(self):
        for n in range(2, 6):
            for m in range(1, 5):
                for combo in multisets(n, m):
                    self.assert_one_side_suffices(FlagProduct(combo, n))
        for n in range(2, 10):
            for ks in combinations_with_replacement(range(1, n), 5):
                self.assert_one_side_suffices(FlagProduct(tuple((k,) for k in ks), n))

    @given(products())
    @settings(max_examples=300, deadline=None)
    def test_one_side_suffices_at_random(self, p):
        self.assert_one_side_suffices(p)


class TestProductsOnFactors:
    """decide reads a product on its factors; these are the facts it read on
    product_to_tree(p) before, R9's deletions in the order it tried them."""

    # factor indices and entries past 9 sort as strings: f10.1 < f2.1, f0.10 < f0.2
    LONG = ["F(1;12)^9*F(10;12)^2", "G(2;13)^11*F(1,12;13)", "G(1;5)^12",
            "F(1,2,3,4,5,6,7,8,9,10,11;12)*G(3;12)^10", "F(2,5;7)^6*G(4;7)^7"]

    def products(self, max_ambient):
        for n in range(2, max_ambient + 1):
            for m in range(1, 5):
                for combo in multisets(n, m):
                    yield FlagProduct(combo, n)
        for n, ks in FIVE_GRASSMANNIANS:
            for order in sorted(set(permutations(ks))):
                yield five_grassmannians(order, n)
        for text in self.LONG:
            yield parse_product(text)

    def test_rule_facts_match_the_tree(self):
        for p in self.products(6):
            tree = product_to_tree(p)
            assert trivially_sparse(p) == trivially_sparse(tree), p
            assert orbit_class(p) == orbit_class(tree), p
            assert engine._match_r5(p) == engine._match_r5(tree), p

    def test_deletions_match_the_tree(self):
        # n <= 5 here: the 46,376 products with four factors at n = 6 would
        # cost about 30 s of forget_vertex
        for p in self.products(5):
            tree = product_to_tree(p)
            deletions = [(v, *forget_vertex(tree, v)) for v in sorted(tree.labels) if v != tree.root]
            entries = list(forget_entries(p))
            assert [v for v, _ in entries] == [v for v, _, _ in deletions], p
            for (v, image), (_, image_tree, surjective) in zip(entries, deletions):
                assert surjective, (p, v)
                assert engine._sorted(image) == engine._sorted(as_flag_product(image_tree)), (p, v)


class TestRuleCatalog:
    def test_ids_unique_and_kinds_known(self):
        ids = [r.rule_id for r in RULES]
        assert len(ids) == len(set(ids))
        assert {r.kind for r in RULES} == {"terminal", "rewrite"}

    def test_every_terminal_rule_is_exercised(self):
        seen = set()
        fixtures = [
            triple((1, 2), 3),
            triple((2, 3), 5),
            FlagProduct(((1, 2), (1, 2), (1, 2)), 4),
            FlagProduct(((1,), (2,), (2,), (3,)), 4),
            FlagProduct(((1,), (2,), (2,)), 5),
            triple((1, 2, 4), 8),
            FlagProduct(((1,), (2,), (3,)), 5),
            FlagProduct(((1,), (1,), (2,), (2,), (4,)), 7),
            FlagProduct(((1, 2, 4), (1, 4), (1, 4)), 5),
            parse_tree_dsl("a:1>r:3 | b:1>r | c1:1>c2:2>r"),
        ]
        for x in fixtures:
            seen.update(rule_ids(decide(x)))
        assert TERMINAL_IDS <= seen


class TestR9Memo:
    # R9 reaches the same image along many deletion orders; without a memo
    # this tree made 5,719 sub-decides at depth 5 (Unknown at every depth)
    TREE = ("v10:1>v8:3>v5:4>v1:5>v0:10 | v4:8>v0:10 | v6:1>v3:2>v2:4>v1:5>v0:10"
            " | v7:3>v2:4>v1:5>v0:10 | v9:1>v5:4>v1:5>v0:10")

    def counted_decide(self, monkeypatch, x, depth):
        calls = 0
        inner = engine._decide

        def counting(*args):
            nonlocal calls
            calls += 1
            return inner(*args)

        monkeypatch.setattr(engine, "_decide", counting)
        return decide(x, depth=depth), calls

    def test_deep_tree_output_and_call_count(self, monkeypatch):
        v, calls = self.counted_decide(monkeypatch, parse_tree_dsl(self.TREE), 5)
        # byte for byte the record of the engine without the memo
        assert json.dumps(v.to_json_dict(), sort_keys=True, separators=(",", ":")) == (
            '{"final":"' + self.TREE + '","input":"' + self.TREE + '",'
            '"status":"Unknown","trace":[]}'
        )
        assert calls <= 313

    def test_memo_lives_for_one_call(self, monkeypatch):
        x = parse_tree_dsl(self.TREE)
        _, first = self.counted_decide(monkeypatch, x, 3)
        monkeypatch.undo()
        _, second = self.counted_decide(monkeypatch, x, 3)
        assert first == second > 1

    def test_images_equal_up_to_names_are_decided_once(self, monkeypatch):
        # the five deletions give two products: G(1;6)^2*G(3;6)^2 and G(1;6)^3*G(3;6)
        v, calls = self.counted_decide(monkeypatch, parse_product("G(1;6)^3*G(3;6)^2"), 1)
        assert v.status == UNKNOWN
        assert calls == 3

    def test_huge_depth_needs_no_guard(self, monkeypatch):
        # R9 nests at most (vertices - 1) deep, so a larger depth costs no more
        x = parse_tree_dsl(self.TREE)
        huge, calls = self.counted_decide(monkeypatch, x, 10**9)
        monkeypatch.undo()
        bounded, bounded_calls = self.counted_decide(monkeypatch, x, len(x.labels) - 1)
        assert huge.to_json_dict() == bounded.to_json_dict()
        assert calls == bounded_calls

    def test_each_image_read_once(self, monkeypatch):
        # decide checks R1 and reads a chain union once; R9 reads each
        # surjective tree image once, and no _decide scans R1 before a rewrite
        product = parse_product("G(1;6)^3*G(3;6)^2")
        for x, depth, reads in ((parse_tree_dsl(self.TREE), 3, 1), (product, 1, 0)):
            monkeypatch.undo()
            count = {"read": 0, "image": 0, "entry": 0}
            rewritten = []  # one flag per running _decide

            def wrap(name, wrapper):
                inner = getattr(engine, name)
                monkeypatch.setattr(engine, name, lambda *args: wrapper(inner, *args))

            def read(inner, tree):
                count["read"] += 1
                return inner(tree)

            def forget(inner, tree, v):
                image, surjective = inner(tree, v)
                count["image"] += surjective
                return image, surjective

            def sub_decide(inner, *args):
                rewritten.append(False)
                try:
                    return inner(*args)
                finally:
                    rewritten.pop()

            def rewrite(inner, inst):
                nxt = inner(inst)
                if nxt is not None:
                    rewritten[-1] = True
                return nxt

            def check(inner, inst):
                assert not rewritten or rewritten[-1], inst
                count["entry"] += not rewritten
                return inner(inst)

            for name, wrapper in (("as_flag_product", read), ("forget_vertex", forget),
                                  ("_decide", sub_decide), ("_rewrite_once", rewrite),
                                  ("trivially_sparse", check)):
                wrap(name, wrapper)
            assert decide(x, depth=depth).status == UNKNOWN
            assert count["entry"] == 1
            assert count["read"] == reads + count["image"]
            assert (count["image"] > 0) == (reads > 0)

    def test_renders_only_what_the_record_shows(self, monkeypatch):
        # decide renders the trace it returns, each instance once; an R9
        # image decided for its status alone renders nothing
        nested = parse_tree_dsl("v3:1>v2:2>v0:4 | v4:2>v1:3>v0:4 | v5:3>v0:4 | v6:1>v2:2>v0:4")
        cases = ((parse_tree_dsl(self.TREE), 3), (parse_product("G(1;6)^3*G(3;6)^2"), 1),
                 (nested, 3))
        renders = 0

        def counted(inner):
            def render(*args):
                nonlocal renders
                renders += 1
                return inner(*args)
            return render

        monkeypatch.setattr(engine, "to_dsl", counted(engine.to_dsl))
        monkeypatch.setattr(FlagProduct, "spec_string", counted(FlagProduct.spec_string))
        for x, depth in cases:
            renders = 0
            v = decide(x, depth=depth)
            shown = {v.input, v.final}
            steps = list(v.trace)
            while steps:
                step = steps.pop()
                shown.update((step.before, step.after))
                steps.extend(step.subtrace)
            assert renders <= len(shown), (to_dsl(x) if isinstance(x, LabeledTree) else x)
        assert v.status == SPARSE and len(v.trace[0].subtrace) == 2

    def test_product_images_are_rendered_by_to_dsl_only_when_shown(self, monkeypatch):
        # a product's R9 image is held as (instance, vertex forgotten): one
        # read for its status alone builds no tree and no text, and one the
        # returned trace shows is rendered by to_dsl, once
        calls = {"to_dsl": 0, "forget_vertex": 0, "image": 0}
        for name in ("to_dsl", "forget_vertex"):
            def spy(*args, inner=getattr(engine, name), name=name):
                calls[name] += 1
                return inner(*args)
            monkeypatch.setattr(engine, name, spy)

        def images(p, inner=engine.forget_entries):
            for entry in inner(p):
                calls["image"] += 1
                yield entry

        monkeypatch.setattr(engine, "forget_entries", images)
        assert decide(parse_product("G(1;6)^3*G(3;6)^2")).status == UNKNOWN
        assert calls == {"to_dsl": 0, "forget_vertex": 0, "image": 5}
        calls.update(dict.fromkeys(calls, 0))
        v = decide(parse_product("F(1;12)^9*F(10;12)^2"))
        assert [s.rule_id for s in v.trace] == ["R9"] and "f10.1" in v.trace[0].note
        assert v.trace[0].after == " | ".join([f"f{i}.1:1>r:12" for i in range(9)] + ["f9.1:10>r:12"])
        assert calls == {"to_dsl": 1, "forget_vertex": 1, "image": 3}

    def test_depth_past_the_vertex_count_changes_nothing(self):
        # each R9 level forgets a vertex and no rewrite adds one; some of
        # these trees need depth 2 or more (nine, three of them depth 5)
        deep = 0
        for seed in range(150):
            t = random_tree(random.Random(seed), max_vertices=12, max_label=14)
            record = decide(t, depth=10**9).to_json_dict()
            assert decide(t, depth=len(t.labels) - 1).to_json_dict() == record, seed
            deep += decide(t, depth=1).to_json_dict() != record
        assert deep > 0



class TestSurjectiveImagesPassR1:
    """R9 decides its images with no R1 check, because a surjective deletion
    never raises a subtree dimension (the engine docstring has the formulas):
    every such image of an instance that passes R1 passes R1."""

    def test_every_small_product(self):
        images = 0
        for n in range(2, 7):
            for m in range(1, 5):
                for combo in multisets(n, m):
                    p = FlagProduct(combo, n)
                    if not trivially_sparse(p).violated:
                        for v, image in forget_entries(p):
                            assert not trivially_sparse(image).violated, (p, v)
                            images += 1
        assert images > 40_000

    def test_random_trees(self):
        rng = random.Random(24)
        images = 0
        for _ in range(2000):
            tree = random_tree(rng, max_vertices=10, max_label=10)
            if trivially_sparse(tree).violated:
                continue
            for v in sorted(tree.labels):
                if v != tree.root:
                    image, surjective = forget_vertex(tree, v)
                    if surjective:
                        assert not trivially_sparse(image).violated, (to_dsl(tree), v)
                        images += 1
        assert images > 4_000

def five_grassmannians(ks, n):
    return FlagProduct(tuple((k,) for k in ks), n)


class TestFiveGrassmannians:
    # the certificate proves these dense; R8 took d5 equal to the largest of
    # d1..d4 and called them Sparse
    @pytest.mark.parametrize("ks,n", [
        ((1, 1, 1, 3, 3), 6), ((3, 3, 5, 5, 5), 6), ((1, 1, 2, 4, 4), 8), ((4, 4, 6, 7, 7), 8),
    ])
    def test_dense_certified_products_are_never_sparse(self, ks, n):
        for order in set(permutations(ks)):
            assert decide(five_grassmannians(order, n)).status not in SPARSE_CLASS, order
        assert certify_density(five_grassmannians(ks, n)).certified_dense

    def test_every_multiset_agrees_with_the_certificate(self):
        # every distinct factor order up to n = 7, sorted and reversed at n = 8
        for n in range(2, 9):
            for ks in combinations_with_replacement(range(1, n), 5):
                orders = set(permutations(ks)) if n <= 7 else {ks, ks[::-1]}
                statuses = {decide(five_grassmannians(order, n)).status for order in orders}
                assert len(statuses) == 1, (ks, n, statuses)
                status = statuses.pop()
                if status == UNKNOWN:
                    continue
                report = certify_density(five_grassmannians(ks, n), trials=2)
                assert report.certified_dense == (status == DENSE), (ks, n, status, report.ranks)


@pytest.fixture(scope="module")
def rooted_family():
    """Every tree of ``rooted_trees(5, 6)`` with its status at depths 0..6."""
    return [(t, [decide(t, depth=d).status for d in range(7)]) for t in rooted_trees(5, 6)]


class TestRootedTreeFamily:
    """Exhaustive gates on every label-decreasing rooted tree with root label
    at most 5 and at most 6 vertices (1,271 up to isomorphism); depth 6
    lets R9 forget every vertex but the root."""

    def test_status_counts(self, rooted_family):
        counts = collections.Counter(statuses[6] for _, statuses in rooted_family)
        assert counts == {DENSE: 830, SPARSE: 65, TRIVIALLY_SPARSE: 93, UNKNOWN: 283}

    def test_verdicts_agree_with_the_certificate(self, rooted_family):
        # a Dense verdict has a full-rank witness; a sparse one cannot
        for t, statuses in rooted_family:
            if statuses[6] != UNKNOWN:
                certified = certify_density(t, trials=2).certified_dense
                assert certified == (statuses[6] == DENSE), (to_dsl(t), statuses[6])

    def test_finite_orbit_class_is_dense(self, rooted_family):
        for t, statuses in rooted_family:
            if orbit_class(t).finite:
                assert statuses[6] == DENSE, to_dsl(t)

    def test_status_survives_renaming(self, rooted_family):
        # a random permutation of the names changes the order R9 forgets in
        rng = random.Random(6)
        for t, statuses in rooted_family:
            names = list(t.labels)
            rng.shuffle(names)
            new = {v: f"w{w}" for v, w in zip(t.labels, names)}
            renamed = LabeledTree({new[v]: k for v, k in t.labels.items()},
                                  [(new[s], new[u]) for s, u in t.parent.items()])
            assert decide(renamed, depth=6).status == statuses[6], to_dsl(t)

    def test_status_holds_at_every_larger_depth(self, rooted_family):
        for t, statuses in rooted_family:
            for d, status in enumerate(statuses):
                if status != UNKNOWN:
                    assert set(statuses[d:]) == {status}, (to_dsl(t), statuses)
                    break
