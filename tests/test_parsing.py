"""Tree DSL, JSON, and product grammar parsing."""

import json
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeorbits import Error, FlagProduct, LabeledTree, parse_instance
from treeorbits.errors import BoundsError, EmptyInput, LabelViolation, NotATree, ParseError
from treeorbits.parsing import parse_product, parse_tree_dsl, parse_tree_json
from treeorbits.trees import MAX_LABEL, to_dsl

from .helpers import random_tree


class TestTreeDsl:
    def test_two_chains_merge_at_named_vertex(self):
        t = parse_tree_dsl("a:1>b:2>r:4 | c:2>r")
        assert sorted(t.labels) == ["a", "b", "c", "r"]
        assert t.labels == {"a": 1, "b": 2, "c": 2, "r": 4}
        assert t.parent == {"a": "b", "b": "r", "c": "r"}
        assert t.root == "r"

    def test_label_resolved_from_any_occurrence(self):
        t = parse_tree_dsl("a:1>m:3>r:5 | b:1>m")
        assert t.labels["m"] == 3
        assert t.parent["b"] == "m"

    def test_bare_numeric_tokens(self):
        t = parse_tree_dsl("1>2>4")
        assert t.labels == {"1": 1, "2": 2, "4": 4}
        assert t.ambient == 4

    def test_single_vertex(self):
        t = parse_tree_dsl("a:1")
        assert t.root == "a"
        assert not t.parent

    def test_whitespace_insensitive(self):
        assert parse_tree_dsl(" a:1 > b:2 ") == parse_tree_dsl("a:1>b:2")

    def test_equal_labels_rejected(self):
        with pytest.raises(LabelViolation, match="must increase"):
            parse_tree_dsl("2>2")

    def test_decreasing_labels_rejected(self):
        with pytest.raises(LabelViolation):
            parse_tree_dsl("a:1>b:2>a")

    def test_relabel_conflict(self):
        with pytest.raises(ParseError, match="relabeled"):
            parse_tree_dsl("a:1>b:2 | a:2>c:3")

    def test_never_labeled_vertex(self):
        with pytest.raises(ParseError, match="never gets a label"):
            parse_tree_dsl("a>b:2")

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_tree_dsl("")
        with pytest.raises(EmptyInput):
            parse_tree_dsl("   ")

    def test_bad_tokens_carry_position(self):
        with pytest.raises(ParseError, match=r"position 0"):
            parse_tree_dsl("a:x>b:2")
        with pytest.raises(ParseError, match=r"position 4"):
            parse_tree_dsl("1>2>")

    def test_two_components_rejected(self):
        with pytest.raises(NotATree):
            parse_tree_dsl("a:1>b:2 | c:1>d:3")

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_dsl_round_trip(self, seed):
        import random

        t = random_tree(random.Random(seed))
        assert parse_tree_dsl(to_dsl(t)) == t


class TestTreeJson:
    def test_round_trip(self):
        # the JSON form is input only; its tree goes back through chain text
        text = ('{"labels": {"a": 1, "b": 2, "c": 2, "r": 4}, '
                '"edges": [["a", "b"], ["b", "r"], ["c", "r"]]}')
        t = parse_tree_json(text)
        assert to_dsl(t) == "a:1>b:2>r:4 | c:2>r:4"
        assert parse_tree_dsl(to_dsl(t)) == t

    def test_explicit_root_checked(self):
        text = '{"labels": {"a": 1, "b": 2}, "edges": [["a", "b"]], "root": "a"}'
        with pytest.raises(NotATree):
            parse_tree_json(text)

    @pytest.mark.parametrize("name", ["a:1>b", "a|b", "a:1", "a b", ""],
                             ids=["arrow", "bar", "colon", "space", "empty"])
    def test_name_chain_notation_cannot_carry(self, name):
        # every record echoes the tree as chain text, which must read back as it
        v = json.dumps(name)
        text = f'{{"labels": {{"a": 1, {v}: 2, "r": 3}}, "edges": [["a", {v}], [{v}, "r"]]}}'
        with pytest.raises(ParseError, match=f"vertex name {re.escape(repr(name))}"):
            parse_tree_json(text)

    def test_malformed_json(self):
        with pytest.raises(ParseError, match="bad JSON"):
            parse_tree_json('{"labels"')

    def test_wrong_shape(self):
        with pytest.raises(ParseError):
            parse_tree_json('{"edges": []}')
        with pytest.raises(ParseError):
            parse_tree_json('[1, 2]')


class TestProductGrammar:
    def test_power(self):
        assert parse_product("F(1,2;4)^3") == FlagProduct(
            ((1, 2), (1, 2), (1, 2)), 4
        )

    def test_grassmannian_mix(self):
        assert parse_product("G(1;5) * G(2;5)^2") == FlagProduct(
            ((1,), (2,), (2,)), 5
        )

    def test_whitespace_tolerated(self):
        assert parse_product(" F( 1 , 2 ; 4 ) ") == FlagProduct(((1, 2),), 4)

    @pytest.mark.parametrize(
        "text",
        ["F(3,2;5)", "F(1;3)^0", "F(1;3)*F(1;4)", "F(0;3)", "F(3;3)"],
    )
    def test_bounds_violations(self, text):
        with pytest.raises(BoundsError):
            parse_product(text)

    @pytest.mark.parametrize("text", [f"F(1;3)^{MAX_LABEL + 1}", f"F(1;3)^{MAX_LABEL}*G(2;3)"],
                             ids=["one-power", "two-atoms"])
    def test_factor_count_capped(self, text):
        # refused before the factor list grows past the cap, whatever the exponent
        with pytest.raises(BoundsError, match=f"^{MAX_LABEL + 1} factors exceed the cap {MAX_LABEL}$"):
            parse_product(text)

    def test_factor_count_past_the_digit_limit(self):
        # the total has 4,301 digits, more than str() gives an int
        with pytest.raises(BoundsError, match=f"^at least 2\\^14284 factors exceed the cap {MAX_LABEL}$"):
            parse_product("F(1;3)*F(1;3)^" + "9" * 4300)

    @pytest.mark.parametrize(
        "text",
        ["G(1,2;3)", "F(1,2;4) junk", "F(;3)", "F(1;3)^", "G(2;4", "", "*"],
    )
    def test_grammar_violations(self, text):
        with pytest.raises(ParseError):
            parse_product(text)


class TestProductTerms:
    @pytest.mark.parametrize("text, error", [
        ("F(1;4)*F(1;3)^", BoundsError),
        ("F(1;3)*F(1;4)*", BoundsError),
        ("F(1;3)^0^", BoundsError),
        ("F(1;3)*F(1;4) junk", ParseError),
        ("F(1;3)*F(1;4)*F(1;" + "9" * 5000 + ")", ParseError),
    ], ids=["ambient-before-power", "ambient-before-separator", "exponent-before-separator",
            "character-before-terms", "digit-limit-before-terms"])
    def test_which_error_comes_first(self, text, error):
        # the whole text's characters and literals are read before any term,
        # and a term's bounds as soon as it is read, before the text after it
        with pytest.raises(error):
            parse_product(text)

    @pytest.mark.parametrize("space", [" ", "\t", "\n", " \t\n "])
    def test_whitespace_between_every_pair_of_tokens(self, space):
        tokens = ["G", "(", "2", ";", "5", ")", "^", "2", "*", "F", "(", "1", ",", "3", ";", "5", ")"]
        text = space + space.join(tokens) + space
        assert parse_product(text) == FlagProduct(((2,), (2,), (1, 3)), 5)

    def test_non_ascii_digits(self):
        # int reads any decimal digit, as \d matches it
        assert parse_product("F(\u0661,\u0663;\u0665)^\u0662") == FlagProduct(((1, 3), (1, 3)), 5)

    @pytest.mark.parametrize("text, pos", [("F(1;3) * G(1,2;3)", 9), ("F(1;3) F(1;3)", 7),
                                           ("F(1;3)^2^3", 8), ("F(1;3) *  ", 10), ("  F(;3)", 2)])
    def test_error_names_where_the_term_or_separator_starts(self, text, pos):
        with pytest.raises(ParseError, match=f"at position {pos}\\)$"):
            parse_product(text)

    def test_long_malformed_factor_is_refused_in_linear_time(self):
        text = "F(" + "1," * 200_000 + ";3)"
        start = time.perf_counter()
        with pytest.raises(ParseError):
            parse_product(text)
        assert time.perf_counter() - start < 2


class TestParseInstance:
    def test_dispatch(self):
        assert isinstance(parse_instance('{"labels": {"a": 1}, "edges": []}'), LabeledTree)
        assert isinstance(parse_instance("F(2;4)"), FlagProduct)
        assert isinstance(parse_instance("G(2;4)"), FlagProduct)
        assert isinstance(parse_instance("1>2>4"), LabeledTree)

    def test_grassmannian_alias(self):
        assert parse_instance("G(2;4)") == parse_instance("F(2;4)")

    @pytest.mark.parametrize("text", ["F (1;3)", "G\t(1;3)", " \nF\n(1;3)"])
    def test_product_detected_as_the_grammar_reads_it(self, text):
        assert parse_instance(text) == parse_product(text) == FlagProduct(((1,),), 3)

    @given(st.text(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_never_leaks_foreign_exceptions(self, text):
        try:
            out = parse_instance(text)
        except Error:
            return
        assert isinstance(out, (LabeledTree, FlagProduct))
