"""Exercise every verb of the command line front end through cli.main."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeorbits

from treeorbits.cli import main
from treeorbits.oracle import DEFAULT_PRIME
from treeorbits.trees import MAX_LABEL

HONEST_TREE = "a:1>m:3>r:5 | b:1>m | c:2>m | d:2>m"
# ROADMAP item 1: R9 reaches G(1;7)^3*G(3;7)*G(4;7) from here, which the
# certificate proves dense; R8 no longer matches that image, so the tree is
# Unknown, no longer the wrong Sparse
R8_TREE = "v1:1>v0:2>r:7 | v2:4>r:7 | v3:3>r:7 | v4:1>v0:2>r:7 | v6:1>v5:2>r:7"
# case 2c with its junction j below the root, so each branch stops below j
CASE_2C_TREE = "t:2>j:8>r:9 | s1:1>s2:3>j | c1:1>c2:2>c3:3>c4:4>c5:5>c6:7>j"
# sha256 of the bytes of `decide --rules --json`, newline included
RULES_JSON_SHA256 = "8b2d9bd89f8298eb0653115f7363103255ad65d2520bbda35617e63efd0f1c55"
# a dualize-normalize step, then R9 whose image is cut by reduce_span until
# R1 fires, so the dimension check runs after a rewrite
R1_AFTER_REWRITE = "F(3,4;5)*F(1,3;5)*F(1;5)*F(1;5)"
# sha256 of the bytes of `decide R1_AFTER_REWRITE --json`, newline included
R1_AFTER_REWRITE_SHA256 = "43942c501a20a8f364e66b30391f9a466a41c421789a238e13a8351a5e82c332"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@st.composite
def instance_texts(draw):
    """Product text, chain notation or any text, with labels at most 6, valid or not."""
    kind = draw(st.sampled_from(["product", "tree", "text"]))
    if kind == "text":
        return draw(st.text(max_size=30))
    n = draw(st.integers(2, 6))
    # mostly a valid flag or chain, sometimes with repeats, empty or full steps
    valid = st.lists(st.integers(1, n - 1), min_size=1, max_size=3, unique=True)
    steps = st.one_of(valid, valid, st.lists(st.integers(0, n), min_size=1, max_size=3))
    steps = steps.map(sorted)
    if kind == "product":
        factors = draw(st.lists(steps, min_size=1, max_size=3))
        return "*".join(
            f"F({','.join(map(str, f))};{n})^{draw(st.integers(1, 3))}" for f in factors
        )
    # names shared between chains merge vertices: side branches, or a
    # vertex with two parents
    chains = draw(st.lists(steps, min_size=1, max_size=3))
    return " | ".join(
        ">".join([*(f"{draw(st.sampled_from('ab'))}{k}:{k}" for k in chain), f"r:{n}"])
        for chain in chains
    )


# JSON values of any shape, mostly small integers, for file contents
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 12), st.integers(),
              st.floats(allow_nan=False), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12,
)


def fuzzed_file_exit(argv, flag, content) -> int:
    """fuzzed_exit with ``flag`` naming a file that holds ``content``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(content if isinstance(content, bytes) else content.encode("utf-8"))
        return fuzzed_exit([*argv, flag, path])


def fuzzed_exit(argv) -> int:
    """Exit code of main(argv), asserting that nothing printed a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
    assert "Traceback" not in err.getvalue()
    assert code in (0, 2, 3), err.getvalue()
    return code


class TestDim:
    def test_human(self, capsys):
        code, out, err = run(capsys, "dim", "--tree", "1>2>4")
        assert code == 0
        assert out == "dimension 5 (ambient 4)\n"
        assert err == ""

    def test_json(self, capsys):
        code, out, _ = run(capsys, "dim", "--product", "F(1,2;4)", "--json")
        assert code == 0
        assert json.loads(out) == {
            "ambient": 4,
            "dimension": 5,
            "input": "F(1,2;4)",
        }

    def test_positional_autodetection(self, capsys):
        code, out, _ = run(capsys, "dim", "F(2;4)^2")
        assert code == 0
        assert out == "dimension 8 (ambient 4)\n"

    def test_product_read_on_its_factors(self, capsys, monkeypatch):
        # the tree of G(1;2)^1000000 has 1,000,001 vertices, and none is built
        def build(*args):
            raise AssertionError("tree built")

        monkeypatch.setattr(treeorbits.products, "product_to_tree", build)
        code, out, _ = run(capsys, "dim", "G(1;2)^1000000", "--json")
        assert code == 0
        assert out == '{"ambient":2,"dimension":1000000,"input":"F(1;2)^1000000"}\n'

    @given(instance_texts(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_fuzzed_arguments_exit_0_or_2(self, text, as_json):
        fuzzed_exit(["dim", *(["--json"] if as_json else []), "--", text])


@st.composite
def tree_files(draw):
    """Tree file contents: chain text, a JSON tree with fuzzed labels and edges, or any bytes."""
    kind = draw(st.sampled_from(["text", "json", "bytes"]))
    if kind == "text":
        return draw(instance_texts())
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    names = st.sampled_from("abcr")
    data = {
        "labels": draw(st.one_of(st.dictionaries(names, st.integers(-1, 6), max_size=4),
                                 json_values)),
        "edges": draw(st.one_of(st.lists(st.lists(names, min_size=2, max_size=2), max_size=4),
                                json_values)),
    }
    if draw(st.booleans()):
        data["root"] = draw(st.one_of(names, json_values))
    return json.dumps(data)


class TestClassify:
    def test_finite_type_case(self, capsys):
        code, out, _ = run(capsys, "classify", "--tree", "a:1>r:3 | b:1>r | c1:1>c2:2>r")
        assert code == 0
        assert "orbit class: FiniteType (case 2a)" in out
        assert "trivially sparse: no" in out

    def test_homogeneous_has_no_case(self, capsys):
        code, out, _ = run(capsys, "classify", "--tree", "1>2>4")
        assert code == 0
        assert "orbit class: Homogeneous" in out
        assert "(case" not in out

    def test_sparseness_report(self, capsys):
        tree = "a1:2>a2:4>r:6 | b1:2>b2:4>r | c1:2>c2:4>r"
        code, out, _ = run(capsys, "classify", "--tree", tree)
        assert code == 0
        assert "subtree at r has dimension 36 > 35" in out

    def test_product_input(self, capsys):
        code, out, _ = run(capsys, "classify", "--product", "G(1;2)^4", "--json")
        assert code == 0
        record = json.loads(out)
        assert record["orbit_class"]["kind"] == "InfiniteType"

    @given(tree_files(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_fuzzed_tree_file_exits_0_or_2(self, content, as_json):
        fuzzed_file_exit(["classify", *(["--json"] if as_json else [])], "--tree-file", content)

    # byte for byte the output of the hand-written records that came before
    # the dataclass ones
    @pytest.mark.parametrize(
        "instance,out",
        [
            (CASE_2C_TREE,
             '{"input":"c1:1>c2:2>c3:3>c4:4>c5:5>c6:7>j:8>r:9 | s1:1>s2:3>j:8>r:9 | t:2>j:8>r:9",'
             '"orbit_class":{"case_label":"2c","kind":"FiniteType","witness":"branch lengths '
             '(1, 2, 6) with admissible widths (length-1 width 2, length-2 width 1)"},'
             '"trivially_sparse":{"lhs":null,"rhs":null,"vertex":null,"violated":false}}\n'
            ),
            ("G(1;7)*F(2,4;7)*F(1,2,3,4,5,6;7)",
             '{"input":"F(1;7)*F(2,4;7)*F(1,2,3,4,5,6;7)","orbit_class":{"case_label":"2c",'
             '"kind":"FiniteType","witness":"branch lengths (1, 2, 6) with admissible widths '
             '(length-1 width 1, length-2 width 2)"},"trivially_sparse":{"lhs":null,"rhs":null,'
             '"vertex":null,"violated":false}}\n'
            ),
            ("a1:2>a2:4>r:6 | b1:2>b2:4>r | c1:2>c2:4>r",
             '{"input":"a1:2>a2:4>r:6 | b1:2>b2:4>r:6 | c1:2>c2:4>r:6","orbit_class":'
             '{"case_label":null,"kind":"InfiniteType","witness":"three leaves, branch lengths '
             '(2, 2, 2): no finite pattern matches"},"trivially_sparse":{"lhs":36,"rhs":35,'
             '"vertex":"r","violated":true}}\n'
            ),
        ],
        ids=["case-2c-junction", "product", "trivially-sparse"],
    )
    def test_golden_json(self, capsys, instance, out):
        code, got, _ = run(capsys, "classify", instance, "--json")
        assert code == 0
        assert got == out


class TestDecide:
    def test_trace_lines(self, capsys):
        code, out, _ = run(capsys, "decide", "--product", "F(2,3;5)^3")
        assert code == 0
        assert out.startswith("Sparse: F(2,3;5)^3")
        assert "R2" in out
        assert "[" in out  # every step cites its justification

    def test_json_is_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "decide", "--product", "F(1,2,3;7)^3", "--json")
        code2, out2, _ = run(capsys, "decide", "--product", "F(1,2,3;7)^3", "--json")
        assert code1 == code2 == 0
        assert out1 == out2
        record = json.loads(out1)
        assert record["status"] == "Dense"
        assert [s["rule_id"] for s in record["trace"]][-1] == "R3"

    def test_r1_after_a_rewrite_json(self, capsys):
        code, out, _ = run(capsys, "decide", R1_AFTER_REWRITE, "--json")
        assert code == 0
        assert [s["rule_id"] for s in json.loads(out)["trace"][-1]["subtrace"]] == [
            "as-product", "reduce_span", "R1"]
        assert hashlib.sha256(out.encode()).hexdigest() == R1_AFTER_REWRITE_SHA256

    def test_too_many_factors_exit_2(self, capsys):
        code, out, err = run(capsys, "decide", f"F(1;3)^{MAX_LABEL + 1}")
        assert (code, out) == (2, "")
        assert err == f"error: {MAX_LABEL + 1} factors exceed the cap {MAX_LABEL}\n"

    # Python converts at most 4,300 digits of an integer literal
    @pytest.mark.parametrize(
        "text,err",
        [
            ("F(1;3)^" + "9" * 5000, "integer of 5000 digits is too long (at position 7)"),
            ("a:" + "9" * 5000, "integer of 5000 digits is too long (at position 2)"),
            ('{"labels": {"a": ' + "9" * 5000 + '}, "edges": []}',
             "bad JSON: an integer has too many digits"),
            # each literal converts, but the factor total has 4,301 digits
            ("F(1;3)*F(1;3)^" + "9" * 4300, f"at least 2^14284 factors exceed the cap {MAX_LABEL}"),
        ],
        ids=["product", "chains", "json-tree", "factor-total"],
    )
    def test_long_integer_exits_2(self, capsys, text, err):
        code, out, got = run(capsys, "decide", text)
        assert (code, out, got) == (2, "", f"error: {err}\n")

    def test_r9_subtrace_is_printed(self, capsys):
        # the derivation of the image that R9 proves sparse, indented under the R9 step
        image = "f0.1:1>f0.3:4>r:5 | f1.1:1>f1.2:4>r:5 | f2.1:1>f2.2:4>r:5"
        code, out, _ = run(capsys, "decide", "F(1,2,4;5)*F(1,4;5)^2")
        assert code == 0
        assert out == "\n".join([
            "Sparse: F(1,2,4;5)*F(1,4;5)^2",
            f"  R9                 F(1,2,4;5)*F(1,4;5)^2 -> {image}",
            "                     forgetting vertex f0.2 is surjective and the image is sparse",
            "                     [a surjective forgetful map sends a dense orbit onto a dense orbit]",
            f"    as-product         {image} -> F(1,4;5)^3",
            "                       [chains joined only at the root index a product of flag varieties]",
            "    R2                 F(1,4;5)^3",
            "                       k_1 + k_2 = 1 + 4 = n",
            "                       [a triple self-product with k_i + k_j = n (i != j) carries a "
            "continuous invariant]",
            "",
        ])

    def test_unknown_still_exits_zero(self, capsys):
        code, out, _ = run(capsys, "decide", "--tree", HONEST_TREE)
        assert code == 0
        assert out.startswith("Unknown:")
        assert "no rule applies" in out

    # byte for byte the output of the engine before the one-pass dimension
    # check, the shared tree forms and the R9 memo; the first two were read
    # again when products got one canonical form (sorted, smaller side)
    @pytest.mark.parametrize(
        "argv,out",
        [
            (('--depth', '2', R8_TREE),
             '{"final":"v1:1>v0:2>r:7 | v2:4>r:7 | v3:3>r:7 | v4:1>v0:2>r:7 | v6:1>v5:2>r:7",'
             '"input":"v1:1>v0:2>r:7 | v2:4>r:7 | v3:3>r:7 | v4:1>v0:2>r:7 | v6:1>v5:2>r:7",'
             '"status":"Unknown","trace":[]}\n'
            ),
            (('F(3,4;5)^3',),
             '{"final":"F(1,2;5)^3","input":"F(3,4;5)^3","status":"Dense",'
             '"trace":[{"after":"F(1,2;5)^3","before":"F(3,4;5)^3",'
             '"citation":"factor order does not change the variety, and sending each k to n - k '
             'identifies the orbit structures of dual configurations",'
             '"note":"the dual is smaller once both sides are sorted",'
             '"rule_id":"dualize-normalize"},{"after":"F(1,2;5)^3","before":"F(1,2;5)^3",'
             '"citation":"F(k1,k2;n)^3 is sparse exactly when k1 + k2 = n",'
             '"note":"k1 + k2 = 3 != 5 = n","rule_id":"R3"}]}\n'
            ),
            (('F(1,2;3)^3',),
             '{"final":"F(1,2;3)^3","input":"F(1,2;3)^3","status":"TriviallySparse",'
             '"trace":[{"after":"F(1,2;3)^3","before":"F(1,2;3)^3",'
             '"citation":"a subtree of dimension above phi(v)^2 - 1 leaves no room for a '
             'dense orbit","note":"subtree at r has dimension 9 > 8 = phi^2 - 1",'
             '"rule_id":"R1"}]}\n'
            ),
            (('--depth', '0', 'F(1,2,4;5)*F(1,4;5)^2'),
             '{"final":"F(1,2,4;5)*F(1,4;5)^2","input":"F(1,2,4;5)*F(1,4;5)^2",'
             '"status":"Unknown","trace":[]}\n'
            ),
            # R9 on a product: the image is shown as its tree, vertex names
            # kept, and the subtrace reads it as a product first
            (('F(1;6)*F(1,5;6)^3', '--depth', '2'),
             '{"final":"F(1;6)*F(1,5;6)^3","input":"F(1;6)*F(1,5;6)^3","status":"Sparse",'
             '"trace":[{"after":"f1.1:1>f1.2:5>r:6 | f2.1:1>f2.2:5>r:6 | f3.1:1>f3.2:5>r:6",'
             '"before":"F(1;6)*F(1,5;6)^3","citation":"a surjective forgetful map sends a '
             'dense orbit onto a dense orbit","note":"forgetting vertex f0.1 is surjective '
             'and the image is sparse","rule_id":"R9","subtrace":[{"after":"F(1,5;6)^3",'
             '"before":"f1.1:1>f1.2:5>r:6 | f2.1:1>f2.2:5>r:6 | f3.1:1>f3.2:5>r:6",'
             '"citation":"chains joined only at the root index a product of flag varieties",'
             '"rule_id":"as-product"},{"after":"F(1,5;6)^3","before":"F(1,5;6)^3",'
             '"citation":"a triple self-product with k_i + k_j = n (i != j) carries a '
             'continuous invariant","note":"k_1 + k_2 = 1 + 5 = n","rule_id":"R2"}]}]}\n'
            ),
            # vertex names sort as strings, so f10.1 is forgotten before f2.1
            (('F(1;12)^9*F(10;12)^2',),
             '{"final":"F(1;12)^9*F(10;12)^2","input":"F(1;12)^9*F(10;12)^2","status":"Sparse",'
             '"trace":[{"after":"f0.1:1>r:12 | f1.1:1>r:12 | f2.1:1>r:12 | f3.1:1>r:12 | '
             'f4.1:1>r:12 | f5.1:1>r:12 | f6.1:1>r:12 | f7.1:1>r:12 | f8.1:1>r:12 | '
             'f9.1:10>r:12","before":"F(1;12)^9*F(10;12)^2","citation":"a surjective '
             'forgetful map sends a dense orbit onto a dense orbit","note":"forgetting vertex '
             'f10.1 is surjective and the image is sparse","rule_id":"R9","subtrace":['
             '{"after":"F(1;12)^9*F(10;12)","before":"f0.1:1>r:12 | f1.1:1>r:12 | '
             'f2.1:1>r:12 | f3.1:1>r:12 | f4.1:1>r:12 | f5.1:1>r:12 | f6.1:1>r:12 | '
             'f7.1:1>r:12 | f8.1:1>r:12 | f9.1:10>r:12","citation":"chains joined only at '
             'the root index a product of flag varieties","rule_id":"as-product"},'
             '{"after":"F(1;9)^9*F(7;9)","before":"F(1;12)^9*F(10;12)","citation":"a generic '
             'configuration spans a subspace of dimension n\' = sum of the other top '
             'dimensions; cutting to it preserves density both ways","rule_id":"reduce_span"},'
             '{"after":"F(1;9)^9*F(7;9)","before":"F(1;9)^9*F(7;9)","citation":"a subtree of '
             'dimension above phi(v)^2 - 1 leaves no room for a dense orbit","note":"subtree '
             'at r has dimension 86 > 80 = phi^2 - 1","rule_id":"R1"}]}]}\n'
            ),
        ],
        ids=["r9-subtrace", "dualize-normalize", "entry-trivially-sparse", "unknown-depth-0",
             "r9-on-a-product", "r9-names-sort-as-strings"],
    )
    def test_golden_json(self, capsys, argv, out):
        code, got, _ = run(capsys, "decide", *argv, "--json")
        assert code == 0
        assert got == out

    def test_rules_listing(self, capsys):
        code, out, _ = run(capsys, "decide", "--rules")
        assert code == 0
        for rule_id in ("R0", "R1", "R9", "reduce_span"):
            assert rule_id in out

    def test_rules_json(self, capsys):
        code, out, _ = run(capsys, "decide", "--rules", "--json")
        assert code == 0
        rules = json.loads(out)["rules"]
        assert len(rules) >= 12
        assert all(r["rule_id"] and r["citation"] for r in rules)
        assert hashlib.sha256(out.encode()).hexdigest() == RULES_JSON_SHA256

    @pytest.mark.parametrize("depth", ["-1", "-3"])
    def test_negative_depth_exits_2(self, capsys, depth):
        code, out, err = run(capsys, "decide", "F(1;2)", "--depth", depth)
        assert code == 2
        assert out == ""
        assert err == f"error: depth must be a non-negative integer, got {depth}\n"

    @given(instance_texts(), st.integers(-2, 3))
    @settings(max_examples=60, deadline=None)
    def test_fuzzed_arguments_exit_0_or_2(self, text, depth):
        code = fuzzed_exit(["decide", "--depth", str(depth), "--json", "--", text])
        if depth < 0:
            assert code == 2


class TestCertify:
    def test_json_record(self, capsys):
        code, out, _ = run(capsys, "certify", "--product", "G(2;4)", "--json")
        assert code == 0
        record = json.loads(out)
        assert record["status"] == "DenseCertified"
        assert record["prime"] == DEFAULT_PRIME
        assert record["system_rank"] == record["variety_dim"] == 4
        assert record["certified_dense"] is True

    def test_inconclusive_human(self, capsys):
        code, out, _ = run(capsys, "certify", "--tree", HONEST_TREE, "--trials", "2")
        assert code == 0
        assert out.startswith("Inconclusive:")

    def test_prime_and_seed_flags(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--product", "G(1;3)", "--prime", "10007",
            "--seed", "7", "--json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["prime"] == 10007
        assert record["seed"] == 7

    def test_bad_prime_exits_2(self, capsys):
        code, _, err = run(capsys, "certify", "--product", "G(1;3)", "--prime", "10")
        assert code == 2
        assert "error:" in err

    def test_instance_too_large_to_rank_exits_2(self, capsys):
        # its allowed mask alone would take 27.9 GiB
        code, out, err = run(capsys, "certify", "G(1;100000)^3")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "over the cap" in err

    @given(
        instance_texts(),
        st.one_of(st.sampled_from([2, 3, 101, DEFAULT_PRIME]), st.integers(-5, 2**33)),
        st.integers(-3, 2**64),
        st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_fuzzed_arguments_exit_0_2_or_3(self, text, prime, seed, trials):
        fuzzed_exit(["certify", "--prime", str(prime), "--seed", str(seed),
                     "--trials", str(trials), "--json", "--", text])


class TestOrbits:
    def test_human(self, capsys):
        code, out, _ = run(capsys, "orbits", "--tree", "a:2>r:4 | b:2>r", "--q", "3")
        assert code == 0
        assert out == "3 orbits on 16900 points over F_3\n"

    def test_quartic_field(self, capsys):
        code, out, _ = run(capsys, "orbits", "--product", "G(1;2)^2", "--q", "4")
        assert code == 0
        assert out == "2 orbits on 25 points over F_4\n"

    # byte for byte the output of the earlier, dict-based enumerator
    @pytest.mark.parametrize(
        "argv,out",
        [
            (("--tree", "1>2>4", "--q", "3"),
             '{"cap":200000,"input":"1>2>4",'
             '"orbit_count":1,"point_count":520,"q":3}\n'),
            (("--tree", "a:2>r:4 | b:2>r", "--q", "3"),
             '{"cap":200000,"input":"a:2>r:4 | b:2>r:4",'
             '"orbit_count":3,"point_count":16900,"q":3}\n'),
            (("--product", "G(1;2)^4", "--q", "5"),
             '{"cap":200000,"input":"F(1;2)^4",'
             '"orbit_count":17,"point_count":1296,"q":5}\n'),
            (("--product", "F(1,2;4)*F(2;4)", "--q", "3"),
             '{"cap":200000,"input":"F(1,2;4)*F(2;4)",'
             '"orbit_count":4,"point_count":67600,"q":3}\n'),
        ],
    )
    def test_golden_json(self, capsys, argv, out):
        code, got, _ = run(capsys, "orbits", *argv, "--json")
        assert code == 0
        assert got == out

    def test_cap_exceeded_exits_3(self, capsys):
        code, _, err = run(capsys, "orbits", "--tree", "1>2>4", "--cap", "100")
        assert code == 3
        assert "cap exceeded" in err

    @pytest.mark.parametrize("text,bits", [("G(1;2)^10000", 10_000), ("a:4000>r:8000", 16_000_000),
                                           ("a:500000>r:1000000", 250_000_000_000)])
    def test_counts_past_the_digit_limit_exit_3(self, capsys, text, bits):
        # 3^10000 has 4,772 digits, more than str() gives an int; the others
        # are refused from the dimension, before the count is computed
        code, _, err = run(capsys, "orbits", text)
        assert code == 3
        assert err == f"cap exceeded: enumeration needs at least 2^{bits} points, cap is 200000\n"

    # caps up to 20,000 points keep each enumeration in milliseconds
    @given(instance_texts(), st.integers(-1, 7), st.integers(-2, 20_000))
    @settings(max_examples=60, deadline=None)
    def test_fuzzed_arguments_exit_0_2_or_3(self, text, q, cap):
        fuzzed_exit(["orbits", "--q", str(q), "--cap", str(cap), "--json", "--", text])

    def test_unsupported_field_exits_2(self, capsys):
        code, _, err = run(capsys, "orbits", "--tree", "1>2", "--q", "7")
        assert code == 2
        assert "error:" in err

    def test_cap_help(self, capsys):
        from treeorbits.orbits import DEFAULT_CAP

        with pytest.raises(SystemExit):
            main(["orbits", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"(default {DEFAULT_CAP:,})" in text
        assert "exit code 3" in text


@st.composite
def pencils(draw):
    """Pencil file contents: a pencil of coordinate subspaces, then a few entries or keys changed."""
    n = draw(st.integers(2, 4))
    d = draw(st.integers(1, n - 1))
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    lower, upper = unit[: d - 1], unit[: d + 1]
    members = []
    for _ in range(4):
        a, b = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        members.append(lower + [[a * x + b * y for x, y in zip(unit[d - 1], unit[d])]])
    matrices = [*members, lower, upper]
    for m, row, col, value in draw(st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, n), st.integers(0, n - 1),
                      st.integers(-2, 6)), max_size=2)):
        if row < len(matrices[m]):
            matrices[m][row] = [*matrices[m][row][:col], value, *matrices[m][row][col + 1 :]]
    data = {"p": draw(st.sampled_from([2, 3, 7, 101])), "subspaces": matrices[:4],
            "lower": matrices[4], "upper": matrices[5]}
    for key in draw(st.lists(st.sampled_from(sorted(data)), max_size=2)):
        data[key] = draw(json_values)
    return json.dumps(data)


class TestCrossRatio:
    def pencil(self, tmp_path, **overrides):
        data = {
            "p": 101,
            "subspaces": [[[0, 1]], [[1, 0]], [[1, 1]], [[3, 1]]],
            "lower": [],
            "upper": [[1, 0], [0, 1]],
        }
        data.update(overrides)
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_line_pencil(self, capsys, tmp_path):
        code, out, _ = run(capsys, "crossratio", "--pencil-file", self.pencil(tmp_path))
        assert code == 0
        assert out == "cross-ratio 3 mod 101\n"

    def test_json(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "crossratio", "--pencil-file", self.pencil(tmp_path), "--json"
        )
        assert code == 0
        assert json.loads(out) == {"p": 101, "value": 3}

    def test_degenerate_exits_2(self, capsys, tmp_path):
        path = self.pencil(tmp_path, subspaces=[[[0, 1]], [[1, 0]], [[1, 1]], [[0, 1]]])
        code, _, err = run(capsys, "crossratio", "--pencil-file", path)
        assert code == 2
        assert "error:" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "crossratio", "--pencil-file", str(tmp_path / "no.json"))
        assert code == 2
        assert "cannot read" in err

    def test_bad_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "crossratio", "--pencil-file", str(path))
        assert code == 2
        assert "bad JSON" in err

    def test_long_integer_exits_2(self, capsys, tmp_path):
        path = tmp_path / "pencil.json"
        path.write_text('{"p": ' + "9" * 5000 + ', "subspaces": [], "lower": [], "upper": []}')
        code, out, err = run(capsys, "crossratio", "--pencil-file", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: bad JSON in {path}: an integer has too many digits\n"

    @pytest.mark.parametrize(
        "content",
        [
            b"[1, 2]",
            b'"x"',
            {"subspaces": 5},
            {"subspaces": [[[0, 1]], [[1, 0]], [[1, 1]], [[10**26, 1]]]},
            {"subspaces": [[[0, 1]], [[1, 0]], [[1, 1]], [[3.5, 1]]]},
            b'{"p": 101, "lower": [], "upper": [[1, 0], [0, 1]], "subspaces": "\xff"}',
            {"subspaces": [[[[1]]]] * 4},
            {"subspaces": [[[0, 1]], [[1, 0]], [[1, 1]], json.loads("[" * 60 + "1" + "]" * 60)]},
        ],
        ids=["list", "string", "subspaces-not-a-list", "int64-overflow", "float-entry",
             "not-utf8", "three-axes", "many-axes"],
    )
    def test_malformed_pencil_exits_2(self, capsys, tmp_path, content):
        if isinstance(content, dict):
            path = self.pencil(tmp_path, **content)
        else:
            path = tmp_path / "pencil.json"
            path.write_bytes(content)
        code, _, err = run(capsys, "crossratio", "--pencil-file", str(path))
        assert code == 2
        assert err.startswith("error:")

    @given(st.one_of(pencils(), json_values.map(json.dumps), st.binary(max_size=40)),
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_fuzzed_pencil_file_exits_0_or_2(self, content, as_json):
        fuzzed_file_exit(["crossratio", *(["--json"] if as_json else [])], "--pencil-file", content)

    def test_deeply_nested_pencil_exits_2(self, capsys, tmp_path):
        path = tmp_path / "pencil.json"
        path.write_text("[" * 100_000)
        code, _, err = run(capsys, "crossratio", "--pencil-file", str(path))
        assert code == 2
        assert "nested too deeply" in err


class TestInputHandling:
    @pytest.mark.parametrize("text", ["F (1;3)", "G\t(1;3)"])
    def test_positional_product_with_space_before_the_parenthesis(self, capsys, text):
        assert run(capsys, "decide", text, "--json") == run(capsys, "decide", "--product", text, "--json")
        assert run(capsys, "decide", text)[0] == 0

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "dim", "--tree", "2>2")
        assert code == 2
        assert "error:" in err

    def test_two_sources_rejected(self, capsys):
        code, _, err = run(capsys, "dim", "--tree", "1>2", "--product", "G(1;2)")
        assert code == 2
        assert "exactly one" in err

    def test_no_source_rejected(self, capsys):
        code, _, err = run(capsys, "dim")
        assert code == 2
        assert "exactly one" in err

    def test_tree_file(self, capsys, tmp_path):
        path = tmp_path / "tree.txt"
        path.write_text("a:1>b:2>r:4 | c:2>r\n")
        code, out, _ = run(capsys, "dim", "--tree-file", str(path))
        assert code == 0
        assert out == "dimension 9 (ambient 4)\n"

    def test_tree_file_json_format(self, capsys, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text('{"labels": {"a": 2, "r": 4}, "edges": [["a", "r"]]}')
        code, out, _ = run(capsys, "dim", "--tree-file", str(path))
        assert code == 0
        assert out == "dimension 4 (ambient 4)\n"

    def test_tree_file_name_chain_notation_cannot_carry_exits_2(self, capsys, tmp_path):
        # read as chain text, a:1>b:2>r:3 would be F(1,2;3), of dimension 3, not 2
        path = tmp_path / "tree.json"
        path.write_text('{"labels": {"a:1>b": 2, "r": 3}, "edges": [["a:1>b", "r"]]}')
        code, out, err = run(capsys, "decide", "--tree-file", str(path), "--json")
        assert (code, out) == (2, "")
        assert "vertex name 'a:1>b'" in err

    def test_missing_tree_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "dim", "--tree-file", str(tmp_path / "absent.txt"))
        assert code == 2
        assert "cannot read" in err

    def test_non_utf8_tree_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "tree.txt"
        path.write_bytes(b"a:1>r:\xff2\n")
        code, _, err = run(capsys, "dim", "--tree-file", str(path))
        assert code == 2
        assert "cannot read" in err

    def test_deeply_nested_tree_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text('{"labels": ' + "[" * 100_000 + "]" * 100_000 + ', "edges": []}')
        code, _, err = run(capsys, "dim", "--tree-file", str(path))
        assert code == 2
        assert "nested too deeply" in err

    def test_unknown_verb_raises_usage_error(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


def run_fresh(script: str) -> None:
    """Run ``script`` in a fresh interpreter that imports this package; it must exit 0."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(treeorbits.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_rule_engine_verbs_load_no_numpy():
    # a fresh interpreter: this one has imported numpy already
    script = textwrap.dedent(
        """
        import sys

        import treeorbits
        from treeorbits import cli

        tree = treeorbits.parse_instance("v1:1>v0:2>r:5 | v2:2>r | v3:3>r | v4:1>v0")
        treeorbits.decide(tree, depth=3)
        treeorbits.decide(treeorbits.parse_instance("F(1,2;5)*F(3;5)^2"))
        for verb in ("dim", "classify", "decide"):
            assert cli.main([verb, "F(1,2;4)^3"]) == 0
        assert "numpy" not in sys.modules, "numpy was loaded"
        assert treeorbits.enumerate_orbits.__module__ == "treeorbits.orbits"
        assert "numpy" in sys.modules
        """
    )
    run_fresh(script)


def test_decide_and_enumerate_orbits_load_no_certificate():
    # the rule engine and the orbit enumerator, as the decide and census
    # benchmarks run them, never import the certificate or its linear algebra
    script = textwrap.dedent(
        """
        import sys

        import treeorbits

        for text in ("F(1,2;5)*F(3;5)^2", "F(1;12)^9*F(10;12)^2", "G(1;6)^3*G(3;6)^2"):
            treeorbits.decide(treeorbits.parse_instance(text))
        treeorbits.decide(treeorbits.parse_instance("v1:1>v0:2>r:5 | v2:2>r | v3:3>r | v4:1>v0"), depth=3)
        for text, q in (("F(1,2;4)*F(1;4)", 2), ("F(1;3)*F(2;3)*F(1,2;3)", 3), ("F(1;2)^5", 3),
                        ("a:1>b:2>r:4 | c:1>b | d:2>r", 2)):
            treeorbits.enumerate_orbits(treeorbits.parse_instance(text), q)
        assert "treeorbits.orbits" in sys.modules
        loaded = sorted({"treeorbits.oracle", "treeorbits.modp"} & set(sys.modules))
        assert not loaded, loaded
        """
    )
    run_fresh(script)
