"""Command line front end.

Verbs: ``dim``, ``classify``, ``decide``, ``certify``, ``orbits``,
``crossratio``.  An instance is text, given as the positional argument or
as the contents of ``--tree-file``, and either is read by
``parsing.parse_instance``: a JSON tree, a product or chain notation.  A
pencil file is read as JSON, and ``oracle.cross_ratio`` checks its entries.
Options are matched by their full names only.

Exit codes: 0 for any computed answer (including Unknown verdicts and
Inconclusive certificates), 2 for parse or validation problems, 3 when a
point cap stops an enumeration, 4 for any other exception (a package fault).

numpy, the certificate and the enumerator are imported only by the verbs
that use them, so ``dim``, ``classify`` and ``decide`` start without numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import partial

from . import engine
from .classify import orbit_class, trivially_sparse
from .errors import CapExceeded, Error, ParseError
from .parsing import load_json, parse_instance
from .products import FlagProduct, instance_dimension
from .trees import LabeledTree


def _dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from None


def _add_instance_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", nargs="?",
                     help="tree (chain notation or JSON) or product text, like F(1,2;4)^3")
    sub.add_argument("--tree-file", help="file holding the instance text instead")


def _instance(args) -> LabeledTree | FlagProduct:
    if (args.input is None) == (args.tree_file is None):
        raise ParseError("provide exactly one of: positional input, --tree-file")
    return parse_instance(_read(args.tree_file) if args.input is None else args.input)


def _cmd_dim(args):
    inst = _instance(args)
    record = {
        "input": engine.display(inst),
        "ambient": inst.ambient,
        "dimension": instance_dimension(inst),
    }
    human = f"dimension {record['dimension']} (ambient {record['ambient']})"
    return record, human


def _cmd_classify(args):
    inst = _instance(args)
    oc = orbit_class(inst)
    ts = trivially_sparse(inst)
    record = {"input": engine.display(inst), "orbit_class": asdict(oc),
              "trivially_sparse": asdict(ts)}
    lines = [f"orbit class: {oc.kind}" + (f" (case {oc.case_label})" if oc.case_label else ""),
             f"  {oc.witness}"]
    if ts.violated:
        lines.append(
            f"trivially sparse: subtree at {ts.vertex} has dimension {ts.lhs} > {ts.rhs}"
        )
    else:
        lines.append("trivially sparse: no")
    return record, "\n".join(lines)


def _rules_listing() -> str:
    lines = []
    for rule in engine.RULES:
        lines.append(f"{rule.rule_id:18} {rule.kind:8} {rule.summary}")
        lines.append(f"{'':18} {'':8} {rule.citation}")
    return "\n".join(lines)


def _trace_lines(steps, indent: str = "  "):
    for step in steps:
        arrow = f"{step.before} -> {step.after}" if step.after != step.before else step.before
        yield f"{indent}{step.rule_id:18} {arrow}"
        if step.note:
            yield f"{indent}{'':18} {step.note}"
        yield f"{indent}{'':18} [{step.citation}]"
        yield from _trace_lines(step.subtrace, indent + "  ")


def _cmd_decide(args):
    if args.rules:
        record = {"rules": [asdict(r) for r in engine.RULES]}
        return record, _rules_listing()
    inst = _instance(args)
    verdict = engine.decide(inst, depth=args.depth)
    record = verdict.to_json_dict()
    lines = [f"{verdict.status}: {verdict.input}", *_trace_lines(verdict.trace)]
    if verdict.status == engine.UNKNOWN:
        lines.append(f"  no rule applies to the reduced instance {verdict.final}")
    return record, "\n".join(lines)


def _cmd_certify(args):
    from .oracle import DEFAULT_PRIME, certify_density

    inst = _instance(args)
    prime = DEFAULT_PRIME if args.prime is None else args.prime
    report = certify_density(inst, p=prime, trials=args.trials, seed=args.seed)
    record = {"input": engine.display(inst), **report.to_json_dict()}
    if report.certified_dense:
        human = (
            f"DenseCertified: a configuration over F_{report.p} has orbit rank "
            f"{report.variety_dim} = dim"
        )
    else:
        human = (
            f"Inconclusive: ranks {list(report.ranks)} stayed below the dimension "
            f"{report.variety_dim} over F_{report.p} ({report.trials} trials)"
        )
    return record, human


def _cmd_orbits(args):
    from .orbits import DEFAULT_CAP, enumerate_orbits

    inst = _instance(args)
    cap = DEFAULT_CAP if args.cap is None else args.cap
    report = enumerate_orbits(inst, q=args.q, cap=cap)
    record = {"input": engine.display(inst), **asdict(report)}
    plural = "" if report.orbit_count == 1 else "s"
    human = (
        f"{report.orbit_count} orbit{plural} on {report.point_count} points "
        f"over F_{report.q}"
    )
    return record, human


def _cmd_crossratio(args):
    import numpy as np

    from .oracle import cross_ratio

    data = load_json(_read(args.pencil_file), f"JSON in {args.pencil_file}")
    try:
        # the file lists basis vectors as rows; cross_ratio reads columns and
        # checks every entry
        p = data["p"]
        subspaces = [np.array(m, dtype=object).T for m in data["subspaces"]]
        n = subspaces[0].shape[0]
        lower = np.array(data["lower"], dtype=object).reshape(-1, n).T
        upper = np.array(data["upper"], dtype=object).reshape(-1, n).T
    except (KeyError, ValueError, IndexError, TypeError) as e:
        raise ParseError(f"pencil file needs p, subspaces, lower, upper: {e}") from None
    value = cross_ratio(subspaces, lower, upper, p)
    record = {"p": p, "value": value}
    return record, f"cross-ratio {value} mod {p}"


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: argparse would otherwise read a prefix of an option
    # as that option
    strict = partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = strict(
        prog="treeorbits",
        description="dense-orbit decision procedures for subspace configuration varieties",
    )
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=strict)

    p_dim = sub.add_parser("dim", help="dimension of the configuration variety")
    _add_instance_args(p_dim)

    p_classify = sub.add_parser("classify", help="orbit class and the easy sparseness check")
    _add_instance_args(p_classify)

    p_decide = sub.add_parser("decide", help="dense/sparse verdict with a derivation trace")
    _add_instance_args(p_decide)
    p_decide.add_argument("--depth", type=int, default=1,
                          help="nesting allowed for the sparse-image rule (default 1)")
    p_decide.add_argument("--rules", action="store_true",
                          help="list the rule catalog and exit")

    p_certify = sub.add_parser("certify", help="randomized density certificate over F_p")
    _add_instance_args(p_certify)
    p_certify.add_argument("--prime", type=int)
    p_certify.add_argument("--trials", type=int, default=3)
    p_certify.add_argument("--seed", type=int, default=0)

    p_orbits = sub.add_parser("orbits", help="exhaustive orbit count over a tiny field")
    _add_instance_args(p_orbits)
    p_orbits.add_argument("--q", type=int, default=2, help="field order in {2,3,4,5}")
    p_orbits.add_argument("--cap", type=int,
                          help="largest full F_q point count of the variety to enumerate "
                               "(default 200,000); a larger variety is refused with exit code 3")

    p_cr = sub.add_parser("crossratio", help="cross-ratio of four subspaces in a pencil")
    p_cr.add_argument("--pencil-file", required=True,
                      help="JSON: p, subspaces (4 lists of basis vectors), lower, upper")

    for p_sub in (p_dim, p_classify, p_decide, p_certify, p_orbits, p_cr):
        p_sub.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


_COMMANDS = {
    "dim": _cmd_dim,
    "classify": _cmd_classify,
    "decide": _cmd_decide,
    "certify": _cmd_certify,
    "orbits": _cmd_orbits,
    "crossratio": _cmd_crossratio,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        record, human = _COMMANDS[args.verb](args)
    except CapExceeded as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return 3
    except Error as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a fault of the package: a failed self-check or a bug
        print(f"internal error: {e}", file=sys.stderr)
        return 4
    print(_dump(record) if args.json else human)
    return 0


if __name__ == "__main__":
    sys.exit(main())
