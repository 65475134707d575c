"""Dense-orbit and finite-orbit decision procedures for subspace configuration varieties.

The objects are labeled rooted trees (nested configurations of subspaces)
and products of partial flag varieties in a common ambient space.  The
package classifies when the projective linear group acts with finitely
many orbits, decides dense-orbit existence through a catalog of proved
rules and density-preserving rewrites, and verifies verdicts numerically:
exact stabilizer ranks over large prime fields and exhaustive orbit
counts over tiny ones.

The certificate (``oracle``) and the enumerator (``orbits``) need numpy; their
names are loaded on first use, so the rule engine alone never imports it.
"""

from .classify import OrbitClass, SparsenessCheck, orbit_class, trivially_sparse
from .engine import DENSE, RULES, SPARSE, TRIVIALLY_SPARSE, UNKNOWN, Step, Verdict, decide
from .errors import (
    BadRange,
    BoundsError,
    CapExceeded,
    Degenerate,
    EmptyInput,
    Error,
    IterationLimit,
    LabelViolation,
    NotAPencil,
    NotATree,
    NotPrime,
    ParseError,
    RootForbidden,
    UnknownVertex,
    UnsupportedField,
)
from .parsing import (
    parse_instance,
    parse_product,
    parse_tree_dsl,
    parse_tree_json,
    parse_tree_spec,
)
from .products import (
    FlagProduct,
    as_flag_product,
    derived_sequence,
    dualize,
    product_to_tree,
    reduce_half,
    reduce_span,
    tree_to_product,
)
from .trees import (
    Branch,
    LabeledTree,
    TruncationResult,
    branches,
    dimension,
    forget_vertex,
    min_width,
    subtree_at,
    to_canonical_json,
    to_dsl,
    to_json_dict,
    truncate,
    validate_tree,
)

__version__ = "0.1.0"

_LAZY = dict.fromkeys(
    ("DEFAULT_PRIME", "SECONDARY_PRIMES", "CertifyReport", "Configuration", "StabReport",
     "certify_density", "cross_ratio", "random_config", "stabilizer_dim"), "oracle"
) | dict.fromkeys(
    ("DEFAULT_CAP", "OrbitReport", "enumerate_orbits", "gaussian_binomial",
     "projected_point_count"), "orbits"
)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "Branch",
    "BadRange",
    "BoundsError",
    "CapExceeded",
    "CertifyReport",
    "Configuration",
    "DEFAULT_CAP",
    "DEFAULT_PRIME",
    "DENSE",
    "Degenerate",
    "EmptyInput",
    "Error",
    "FlagProduct",
    "IterationLimit",
    "LabelViolation",
    "LabeledTree",
    "NotAPencil",
    "NotATree",
    "NotPrime",
    "OrbitClass",
    "OrbitReport",
    "ParseError",
    "RootForbidden",
    "RULES",
    "SECONDARY_PRIMES",
    "SPARSE",
    "SparsenessCheck",
    "StabReport",
    "Step",
    "TRIVIALLY_SPARSE",
    "TruncationResult",
    "UNKNOWN",
    "UnknownVertex",
    "UnsupportedField",
    "Verdict",
    "as_flag_product",
    "branches",
    "certify_density",
    "cross_ratio",
    "decide",
    "derived_sequence",
    "dimension",
    "dualize",
    "enumerate_orbits",
    "forget_vertex",
    "gaussian_binomial",
    "min_width",
    "orbit_class",
    "parse_instance",
    "parse_product",
    "parse_tree_dsl",
    "parse_tree_json",
    "parse_tree_spec",
    "product_to_tree",
    "projected_point_count",
    "random_config",
    "reduce_half",
    "reduce_span",
    "stabilizer_dim",
    "subtree_at",
    "to_canonical_json",
    "to_dsl",
    "to_json_dict",
    "tree_to_product",
    "trivially_sparse",
    "truncate",
    "validate_tree",
]
