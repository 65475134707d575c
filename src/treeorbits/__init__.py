"""Dense-orbit and finite-orbit decision procedures for subspace configuration varieties.

The objects are labeled rooted trees (nested configurations of subspaces)
and products of partial flag varieties in a common ambient space.  The
package classifies when the projective linear group acts with finitely
many orbits, decides dense-orbit existence through a catalog of proved
rules and density-preserving rewrites, and verifies verdicts numerically:
exact stabilizer ranks over large prime fields and exhaustive orbit
counts over tiny ones.

The names here are the public API; everything else (the other rewrites and
tree operations, the error classes, the reports, the defaults) lives in its
submodule: ``trees``, ``products``, ``parsing``, ``classify``, ``engine``,
``oracle``, ``orbits``, ``modp``, ``errors``.  The certificate (``oracle``)
and the enumerator (``orbits``) need numpy; their names are loaded on first
use, so the rule engine alone never imports it.
"""

from .classify import orbit_class
from .engine import DENSE, SPARSE, TRIVIALLY_SPARSE, UNKNOWN, decide
from .errors import CapExceeded, Error
from .parsing import parse_instance
from .products import FlagProduct, dualize, reduce_half, reduce_span, tree_to_product
from .trees import LabeledTree

__version__ = "0.1.0"

_LAZY = dict.fromkeys(("certify_density", "cross_ratio"), "oracle") | {"enumerate_orbits": "orbits"}


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
    "CapExceeded",
    "DENSE",
    "Error",
    "FlagProduct",
    "LabeledTree",
    "SPARSE",
    "TRIVIALLY_SPARSE",
    "UNKNOWN",
    "certify_density",
    "cross_ratio",
    "decide",
    "dualize",
    "enumerate_orbits",
    "orbit_class",
    "parse_instance",
    "reduce_half",
    "reduce_span",
    "tree_to_product",
]
