"""The package's top-level names are the API that README documents."""

import treeorbits

PUBLIC = [
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


def test_all_is_the_documented_api():
    assert sorted(treeorbits.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(treeorbits, name) is not None, name


def test_star_import():
    namespace = {}
    exec("from treeorbits import *", namespace)
    assert set(PUBLIC) <= set(namespace)

