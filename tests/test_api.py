"""The package's top-level names are the API that README documents."""

import ast
import re
from pathlib import Path

import pytest

import treeorbits
from treeorbits.classify import trivially_sparse

ROOT = Path(__file__).resolve().parents[1]

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


def test_dir_lists_the_lazily_loaded_names():
    # certify_density, cross_ratio and enumerate_orbits load numpy on first use
    assert set(PUBLIC) <= set(dir(treeorbits))


def test_star_import():
    namespace = {}
    exec("from treeorbits import *", namespace)
    assert set(PUBLIC) <= set(namespace)


@pytest.mark.parametrize("value", ["F(1;3)", 3, None], ids=["text", "int", "none"])
@pytest.mark.parametrize("entry", ["decide", "orbit_class", "trivially_sparse",
                                   "certify_density", "enumerate_orbits"])
def test_an_unparsed_instance_raises_type_error(entry, value):
    fn = trivially_sparse if entry == "trivially_sparse" else getattr(treeorbits, entry)
    with pytest.raises(TypeError, match=f"got {type(value).__name__}; .*parse_instance"):
        fn(value)


def _defined_names(module: ast.Module) -> list[str]:
    """Functions, classes and assigned names at the top level of a module."""
    names = []
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def test_every_module_level_name_has_a_use():
    # a name counts as used when some module of the package reads or imports
    # it, or README names it in backticks; dunder names are Python's
    modules = {p.name: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted((ROOT / "src" / "treeorbits").glob("*.py"))}
    used = set()
    for module in modules.values():
        for node in ast.walk(module):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    used.update(re.findall(r"\w+", " ".join(re.findall(r"`([^`]*)`", readme))))
    unused = [f"{file}: {name}" for file, module in modules.items()
              for name in _defined_names(module)
              if name not in used and not (name.startswith("__") and name.endswith("__"))]
    assert unused == []
