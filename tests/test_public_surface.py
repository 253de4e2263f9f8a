"""The exported names of the package resolve: a name deleted from a module
but left in ``xcat.__all__`` or in the package imports fails here by name."""

import ast
import importlib
import inspect
from pathlib import Path

import qtilt
from qtilt import forms, ring, rootsys, xcat


def _package_imports() -> list[tuple[str, str]]:
    tree = ast.parse(Path(qtilt.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_xcat_all_resolves():
    assert [name for name in xcat.__all__ if not hasattr(xcat, name)] == []


def test_package_imports_resolve():
    imports = _package_imports()
    assert imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(f"qtilt.{module}"), name)
               or not hasattr(qtilt, name)]
    assert missing == []


def test_package_reexports_only_xcat_exports():
    assert [name for module, name in _package_imports()
            if module == "xcat" and name not in xcat.__all__] == []


def test_local_ring_constructors_take_only_their_parameter():
    assert list(inspect.signature(ring.cyclotomic_local).parameters) == ["l"]
    assert list(inspect.signature(ring.integer_local).parameters) == ["p"]


def test_builds_take_their_region_from_prune_and_height_bound_alone():
    for build in (xcat.build_smin, xcat.build_smax, forms.build_smax_with_form):
        assert list(inspect.signature(build).parameters) == [
            "rs", "ring", "lam", "prune", "height_bound"], build.__name__


def test_root_system_takes_only_its_spec():
    assert list(inspect.signature(rootsys.root_system).parameters) == ["spec"]


def test_ring_construction_does_no_element_arithmetic(monkeypatch):
    # cyc:11 is built by no other test, so no earlier construction can
    # have left a cached result behind.
    def refuse(*args):
        raise AssertionError("element arithmetic during ring construction")

    monkeypatch.setattr(ring, "_make_laurent", refuse)
    assert ring.parse_ring("cyc:11").descriptor() == "cyc:11"
