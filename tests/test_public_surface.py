"""The exported names of the package resolve: a name deleted from a module
but left in ``xcat.__all__`` or in the package imports fails here by name.
Helpers that no program called stay deleted, the README's library example
runs, and the package and its CLI import nothing outside the standard
library."""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import qtilt
from qtilt import forms, linalg, ring, rootsys, xcat


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


# Helpers that no program called, each a second name for something kept
# (in brackets) or with no caller at all.
_DELETED = [
    (linalg.Mat, "__sub__"), (linalg.Mat, "__neg__"),
    (linalg.Mat, "from_cols"),            # [Mat.from_rows]
    (linalg.Mat, "transpose"),            # [Mat.T]
    (ring, "valuation"),                  # [RingElem.valuation()]
    (ring, "qfact"),
    (ring.LaurentPoly, "coeffs"),         # [LaurentPoly.shift and .c]
    (rootsys, "pairing"),                 # [mu[a]]
    (rootsys.RootSystem, "simple_root"),  # [RootSystem.add_root]
    (rootsys.RootSystem, "_inv_cartan"),  # [RootSystem.lattice]
    (qtilt, "qfact"), (qtilt, "valuation"), (qtilt, "pairing"),
]


def test_uncalled_helpers_stay_deleted():
    assert [f"{owner.__name__}.{name}" for owner, name in _DELETED
            if hasattr(owner, name)] == []


def test_root_system_keeps_one_copy_of_the_inverse_cartan_matrix():
    assert [f.name for f in dataclasses.fields(rootsys.RootSystem)] == [
        "label", "cartan", "d", "lattice"]


def test_readme_library_example_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library surface\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


_IMPORTS_ADDED = """
import sys
before = {name.partition(".")[0] for name in sys.modules}
import qtilt, qtilt.cli
print(" ".join(sorted({name.partition(".")[0] for name in sys.modules} - before)))
"""


def test_package_and_cli_need_only_the_standard_library():
    # Names imported before this code runs (a .pth file may import a
    # third-party module at startup) are not counted.
    src = str(Path(qtilt.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", _IMPORTS_ADDED], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "qtilt" in out
    assert [name for name in out
            if name != "qtilt" and name not in sys.stdlib_module_names] == []
