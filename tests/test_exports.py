"""The package's export lists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import heatgen as hg


def test_export_lists_name_existing_unique_names():
    modules = [hg] + [
        importlib.import_module(f"heatgen.{info.name}")
        for info in pkgutil.iter_modules(hg.__path__)
    ]
    for module in modules:
        names = getattr(module, "__all__", [])
        assert len(set(names)) == len(names), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_star_import_binds_exactly_the_export_list():
    namespace: dict = {}
    exec("from heatgen import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(hg.__all__)


def _imports(module: str) -> set[str]:
    """(module, name) pairs of the relative imports of a heatgen module:
    ("averaging", "average") for "from .averaging import average", and
    ("averaging", "") for "from . import averaging"."""
    path = Path(hg.__file__).parent / f"{module}.py"
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module:
                    out.add((node.module, alias.name))
                else:
                    out.add((alias.name, ""))
    return out


def test_exact_path_does_not_import_the_oracles():
    for module in ("series", "rational", "curvature", "catalog"):
        sources = {source for source, _ in _imports(module)}
        assert not sources & {"averaging", "invariants", "cli"}, module
    exact = {"ldl", "solve", "nullspace", "primitive_columns",
             "whitened_average", "average_units"}
    names = {name for _, name in _imports("averaging")}
    assert not names & exact
    assert hg.whitened_average.__module__ == "heatgen.series"
