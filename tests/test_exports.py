"""The package's export lists."""

import importlib
import pkgutil

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
