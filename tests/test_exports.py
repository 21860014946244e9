"""Each module's __all__ lists exactly the public functions and classes it
defines, so a deleted name cannot linger in it."""

import importlib
import inspect
import pkgutil

import pytest

import skewstab

MODULES = [importlib.import_module(f"skewstab.{m.name}")
           for m in pkgutil.iter_modules(skewstab.__path__)]
EXPORTING = [mod for mod in MODULES if hasattr(mod, "__all__")]


def test_layer_modules_declare_exports():
    names = {mod.__name__.rsplit(".", 1)[1] for mod in EXPORTING}
    assert {"arithmetic", "batteries", "configio", "dynamics", "measures",
            "stability"} <= names


@pytest.mark.parametrize("mod", EXPORTING, ids=lambda mod: mod.__name__)
def test_all_equals_public_definitions(mod):
    defined = {name for name, value in vars(mod).items()
               if not name.startswith("_")
               and (inspect.isfunction(value) or inspect.isclass(value))
               and value.__module__ == mod.__name__}
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert set(mod.__all__) == defined
    namespace: dict = {}
    exec(f"from {mod.__name__} import *", namespace)
    assert set(mod.__all__) <= set(namespace)
