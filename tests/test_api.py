import importlib
import pkgutil

import pytest

import secpred

MODULES = ["secpred"] + [f"secpred.{m.name}" for m in pkgutil.iter_modules(secpred.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, missing
