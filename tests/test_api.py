import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import secpred

SRC = Path(__file__).resolve().parents[1] / "src"

MODULES = ["secpred"] + [f"secpred.{m.name}" for m in pkgutil.iter_modules(secpred.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, missing


def test_import_loads_neither_scipy_nor_mpmath():
    # scipy is imported where a command needs it (derand-demo's kstest) and
    # mpmath only by the tests: scipy.stats alone takes 1.0-1.5 s to import
    # on a 2-vCPU host, several times the package's own cold import
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import sys, secpred; print(sorted({'scipy', 'mpmath'} & sys.modules.keys()))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
