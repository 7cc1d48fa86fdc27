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


def _run(code):
    """Run ``code`` in a fresh interpreter with src/ on the path; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_neither_scipy_nor_mpmath():
    # scipy is imported where a command needs it (derand-demo's kstest) and
    # mpmath only by the tests: scipy.stats alone takes 1.0-1.5 s to import
    # on a 2-vCPU host, several times the package's own cold import
    code = "import sys, secpred; print(sorted({'scipy', 'mpmath'} & sys.modules.keys()))"
    assert _run(code) == "[]"


LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'secpred'))"


@pytest.mark.parametrize("code, loaded", [
    ("import secpred", ["core"]),
    ("import secpred; secpred.estimate_ratio", ["core", "policy", "rng", "simulate"]),
    (
        "import secpred; secpred.estimate_ratio; secpred.GridSpec",
        ["analytic", "certificate", "core", "policy", "rng", "simulate", "tune"],
    ),
])
def test_submodules_load_on_first_use(code, loaded):
    # a name outside core loads its submodule (and what that imports) on
    # first access, so a run compiles only the modules it reaches
    want = sorted(["secpred"] + [f"secpred.{m}" for m in loaded])
    assert _run(f"import sys\n{code}\n{LOADED}") == repr(want)


def test_cli_gen_loads_neither_tune_certify_nor_derand(tmp_path):
    out = tmp_path / "inst.json"
    argv = ["gen", "--family", "overest-top", "--n", "4", "--theta", "0.63", "--out", str(out)]
    code = f"""import sys
from secpred.cli import main
assert main({argv!r}) == 0
print(sorted({{"secpred.tune", "secpred.certificate", "secpred.derand"}} & sys.modules.keys()))"""
    assert _run(code).splitlines()[-1] == "[]"
    assert out.exists()


@pytest.mark.parametrize("first", [
    "import secpred.tune",
    "import secpred.certificate",
    "from secpred.certificate import entry_groups",
    "from secpred import *",
])
def test_certify_name_is_the_function(first):
    # secpred.certify is the function and secpred.certificate the module that
    # defines it, whichever import loads the module first; no module is
    # named certify
    code = f"""{first}
import types
import secpred
assert callable(secpred.certify) and secpred.certify.__name__ == "certify", secpred.certify
assert isinstance(secpred.certificate, types.ModuleType)
assert secpred.certify is secpred.certificate.certify
assert set(secpred.__all__) <= set(dir(secpred))
try:
    import secpred.certify
except ModuleNotFoundError:
    assert secpred.certify is secpred.certificate.certify
    print("ok")"""
    assert _run(code) == "ok"
