"""Structure rules on the library's source, read with ``ast`` or by line.

Each rule takes the sources under src/secpred as a dict from path, relative
to src/secpred, to text and returns where it is broken; each test runs its rule on the real sources,
which must pass, and on a copy with a violation added, which must not.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "secpred"
SOURCES = {path.relative_to(SRC).as_posix(): path.read_text()
           for path in sorted(SRC.rglob("*.py"))}


def _with(name, text):
    """The sources with ``text`` appended to the file ``name``."""
    return dict(SOURCES, **{name: SOURCES[name] + text})


def _inside(tree, names):
    """The ids of every node within a function of ``tree`` named in ``names``."""
    return {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
            and f.name in names for n in ast.walk(f)}


def _integer_rule(sources):
    # core.check_integer is the one check of an integer argument: no other
    # module converts with operator.index
    return [f"src/secpred/{name}:{i}" for name, text in sources.items() if name != "core.py"
            for i, line in enumerate(text.splitlines(), 1) if re.search(r"operator\.index", line)]


def _pow_over_x_rule(sources):
    # analytic evaluates the integral of (1-x)^n / x one way: math.fsum and
    # math.log appear only in _pox_row, the row every other reader,
    # pow_over_x_integral included, takes its values from (np.log is not
    # math.log, and is allowed)
    tree = ast.parse(sources["analytic.py"])
    inside = _inside(tree, {"_pox_row"})
    bad = [n.lineno for n in ast.walk(tree)
           if isinstance(n, ast.Attribute) and n.attr in ("fsum", "log")
           and isinstance(n.value, ast.Name) and n.value.id == "math"
           and id(n) not in inside]
    bad += [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.ImportFrom) and n.module == "math"]
    return bad


# the three functions that may read analytic.CASE_FORMS: the checked front
# end analytic.case_bound, the enumeration certificate.certify and the search
# term tune._term
_FORM_SITES = {("analytic", "case_bound"), ("certificate", "certify"), ("tune", "_term")}


def _case_form_rule(sources):
    # every case form is reached through analytic.CASE_FORMS, and the table
    # is read at the three sites only; a subscript anywhere else in the
    # modules of src/secpred, module level included, breaks the rule
    bad = []
    for name, text in sources.items():
        if "/" in name:
            continue  # a subpackage's module
        stem = name.removesuffix(".py")
        tree = ast.parse(text)
        inside = _inside(tree, {f for module, f in _FORM_SITES if module == stem})
        bad += [f"src/secpred/{name}:{n.lineno}" for n in ast.walk(tree)
                if isinstance(n, ast.Subscript) and id(n) not in inside
                and "CASE_FORMS" in (getattr(n.value, "id", None), getattr(n.value, "attr", None))]
    return bad


def _one_path_rule(sources):
    # the batch engine resolves every row itself, tied rows included: the
    # scalar reference run_trial and the per-trial seed trial_seed are read
    # nowhere in policy.py, so no row is replayed through them
    tree = ast.parse(sources["policy.py"])
    return [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            and n.id in ("run_trial", "trial_seed")]


def test_one_integer_check():
    bad = _integer_rule(SOURCES)
    assert not bad, "\n".join(bad + ["operator.index is used outside src/secpred/core.py"])
    lines = len(SOURCES["rng.py"].splitlines())
    broken = _with("rng.py", "\nimport operator\nn = operator.index(3)\n")
    assert _integer_rule(broken) == [f"src/secpred/rng.py:{lines + 3}"]
    assert not _integer_rule(_with("core.py", "\nn = operator.index(3)\n"))


def test_one_pow_over_x_evaluation():
    bad = _pow_over_x_rule(SOURCES)
    assert not bad, f"math.fsum or math.log outside _pox_row in analytic.py, lines {bad}"
    lines = len(SOURCES["analytic.py"].splitlines())
    broken = _with("analytic.py", "\ndef _row(a, b):\n    return math.fsum([math.log(b / a)])\n")
    assert _pow_over_x_rule(broken) == [lines + 3, lines + 3]
    assert _pow_over_x_rule(_with("analytic.py", "\nfrom math import fsum\n")) == [lines + 2]
    assert not _pow_over_x_rule(_with("analytic.py", "\nx = np.log(2.0)\n"))


def test_one_case_form_kernel():
    bad = _case_form_rule(SOURCES)
    assert not bad, f"CASE_FORMS subscripted outside {sorted(_FORM_SITES)}: {bad}"
    lines = len(SOURCES["tune.py"].splitlines())
    broken = _with("tune.py", "\nFORM = CASE_FORMS['cosp', 1]\n"
                              "\ndef _form(model):\n    return analytic.CASE_FORMS[model, 4]\n")
    assert _case_form_rule(broken) == [f"src/secpred/tune.py:{lines + 2}",
                                       f"src/secpred/tune.py:{lines + 5}"]
    assert not _case_form_rule(_with("tune.py", "\nforms = dict(CASE_FORMS)\n"))


def test_one_path_per_row():
    bad = _one_path_rule(SOURCES)
    assert not bad, f"run_trial or trial_seed read in policy.py, lines {bad}"
    lines = len(SOURCES["policy.py"].splitlines())
    broken = _with("policy.py", "\ndef _replay(i):\n    return run_trial(trial_seed(1, i))\n")
    assert sorted(_one_path_rule(broken)) == [lines + 3, lines + 3]
    assert not _one_path_rule(_with("policy.py", "\ndef run_trial():\n    pass\n"))
