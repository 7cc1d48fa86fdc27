import json

import pytest

from secpred.cli import main

COSP_FLAGS = [
    "--model", "cosp", "--theta", "0.58", "--tau", "0.37", "--beta", "0.64",
    "--gamma", "0.27", "--delta", "0.46",
]
ROSP_FLAGS = [
    "--model", "rosp", "--theta", "0.63", "--tau", "0.33",
    "--gamma", "0.34", "--delta", "0.66",
]


def test_certify_pass_exit_zero(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main(
        ["certify", *COSP_FLAGS, "--target-b", "0.262", "--tm", "8", "--tk", "8",
         "--out", str(out)]
    )
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["passed"] is True
    assert "PASSED" in capsys.readouterr().out


def test_certify_fail_exit_one(capsys):
    code = main(
        ["certify", *COSP_FLAGS, "--target-b", "0.29", "--tm", "6", "--tk", "6"]
    )
    assert code == 1
    assert "FAILED" in capsys.readouterr().out


def test_certificate_byte_stable(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        main(["certify", *ROSP_FLAGS, "--target-b", "0.221", "--tm", "6", "--tk", "6",
              "--out", str(path)])
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_evaluate_prints_case1_gamma(capsys):
    code = main(["evaluate", "--case", "1", *COSP_FLAGS, "--m", "1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0.27"


def test_gen_then_simulate(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    code = main(
        ["gen", "--family", "case", "--case", "4", "--m", "2", "--k", "1",
         "--m2", "1", "--n", "5", "--theta", "0.58", "--out", str(inst)]
    )
    assert code == 0
    code = main(
        ["simulate", "--instance", str(inst), *COSP_FLAGS, "--trials", "20000",
         "--seed", "7", "--threads", "1"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    row = lines[-1].split(",")
    assert row[0] == "cosp" and row[1] == "5"
    assert float(row[7]) > 0.26


def test_derand_demo(capsys):
    code = main(["derand-demo", "--n", "5", "--samples", "20000", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ks_stat=" in out


@pytest.mark.parametrize("flags", [["--n", "0", "--samples", "100"], ["--n", "5", "--samples", "0"]])
def test_derand_demo_rejects_empty_draw(capsys, flags):
    assert main(["derand-demo", *flags, "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert "ks_stat" not in out
    assert err.startswith("error:")


def test_evaluate_tau_zero_exit_two(capsys):
    flags = ["--model", "rosp", "--theta", "0.5", "--tau", "0", "--gamma", "0.3", "--delta", "0.4"]
    assert main(["evaluate", "--case", "4", *flags, "--m", "1", "--k", "1"]) == 2
    assert "tau > 0" in capsys.readouterr().err


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--model", "bogus"])
    assert exc.value.code == 2


def test_io_error_exit_two(capsys):
    code = main(
        ["simulate", "--instance", "/nonexistent/file.json", *COSP_FLAGS,
         "--trials", "10", "--threads", "1"]
    )
    assert code == 2


def test_evaluate_rosp_case0(capsys):
    code = main(["evaluate", "--case", "0", *ROSP_FLAGS])
    assert code == 0
    assert float(capsys.readouterr().out) == pytest.approx((1 - 0.63) / (1 + 0.63), rel=1e-10)


def test_evaluate_reduction_cases(capsys):
    assert main(["evaluate", "--case", "2", *COSP_FLAGS, "--m", "1"]) == 0
    c2 = float(capsys.readouterr().out)
    assert main(["evaluate", "--case", "1", *COSP_FLAGS, "--m", "2"]) == 0
    c1 = float(capsys.readouterr().out)
    assert c2 == c1
    assert main(["evaluate", "--case", "4", *ROSP_FLAGS, "--m", "2", "--k", "1", "--m2", "1"]) == 0
    assert float(capsys.readouterr().out) > 0.2


def test_tune_subcommand(capsys):
    code = main(["tune", "--model", "cosp", "--step", "0.3", "--tm", "8", "--tk", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "certified_bound:" in out


def test_gen_underest_best(tmp_path):
    path = tmp_path / "u.json"
    code = main(
        ["gen", "--family", "underest-best", "--n", "4", "--theta", "0.58",
         "--deviation", "0.9", "--out", str(path)]
    )
    assert code == 0
    obj = json.loads(path.read_text())
    assert len(obj["values"]) == 4
