import json
import sys

import pytest

from secpred.cli import MAX_DEMO_SAMPLES, main
from secpred.core import BLOCK_ELEMENTS

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


def test_certify_margin_flag_removed(capsys):
    # a negative margin used to pass B = 0.9 against a minimum of 0.221
    with pytest.raises(SystemExit) as exc:
        main(["certify", *ROSP_FLAGS, "--target-b", "0.9", "--margin", "-1"])
    assert exc.value.code == 2
    assert main(["certify", *ROSP_FLAGS, "--target-b", "0.9", "--tm", "6", "--tk", "6"]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_certify_oversized_thresholds_exit_two(capsys):
    assert main(["certify", *ROSP_FLAGS, "--target-b", "0.221", "--tm", "100000", "--tk", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "tm exceeds the cap of 200" in err


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
         "--seed", "7"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    row = lines[-1].split(",")
    assert row[0] == "cosp" and row[1] == "5"
    assert float(row[7]) > 0.26


def test_simulate_out_file(tmp_path, capsys):
    inst, csv = tmp_path / "inst.json", tmp_path / "sim.csv"
    main(["gen", "--family", "overest-top", "--n", "4", "--theta", "0.63", "--out", str(inst)])
    code = main(
        ["simulate", "--instance", str(inst), *ROSP_FLAGS, "--trials", "500", "--seed", "3",
         "--out", str(csv)]
    )
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("model,n,")
    assert lines[1].startswith("rosp,4,") and lines[1].split(",")[6] == "3"
    assert capsys.readouterr().out.endswith(csv.read_text())


def test_derand_demo(capsys):
    code = main(["derand-demo", "--n", "5", "--samples", "20000", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ks_stat=" in out


def test_derand_demo_blocks_change_nothing(capsys, monkeypatch):
    # blocks of 7 rows (a ragged last one) draw the same t1 as one block
    from secpred import core

    argv = ["derand-demo", "--n", "5", "--samples", "20000", "--seed", "1"]
    assert main(argv) == 0
    whole = capsys.readouterr().out
    monkeypatch.setattr(core, "BLOCK_ELEMENTS", 7 * 5)
    assert 20000 % 7
    assert main(argv) == 0
    assert capsys.readouterr().out == whole


@pytest.mark.parametrize("flags", [
    ["--n", "0", "--samples", "100"],
    ["--n", "5", "--samples", "0"],
    ["--n", str(BLOCK_ELEMENTS + 1), "--samples", "1"],
    ["--n", "1", "--samples", str(MAX_DEMO_SAMPLES + 1)],
])
def test_derand_demo_rejects_empty_draw(capsys, flags):
    # an empty draw, a row longer than a block, or more samples than the cap
    assert main(["derand-demo", *flags, "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert "ks_stat" not in out
    assert err.startswith("error:")


def test_derand_demo_negative_seed_exit_two(capsys):
    # refused before numpy's generator, so the message names the flag
    assert main(["derand-demo", "--n", "5", "--samples", "100", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"


@pytest.mark.parametrize("family", [
    ["--family", "case", "--case", "4", "--m", "2", "--k", "1", "--m2", "1"],
    ["--family", "underest-best"],
    ["--family", "overest-top"],
])
def test_gen_oversized_instance_exit_two(tmp_path, capsys, monkeypatch, family):
    import secpred.simulate as sim

    def no_fillers(*args):
        raise AssertionError("fillers built")

    monkeypatch.setattr(sim, "_fillers", no_fillers)
    out = tmp_path / "inst.json"
    argv = ["gen", *family, "--n", str(BLOCK_ELEMENTS + 1), "--theta", "0.58", "--out", str(out)]
    assert main(argv) == 2
    assert f"n exceeds the cap of {BLOCK_ELEMENTS}" in capsys.readouterr().err
    assert not out.exists()


def test_gen_construction_mismatch_exit_two(tmp_path, capsys):
    # a deviation of 0.011 does not lift the runner-up's prediction above the
    # best's, so the overestimated-top family cannot be built
    out = tmp_path / "inst.json"
    argv = ["gen", "--family", "overest-top", "--n", "5", "--theta", "0.01",
            "--deviation", "0.011", "--out", str(out)]
    assert main(argv) == 2
    assert "construction mismatch" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_oversized_trials_exit_two(tmp_path, capsys, monkeypatch):
    import secpred.simulate as sim

    def no_chunks(args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(sim, "_chunk_sums", no_chunks)
    inst = tmp_path / "inst.json"
    main(["gen", "--family", "overest-top", "--n", "4", "--theta", "0.63", "--out", str(inst)])
    code = main(
        ["simulate", "--instance", str(inst), *ROSP_FLAGS, "--trials", str(sim.MAX_TRIALS + 1)]
    )
    assert code == 2
    assert f"trials exceeds the cap of {sim.MAX_TRIALS}" in capsys.readouterr().err


def test_evaluate_theta_outside_unit_interval_exit_two(capsys):
    flags = [*ROSP_FLAGS[:2], "--theta", "1.5", *ROSP_FLAGS[4:]]
    assert main(["evaluate", "--case", "4", *flags, "--m", "1", "--k", "1"]) == 2
    assert "theta=1.5 outside [0, 1]" in capsys.readouterr().err


def test_evaluate_tau_zero_exit_two(capsys):
    flags = ["--model", "rosp", "--theta", "0.5", "--tau", "0", "--gamma", "0.3", "--delta", "0.4"]
    assert main(["evaluate", "--case", "4", *flags, "--m", "1", "--k", "1"]) == 2
    assert "tau > 0" in capsys.readouterr().err


def test_evaluate_subnormal_tau_exit_two(capsys):
    # 1 / tau overflows at tau = 1e-310, which gave NaN bounds; 1e-308 is fine
    flags = ["--model", "rosp", "--theta", "0.5", "--gamma", "0.5", "--delta", "0.5"]
    case = ["evaluate", "--case", "4", "--m", "2", "--k", "1", "--m2", "1"]
    assert main([*case, *flags, "--tau", "1e-310"]) == 2
    assert "1 / tau finite, got tau=1e-310" in capsys.readouterr().err
    assert main([*case, *flags, "--tau", "1e-308"]) == 0
    assert "nan" not in capsys.readouterr().out


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--model", "bogus"])
    assert exc.value.code == 2


def test_io_error_exit_two(capsys):
    code = main(
        ["simulate", "--instance", "/nonexistent/file.json", *COSP_FLAGS,
         "--trials", "10"]
    )
    assert code == 2


def test_simulate_oversized_instance_file_exit_two(tmp_path, capsys, monkeypatch):
    # a file of exactly the cap loads; one byte more is refused before parsing
    import secpred.core as core

    def no_parse(*args, **kwargs):
        raise AssertionError("instance file parsed")

    inst = tmp_path / "inst.json"
    main(["gen", "--family", "overest-top", "--n", "4", "--theta", "0.58", "--out", str(inst)])
    argv = ["simulate", "--instance", str(inst), *COSP_FLAGS, "--trials", "10"]
    size = inst.stat().st_size
    monkeypatch.setattr(core, "MAX_INSTANCE_BYTES", size)
    assert main(argv) == 0
    monkeypatch.setattr(core, "MAX_INSTANCE_BYTES", size - 1)
    monkeypatch.setattr(json, "loads", no_parse)
    capsys.readouterr()
    assert main(argv) == 2
    assert f"cap of {size - 1} bytes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body",
    [
        {"values": ["0.5", 1.0], "predictions": [0.5, 1.0]},
        {"values": [0.5, 1.0], "predictions": [0.5, None]},
        {"values": [[0.5], 1.0], "predictions": [0.5, 1.0]},
        {"values": 0.5, "predictions": 0.5},
    ],
    ids=["string", "null", "nested", "scalar"],
)
def test_simulate_malformed_instance_exit_two(tmp_path, capsys, body):
    # exit 1 means a failed certificate; a bad file is a usage error
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(body))
    code = main(
        ["simulate", "--instance", str(inst), *COSP_FLAGS, "--trials", "10"]
    )
    assert code == 2
    assert "list of real numbers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"values": [1' + "0" * 400 + ', 2], "predictions": [1, 2]}', "fit in a float"),
        ('{"values": ' + "[" * 200_000 + "]" * 200_000 + ', "predictions": [1]}',
         "nested too deeply to parse"),
        ('{"values": [%r, %r, 1.0], "predictions": [1, 2, 3]}' % (sys.float_info.max, sys.float_info.max),
         "stay finite"),
    ],
    ids=["overflow", "recursion", "perturbed-overflow"],
)
def test_simulate_unreadable_instance_exit_two(tmp_path, capsys, text, message):
    # an integer beyond the float range, brackets nested past the parser's
    # recursion limit and a duplicate value that its perturbation takes past
    # the float maximum are usage errors, not tracebacks or a NaN ratio
    inst = tmp_path / "inst.json"
    inst.write_text(text)
    code = main(["simulate", "--instance", str(inst), *COSP_FLAGS, "--trials", "10"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "profile",
    [["--case", "1", "--m", str(10**400)], ["--case", "4", "--m", "5", "--k", str(10**6)]],
    ids=["m=10^400", "k=10^6"],
)
def test_evaluate_oversized_profile_exit_two(capsys, profile):
    # refused before any form runs: a float power of m = 10^400 overflows,
    # and the pow-over-x sums take time linear in k
    assert main(["evaluate", *profile, *COSP_FLAGS, "--m2", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "exceeds the cap" in err


def test_evaluate_case0_checks_profile(capsys):
    # case 0 needs only theta, but an impossible profile is still refused
    for profile in (["--m", "-5", "--k", "3", "--m2", "9"], ["--m", "0", "--m2", "2"]):
        assert main(["evaluate", "--case", "0", *COSP_FLAGS, *profile]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")


def test_evaluate_checks_profile_before_reducing(capsys):
    # cases 1 to 3 drop or clamp k and m2, but only after checking them
    for case, profile in [
        ("3", ["--m", "4", "--k", "1", "--m2", "99"]),
        ("3", ["--m", "4", "--k", "1", "--m2", "-3"]),
        ("1", ["--m", "2", "--k", "-7", "--m2", "99"]),
    ]:
        assert main(["evaluate", "--case", case, *COSP_FLAGS, *profile]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")


def test_evaluate_rosp_case0(capsys):
    # case 0 needs only theta, so chosen order without --beta gives it too
    cosp_no_beta = ["--model", "cosp", *ROSP_FLAGS[2:]]
    for flags in (ROSP_FLAGS, cosp_no_beta):
        code = main(["evaluate", "--case", "0", *flags])
        assert code == 0
        out = float(capsys.readouterr().out)
        assert out == pytest.approx((1 - 0.63) / (1 + 0.63), rel=1e-10)


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


def test_tune_emit_all(tmp_path, capsys):
    path = tmp_path / "cells.csv"
    code = main(["tune", "--model", "rosp", "--step", "0.3", "--tm", "8", "--tk", "8",
                 "--emit-all", str(path)])
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,tau,beta,gamma,delta,search_bound"
    assert len(lines) == 1 + 4**3  # axis values 0.05, 0.35, 0.65, 0.95
    rows = [line.split(",") for line in lines[1:]]
    assert all(row[2] == "" for row in rows)  # random order has no beta
    best = max(rows, key=lambda row: float(row[5]))
    winner = capsys.readouterr().out.splitlines()[0]
    assert winner == (f"winner: theta={best[0]} tau={best[1]} beta=- "
                      f"gamma={best[3]} delta={best[4]}")


def test_tune_refine_emit_all_lists_refine_cells(tmp_path, capsys):
    # with --refine the file holds the refine search's cells, not the coarse ones
    from secpred.tune import GridSpec, _axes, _refined_grid, grid_search

    path = tmp_path / "cells.csv"
    code = main(["tune", "--model", "rosp", "--step", "0.3", "--tm", "8", "--tk", "8",
                 "--refine", "--emit-all", str(path)])
    assert code == 0
    coarse, _ = grid_search("rosp", GridSpec.coarse("rosp", 0.3), thresholds=(8, 8))
    tau, _, gamma, delta = _axes("rosp", _refined_grid(coarse, 0.3))
    cells = tau.size * gamma.size * delta.size
    assert cells != 4**3
    assert len(path.read_text().splitlines()) == 1 + cells


@pytest.mark.parametrize("step", ["nan", "inf"])
def test_tune_non_finite_step_exit_two(capsys, step):
    assert main(["tune", "--model", "rosp", "--step", step]) == 2
    assert "grid step must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-5", str(2**64)])
def test_simulate_seed_out_of_range_exit_two(tmp_path, capsys, monkeypatch, seed):
    # a seed a stream cannot hold is refused rather than wrapped to 2**64 - 5
    # or to 0
    import secpred.simulate as sim

    monkeypatch.setattr(sim, "_chunk_sums", lambda *job: pytest.fail("a chunk ran"))
    inst = tmp_path / "inst.json"
    main(["gen", "--family", "overest-top", "--n", "4", "--theta", "0.63", "--out", str(inst)])
    code = main(["simulate", "--instance", str(inst), *ROSP_FLAGS, "--trials", "10",
                 "--seed", seed])
    assert code == 2
    want = "seed must be >= 0, got -5" if seed == "-5" else f"seed exceeds the cap of {2**64 - 1}"
    assert want in capsys.readouterr().err


def test_tune_oversized_grid_exit_two(capsys):
    assert main(["tune", "--model", "cosp", "--step", "0.001"]) == 2
    assert "exceeds the cap" in capsys.readouterr().err


def test_gen_underest_best(tmp_path):
    path = tmp_path / "u.json"
    code = main(
        ["gen", "--family", "underest-best", "--n", "4", "--theta", "0.58",
         "--deviation", "0.9", "--out", str(path)]
    )
    assert code == 0
    obj = json.loads(path.read_text())
    assert len(obj["values"]) == 4
