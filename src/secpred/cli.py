"""Command-line front end.

Subcommands: certify, simulate, evaluate, tune, derand-demo, gen.
Exit codes: 0 success (and certification passed), 1 certification failed,
2 usage or I/O errors.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .analytic import case_bound
from .certify import DEFAULT_MARGIN, certify, report_to_json
from .core import COSP, ROSP, PolicyParams, dump_instance, load_instance
from .derand import uniform_from_first_arrival
from .simulate import (
    default_deviation,
    estimate_ratio,
    gen_case_family,
    gen_overestimated_top,
    gen_underestimated_best,
    sim_csv_header,
    sim_csv_row,
)
from .tune import GridSpec, grid_search

_F = "{:.12g}"


def _params_from(args) -> PolicyParams:
    beta = getattr(args, "beta", None)
    if args.model == ROSP:
        beta = None
    return PolicyParams(
        theta=args.theta, tau=args.tau, gamma=args.gamma, delta=args.delta, beta=beta
    )


def _add_param_flags(p, need_theta=True):
    p.add_argument("--model", required=True, choices=[COSP, ROSP])
    if need_theta:
        p.add_argument("--theta", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--beta", type=float, default=None, help="required for cosp")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)


def _cmd_certify(args) -> int:
    params = _params_from(args)
    report = certify(
        args.model,
        params,
        target_b=args.target_b,
        thresholds=(args.tm, args.tk),
        margin=args.margin,
    )
    text = report_to_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    a = report.argmin
    status = "PASSED" if report.passed else "FAILED"
    print(
        f"{status}: min {_F.format(report.min_value)} vs B {_F.format(report.target_b)} "
        f"(margin {_F.format(report.margin)}) at {a.case_id} [{a.regime}] "
        f"m={a.m} k={a.k} m2={a.m2}"
    )
    return 0 if report.passed else 1


def _cmd_simulate(args) -> int:
    instance = load_instance(args.instance)
    params = _params_from(args)
    result = estimate_ratio(
        instance, args.model, params, trials=args.trials, seed=args.seed,
        threads=args.threads,
    )
    row = sim_csv_row(args.model, instance, params.theta, result, args.seed)
    out = sim_csv_header() + "\n" + row + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    sys.stdout.write(out)
    return 0


def _cmd_evaluate(args) -> int:
    params = _params_from(args)
    value = case_bound(args.model, args.case, args.m, args.k, args.m2, params)
    print(_F.format(value))
    return 0


def _cmd_tune(args) -> int:
    grid = GridSpec.coarse(args.model, step=args.step)
    out = grid_search(
        args.model,
        grid,
        thresholds=(args.tm, args.tk),
        refine=args.refine,
        emit_all=bool(args.emit_all),
    )
    if args.emit_all:
        params, bound, rows = out
        with open(args.emit_all, "w", encoding="utf-8") as fh:
            fh.write("theta,tau,beta,gamma,delta,search_bound\n")
            for p, b in rows:
                fh.write(
                    ",".join(
                        _F.format(x) if x is not None else ""
                        for x in (p.theta, p.tau, p.beta, p.gamma, p.delta, b)
                    )
                    + "\n"
                )
    else:
        params, bound = out
    beta_s = _F.format(params.beta) if params.beta is not None else "-"
    print(
        f"winner: theta={_F.format(params.theta)} tau={_F.format(params.tau)} "
        f"beta={beta_s} gamma={_F.format(params.gamma)} delta={_F.format(params.delta)}"
    )
    print(f"certified_bound: {_F.format(bound)}")
    return 0


def _cmd_derand_demo(args) -> int:
    from scipy.stats import kstest

    if args.n < 1 or args.samples < 1:
        raise ValueError(f"need n >= 1 and samples >= 1, got n={args.n} samples={args.samples}")
    rng = np.random.default_rng(args.seed)
    t1 = rng.random((args.samples, args.n)).min(axis=1)
    u = np.array([uniform_from_first_arrival(t, args.n) for t in t1.tolist()])
    stat, pvalue = kstest(u, "uniform")
    print(f"n={args.n} samples={args.samples} ks_stat={_F.format(stat)} p={_F.format(pvalue)}")
    return 0


def _cmd_gen(args) -> int:
    theta = args.theta
    dev = args.deviation if args.deviation is not None else default_deviation(theta)
    if args.family == "underest-best":
        inst = gen_underestimated_best(args.n, dev, theta)
    elif args.family == "overest-top":
        inst = gen_overestimated_top(args.n, dev, theta)
    else:
        inst = gen_case_family(
            args.case, args.m, args.k, args.m2, args.n, theta, deviation=args.deviation
        )
    dump_instance(inst, args.out)
    print(f"wrote {args.out} (n={inst.n}, epsilon={_F.format(inst.epsilon)})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="secpred")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="re-run the case enumeration against a target bound")
    _add_param_flags(p)
    p.add_argument("--target-b", type=float, required=True, dest="target_b")
    p.add_argument("--tm", type=int, default=20)
    p.add_argument("--tk", type=int, default=20)
    p.add_argument("--margin", type=float, default=DEFAULT_MARGIN)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("simulate", help="Monte Carlo ratio estimate on an instance file")
    p.add_argument("--instance", required=True)
    _add_param_flags(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("evaluate", help="print one analytic case bound")
    p.add_argument("--case", type=int, required=True, choices=range(0, 7))
    _add_param_flags(p)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--m2", type=int, default=0)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("tune", help="grid search maximizing the certified bound")
    p.add_argument("--model", required=True, choices=[COSP, ROSP])
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--refine", action="store_true")
    p.add_argument("--tm", type=int, default=20)
    p.add_argument("--tk", type=int, default=20)
    p.add_argument("--emit-all", default=None, dest="emit_all")
    p.set_defaults(fn=_cmd_tune)

    p = sub.add_parser("derand-demo", help="KS check of the first-arrival uniform transform")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_derand_demo)

    p = sub.add_parser("gen", help="write an adversarial instance file")
    p.add_argument("--family", required=True, choices=["underest-best", "overest-top", "case"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--deviation", type=float, default=None)
    p.add_argument("--case", type=int, default=1, choices=range(1, 7))
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--m2", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
