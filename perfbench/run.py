"""secpred benchmark: time the library's workloads end to end, or trace them
layer by layer, and check every output.

    python3 perfbench/run.py --workload tune-grid05 --seed 3 --seconds 55 --trace 0

Run from the root of a source checkout; secpred is imported from ``src/``.
Calls are made one after another (a closed loop with one client), each in
a fresh interpreter, and no call starts that would end after ``--seconds``.

``--trace 0`` reports the end-to-end metrics as medians over the calls:
``setup_s`` (import plus input construction; the rest of the window goes
to set-up-only processes, and at least ``MIN_SETUP_SAMPLES`` are taken),
``wall_s``, ``cpu_s`` (user+sys), ``peak_rss_mb`` and ``items_per_s``
(grid points or trials per second of ``wall_s``).

``--trace 1`` repeats an untraced call, a traced call and a tracemalloc
pass for the allocation peaks, and reports the per-layer metrics of
``tracing.LAYER_UNITS``.  ``trace.overhead_s`` is the traced minus the
untraced median wall time.

The last line of stdout is the JSON result.  A record with the machine,
versions, rate bases, fingerprints and every call goes to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
from tracing import COUNT_METRICS, LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Every run must end within 180 s; no call starts that could overrun this.
DEADLINE_S = 165.0
# One import varies by a quarter from the next, so a run takes at least
# this many set-up samples, from set-up-only processes if need be.
MIN_SETUP_SAMPLES = 15

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
}


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "unknown"


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_quota() -> float | str | None:
    """CPUs the cgroup grants (read only), "unlimited", or None if unknown."""
    v2 = _read("/sys/fs/cgroup/cpu.max")
    if v2 is not None:
        quota, period = v2.split()
        return "unlimited" if quota == "max" else int(quota) / int(period)
    quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota is None or period is None:
        return None
    return "unlimited" if int(quota) < 0 else int(quota) / int(period)


def _llc_bytes() -> int | None:
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read(index / "level"), _read(index / "size")
        if level is None or size is None:
            continue
        scale = {"K": 2**10, "M": 2**20}.get(size[-1], 1)
        value = int(size.rstrip("KM")) * scale
        if best is None or int(level) >= best[0]:
            best = (int(level), value)
    return best[1] if best else None


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": _cpu_quota(),
        "llc_bytes": _llc_bytes(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }


def call_worker(name: str, seed: int, mode: str, timeout: float) -> dict:
    """Run one worker in its own session; kill the whole group on timeout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "worker.py"), name, str(seed), mode]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"ok": False, "mode": mode, "problems": [f"timed out after {timeout:.0f} s"]}
    finally:
        try:  # children left behind by a crash, or a run cut short
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"ok": False, "problems": [f"exit {proc.returncode}: {stderr[-2000:]}"]}
    result["mode"] = mode
    return result


def run_calls(wl, seed: int, seconds: float, trace: bool, start: float) -> list:
    rounds = ["plain", "trace", "mem"] if trace else ["plain"]
    calls = []
    durations = []
    while True:
        r0 = time.perf_counter()
        for mode in rounds:
            timeout = max(1.0, DEADLINE_S - (time.perf_counter() - start))
            calls.append(call_worker(wl.name, seed, mode, timeout))
        durations.append(time.perf_counter() - r0)
        # Start no round that would end after the window, so that a run
        # lasts --seconds whatever the length of one call.
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > min(seconds, DEADLINE_S):
            break
    if trace:
        return calls
    # The rest of the window, and at least MIN_SETUP_SAMPLES samples in
    # all, goes to set-up-only processes.
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(calls) >= MIN_SETUP_SAMPLES:
            break
        if DEADLINE_S - elapsed < 10.0:
            break
        calls.append(call_worker(wl.name, seed, "setup", DEADLINE_S - elapsed))
    return calls


def _median(calls, key):
    return statistics.median(c[key] for c in calls)


def _mark_nondeterministic(measured: list) -> None:
    """All calls share one input, so every output must match the first."""
    timed = [c for c in measured if c["mode"] != "setup"]
    for c in timed[1:]:
        if c["fingerprint"] != timed[0]["fingerprint"]:
            c["ok"] = False
            c["problems"].append("output differs from the first call of this run")
    traced = [c for c in timed if c["mode"] == "trace"]
    for c in traced[1:]:
        for key in COUNT_METRICS:
            if c["layers"][key] != traced[0]["layers"][key]:
                c["ok"] = False
                c["problems"].append(f"count {key} differs between traced calls")


def end_to_end(measured: list) -> dict:
    plain = [c for c in measured if c["mode"] == "plain"]
    wall = _median(plain, "wall_s")
    return {
        "setup_s": _median(measured, "setup_s"),
        "wall_s": wall,
        "cpu_s": _median(plain, "cpu_s"),
        "peak_rss_mb": _median(plain, "peak_rss_mb"),
        "items_per_s": plain[0]["items"] / wall,
    }


def per_layer(measured: list) -> dict:
    plain = [c for c in measured if c["mode"] == "plain"]
    traced = [c for c in measured if c["mode"] == "trace"]
    values = {}
    for key in traced[0]["layers"]:
        if key in COUNT_METRICS:
            values[key] = traced[0]["layers"][key]
        else:
            values[key] = statistics.median(c["layers"][key] for c in traced)
    passes = [c for c in measured if c["mode"] == "mem"]
    for key in ("tune.peak_alloc_mb", "policy.batch.peak_alloc_mb"):
        values[key] = statistics.median(c["layers"][key] for c in passes) if passes else 0.0
    values["trace.overhead_s"] = _median(traced, "wall_s") - _median(plain, "wall_s")
    return {key: values[key] for key in LAYER_UNITS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "secpred" / "__init__.py").is_file():
        print(f"error: no secpred sources under {SRC}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so the worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.perf_counter()
    wl = WORKLOADS[args.workload]
    calls = run_calls(wl, args.seed, args.seconds, bool(args.trace), start)
    # Calls that failed a check were still timed; only a call that raised
    # has no measurements.
    measured = [c for c in calls if "setup_s" in c]
    _mark_nondeterministic(measured)
    needed = {"plain", "trace"} if args.trace else {"plain"}
    if not needed <= {c["mode"] for c in measured}:
        for c in calls:
            print("\n".join(c["problems"]), file=sys.stderr)
        print(f"error: no {sorted(needed)} call ran to the end", file=sys.stderr)
        return 1

    timed = [c for c in measured if c["mode"] != "setup"]
    if args.trace:
        values, units = per_layer(measured), LAYER_UNITS
    else:
        values, units = end_to_end(measured), END_TO_END_UNITS
    failed = sum(not c["ok"] for c in calls)
    changed = sorted(
        {c["fingerprint"] for c in timed if c["fingerprint_ref"] not in (None, c["fingerprint"])}
    )
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "samples": {
            m: sum(c["mode"] == m for c in measured)
            for m in ("plain", "setup", "trace", "mem")
        },
        "error_rate": failed / len(calls),
        "rate_bases": timed[0]["bases"],
        "fingerprint": timed[0]["fingerprint"],
        "fingerprint_changed": changed,
        "metrics": values,
        "missing_wrapped_names": sorted({m for c in timed for m in c.get("missing", [])}),
        "labels": next((c["labels"] for c in timed if "labels" in c), []),
        "calls": [{k: v for k, v in c.items() if k != "labels"} for c in calls],
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for c in calls:
        if c["problems"]:
            print(f"FAILED {c['mode']} call: " + "; ".join(c["problems"]), file=sys.stderr)
    if changed:
        print(f"note: fingerprint changed from the recorded one: {changed}", file=sys.stderr)
    print(
        f"{wl.name} seed={args.seed} samples={record['samples']} "
        f"error_rate={record['error_rate']:.3g} bases={record['rate_bases']} -> {path}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
