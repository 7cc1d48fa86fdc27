"""One timed workload call in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <plain|setup|trace|mem>

Each call runs in its own process so that secpred's lru_caches and lazy
imports start cold, as they do for every CLI run.  The import of secpred
and the construction of the inputs are timed as set-up; the call is timed
for wall clock and for user+sys CPU of this process and any reaped
children.

``setup`` stops after set-up; ``trace`` wraps every layer boundary;
``mem`` does too and runs tracemalloc inside the tune search and each
simulation batch.  Prints one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the kernel keeps no combined peak, so
    # this is the largest peak of this process or any reaped child.
    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    return max(resource.getrusage(w).ru_maxrss for w in who) / 1024.0


def run(name: str, seed: int, mode: str) -> dict:
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import secpred

    wl = WORKLOADS[name]
    inputs = wl.build(secpred, seed)
    setup_s = time.perf_counter() - t0
    if not Path(secpred.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported secpred from {secpred.__file__}, not from {SRC}")
    if mode == "setup":
        return {"ok": True, "problems": [], "setup_s": setup_s}

    tracer = tracing.Tracer()
    if mode in ("trace", "mem"):
        tracing.install_layers(tracer, memory=mode == "mem")
    try:
        cpu0 = _cpu_s()
        w0 = time.perf_counter()
        out = wl.call(inputs)
        wall_s = time.perf_counter() - w0
        cpu_s = _cpu_s() - cpu0
    finally:
        tracer.uninstall()

    check = wl.check(secpred, inputs, out, seed)
    result = {
        "ok": not check.problems,
        "problems": check.problems,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "items": check.items,
        "bases": check.bases,
        "fingerprint": check.fingerprint,
        "fingerprint_ref": check.fingerprint_ref,
    }
    if mode == "trace":
        result["layers"] = tracing.layer_metrics(tracer)
        result["labels"] = tracing.label_breakdown(tracer)
        result["missing"] = tracer.missing
    elif mode == "mem":
        result["layers"] = tracing.memory_metrics(tracer)
    return result


def main() -> int:
    name, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    try:
        result = run(name, seed, mode)
    except Exception:  # reported to the parent, which counts the call as failed
        result = {"ok": False, "problems": [traceback.format_exc()]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
