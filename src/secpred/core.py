"""Domain types: instances, predictions, policy parameters, schedules.

An instance is a fixed list of candidates, each with a true value and a
prediction known up front.  Derived quantities follow the usual notation
for this problem: each multiplicative prediction error |1 - p/v| and their
maximum epsilon, the top-predicted candidate, the true best candidate, and
the adversarial structure counts (mistake count, candidates above the top
prediction, mistakes below it).
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "Instance",
    "PolicyParams",
    "CaseProfile",
    "Schedule",
    "build_instance",
    "mistake_set",
    "case_profile",
    "load_instance",
    "dump_instance",
    "check_model",
    "check_integer",
    "check_seed",
    "COSP",
    "ROSP",
    "BLOCK_ELEMENTS",
]

COSP = "cosp"
ROSP = "rosp"

# Elements per array in a block of tune's search mesh or a row of derand-demo
# draws, so memory stays a few megabytes; also an instance's most candidates.
BLOCK_ELEMENTS = 1 << 20
# Instance files above this are refused unparsed.  dump_instance writes at
# most 50 bytes a candidate (two float reprs of at most 23 characters, each
# followed by ", "), so every instance within BLOCK_ELEMENTS is admitted.
MAX_INSTANCE_BYTES = 64 * BLOCK_ELEMENTS

# Relative tie-breaking offset.  Duplicate values get v * (1 + rank * PERTURB_ETA)
# in input order, keeping every ratio within ~1e-11 of the original.
PERTURB_ETA = 1e-12


def check_model(model: str) -> str:
    """``model`` if it is one of the two arrival models, else ValueError."""
    if model not in (COSP, ROSP):
        raise ValueError(f"unknown model {model!r}")
    return model


def check_integer(name: str, x, lo: int | None = None, hi: int | None = None) -> int:
    """``x`` as an int if it is an exact integer in [lo, hi] (a bound of None
    is not checked), else a ValueError naming ``name``: "must be an integer"
    for a bool, a float (even a whole one) or any other type, "must be >= lo",
    or "exceeds the cap of hi", which does not echo a value that may have
    hundreds of digits.  The package's one check of an integer argument."""
    # operator.index takes an exact integer of any type, a bool among them
    try:
        if isinstance(x, bool):
            raise TypeError
        x = operator.index(x)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {x!r}") from None
    if lo is not None and x < lo:
        raise ValueError(f"{name} must be >= {lo}, got {x}")
    if hi is not None and x > hi:
        raise ValueError(f"{name} exceeds the cap of {hi}")
    return x


def check_seed(name: str, x) -> int:
    """``x`` as an int if it is an integer in [0, 2**64), the seeds a
    SplitMix64 stream holds, else a ValueError naming ``name``."""
    return check_integer(name, x, 0, 2**64 - 1)


@dataclass(frozen=True)
class Instance:
    values: tuple[float, ...]
    predictions: tuple[float, ...]
    deviations: tuple[float, ...]  # |1 - p/v|; a mistake at theta when above it
    epsilon: float
    top_predicted_index: int
    top_true_index: int
    top_true_value: float

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class PolicyParams:
    """Algorithm parameters (theta, tau, beta, gamma, delta).

    beta is the fixed arrival time of the top-predicted candidate and is
    only meaningful for chosen-order schedules; random-order runs ignore it.
    """

    theta: float
    tau: float
    gamma: float
    delta: float
    beta: float | None = None

    def __post_init__(self):
        for name in ("theta", "tau", "gamma", "delta"):
            x = getattr(self, name)
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"{name}={x} outside [0, 1]")
        if self.beta is not None and not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta={self.beta} outside (0, 1)")

    def require_beta(self) -> float:
        if self.beta is None:
            raise ValueError("chosen-order operation requires beta")
        return self.beta


@dataclass(frozen=True)
class CaseProfile:
    """Adversarial structure: m mistakes, k candidates above the top
    prediction, m2 mistakes strictly below it."""

    m: int
    k: int
    m2: int

    def __post_init__(self):
        for name in ("m", "k", "m2"):
            check_integer(name, getattr(self, name), 0)
        # A mistake is either below the top-predicted value (m2 of them),
        # above it (at most k), or the top-predicted candidate itself.
        if not max(0, self.m - self.k - 1) <= self.m2 <= self.m:
            raise ValueError(f"inadmissible profile {(self.m, self.k, self.m2)}")


@dataclass(frozen=True)
class Schedule:
    """Each candidate's arrival time in [0, 1], by candidate index.

    Two equal times are allowed: ``policy.run_trial`` takes tied arrivals
    as simultaneous, so the outcome does not depend on the candidates'
    labels.  In both arrival models the drawn times are independent
    uniforms, so ties have probability zero, and they occur only because a
    drawn time is a 53-bit float.
    """

    arrival_times: tuple[float, ...]

    def __post_init__(self):
        if any(not 0.0 <= t <= 1.0 for t in self.arrival_times):
            raise ValueError("arrival times must lie in [0, 1]")


def _perturb(xs: Sequence[float]) -> list[float]:
    seen: dict[float, int] = {}
    out = []
    for x in xs:
        rank = seen.get(x, 0)
        seen[x] = rank + 1
        out.append(x * (1.0 + PERTURB_ETA * rank) if rank else x)
    return out


def build_instance(values: Sequence[float], predictions: Sequence[float]) -> Instance:
    """Build an instance from two lists of real numbers, perturbing duplicates
    and deriving the deviations, epsilon, i-hat, i-star."""
    for name, xs in (("values", values), ("predictions", predictions)):
        if isinstance(xs, (list, tuple)) and len(xs) > BLOCK_ELEMENTS:
            raise ValueError(f"{len(xs)} {name} exceed the cap of {BLOCK_ELEMENTS} candidates")
        if not isinstance(xs, (list, tuple)) or not all(
            isinstance(x, numbers.Real) and not isinstance(x, bool) for x in xs
        ):
            raise ValueError(f"{name} must be a list of real numbers")
    if len(values) == 0:
        raise ValueError("empty instance")
    if len(values) != len(predictions):
        raise ValueError(f"length mismatch: {len(values)} values, {len(predictions)} predictions")
    try:
        finite = all(map(math.isfinite, [*values, *predictions]))
    except OverflowError:  # an int beyond the float range
        raise ValueError("values and predictions must fit in a float") from None
    if not finite:
        raise ValueError("values and predictions must be finite")
    if any(v < 0 for v in values) or any(p < 0 for p in predictions):
        raise ValueError("values and predictions must be nonnegative")
    if any(v == 0 for v in values):
        raise ValueError("true values must be strictly positive (epsilon undefined at 0)")

    vs = tuple(_perturb(values))
    ps = tuple(_perturb(predictions))
    # a duplicate near the float maximum is perturbed past it
    if not all(map(math.isfinite, vs + ps)):
        raise ValueError("values and predictions must stay finite once duplicates are perturbed")
    devs = tuple(abs(1.0 - p / v) for v, p in zip(vs, ps))
    ihat = max(range(len(ps)), key=lambda i: ps[i])
    istar = max(range(len(vs)), key=lambda i: vs[i])
    return Instance(vs, ps, devs, max(devs), ihat, istar, vs[istar])


def mistake_set(instance: Instance, theta: float) -> set[int]:
    """Indices whose prediction deviates from the value by strictly more than theta."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta={theta} outside [0, 1]")
    return {i for i, d in enumerate(instance.deviations) if d > theta}


def case_profile(instance: Instance, theta: float) -> CaseProfile:
    """Structure counts (m, k, m2) of the instance at threshold theta."""
    mset = mistake_set(instance, theta)
    vs = instance.values
    v_hat = vs[instance.top_predicted_index]
    k = sum(1 for v in vs if v > v_hat)
    m2 = sum(1 for i in mset if vs[i] < v_hat)
    return CaseProfile(m=len(mset), k=k, m2=m2)


def dump_instance(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"values": list(instance.values), "predictions": list(instance.predictions)},
            fh,
        )
        fh.write("\n")


def load_instance(path: str) -> Instance:
    # a bounded read, so a pipe is capped too; a UTF-8 character takes at
    # least one byte, so more characters than the cap are more bytes too
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read(MAX_INSTANCE_BYTES + 1)
    if len(text) > MAX_INSTANCE_BYTES:
        raise ValueError(f"{path}: larger than the cap of {MAX_INSTANCE_BYTES} bytes")
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: nested too deeply to parse") from None
    if not isinstance(obj, dict) or "values" not in obj or "predictions" not in obj:
        raise ValueError(f"{path}: expected an object with 'values' and 'predictions'")
    return build_instance(obj["values"], obj["predictions"])
