"""Deterministic per-trial random streams.

Every randomized component draws from a SplitMix64 stream.  Trial i of a
simulation derives its own stream from a 64-bit mix of (base_seed, i), so
trials are reproducible independently of execution order or worker count.
A SplitMix64 stream is stateless in its draw number: draw d of the stream
seeded with s is mix(s + d * GAMMA).  ``uniforms_at`` evaluates that for a
whole array of (seed, draw number) pairs at once, which lets the batch
simulation engine draw only the arrival times it reads and still reproduce
``TrialStream`` runs bit for bit.
"""

from __future__ import annotations

import numpy as np

from .core import check_integer, check_seed

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_DERIVE = 0xD1B54A32D192ED03


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """``_mix`` applied in place to a uint64 array.

    Each xor-shift goes through ``scratch``, a uint64 array of z's shape
    (allocated once when not given), rather than a new temporary.
    """
    t = np.empty_like(z) if scratch is None else scratch
    z ^= np.right_shift(z, np.uint64(30), out=t)
    z *= np.uint64(_MIX1)
    z ^= np.right_shift(z, np.uint64(27), out=t)
    z *= np.uint64(_MIX2)
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def trial_seed(base_seed: int, index: int) -> int:
    """64-bit mix of (base_seed, trial index), for an index in [0, 2**64)."""
    base_seed = check_seed("base_seed", base_seed)
    index = check_integer("index", index, 0, 2**64 - 1)
    return _mix((_mix(base_seed) + (index + 1) * _DERIVE) & _MASK)


class TrialStream:
    """Scalar SplitMix64 stream of uniforms in [0, 1)."""

    def __init__(self, seed: int):
        self._state = check_seed("seed", seed)

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def uniform(self) -> float:
        # top 53 bits -> [0, 1)
        return (self.next_u64() >> 11) * 2.0**-53


def uniforms_at(
    seeds, draws, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Uniform number ``draws`` (counted from 1) of each seed's stream.

    ``uniforms_at(s, d)`` equals the d-th ``TrialStream(s).uniform()``.  The
    two arguments broadcast against each other, so a (1, rows) row of seeds
    and a (cols, 1) column of draw numbers give a (cols, rows) block.
    The result is written into ``out``, a float64 array of the broadcast
    shape, and the raw draws into ``scratch``, a uint64 one; each is
    allocated when not given, so a caller drawing block after block can
    reuse two buffers.  Broadcast that way, along the leading axis, each
    operand is read contiguously and numpy needs no buffers of its own: a
    (16, 4096) block into given buffers allocates only the (16, 1) draw
    offsets.  A (rows, 1) column of seeds against a (1, cols) row gives the
    same values transposed, but numpy then buffers each broadcast operand,
    some 130 KB for that block.
    """
    shape = np.broadcast_shapes(np.shape(seeds), np.shape(draws))
    u = np.empty(shape) if out is None else out
    z = np.empty(shape, dtype=np.uint64) if scratch is None else scratch
    with np.errstate(over="ignore"):
        offsets = np.asarray(draws, dtype=np.uint64) * np.uint64(_GAMMA)
        np.add(np.asarray(seeds, dtype=np.uint64), offsets, out=z)
    _mix_array(z, u.view(np.uint64))
    z >>= np.uint64(11)
    u[...] = z
    u *= 2.0**-53
    return u


def trial_seeds_vector(base_seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized ``trial_seed`` for indices start .. start+count-1, all in
    [0, 2**64): start and count are checked as in ``run_trials_batch``."""
    base_seed = check_seed("base_seed", base_seed)
    start = check_integer("start", start, 0, 2**64)
    count = check_integer("count", count, 0, 2**64 - start)
    idx = np.arange(start, start + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(_mix(base_seed)) + (idx + np.uint64(1)) * np.uint64(_DERIVE)
        return _mix_array(z)
