import tracemalloc

import numpy as np
import pytest

from secpred.rng import TrialStream, trial_seed, trial_seeds_vector, uniforms_at


def _stream_table(seeds, k):
    """Row r holds the first k uniforms of TrialStream(seeds[r])."""
    rows = []
    for s in seeds:
        stream = TrialStream(int(s))
        rows.append([stream.uniform() for _ in range(k)])
    return np.array(rows)


SEEDS = np.array([trial_seed(7, i) for i in range(5)] + [0, 2**64 - 1], dtype=np.uint64)


def test_uniforms_at_matches_trial_stream():
    k = 12
    want = _stream_table(SEEDS, k)
    got = uniforms_at(SEEDS[:, None], np.arange(1, k + 1, dtype=np.uint64))
    assert np.array_equal(got, want)


def test_uniforms_at_offset_draws():
    want = _stream_table(SEEDS, 12)
    rows = np.arange(len(SEEDS))
    offsets = np.array([0, 3, 9, 1, 5, 0, 7], dtype=np.uint64)
    # a window of three draws per row, each after its own offset
    got = uniforms_at(SEEDS[:, None], offsets[:, None] + np.arange(1, 4, dtype=np.uint64))
    assert np.array_equal(got, want[rows[:, None], offsets[:, None].astype(int) + np.arange(3)])
    # one draw per row
    got = uniforms_at(SEEDS, offsets + np.uint64(1))
    assert np.array_equal(got, want[rows, offsets.astype(int)])


def test_trial_seeds_vector_matches_trial_seed():
    got = trial_seeds_vector(2**63 + 5, 1000, 6)
    assert got.tolist() == [trial_seed(2**63 + 5, i) for i in range(1000, 1006)]


@pytest.mark.parametrize(
    "make",
    [
        lambda: TrialStream(-1),
        lambda: TrialStream(2**64),
        lambda: TrialStream(True),
        lambda: TrialStream(3.0),
        lambda: trial_seed(2**64, 0),
        lambda: trial_seed(False, 0),
        lambda: trial_seeds_vector(-5, 0, 2),
        lambda: trial_seeds_vector(2**64, 0, 2),
    ],
    ids=["stream -1", "stream 2**64", "stream bool", "stream float", "trial_seed 2**64",
         "trial_seed bool", "vector -5", "vector 2**64"],
)
def test_seeds_outside_stream_range_rejected(make):
    # a seed is one of the 2**64 states a stream holds; -1 would otherwise
    # draw what 2**64 - 1 draws
    with pytest.raises(ValueError, match="seed"):
        make()


def test_uniforms_at_plain_ints():
    # 0-d inputs mix too: the d-th uniform of one stream from two ints
    want = _stream_table(SEEDS, 12)
    for r, s in enumerate(SEEDS.tolist()):
        for d in (1, 5, 12):
            assert float(uniforms_at(s, d)) == want[r, d - 1]


def test_uniforms_at_column_major_block_allocates_little():
    # a (1, rows) row of seeds against a (cols, 1) column of draw numbers,
    # drawn into given buffers: numpy buffers no broadcast operand, so the
    # only allocation is the draw offsets (a (rows, 1) column against a
    # (1, cols) row peaks at about 130 KB)
    seeds = trial_seeds_vector(1, 0, 4096)
    draws = np.arange(1, 17, dtype=np.uint64)
    out = np.empty((16, 4096))
    scratch = np.empty((16, 4096), dtype=np.uint64)
    want = uniforms_at(seeds[:, None], draws[None, :]).T
    tracemalloc.start()
    try:
        got = uniforms_at(seeds[None, :], draws[:, None], out, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is out and np.array_equal(got, want)
    assert peak < 16 * 1024, peak
