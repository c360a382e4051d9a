import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import radarvitals as rv
from radarvitals import core, preprocess
from radarvitals.preprocess import sma_rows
from helpers import small_config


def _cube_from(samples, cfg, f_st=10.0):
    l = samples.shape[0]
    return rv.MeasurementCube(samples, np.arange(l) / f_st, cfg)


def test_constant_cube_annihilated():
    cfg = small_config()
    rng = np.random.default_rng(0)
    for _ in range(100):
        const = rng.standard_normal((1, cfg.k, 4)) + 1j * rng.standard_normal((1, cfg.k, 4))
        l = int(rng.integers(8, 40))
        w = int(rng.integers(1, l + 1))
        cube = _cube_from(np.repeat(const, l, axis=0), cfg)
        out = rv.sma_filter(cube, w)
        assert out.samples.shape[0] == l - w + 1
        assert np.max(np.abs(out.samples)) <= 1e-12 * max(np.max(np.abs(const)), 1.0)


def test_alternating_sequence_passes_even_window():
    cfg = small_config()
    l, w = 32, 8
    sign = (-1.0) ** np.arange(l)
    samples = sign[:, None, None] * np.ones((l, cfg.k, 4), dtype=complex)
    out = rv.sma_filter(_cube_from(samples, cfg), w)
    np.testing.assert_allclose(out.samples, samples[w - 1:], atol=1e-13)


def test_matches_direct_window_evaluation():
    # brute-force the defining sum as the oracle
    cfg = small_config()
    rng = np.random.default_rng(5)
    l, w = 50, 7
    x = rng.standard_normal((l, cfg.k, 4)) + 1j * rng.standard_normal((l, cfg.k, 4))
    out = rv.sma_filter(_cube_from(x, cfg), w)
    for j in range(l - w + 1):
        expected = x[j + w - 1] - x[j : j + w].mean(axis=0)
        np.testing.assert_allclose(out.samples[j], expected, atol=1e-12)


def test_sinusoid_transfer_amplitude():
    # a slow-time complex tone is scaled by |1 - D_w(f)| where D_w is the
    # mean of the window phasors
    cfg = small_config()
    f, f_st, l, w = 0.3, 10.0, 400, 64
    tone = np.exp(2j * np.pi * f * np.arange(l) / f_st)
    samples = tone[:, None, None] * np.ones((l, cfg.k, 4))
    out = rv.sma_filter(_cube_from(samples, cfg), w)
    phasors = np.exp(-2j * np.pi * f * np.arange(w) / f_st)
    transfer = 1 - phasors.mean()
    expected = tone[w - 1:] * transfer
    np.testing.assert_allclose(out.samples[:, 0, 0], expected, rtol=1e-9)


def test_linearity():
    cfg = small_config()
    rng = np.random.default_rng(8)
    a = rng.standard_normal((30, cfg.k, 4)) + 1j * rng.standard_normal((30, cfg.k, 4))
    b = rng.standard_normal((30, cfg.k, 4)) + 1j * rng.standard_normal((30, cfg.k, 4))
    out_sum = rv.sma_filter(_cube_from(a + 2.5 * b, cfg), 6)
    out_a = rv.sma_filter(_cube_from(a, cfg), 6)
    out_b = rv.sma_filter(_cube_from(b, cfg), 6)
    np.testing.assert_allclose(
        out_sum.samples, out_a.samples + 2.5 * out_b.samples, atol=1e-12
    )


def test_window_larger_than_recording_rejected():
    cfg = small_config()
    cube = _cube_from(np.zeros((5, cfg.k, 4), dtype=complex), cfg)
    with pytest.raises(ValueError, match="exceeds"):
        rv.sma_filter(cube, 6)
    with pytest.raises(ValueError):
        rv.sma_filter(cube, 0)


def test_slow_time_stamps_trimmed():
    cfg = small_config()
    cube = _cube_from(np.zeros((10, cfg.k, 4), dtype=complex), cfg)
    out = rv.sma_filter(cube, 4)
    np.testing.assert_array_equal(out.slow_time, cube.slow_time[3:])


@pytest.mark.parametrize(
    "l,l_st,count,dropped",
    [(2000, 200, 10, 0), (401, 200, 2, 1), (200, 200, 1, 0)],
)
def test_segment_counts(l, l_st, count, dropped):
    cfg = small_config()
    cube = _cube_from(np.zeros((l, cfg.k, 4), dtype=complex), cfg)
    seg = rv.segment(cube, l_st)
    assert len(seg.segments) == count
    assert all(s.l == l_st for s in seg.segments)
    total = sum(s.l for s in seg.segments)
    assert l - total == dropped


def test_segment_too_short_warns():
    cfg = small_config()
    cube = _cube_from(np.zeros((199, cfg.k, 4), dtype=complex), cfg)
    with pytest.warns(UserWarning, match="shorter"):
        seg = rv.segment(cube, 200)
    assert seg.segments == []


def test_segment_is_view_preserving_samples_and_stamps():
    cfg = small_config()
    rng = np.random.default_rng(2)
    x = rng.standard_normal((20, cfg.k, 4)) + 0j
    cube = _cube_from(x, cfg)
    seg = rv.segment(cube, 8)
    assert np.shares_memory(seg.segments[0].samples, cube.samples)
    np.testing.assert_array_equal(seg.segments[1].samples, x[8:16])
    np.testing.assert_array_equal(seg.segments[1].slow_time, cube.slow_time[8:16])


def test_segment_length_validation():
    cfg = small_config()
    cube = _cube_from(np.zeros((20, cfg.k, 4), dtype=complex), cfg)
    with pytest.raises(ValueError):
        rv.segment(cube, 1)


def _cumsum_filter(x, w):
    # the one-pass formula the blocked kernel replaced, kept as the oracle
    l = x.shape[0]
    csum = np.cumsum(x, axis=0)
    window_sum = csum[w - 1 :].copy()
    window_sum[1:] -= csum[: l - w]
    return x[w - 1 :] - window_sum / w


@settings(max_examples=60, deadline=None)
@given(
    l=st.integers(1, 40),
    w_frac=st.floats(0.0, 1.0),
    k=st.integers(2, 4),
    m=st.integers(1, 3),
    block=st.integers(1, 41),
    seed=st.integers(0, 2**32 - 1),
    wide=st.booleans(),
)
@example(l=40, w_frac=0.0, k=3, m=2, block=1, seed=0, wide=False)
@example(l=40, w_frac=1.0, k=3, m=2, block=1, seed=0, wide=False)
# blocks of 1 < B < w_st rows with w_st no multiple of B, so that the ring
# of w_st + B sums wraps inside a block's sums and inside its output rows:
# w_st = 7 with B = 3, w_st = 13 with B = 5
@example(l=40, w_frac=0.16, k=3, m=2, block=3, seed=4, wide=False)
@example(l=40, w_frac=0.31, k=2, m=3, block=5, seed=5, wide=False)
# rows of at least _ROW_LOOP_WIDTH elements, summed one input row at a time:
# the same ring cases, w_st = 40 with one-row blocks, w_st = 1 in one block
@example(l=40, w_frac=0.16, k=3, m=2, block=3, seed=0, wide=True)
@example(l=40, w_frac=0.31, k=2, m=3, block=5, seed=6, wide=True)
@example(l=40, w_frac=1.0, k=2, m=3, block=1, seed=1, wide=True)
@example(l=40, w_frac=0.0, k=4, m=1, block=41, seed=2, wide=True)
@example(l=23, w_frac=0.5, k=2, m=2, block=7, seed=3, wide=True)
def test_sma_filter_is_bit_equal_to_one_cumsum(l, w_frac, k, m, block, seed, wide):
    # the running sums kept in a ring of w_st + B rows, B = min(block, l)
    # rows per block, do the additions of one cumsum over the whole array,
    # so the output is bit-equal to it (signed zeros included) however the
    # rows are blocked, wherever a block's sums or outputs cross the ring's
    # end, and whichever way each block is summed. The last column stays
    # (-0, -0), and so do its running sums: only those started from x[0]
    # (or -0) keep it, and its window sum at output row 0 must be divided
    # by w_st (giving (-0, +0)), not multiplied by 1/w_st
    if wide:
        k += -(-preprocess._ROW_LOOP_WIDTH // m)
    w = 1 + int(w_frac * (l - 1))
    rng = np.random.default_rng(seed)
    shape = (l, k, m)
    x = 10.0 ** rng.integers(-3, 4, size=shape) * rng.standard_normal(shape)
    x = x + 1j * rng.standard_normal(shape)
    x[rng.random(shape) < 0.1] = -0.0
    x[:, -1, -1] = complex(-0.0, -0.0)
    expected = _cumsum_filter(x, w)
    rows = np.flatnonzero(rng.random(l - w + 1) < 0.3)
    with pytest.MonkeyPatch.context() as mp:
        # blocks of `block` rows: the filter's budget covers four arrays of
        # a block's rows (input, new sums, the sums w_st rows back, output)
        mp.setattr(core, "_BLOCK_BYTES", block * 4 * x[0].nbytes)
        assert core.block_len(4 * x[0].nbytes) == block
        got = rv.sma_filter(_cube_from(x, small_config(k=k, n=2 * k, m_r=m, m_t=1)), w)
        picked = sma_rows(x, w, rows)
        flat = sma_rows(x.reshape(l, -1), w, rows)
        series = sma_rows(x[:, 0, 0], w, rows)
    assert got.samples.shape == expected.shape
    assert got.samples.tobytes() == expected.tobytes()
    assert picked.shape == (rows.size, k, m)
    assert picked.tobytes() == expected[rows].tobytes()
    assert flat.tobytes() == expected[rows].tobytes()
    assert series.tobytes() == expected[rows, 0, 0].tobytes()


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("w", [1, 3, 7, 50, 63, 64, 200])
def test_complex_division_is_the_reciprocal_multiply(dtype, w):
    # sma_rows scales the window sums of output rows >= 1 by multiplying
    # their float view by 1/w; that is bit-equal to numpy's complex division
    # only while numpy divides by w + 0j as (ar + ai*0)/w, (ai - ar*0)/w
    # with 1/w formed first. Finite data without -0 components, +0 included
    rng = np.random.default_rng(w)
    o = np.empty((300, 7), dtype)
    span = int(np.log10(np.finfo(dtype).max)) - 2
    for part in (o.real, o.imag):
        part[...] = 10.0 ** rng.integers(-span, span, size=o.shape) * rng.standard_normal(o.shape)
        part[rng.random(o.shape) < 0.05] = 0.0
    real = o.real.dtype.type
    parts = o.view(real)
    assert np.isfinite(parts).all() and not np.signbit(parts[parts == 0]).any()
    by_reciprocal = (parts * (real(1) / real(w))).view(dtype)
    assert (o / w).tobytes() == by_reciprocal.tobytes()
    scaled = o.copy()
    preprocess._divide(scaled, w, 0)
    assert scaled.tobytes() == by_reciprocal.tobytes()


def test_sma_rows_at_the_covariance_snapshots_is_bit_equal():
    # the pipeline's case: the 10 snapshot rows of a 200-row segment filtered
    # from its 263 raw rows. A zero column keeps its running sums at -0.0,
    # which only a sum started from -0.0 keeps: output row 0 subtracts
    # csum[-1] = +0, so a +0 running sum would turn +0 outputs into -0.0
    w = 64
    rows = rv.localize.snapshot_indices(200, 10)
    rng = np.random.default_rng(21)
    shape = (200 + w - 1, 5, 3)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x[rng.random(shape) < 0.1] = -0.0
    x.real[rng.random(shape) < 0.1] = -0.0
    x.imag[rng.random(shape) < 0.1] = -0.0
    x[:, 0, 0] = complex(-0.0, -0.0)
    x[:, 1, 0] = complex(-0.0, 1.0)
    expected = _cumsum_filter(x, w)[rows]
    got = sma_rows(x, w, rows)
    assert np.signbit(got[0, 0, 0].real) == np.signbit(expected[0, 0, 0].real)
    assert got.tobytes() == expected.tobytes()
    assert sma_rows(x, w, rows[:0]).shape == (0, 5, 3)


def test_sma_filter_working_set_stays_near_its_output(walabot):
    """The blocked filter allocates its output and one ring of block sums only.

    The one-pass cumsum formula made four recording-sized complex
    temporaries (4.0x its output). Large frees like those also kept
    glibc's dynamic mmap threshold high; small, reused block buffers are
    what let the MUSIC scan's blocks come from the heap without fresh page
    faults, so both working sets are bounded together.
    """
    cfg = walabot
    rng = np.random.default_rng(3)
    shape = (2000, cfg.k, cfg.m_r * cfg.m_t)
    cube = rv.MeasurementCube(rng.standard_normal(shape) + 0j, np.arange(2000) / 10.0, cfg)
    tracemalloc.start()
    try:
        out = rv.sma_filter(cube, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * out.samples.nbytes


def test_sma_filter_scratch_is_one_ring_of_sums(walabot):
    # besides its output, sma_filter holds one ring of w_st + B running-sum
    # rows, B the rows of a block whose four row arrays (input, new sums,
    # the sums w_st rows back, output) fit core._BLOCK_BYTES: 14 walabot
    # rows. Two rows of slack cover the small objects around it. Two
    # buffers of w_st + 1 rows each would exceed it
    cfg = walabot
    rng = np.random.default_rng(4)
    shape = (2000, cfg.k, cfg.m_r * cfg.m_t)
    cube = rv.MeasurementCube(rng.standard_normal(shape) + 0j, np.arange(2000) / 10.0, cfg)
    row = cube.samples[0].nbytes
    block = core.block_len(4 * row)
    tracemalloc.start()
    try:
        out = rv.sma_filter(cube, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block == 14
    assert peak - out.samples.nbytes < (64 + block + 2) * row
