import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import radarvitals as rv
from radarvitals import core, preprocess
from radarvitals.preprocess import segment_count, segment_rows, sma_rows
from helpers import cumsum_filter, small_config, traced_peak


def _random_rows(rng, l):
    return rng.standard_normal((l, 12, 4)) + 1j * rng.standard_normal((l, 12, 4))


def test_alternating_sequence_passes_even_window():
    l, w = 32, 8
    sign = (-1.0) ** np.arange(l)
    samples = sign[:, None, None] * np.ones((l, 12, 4), dtype=complex)
    np.testing.assert_allclose(sma_rows(samples, w), samples[w - 1:], atol=1e-13)


def test_matches_direct_window_evaluation():
    # brute-force the defining sum as the oracle
    l, w = 50, 7
    x = _random_rows(np.random.default_rng(5), l)
    out = sma_rows(x, w)
    for j in range(l - w + 1):
        expected = x[j + w - 1] - x[j : j + w].mean(axis=0)
        np.testing.assert_allclose(out[j], expected, atol=1e-12)


def test_sinusoid_transfer_amplitude():
    # a slow-time complex tone is scaled by |1 - D_w(f)| where D_w is the
    # mean of the window phasors
    f, f_st, l, w = 0.3, 10.0, 400, 64
    tone = np.exp(2j * np.pi * f * np.arange(l) / f_st)
    out = sma_rows(tone[:, None, None] * np.ones((l, 12, 4)), w)
    phasors = np.exp(-2j * np.pi * f * np.arange(w) / f_st)
    transfer = 1 - phasors.mean()
    expected = tone[w - 1:] * transfer
    np.testing.assert_allclose(out[:, 0, 0], expected, rtol=1e-9)


def test_linearity():
    rng = np.random.default_rng(8)
    a, b = _random_rows(rng, 30), _random_rows(rng, 30)
    np.testing.assert_allclose(
        sma_rows(a + 2.5 * b, 6), sma_rows(a, 6) + 2.5 * sma_rows(b, 6), atol=1e-12
    )


def test_window_larger_than_recording_rejected():
    with pytest.raises(ValueError, match="exceeds"):
        segment_count(5, 6)
    with pytest.raises(ValueError):
        segment_count(5, 0)


def test_sma_filter_is_sma_rows_with_the_stamps_trimmed():
    # the whole-recording form the benchmark times is the filter of all the
    # cube's rows, bit for bit, with the stamps of its output rows
    cfg = small_config()
    x = _random_rows(np.random.default_rng(5), 50)
    cube = rv.MeasurementCube(x, np.arange(50) / 10.0, cfg)
    out = preprocess.sma_filter(cube, 7)
    assert out.samples.tobytes() == sma_rows(x, 7).tobytes()
    np.testing.assert_array_equal(out.slow_time, cube.slow_time[6:])
    assert out.config is cfg


@pytest.mark.parametrize(
    "l,count,unread",
    [(2063, 10, 0), (464, 2, 1), (263, 1, 0)],
)
def test_segment_counts(l, count, unread):
    # segment i filters raw rows [200 i, 200 i + 263): consecutive segments
    # share the 63 rows that the window reaches back, and the tail is unread
    assert segment_count(l, 64, 200) == count
    rows = [segment_rows(i, 64, 200) for i in range(count)]
    assert [r.start for r in rows] == [200 * i for i in range(count)]
    assert all(r.stop - r.start == 263 for r in rows)
    assert l - rows[-1].stop == unread


def test_segment_too_short_warns():
    with pytest.warns(UserWarning, match="shorter"):
        assert segment_count(262, 64, 200) == 0


def test_segment_is_view_preserving_samples_and_stamps():
    # the whole-recording slicer the benchmark times: each segment is a
    # view of its rows of the filtered recording, stamps included
    cfg = small_config()
    x = np.random.default_rng(2).standard_normal((20, cfg.k, 4)) + 0j
    cube = rv.MeasurementCube(x, np.arange(20) / 10.0, cfg)
    seg = preprocess.segment(cube, 8)
    assert isinstance(seg, preprocess.SegmentedCube)
    assert len(seg.segments) == 2 and seg.l_st == 8
    for i, part in enumerate(seg.segments):
        assert np.shares_memory(part.samples, cube.samples)
        assert part.samples.tobytes() == x[8 * i : 8 * i + 8].tobytes()
        np.testing.assert_array_equal(part.slow_time, cube.slow_time[8 * i : 8 * i + 8])


def test_segment_length_validation():
    with pytest.raises(ValueError):
        segment_count(20, 1, 1)


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
def test_sma_rows_is_bit_equal_to_one_cumsum(l, w_frac, k, m, block, seed, wide):
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
    expected = cumsum_filter(x, w)
    rows = np.flatnonzero(rng.random(l - w + 1) < 0.3)
    # picked rows fed as row blocks, one-row blocks included, as a reader's
    # one buffer serves them: each block is overwritten before the next
    cuts = np.sort(rng.choice(np.arange(1, l), size=min(4, l - 1), replace=False))
    buffer = np.empty_like(x)

    def blocks():
        for block in np.split(x, cuts):
            buffer[: len(block)] = block
            yield buffer[: len(block)]

    with pytest.MonkeyPatch.context() as mp:
        # blocks of `block` rows: the filter's budget covers four arrays of
        # a block's rows (input, new sums, the sums w_st rows back, output)
        mp.setattr(core, "_BLOCK_BYTES", block * 4 * x[0].nbytes)
        assert core.block_len(4 * x[0].nbytes) == block
        got = sma_rows(x, w)
        picked = sma_rows(x, w, rows)
        flat = sma_rows(x.reshape(l, -1), w, rows)
        series = sma_rows(x[:, 0, 0], w, rows)
        streamed = sma_rows(blocks(), w, rows)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    assert picked.shape == (rows.size, k, m)
    assert picked.tobytes() == expected[rows].tobytes()
    assert flat.tobytes() == expected[rows].tobytes()
    assert series.tobytes() == expected[rows, 0, 0].tobytes()
    assert streamed.tobytes() == expected[rows].tobytes()


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
    expected = cumsum_filter(x, w)[rows]
    got = sma_rows(x, w, rows)
    assert np.signbit(got[0, 0, 0].real) == np.signbit(expected[0, 0, 0].real)
    assert got.tobytes() == expected.tobytes()
    assert sma_rows(x, w, rows[:0]).shape == (0, 5, 3)


def _traced_filter(walabot, seed):
    """sma_rows of all rows of 2000 random walabot rows at w_st = 64, with
    the traced peak of the call."""
    shape = (2000, walabot.k, walabot.m_r * walabot.m_t)
    x = np.random.default_rng(seed).standard_normal(shape) + 0j
    return x, *traced_peak(lambda: sma_rows(x, 64))


def test_sma_rows_working_set_stays_near_its_output(walabot):
    """The blocked filter allocates its output and one ring of block sums only.

    The one-pass cumsum formula made four recording-sized complex
    temporaries (4.0x its output). Large frees like those also kept
    glibc's dynamic mmap threshold high; small, reused block buffers are
    what let the MUSIC scan's blocks come from the heap without fresh page
    faults, so both working sets are bounded together.
    """
    _, out, peak = _traced_filter(walabot, 3)
    assert peak < 1.25 * out.nbytes


def test_sma_rows_scratch_is_one_ring_of_sums(walabot):
    # besides its output, the all-rows path holds one ring of w_st + B
    # running-sum rows, B the rows of a block whose four row arrays (input,
    # new sums, the sums w_st rows back, output) fit core._BLOCK_BYTES: 14
    # walabot rows. Two rows of slack cover the small objects around it.
    # Two buffers of w_st + 1 rows each would exceed it
    x, out, peak = _traced_filter(walabot, 4)
    row = x[0].nbytes
    block = core.block_len(4 * row)
    assert block == 14
    assert peak - out.nbytes < (64 + block + 2) * row
