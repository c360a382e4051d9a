"""Slow-time clutter rejection and segmentation."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import block_len
from .simulate import MeasurementCube


@dataclass
class SegmentedCube:
    """Non-overlapping, ordered slow-time segments of one recording."""

    segments: list[MeasurementCube]
    l_st: int


def sma_filter(cube: MeasurementCube, w_st: int) -> MeasurementCube:
    """Subtract a trailing moving average over slow time.

    The output sample at slow-time index l is the input at l minus the mean
    of the ``w_st`` inputs ending at l, so any slow-time-constant content
    cancels and the first ``w_st - 1`` rows carry no valid output and are
    dropped. The window must span at least one breathing cycle, otherwise
    the filter attenuates the signal of interest as well.
    """
    if w_st < 1:
        raise ValueError(f"window w_st must be >= 1, got {w_st}")
    if w_st > cube.l:
        raise ValueError(f"window w_st={w_st} exceeds recording length {cube.l}")
    return MeasurementCube(
        sma_rows(cube.samples, w_st), cube.slow_time[w_st - 1 :], cube.config, cube.ground_truth
    )


def sma_rows(x: np.ndarray, w_st: int, rows: np.ndarray | None = None) -> np.ndarray:
    """Rows of the trailing-moving-average filter of ``x`` over axis 0.

    Output row j is x[r] - (csum[r] - csum[j - 1]) / w_st with r = j + w_st - 1,
    where csum is the running sum over axis 0 and csum[-1] = 0 (subtracting
    +0 is exact). ``rows`` (ascending, in [0, len(x) - w_st]) picks the output
    rows to compute; the default is all of them.

    The running sum is carried through blocks of at least ``w_st`` input rows:
    a block's first row gets the previous block's last sum added before its
    cumsum, so every element sees exactly the additions of one cumsum over
    the whole array. Only blocks up to the last picked row are summed, and
    nothing but the output is the size of the input.
    """
    n_out = x.shape[0] - w_st + 1
    rows = np.arange(n_out) if rows is None else np.asarray(rows, dtype=np.intp)
    tail = x.shape[1:]
    no_rows = np.cumsum(x[:0], axis=0)  # the dtypes of the sums and of the output
    out = np.empty((rows.size, *tail), (x[:0] - no_rows / w_st).dtype)
    if rows.size == 0:
        return out
    block = block_len(no_rows.itemsize * math.prod(tail), w_st)
    # buffer row 0 holds csum[a - 1], rows 1..n hold csum[a .. a + n - 1]
    bufs = np.empty((2, block + 1, *tail), no_rows.dtype)
    end = int(rows[-1]) + w_st  # input rows [0, end) are read
    for step, a in enumerate(range(0, end, block)):
        b = min(a + block, end)
        cur, prev = bufs[step % 2], bufs[(step - 1) % 2]
        if a == 0:
            cur[0] = 0
            np.cumsum(x[:b], axis=0, out=cur[1 : b + 1])
        else:
            cur[0] = prev[block]
            cur[1 : b - a + 1] = x[a:b]
            np.cumsum(cur[: b - a + 1], axis=0, out=cur[: b - a + 1])
        # output rows whose last input row lies in [a, b); csum[j - 1] sits in
        # prev for j < a and in cur from j = a on
        lo, mid, hi = np.searchsorted(rows, [a - w_st + 1, a, b - w_st + 1])
        for p, q, src, src_first in ((lo, mid, prev, a - block - 1), (mid, hi, cur, a - 1)):
            if p == q:
                continue
            cuts = (p + 1 + np.flatnonzero(np.diff(rows[p:q]) != 1)).tolist()
            for p0, q0 in zip([p, *cuts], [*cuts, q]):
                j0, n = int(rows[p0]), q0 - p0
                r0, s0 = j0 + w_st - 1, j0 - 1 - src_first
                o = out[p0:q0]
                np.subtract(cur[r0 - a + 1 : r0 - a + 1 + n], src[s0 : s0 + n], out=o)
                np.divide(o, w_st, out=o)
                np.subtract(x[r0 : r0 + n], o, out=o)
    return out


def segment(cube: MeasurementCube, l_st: int) -> SegmentedCube:
    """Slice a recording into full-length segments; the tail is dropped."""
    if l_st < 2:
        raise ValueError(f"segment length l_st must be >= 2, got {l_st}")
    count = cube.l // l_st
    if count == 0:
        warnings.warn(
            f"recording of {cube.l} samples is shorter than one segment "
            f"(l_st={l_st}); nothing to process",
            stacklevel=2,
        )
    segments = [
        MeasurementCube(
            cube.samples[i * l_st : (i + 1) * l_st],
            cube.slow_time[i * l_st : (i + 1) * l_st],
            cube.config,
            cube.ground_truth,
        )
        for i in range(count)
    ]
    return SegmentedCube(segments, l_st)
