"""Slow-time clutter rejection and segmentation."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import block_len
from .localize import sorted_unique
from .simulate import MeasurementCube


@dataclass
class SegmentedCube:
    """Non-overlapping, ordered slow-time segments of one recording."""

    segments: list[MeasurementCube]
    l_st: int


# Row width (elements per input row) from which the all-rows path of
# sma_rows forms its running sums by adding one input row at a time rather
# than by np.cumsum, whose accumulate loop runs once per column. Medians per
# ring block of B complex128 rows, carried sum included, one thread: width
# 128 (B = 128) cumsum 86-87 us against the row loop 162-185 us; 320 (51),
# 74-94 against 57-101; 352 (46), 83-89 against 70-85; 384 (42), 95-101
# against 79-82; 512 (32), 106-120 against 69-79; 1096 (14, a walabot
# row), 92-103 against 46-51.
_ROW_LOOP_WIDTH = 384


def sma_filter(cube: MeasurementCube, w_st: int) -> MeasurementCube:
    """Subtract a trailing moving average over slow time.

    The output sample at slow-time index l is the input at l minus the mean
    of the ``w_st`` inputs ending at l, so any slow-time-constant content
    cancels and the first ``w_st - 1`` rows carry no valid output and are
    dropped. The window must span at least one breathing cycle, otherwise
    the filter attenuates the signal of interest as well. The samples are
    ``sma_rows(cube.samples, w_st)``, bit-equal to one cumsum over the
    recording for finite samples. ``run_pipeline`` filters each segment's
    own raw rows instead; this whole-recording form stays for the benchmark.
    """
    segment_count(cube.l, w_st)
    return MeasurementCube(
        sma_rows(cube.samples, w_st), cube.slow_time[w_st - 1 :], cube.config, cube.ground_truth
    )


def sma_rows(x: np.ndarray, w_st: int, rows: np.ndarray | None = None) -> np.ndarray:
    """Rows of the trailing-moving-average filter of ``x`` over axis 0.

    Output row j is x[r] - (csum[r] - csum[j - 1]) / w_st with r = j + w_st - 1,
    where csum is the running sum over axis 0 and csum[-1] = 0 (subtracting
    +0 is exact). ``rows`` (ascending, in [0, len(x) - w_st]) picks the output
    rows to compute; the default is all of them. Either way every output is
    bit-equal to that of one cumsum and one true division over the whole
    array, as long as ``x`` is finite (see ``_divide``); ``run_pipeline``
    and ``read_container`` reject non-finite samples before filtering.

    All rows: the input goes through in blocks of B = min(block_len(4 × row
    bytes), len(x)) rows, and the running sums through one ring of
    ``w_st`` + B rows, csum[n] in slot (n + 1) % (w_st + B), so that a
    block's input rows, their sums, the sums ``w_st`` rows back and its
    output rows fit ``core._BLOCK_BYTES`` together. A block's sums, and the
    sums csum[r] and csum[j - 1] that its output rows read, are slices of
    the ring; one that crosses the ring's end splits into two runs. Each
    run of sums starts from the sum before it, the first one from x[0]
    itself, so every element sees exactly the additions of one cumsum, and
    nothing but the output is the size of the input.
    Rows of ``_ROW_LOOP_WIDTH`` elements or more are summed by ``_add_rows``
    one input row at a time, narrower ones by np.cumsum: the same additions
    in the same order.

    Picked rows: ``x`` may also be an iterable of blocks, the consecutive
    rows of one array in order, each read once and not kept, so that rows
    read into one reused buffer are filtered without holding them all.
    ``_running_sums`` adds the input rows one at a time into a single
    accumulator, across the blocks, up to the last csum index read, and
    keeps only the sums at the indices r and j - 1 and the input rows r of
    the picked rows.
    """
    if rows is not None:
        rows = np.asarray(rows, dtype=np.intp)
        marks = sorted_unique(np.concatenate([rows - 1, rows + w_st - 1]))
        sums, last = _running_sums([x] if isinstance(x, np.ndarray) else x, marks,
                                   rows + w_st - 1)
        window = sums[np.searchsorted(marks, rows + w_st - 1)]
        window -= sums[np.searchsorted(marks, rows - 1)]
        return last - _divide(window, w_st, int(np.searchsorted(rows, 1)))
    l, tail = x.shape[0], x.shape[1:]
    no_rows = np.cumsum(x[:0], axis=0)  # the dtypes of the sums and of the output
    out = np.empty((max(l - w_st + 1, 0), *tail), (x[:0] - no_rows / w_st).dtype)
    if out.size == 0:
        return out
    by_row = math.prod(tail) >= _ROW_LOOP_WIDTH
    block = min(block_len(4 * no_rows.itemsize * math.prod(tail)), l)
    # csum[n] sits in slot (n + 1) % size, so csum[-1] = +0 starts in slot 0;
    # row size - 1 overwrites it only after output row 0's block
    size = w_st + block
    ring = np.empty((size, *tail), no_rows.dtype)
    ring[0] = 0
    for a in range(0, l, block):
        b = min(a + block, l)
        n0 = a
        while n0 < b:  # the block's sums, in at most two runs of slots
            p = (n0 + 1) % size
            n1 = min(b, n0 + size - p)
            sums = ring[p : p + n1 - n0]
            # csum[0] is x[0] itself: +0 + x[0] would turn a -0 into +0;
            # a later run starts from csum[n0 - 1] in slot p - 1
            s = int(n0 == 0)
            if by_row:
                if s:
                    sums[0] = x[0]
                _add_rows(sums[0] if s else ring[p - 1], x[n0 + s : n1], sums[s:])
            else:
                sums[...] = x[n0:n1]
                if not s:
                    np.add(ring[p - 1], sums[:1], out=sums[:1])
                np.cumsum(sums, axis=0, out=sums)
            n0 = n1
        # output rows j whose last input row r = j + w_st - 1 lies in [a, b),
        # in runs over which the slots of csum[r] and of csum[j - 1] are slices
        j0, j_stop = max(a - w_st + 1, 0), b - w_st + 1
        while j0 < j_stop:
            r0, rs, ps = j0 + w_st - 1, (j0 + w_st) % size, j0 % size
            j1 = min(j_stop, j0 + size - rs, j0 + size - ps)
            o = out[j0:j1]
            np.subtract(ring[rs : rs + j1 - j0], ring[ps : ps + j1 - j0], out=o)
            _divide(o, w_st, int(j0 == 0))
            np.subtract(x[r0 : r0 + j1 - j0], o, out=o)
            j0 = j1
    return out


def _divide(window: np.ndarray, w_st: int, first_exact: int) -> np.ndarray:
    """window / w_st, bit-equal to np.divide; in place unless window is integer.

    numpy divides a complex a by w + 0j as re = (ar + ai·0)·(1/w) and
    im = (ai − ar·0)·(1/w). For finite a, ar + ai·0 is ar unless ar is −0
    (then ai·0 can turn it to +0), and likewise for im, so with no −0
    component the quotient is the float view of a times 1/w, computed in
    the sums' real dtype. A window sum csum[r] − csum[j − 1] of an output
    row j ≥ 1 has no −0 component: a running sum is −0 only when every
    addend was −0, and then csum[j − 1] is −0 too, so the difference is +0.
    Output row 0 subtracts csum[−1] = +0 and can keep a −0; the first
    ``first_exact`` rows of ``window`` (those that may be output row 0)
    therefore keep np.divide, and so do real sums, whose true division is
    no reciprocal multiply, and other dtypes. Non-finite sums may give
    another pattern of inf and nan than np.divide would.
    """
    if window.dtype not in (np.complex64, np.complex128):
        return np.divide(window, w_st, out=window if window.dtype.kind == "f" else None)
    head, rest = window[:first_exact], window[first_exact:]
    np.divide(head, w_st, out=head)
    parts = rest.view(rest.real.dtype)
    np.multiply(parts, parts.dtype.type(1) / parts.dtype.type(w_st), out=parts)
    return window


def _add_rows(acc: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> None:
    """Add the rows of ``x`` one at a time to the running sum ``acc``.

    With ``out``, out[i] gets the sum through x[i] and ``acc`` is only read;
    without, ``acc`` is updated in place. Each sum is acc + x[0] + ... + x[i]
    added left to right, as np.cumsum adds them.
    """
    for i, row in enumerate(x):
        dst = acc if out is None else out[i]
        np.add(acc, row, out=dst)
        acc = dst


def _running_sums(blocks, marks: np.ndarray,
                  picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """csum[n] over axis 0 for each ascending index n of ``marks``, csum[-1] =
    +0, and the input row x[r] for each index r of ``picks``, ascending and
    each also a mark, where x is the concatenation of the row blocks of
    ``blocks``, taken in order until the last mark is reached.

    The input rows are added one at a time into an accumulator that starts
    at -0.0 (in both parts of a complex sum), the identity of IEEE addition,
    so each sum is bit-equal to that row of np.cumsum; a reduction that
    starts from +0 would turn a -0.0 sum into +0. ``IndexError`` when the
    blocks end before the last mark.
    """
    acc = None
    i = 0  # the next mark
    start = 0  # the block's first row; rows [0, start) are in acc
    for x in blocks:
        if acc is None:
            acc = np.zeros(x.shape[1:], np.cumsum(x[:0], axis=0).dtype)
            np.negative(acc, out=acc)
            sums = np.empty((marks.size, *acc.shape), acc.dtype)
            picked = np.empty((picks.size, *acc.shape), x.dtype)
        stop = start + len(x)
        here = slice(*np.searchsorted(picks, [start, stop]).tolist())
        picked[here] = x[picks[here] - start]
        added = start
        while i < marks.size and (n := int(marks[i])) < stop:
            if n >= added:
                _add_rows(acc, x[added - start : n + 1 - start])
                added = n + 1
            sums[i] = acc if n >= 0 else 0
            i += 1
        if i == marks.size:
            return sums, picked
        _add_rows(acc, x[added - start :])
        start = stop
    raise IndexError(f"row {marks[-1]} lies past the {start} input rows")


def segment_count(l: int, w_st: int, l_st: int | None = None) -> int:
    """Segments of ``l_st`` rows (without ``l_st``, rows) that ``l`` raw samples
    give behind the ``w_st``-sample clutter filter, the one length rule of
    ``run_pipeline``: fewer than ``w_st`` raise ``ValueError``, fewer than
    ``w_st - 1 + l_st`` warn and give 0."""
    if w_st < 1:
        raise ValueError(f"window w_st must be >= 1, got {w_st}")
    if l_st is not None and l_st < 2:
        raise ValueError(f"segment length l_st must be >= 2, got {l_st}")
    if w_st > l:
        raise ValueError(f"window w_st={w_st} exceeds recording length {l}")
    count = (l - w_st + 1) // (l_st or 1)
    if count == 0:
        warnings.warn(f"recording of {l} samples is shorter than one segment, which needs "
                      f"w_st - 1 + l_st = {w_st} - 1 + {l_st} = {w_st - 1 + l_st} samples; "
                      "nothing to process", stacklevel=3)  # at the caller of the stage
    return count


def segment_rows(i: int, w_st: int, l_st: int) -> slice:
    """The raw rows [i * l_st, (i + 1) * l_st + w_st - 1) of segment ``i``:
    the ``w_st``-sample clutter filter over them gives the segment's ``l_st``
    rows, and its slow-time stamps are those of the last ``l_st``."""
    return slice(i * l_st, (i + 1) * l_st + w_st - 1)


def segment(cube: MeasurementCube, l_st: int) -> SegmentedCube:
    """Views of the full-length segments of a filtered recording; the tail is
    dropped. Like ``sma_filter``, it stays for the benchmark."""
    count = segment_count(cube.l, 1, l_st)
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
