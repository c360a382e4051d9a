"""Slow-time clutter rejection and segmentation."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

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
    l = cube.l
    if w_st > l:
        raise ValueError(f"window w_st={w_st} exceeds recording length {l}")
    x = cube.samples
    csum = np.cumsum(x, axis=0)
    window_sum = csum[w_st - 1 :].copy()
    window_sum[1:] -= csum[: l - w_st]
    filtered = x[w_st - 1 :] - window_sum / w_st
    return MeasurementCube(
        filtered, cube.slow_time[w_st - 1 :], cube.config, cube.ground_truth
    )


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
