"""Spatial filtering, chest-displacement extraction and breathing estimation."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import DerivedParams, PolarLocation, RadarConfig, derive_params
from .localize import steering_matrix
from .simulate import MeasurementCube

_WINDOWS = {
    "hann": np.hanning,
    "rect": np.ones,
}

_MAG_FLOOR = float(np.sqrt(np.finfo(np.float64).tiny))


@dataclass
class VitalSeries:
    """Chest displacement in meters per slow-time sample of one segment.

    ``f_st_actual`` is derived from the slow-time stamps of the segment the
    series was extracted from; ``unreliable`` flags samples whose beamformer
    output underflowed and which repeat the previous reliable value.
    """

    eta: np.ndarray
    f_st_actual: float
    unreliable: np.ndarray | None = None


def build_filter(
    target: PolarLocation,
    cfg: RadarConfig,
    derived: DerivedParams | None = None,
    window: str = "hann",
) -> np.ndarray:
    """Weights (k0, m) of a non-adaptive beamformer for a location, tapered
    for side-lobe control.

    The steering entries have unit modulus, so the modulus of every weight
    is the product of the two taper values. Only the ``k0`` lowest
    frequency steps are used: the half-wavelength spatial-sampling bound
    tightens with frequency, so the retained steps are exactly the ones
    free of grating lobes.
    """
    check_window(window)
    if derived is None:
        derived = derive_params(cfg)
    a = steering_matrix(target.d, target.theta, derived.k0, derived.m, cfg)
    taper = np.outer(_WINDOWS[window](derived.k0), _WINDOWS[window](derived.m))
    return taper * a


def extract_displacement(
    filt: np.ndarray,
    cube: MeasurementCube,
    f_c: float | None = None,
) -> VitalSeries:
    """Beamform every snapshot with the (k0, m) weights ``filt`` of
    ``build_filter`` and convert the output phase to displacement.

    The filter output y(l) is the inner product of the conjugated weights
    with the first k0 rows of each snapshot; ``displacements`` turns it into
    chest motion.
    """
    k0, m = filt.shape
    _, k_len, m_len = cube.samples.shape
    if k_len < k0 or m_len != m:
        raise ValueError(
            f"cube of shape {cube.samples.shape} incompatible with a "
            f"{k0} x {m} spatial filter"
        )
    if f_c is None:
        f_c = derive_params(cube.config).f_c
    return displacements(beamform([filt], cube.samples).T, cube.slow_time, cube.config, f_c)[0]


def beamform(filters: list[np.ndarray], samples: np.ndarray) -> np.ndarray:
    """Output of each weight array on each snapshot, (slow time, filter), in one GEMM.

    The first k0 steps of a snapshot are contiguous, so the snapshots enter
    the GEMM as a strided view without a copy.
    """
    k0 = filters[0].shape[0]
    h = np.stack([f.ravel() for f in filters], axis=1).conj()
    return samples[:, :k0].reshape(samples.shape[0], -1) @ h


def displacements(
    ys: np.ndarray, slow_time: np.ndarray, cfg: RadarConfig, f_c: float
) -> list[VitalSeries]:
    """Chest displacement from each row of ``ys``, the (series, slow time)
    beamformer outputs of one segment, in one pass over the stacked rows.

    The phase of a row, unwrapped over slow time, scales to displacement by
    -c / (4 pi f_c). Samples with vanishing |y| are flagged and repeat the
    previous reliable sample. Every operation is elementwise or runs along a
    row, so a row's series does not depend on the other rows. A row whose
    output vanished over the whole segment is all zeros and warns at the
    caller of ``extract_displacement`` or ``run_pipeline``.
    """
    l_len = ys.shape[1]
    bad = np.abs(ys) < _MAG_FLOOR
    # each sample reads the last reliable one at or before it, or the first
    # reliable one of its row if there is none
    last_good = np.maximum.accumulate(np.where(bad, -1, np.arange(l_len)), axis=1)
    first_good = np.argmin(bad, axis=1)
    last_good = np.where(last_good < 0, first_good[:, None], last_good)
    phi = np.unwrap(np.angle(np.take_along_axis(ys, last_good, axis=1)), axis=1)
    etas = -cfg.c / (4 * np.pi * f_c) * phi
    for row, eta in zip(bad, etas):
        if row.all():
            warnings.warn("beamformer output vanished over the whole segment", stacklevel=3)
            eta[:] = 0.0
    t = slow_time
    f_st_actual = float((t.size - 1) / (t[-1] - t[0]) if t.size > 1 else cfg.f_st)
    return [VitalSeries(eta, f_st_actual, row) for eta, row in zip(etas, bad)]


def averaged_periodogram(
    series: list[VitalSeries], pad_factor: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """Mean-detrended periodogram, zero padded and averaged over segments.

    The detrended series are transformed by one FFT over their stacked rows,
    and the rows' powers summed in series order.
    """
    if not series:
        raise ValueError("need at least one displacement series")
    length = series[0].eta.size
    if any(s.eta.size != length for s in series):
        raise ValueError("all segments must have the same length")
    if length < 2:
        raise ValueError("series too short for a spectral estimate")
    fs = float(np.mean([s.f_st_actual for s in series]))
    nfft = pad_factor * length
    x = np.stack([s.eta - s.eta.mean() for s in series])
    rows = np.abs(np.fft.rfft(x, nfft, axis=1)) ** 2 / length
    power = np.zeros(nfft // 2 + 1)
    for row in rows:
        power += row
    power /= len(series)
    freqs = np.fft.rfftfreq(nfft, d=1.0 / fs)
    return freqs, power


def check_window(window: str) -> None:
    """Raise ``ValueError`` unless ``window`` names a beamformer taper."""
    if window not in _WINDOWS:
        raise ValueError(f"unknown window {window!r}; choose from {sorted(_WINDOWS)}")


def check_band(lo: float, hi: float) -> None:
    """Raise ``ValueError`` unless 0 <= lo < hi, the breathing search band in Hz."""
    if not 0 <= lo < hi:
        raise ValueError(f"breathing band must satisfy 0 <= band_lo < band_hi, got "
                         f"band_lo {lo}, band_hi {hi}")


def breathing_frequency(
    series: list[VitalSeries],
    band: tuple[float, float] = (0.1, 0.8),
    pad_factor: int = 8,
) -> float:
    """Strongest peak inside the breathing band, Hz, of the periodogram
    averaged over the list ``series`` of one track's segments.

    The band excludes the DC residue left by detrending and any heartbeat
    component.
    """
    lo, hi = band
    check_band(lo, hi)
    freqs, power = averaged_periodogram(series, pad_factor)
    mask = (freqs >= lo) & (freqs <= hi)
    if not mask.any():
        raise ValueError(f"search band {band} contains no frequency bins")
    sel = np.nonzero(mask)[0]
    return float(freqs[sel[np.argmax(power[sel])]])
