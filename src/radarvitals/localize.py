"""Smoothed covariance estimation and 2D subspace localization.

Each slow-time snapshot is a (frequency step x virtual channel) matrix. A
2D window slides over it and the outer products of all vectorized slices
are averaged, which restores covariance rank for mutually coherent
returns. Forward-backward averaging then symmetrizes the estimate, and the
range/azimuth grid is scanned with the projector onto the noise subspace.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from .core import PolarLocation, RadarConfig

_DENOM_FLOOR = np.finfo(np.float64).tiny
# ranges per scan GEMM; bounds the (block, n_t, n_noise) working set to a
# few MB on the default grid
_RANGE_BLOCK = 32
# Veltkamp splitting constant 2**27 + 1 for error-free float64 products
_SPLIT = 134217729.0


@dataclass(frozen=True)
class SmoothingSpec:
    """Sliding-window sizes for 2D spatial smoothing."""

    w_k: int
    w_m: int

    def validate(self, k: int, m: int) -> None:
        if not 1 <= self.w_k <= k:
            raise ValueError(f"fast-time window w_k={self.w_k} not in [1, {k}]")
        if not 1 <= self.w_m <= m:
            raise ValueError(f"channel window w_m={self.w_m} not in [1, {m}]")

    def n_slices(self, k: int, m: int) -> int:
        """Number of window positions over a k x m snapshot."""
        return (k - self.w_k + 1) * (m - self.w_m + 1)


@dataclass
class CovarianceEstimate:
    """Smoothed, forward-backward-averaged sample covariance.

    ``eigvals`` are real and sorted descending; ``eig_basis`` columns are
    the matching eigenvectors.
    """

    r_hat: np.ndarray
    eigvals: np.ndarray
    eig_basis: np.ndarray
    n_snapshots: int
    spec: SmoothingSpec


def snapshot_indices(l: int, n_cov: int) -> np.ndarray:
    """``n_cov`` slow-time indices spread uniformly over a segment."""
    if not 1 <= n_cov <= l:
        raise ValueError(f"n_cov={n_cov} not in [1, {l}]")
    return np.unique(np.round(np.linspace(0, l - 1, n_cov)).astype(int))


def forward_backward(r: np.ndarray) -> np.ndarray:
    """Average a covariance with its rotated conjugate.

    Equivalent to averaging the estimates of the forward and the
    index-reversed (backward) array; the result of a Hermitian input is
    Hermitian and persymmetric.
    """
    return 0.5 * (r + np.flip(r).conj())


def _slice_rows(snapshot: np.ndarray, spec: SmoothingSpec) -> np.ndarray:
    """All vectorized slices of one snapshot, one slice per row.

    Each slice is stacked column-wise (fast-time index varies fastest),
    matching the steering-vector stacking.
    """
    view = sliding_window_view(snapshot, (spec.w_k, spec.w_m))
    n_i, n_j = view.shape[:2]
    # rows ordered with the fast-time offset i varying fastest
    return view.transpose(1, 0, 3, 2).reshape(n_j * n_i, spec.w_m * spec.w_k)


def smoothed_covariance(
    samples: np.ndarray, spec: SmoothingSpec, n_cov: int
) -> CovarianceEstimate:
    """Estimate the smoothed covariance of one segment.

    Averages slice outer products over ``n_cov`` uniformly spaced slow-time
    snapshots, applies forward-backward averaging once, and returns the
    eigen-decomposition sorted descending.
    """
    samples = np.asarray(samples)
    if samples.ndim != 3:
        raise ValueError("expected samples indexed [slow time, step, channel]")
    l, k, m = samples.shape
    spec.validate(k, m)
    idx = snapshot_indices(l, n_cov)
    dim = spec.w_k * spec.w_m
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for li in idx:
        rows = _slice_rows(samples[li], spec)
        x = rows.T
        acc += x @ x.conj().T
    r = acc / (len(idx) * spec.n_slices(k, m))
    r = 0.5 * (r + r.conj().T)  # exact hermitization before the FB step
    r_hat = forward_backward(r)
    eigvals, eigvecs = np.linalg.eigh(r_hat)
    return CovarianceEstimate(
        r_hat=r_hat,
        eigvals=np.ascontiguousarray(eigvals[::-1]),
        eig_basis=np.ascontiguousarray(eigvecs[:, ::-1]),
        n_snapshots=len(idx),
        spec=spec,
    )


def stacked_covariance_eigenvalues(
    samples: np.ndarray, spec: SmoothingSpec, n_cov: int
) -> np.ndarray:
    """Eigenvalues (descending) of the real-stacked smoothed covariance.

    Each vectorized slice enters as a real vector [Re; Im] of twice the
    window size, together with its index-reversed conjugate (the backward
    pass). Every complex signal direction then spans two real directions
    whose energies balance once the slice phases wrap the circle, so
    person returns show up as eigenvalue PAIRS and the gaps at odd indices
    collapse. The person-count criterion consumes exactly this pairing;
    the localization scan keeps the complex estimate instead, which
    preserves the complex noise subspace.
    """
    samples = np.asarray(samples)
    if samples.ndim != 3:
        raise ValueError("expected samples indexed [slow time, step, channel]")
    l, k, m = samples.shape
    spec.validate(k, m)
    idx = snapshot_indices(l, n_cov)
    dim = spec.w_k * spec.w_m
    acc = np.zeros((2 * dim, 2 * dim))
    for li in idx:
        rows = _slice_rows(samples[li], spec)
        fwd = np.concatenate([rows.real, rows.imag], axis=1)
        acc += fwd.T @ fwd
    # The backward slice [Re; -Im] of the reversed slice is the forward one
    # under a signed permutation, bwd = fwd[:, perm] * sign, so its summed
    # outer products are acc[perm][:, perm] * sign sign^T, exactly.
    rev = np.arange(dim)[::-1]
    perm = np.concatenate([rev, dim + rev])
    sign = np.repeat([1.0, -1.0], dim)
    acc += np.outer(sign, sign) * acc[np.ix_(perm, perm)]
    covm = acc / (2 * len(idx) * spec.n_slices(k, m))
    return np.ascontiguousarray(np.linalg.eigvalsh(covm)[::-1])


def _two_product(a: np.ndarray, b: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """a * b as an unevaluated sum p + e that is exact (Dekker)."""
    p = a * b
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = _SPLIT * b
    b_hi = t - (t - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _phase_turns(freqs: np.ndarray, path: np.ndarray, c: float) -> np.ndarray:
    """freqs * path / c in turns, reduced into [-1/2, 1/2].

    The carrier puts the unreduced phase at hundreds of turns, where one
    rounding of the product already costs ~1e-13 rad. Near a null of the
    noise projection that error is amplified by 1 / ||V_n^H a||, so the
    product and the division are carried exactly past the integer part and
    only the reduced fraction is rounded.
    """
    prod, prod_err = _two_product(freqs, path)
    q = prod / c
    qc, qc_err = _two_product(q, c)
    rest = (((prod - qc) - qc_err) + prod_err) / c
    return (q - np.rint(q)) + rest


def steering_matrix(
    d: float, theta: float, w_k: int, w_m: int, cfg: RadarConfig
) -> np.ndarray:
    """Array response for a target at (d, theta) over the first ``w_k``
    frequency steps and ``w_m`` virtual channels. Every entry has unit
    modulus; vectorize column-wise to align with the slice stacking."""
    delta_f = cfg.b / cfg.k
    freqs = cfg.f0 + delta_f * np.arange(w_k)
    path = 2.0 * d + cfg.delta * math.sin(theta) * np.arange(w_m)
    return np.exp((-2j * np.pi / cfg.c) * np.outer(freqs, path))


@dataclass(frozen=True)
class GridSpec:
    """Search grid over range (m) and azimuth (rad)."""

    d_max: float = 4.5
    d_step: float = 0.025
    theta_max: float = 0.4 * math.pi
    theta_step: float = math.pi / 180

    def shape(self) -> tuple[int, int]:
        n_d = int(math.floor(self.d_max / self.d_step + 1 + 1e-9))
        n_t = int(math.floor(2 * self.theta_max / self.theta_step + 1 + 1e-9))
        return n_d, n_t

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        n_d, n_t = self.shape()
        return (
            self.d_step * np.arange(n_d),
            -self.theta_max + self.theta_step * np.arange(n_t),
        )


@dataclass
class PseudoSpectrum:
    """Positive pseudo-spectrum values over a (range, azimuth) grid."""

    d_axis: np.ndarray
    theta_axis: np.ndarray
    values: np.ndarray


def music_spectrum(
    cov: CovarianceEstimate,
    p_sub: int,
    grid: GridSpec,
    cfg: RadarConfig,
    centered: bool = True,
) -> PseudoSpectrum:
    """Scan the grid with 1 / || V_n^H a(d, theta) ||^2.

    ``p_sub`` eigenvectors span the signal subspace; the remaining columns
    form the noise subspace V_n, built once per call. Each grid cell is an
    independent pure function of (cov, cfg), so the scan order does not
    affect the values.

    With ``centered`` (the default) the scan steering references the middle
    sliding-window position instead of the first one. The slices average
    window positions spanning a fifth of the carrier frequency, so scanning
    against the first window skews the apparent angle outward by roughly
    half the fractional bandwidth; centering removes that skew.

    The steering entry a(d, theta)[m, k] = r_d[k] * b_theta[m, k] separates
    into a range factor r_d[k] = exp(-2j pi f_k 2d / c) and an angle factor
    b_theta[m, k] = exp(-2j pi f_k sin(theta) x_m / c). The channels are
    contracted once per angle, U[k, theta] = sum_m conj(b_theta[m, k])
    V_n[(m, k)], and the scan is then one GEMM conj(R) @ U per block of
    ranges, so only n_t w_m w_k + n_d w_k exponentials are evaluated per call.
    """
    dim = cov.r_hat.shape[0]
    if p_sub >= dim:
        raise ValueError(f"signal subspace order {p_sub} must be < {dim}")
    if p_sub < 1:
        raise ValueError("signal subspace order must be >= 1")
    w_k, w_m = cov.spec.w_k, cov.spec.w_m
    # rows of the basis are stacked column-wise: index m * w_k + k
    v_n = cov.eig_basis[:, p_sub:].reshape(w_m, w_k, dim - p_sub)
    k_off = (cfg.k - w_k) / 2 if centered else 0.0
    m_off = (cfg.m_r * cfg.m_t - w_m) / 2 if centered else 0.0
    delta_f = cfg.b / cfg.k
    freqs = cfg.f0 + delta_f * (k_off + np.arange(w_k))
    chan = cfg.delta * (m_off + np.arange(w_m))
    d_axis, theta_axis = grid.axes()
    n_d, n_t = d_axis.size, theta_axis.size
    # conj(exp(-2j pi f p / c)) = exp(+2j pi f p / c)
    path_t = np.sin(theta_axis)[:, None] * chan[None, :]  # (n_t, w_m)
    turns_t = _phase_turns(freqs[:, None, None], path_t[None, :, :], cfg.c)
    b_conj = np.exp(2j * np.pi * turns_t)  # (w_k, n_t, w_m)
    u = (b_conj @ v_n.transpose(1, 0, 2)).reshape(w_k, -1)  # (w_k, n_t * n_noise)
    turns_d = _phase_turns(2.0 * d_axis[:, None], freqs[None, :], cfg.c)
    r_conj = np.exp(2j * np.pi * turns_d)  # (n_d, w_k)
    values = np.empty((n_d, n_t))
    for start in range(0, n_d, _RANGE_BLOCK):
        stop = min(start + _RANGE_BLOCK, n_d)
        g = (r_conj[start:stop] @ u).reshape(stop - start, n_t, -1)  # a^H V_n
        g_ri = g.view(np.float64)  # interleaved (re, im): squares sum to |g|^2
        denom = np.einsum("ijk,ijk->ij", g_ri, g_ri)
        values[start:stop] = 1.0 / np.maximum(denom, _DENOM_FLOOR)
    return PseudoSpectrum(d_axis, theta_axis, values)


def accumulate_spectrum(
    running: PseudoSpectrum, current: PseudoSpectrum
) -> PseudoSpectrum:
    """Elementwise sum of two spectra on the identical grid."""
    if (
        running.values.shape != current.values.shape
        or not np.array_equal(running.d_axis, current.d_axis)
        or not np.array_equal(running.theta_axis, current.theta_axis)
    ):
        raise ValueError("pseudo-spectrum grids do not match")
    return PseudoSpectrum(
        running.d_axis, running.theta_axis, running.values + current.values
    )


@dataclass(frozen=True)
class Detection:
    """One located person with its pseudo-spectrum peak value."""

    location: PolarLocation
    value: float


@dataclass
class DetectionSet:
    """Per-segment detections, sorted by decreasing peak value."""

    detections: list[Detection]
    segment_index: int = -1
    requested: int = 0

    @property
    def complete(self) -> bool:
        return len(self.detections) >= self.requested


def extract_peaks(
    spectrum: PseudoSpectrum,
    p_hat: int,
    group_radius: float = 0.3,
    segment_index: int = -1,
) -> DetectionSet:
    """Greedy selection of grid-local maxima separated in Cartesian space.

    Local maxima (8-neighborhood) are visited strongest first. A candidate
    closer than ``group_radius`` to an already accepted peak is grouped into
    it; otherwise it becomes the next detection. Stops after ``p_hat``
    detections or when the candidates run out, which is flagged through
    ``DetectionSet.complete``.
    """
    if p_hat < 0:
        raise ValueError("p_hat must be non-negative")
    if p_hat == 0:
        return DetectionSet([], segment_index, 0)
    v = spectrum.values
    local_max = v >= ndimage.maximum_filter(v, size=3, mode="constant", cval=-np.inf)
    ii, jj = np.nonzero(local_max)
    vals = v[ii, jj]
    order = np.lexsort((jj, ii, -vals))
    accepted: list[Detection] = []
    acc_xy: list[tuple[float, float]] = []
    r2 = group_radius * group_radius
    for idx in order:
        d = float(spectrum.d_axis[ii[idx]])
        theta = float(spectrum.theta_axis[jj[idx]])
        x, y = d * math.sin(theta), d * math.cos(theta)
        if all((x - ax) ** 2 + (y - ay) ** 2 >= r2 for ax, ay in acc_xy):
            accepted.append(Detection(PolarLocation(d, theta), float(vals[idx])))
            acc_xy.append((x, y))
            if len(accepted) == p_hat:
                break
    if len(accepted) < p_hat:
        warnings.warn(
            f"found only {len(accepted)} of {p_hat} requested peaks", stacklevel=2
        )
    return DetectionSet(accepted, segment_index, p_hat)


def spectrum_csv(spectrum: PseudoSpectrum) -> str:
    """Flatten a pseudo-spectrum into ``d,theta,value`` CSV text."""
    lines = ["d_m,theta_rad,value"]
    for i, d in enumerate(spectrum.d_axis):
        for j, theta in enumerate(spectrum.theta_axis):
            lines.append(f"{float(d)!r},{float(theta)!r},{float(spectrum.values[i, j])!r}")
    return "\n".join(lines) + "\n"
