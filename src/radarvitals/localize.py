"""Smoothed covariance estimation and 2D subspace localization.

Each slow-time snapshot is a (frequency step x virtual channel) matrix. A
2D window slides over it and the outer products of all vectorized slices
are averaged, which restores covariance rank for mutually coherent
returns. Forward-backward averaging then symmetrizes the estimate, and the
range/azimuth grid is scanned with the projector onto the noise subspace.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .core import ConfigError, PolarLocation, RadarConfig, block_len

_DENOM_FLOOR = np.finfo(np.float64).tiny
# music_spectrum: rounding of the signal-subspace complement per unit ||a||^2
# and basis dimension, and the multiple of its error bound below which a cell
# is recomputed from the noise subspace
_ROUNDING = 2 * np.finfo(np.float64).eps
_NULL_MARGIN = 1e10
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


def _window_gram(snaps: np.ndarray, w_k: int, w_m: int) -> np.ndarray:
    """Sum of x x^H over every w_k x w_m window x of every snapshot.

    ``snaps`` is indexed [part, snapshot, step, channel]. A window vector
    stacks its parts, each vectorized column-wise like the steering vector,
    so entry (p, m1, k1) sits at index (p * w_m + m1) * w_k + k1.

    For two channel shifts b1 = (p1, m1) and b2 = (p2, m2), let
    Y_b = snaps[p, :, :, m:m + n_j] laid out as k x (n_cov n_j). Entry
    (k1, k2) of their block W is the sum of the n_i = k - w_k + 1
    consecutive diagonal entries from (k1, k2) of the k x k Gram
    P = Y_b1 Y_b2^H. Only the upper blocks b1 <= b2 are formed, one k-row
    panel Y_b1 [Y_b1 ... Y_last]^H per b1, so the largest product is
    k x n_b k rather than the whole n_b k square. The lower blocks are
    the conjugate transposes of the upper ones.

    Only the first row and column of each W are summed from P; along a
    diagonal, W[k1 + 1, k2 + 1] = W[k1, k2] - P[k1, k2] + P[k1 + n_i,
    k2 + n_i]. With the block pairs q stacked as sums[k1, q, k2], that
    recurrence is one addition of a shifted row per k1 over all pairs at
    once: O(w_k^2) additions per pair instead of the O(w_k^2 n_i) of
    summing every window.
    """
    n_parts, n_cov, k, m = snaps.shape
    n_i, n_j = k - w_k + 1, m - w_m + 1
    n_b = n_parts * w_m
    # y[p, m1, r, (l, j)] = snaps[p, l, r, m1 + j]
    y = sliding_window_view(snaps, n_j, axis=3).transpose(0, 3, 2, 1, 4)
    z = y.reshape(n_b * k, n_cov * n_j)
    z_h = z.conj().T
    # the pairs (b1, b2 >= b1) in row-major order; those of panel b1 are
    # first[b1]:first[b1 + 1]
    first = [b1 * n_b - b1 * (b1 - 1) // 2 for b1 in range(n_b + 1)]
    sums = np.empty((w_k, first[-1], w_k), dtype=z.dtype)
    for b1 in range(n_b):
        panel = (z[b1 * k : (b1 + 1) * k] @ z_h[:, b1 * k :]).reshape(k, n_b - b1, k)
        rs, bs, cs = panel.strides
        s = sums[:, first[b1] : first[b1 + 1]]
        # seeds W[0, c] = sum_i P[i, c + i] and W[t, 0] = sum_i P[t + i, i]
        row0 = as_strided(panel, (n_b - b1, w_k, n_i), (bs, cs, rs + cs), writeable=False)
        col0 = as_strided(panel[1:], (w_k - 1, n_b - b1, n_i), (rs, bs, rs + cs), writeable=False)
        np.einsum("ijk->ij", row0, out=s[0])  # faster than sum(axis=2) here
        np.einsum("ijk->ij", col0, out=s[1:, :, 0])
        # each step along a diagonal adds one entry of P and drops one
        np.subtract(panel[n_i:, :, n_i:], panel[: w_k - 1, :, : w_k - 1], out=s[1:, :, 1:])
    for t in range(1, w_k):
        np.add(sums[t, :, 1:], sums[t - 1, :, :-1], out=sums[t, :, 1:])
    out = np.empty((n_b, w_k, n_b, w_k), dtype=z.dtype)
    for b1 in range(n_b):
        s = sums[:, first[b1] : first[b1 + 1]]
        out[b1, :, b1:] = s
        out[b1 + 1 :, :, b1] = s[:, 1:].conj().transpose(1, 2, 0)
    return out.reshape(n_b * w_k, n_b * w_k)


def _snapshots(samples: np.ndarray, spec: SmoothingSpec, n_cov: int) -> np.ndarray:
    """The ``n_cov`` covariance snapshots of a validated segment."""
    samples = np.asarray(samples)
    if samples.ndim != 3:
        raise ValueError("expected samples indexed [slow time, step, channel]")
    l, k, m = samples.shape
    spec.validate(k, m)
    return samples[snapshot_indices(l, n_cov)]


def smoothed_covariance(
    samples: np.ndarray, spec: SmoothingSpec, n_cov: int
) -> CovarianceEstimate:
    """Estimate the smoothed covariance of one segment.

    Averages slice outer products over ``n_cov`` uniformly spaced slow-time
    snapshots, applies forward-backward averaging once, and returns the
    eigen-decomposition sorted descending.
    """
    snaps = _snapshots(samples, spec, n_cov)
    n, k, m = snaps.shape
    acc = _window_gram(snaps.astype(np.complex128)[None], spec.w_k, spec.w_m)
    r = acc / (n * spec.n_slices(k, m))
    r = 0.5 * (r + r.conj().T)  # exact hermitization before the FB step
    r_hat = forward_backward(r)
    eigvals, eigvecs = np.linalg.eigh(r_hat)
    return CovarianceEstimate(
        r_hat=r_hat,
        eigvals=np.ascontiguousarray(eigvals[::-1]),
        eig_basis=np.ascontiguousarray(eigvecs[:, ::-1]),
        n_snapshots=n,
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
    snaps = _snapshots(samples, spec, n_cov)
    n, k, m = snaps.shape
    parts = np.stack([snaps.real, snaps.imag]).astype(np.float64, copy=False)
    acc = _window_gram(parts, spec.w_k, spec.w_m)
    # the forward-backward covariance splits into two half-size blocks
    blocks = _parity_blocks(acc)
    blocks *= 1.0 / (n * spec.n_slices(k, m))
    return np.sort(np.linalg.eigvalsh(blocks), axis=None)[::-1].copy()


def _parity_blocks(acc: np.ndarray) -> np.ndarray:
    """Q^T acc Q over the +1 and the -1 eigenspace Q of the backward map S.

    The backward slice [Re; -Im] of the reversed slice is the forward one
    under a signed permutation S: the index reversal r on both halves, with
    the Im half negated. S is symmetric and S^2 = I, so the forward-backward
    sum acc + S acc S commutes with S and equals twice the projected acc on
    either eigenspace. The +1 space is spanned by the Re parts symmetric
    under r and the Im parts antisymmetric under it, the -1 space by the
    other two; each has dimension w_k w_m. A basis vector (e_p + s e_q) w
    pairs q = r(p) with a sign s = +-1 and w = 1/sqrt(2), or for the middle
    index of an odd dimension, a fixed point of r, p = q, s = 1 and w = 1/2.

    The columns of each half are folded with their reversed partners, read
    from a reversed view of acc, and then the rows likewise: (acc_pp +
    s acc_pq) + s (acc_qp + s acc_qq). The result stacks the two blocks
    for one batched eigensolve.
    """
    dim = acc.shape[0] // 2
    n_sym = (dim + 1) // 2
    blocks = np.empty((2, dim, dim))
    cols = np.empty((2 * dim, dim))
    acc_rev, cols_rev = acc[:, ::-1], cols[::-1]  # column / row c is 2 dim - 1 - c
    # per block: its Re count, the folds with sign +-1 on the Re half and
    # -+1 on the Im half, and where an odd dimension puts its fixed point
    for f, n_re, fold_re, fold_im, mid in (
        (blocks[0], n_sym, np.add, np.subtract, n_sym - 1),
        (blocks[1], dim - n_sym, np.subtract, np.add, dim - 1),
    ):
        n_im = dim - n_re
        fold_re(acc[:, :n_re], acc_rev[:, dim : dim + n_re], out=cols[:, :n_re])
        fold_im(acc[:, dim : dim + n_im], acc_rev[:, :n_im], out=cols[:, n_re:])
        fold_re(cols[:n_re], cols_rev[dim : dim + n_re], out=f[:n_re])
        fold_im(cols[dim : dim + n_im], cols_rev[:n_im], out=f[n_re:])
        f *= 0.5
        if dim % 2:  # the middle index entered twice on each side
            f[mid] *= math.sqrt(0.5)
            f[:, mid] *= math.sqrt(0.5)
    return blocks


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
    modulus; vectorize column-wise to align with the slice stacking. The
    phases are reduced exactly before rounding, as in the scan."""
    delta_f = cfg.b / cfg.k
    freqs = cfg.f0 + delta_f * np.arange(w_k)
    path = 2.0 * d + cfg.delta * math.sin(theta) * np.arange(w_m)
    return np.exp(-2j * np.pi * _phase_turns(freqs[:, None], path[None, :], cfg.c))


@dataclass(frozen=True)
class GridSpec:
    """Search grid over range (m) and azimuth (rad)."""

    d_max: float = 4.5
    d_step: float = 0.025
    theta_max: float = 0.4 * math.pi
    theta_step: float = math.pi / 180

    def __post_init__(self) -> None:
        if not self.d_step > 0:
            raise ConfigError(f"config key 'grid.d_step' must be > 0, got {self.d_step}")
        if not self.theta_step > 0:
            raise ConfigError(f"config key 'grid.theta_step' must be > 0, got {self.theta_step}")
        if not self.d_max >= 0:
            raise ConfigError(f"config key 'grid.d_max' must be >= 0, got {self.d_max}")
        if not 0 <= self.theta_max < math.pi / 2:
            raise ConfigError(
                f"config key 'grid.theta_max' must lie in [0, pi/2), got {self.theta_max}"
            )
        if math.isinf(self.d_max / self.d_step + self.theta_max / self.theta_step):
            raise ConfigError(f"config keys 'grid.d_step' {self.d_step} and 'grid.theta_step' "
                              f"{self.theta_step} give an infinite number of cells")

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


def check_signal_order(p_sub: int, dim: int) -> None:
    """Raise ``ValueError`` unless the signal subspace order ``p_sub`` lies in
    [1, dim), dim = w_k * w_m the size of the smoothing window."""
    if not 1 <= p_sub < dim:
        raise ValueError(f"signal subspace order p_sub={p_sub} not in [1, {dim})")


def music_spectrum(
    cov: CovarianceEstimate,
    p_sub: int,
    grid: GridSpec,
    cfg: RadarConfig,
) -> PseudoSpectrum:
    """Scan the grid with 1 / || V_n^H a(d, theta) ||^2.

    ``p_sub`` eigenvectors span the signal subspace V_s; the remaining
    columns form the noise subspace V_n. Each grid cell is an independent
    pure function of (cov, cfg), so the scan order does not affect the
    values.

    The scan steering references the middle sliding-window position, not
    the first one. The slices average window positions spanning a fifth of
    the carrier frequency, so scanning against the first window would skew
    the apparent angle outward by roughly half the fractional bandwidth;
    centering removes that skew.

    The steering entry a(d, theta)[m, k] = r_d[k] * b_theta[m, k] separates
    into a range factor r_d[k] = exp(-2j pi f_k 2d / c) and an angle factor
    b_theta[m, k] = exp(-2j pi f_k sin(theta) x_m / c). The channels are
    contracted once per angle, U[k, theta] = sum_m conj(b_theta[m, k])
    V[(m, k)], and the scan is one GEMM conj(R) @ U, so only
    n_t w_m w_k + n_d w_k exponentials are evaluated, and those only once
    per (cfg, grid, w_k, w_m): ``_scan_factors`` caches them
    read-only, so the segments of a run share them. U and the
    GEMM output are built one block of angles at a time into buffers
    allocated once per call, so the working set stays within the block
    budget instead of growing with the grid.

    The GEMM runs over the p_sub signal columns V_s rather than the
    dim - p_sub noise columns: every steering entry has unit modulus, so
    ||a||^2 = dim = w_k w_m and the denominator is the complement
    dim - ||V_s^H a||^2. It differs from ||V_n^H a||^2 by at most
    (||V^H V - I||_F + 2 dim eps) ||a||^2: the departure of the eigenbasis
    from orthonormal, plus rounding. Each cell whose complement is below
    1e10 times that bound (the cells near a null, and any negative
    complement) is recomputed as ||V_n^H a||^2 from the same factors, so
    every value is within 1e-10 relative of the noise-subspace form.
    """
    dim = cov.r_hat.shape[0]
    check_signal_order(p_sub, dim)
    w_k, w_m = cov.spec.w_k, cov.spec.w_m
    basis = cov.eig_basis
    # rows of the basis are stacked column-wise: index m * w_k + k
    v_s = basis[:, :p_sub].reshape(w_m, w_k, p_sub).transpose(1, 0, 2)
    departure = np.linalg.norm(basis.conj().T @ basis - np.eye(dim))
    near_null = _NULL_MARGIN * (departure + _ROUNDING * dim) * dim
    r_conj, b_conj = _scan_factors(cfg, grid, w_k, w_m)
    denom = _signal_complement(r_conj, b_conj, v_s)
    _recompute_near_nulls(denom, near_null, r_conj, b_conj, basis[:, p_sub:])
    np.maximum(denom, _DENOM_FLOOR, out=denom)
    d_axis, theta_axis = grid.axes()
    return PseudoSpectrum(d_axis, theta_axis, np.divide(1.0, denom, out=denom))


@functools.lru_cache(maxsize=4)
def _scan_factors(
    cfg: RadarConfig, grid: GridSpec, w_k: int, w_m: int
) -> tuple[np.ndarray, np.ndarray]:
    """The conjugate range factors r_conj[d, k] and angle factors
    b_conj[k, theta, m] of the scan, read-only.

    They depend only on the arguments, all immutable, so one run computes
    them once instead of once per segment.
    """
    k_off = (cfg.k - w_k) / 2
    m_off = (cfg.m_r * cfg.m_t - w_m) / 2
    delta_f = cfg.b / cfg.k
    freqs = cfg.f0 + delta_f * (k_off + np.arange(w_k))
    chan = cfg.delta * (m_off + np.arange(w_m))
    d_axis, theta_axis = grid.axes()
    # conj(exp(-2j pi f p / c)) = exp(+2j pi f p / c)
    path_t = np.sin(theta_axis)[:, None] * chan[None, :]  # (n_t, w_m)
    turns_t = _phase_turns(freqs[:, None, None], path_t[None, :, :], cfg.c)
    b_conj = np.exp(2j * np.pi * turns_t)  # (w_k, n_t, w_m)
    turns_d = _phase_turns(2.0 * d_axis[:, None], freqs[None, :], cfg.c)
    r_conj = np.exp(2j * np.pi * turns_d)  # (n_d, w_k)
    r_conj.flags.writeable = False
    b_conj.flags.writeable = False
    return r_conj, b_conj


def _signal_complement(r_conj: np.ndarray, b_conj: np.ndarray, v_s: np.ndarray) -> np.ndarray:
    """w_k w_m - ||V_s^H a||^2 for every (range, angle) cell."""
    n_d, w_k = r_conj.shape
    _, n_t, w_m = b_conj.shape
    p_sub = v_s.shape[2]
    block = min(n_t, block_len(n_d * p_sub * 16))  # angles per g block
    u_buf = np.empty(w_k * block * p_sub, dtype=complex)
    g_buf = np.empty(n_d * block * p_sub, dtype=complex)
    denom = np.empty((n_d, n_t))
    for start in range(0, n_t, block):
        n_b = min(block, n_t - start)
        u = u_buf[: w_k * n_b * p_sub].reshape(w_k, n_b, p_sub)
        np.matmul(b_conj[:, start : start + n_b], v_s, out=u)
        g = g_buf[: n_d * n_b * p_sub].reshape(n_d, n_b * p_sub)
        np.matmul(r_conj, u.reshape(w_k, -1), out=g)  # a^H V_s
        g_ri = g.view(np.float64).reshape(n_d, n_b, 2 * p_sub)  # squares sum to |g|^2
        np.einsum("ijk,ijk->ij", g_ri, g_ri, out=denom[:, start : start + n_b])
    return np.subtract(w_k * w_m, denom, out=denom)


def _recompute_near_nulls(
    denom: np.ndarray,
    near_null: float,
    r_conj: np.ndarray,
    b_conj: np.ndarray,
    v_n: np.ndarray,
) -> None:
    """Overwrite each cell of ``denom`` below ``near_null`` by ||V_n^H a||^2.

    The conjugate steering vectors of the cells are formed from the range
    and angle factors, r_d[k] b_theta[m, k] at index m * w_k + k, and
    multiplied by V_n in one GEMM per block of cells.
    """
    ii, jj = np.nonzero(denom < near_null)
    dim, n_noise = v_n.shape
    b_t = b_conj.transpose(1, 2, 0)  # (angle, m, k)
    # per cell: its steering vector, its range factors and its a^H V_n
    cells = block_len((dim + r_conj.shape[1] + n_noise) * 16)
    for lo in range(0, ii.size, cells):
        i, j = ii[lo : lo + cells], jj[lo : lo + cells]
        a_conj = b_t[j]
        a_conj *= r_conj[i][:, None, :]
        g = (a_conj.reshape(-1, dim) @ v_n).view(np.float64)
        denom[i, j] = np.einsum("ij,ij->i", g, g)


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


def _neighborhood_max(v: np.ndarray) -> np.ndarray:
    """Maximum over each cell's 3 x 3 neighborhood; cells outside the grid
    read -inf. A maximum does no rounding, so this is exact."""
    padded = np.full((v.shape[0] + 2, v.shape[1] + 2), -np.inf)
    padded[1:-1, 1:-1] = v
    rows = np.maximum(np.maximum(padded[:-2], padded[1:-1]), padded[2:])
    return np.maximum(np.maximum(rows[:, :-2], rows[:, 1:-1]), rows[:, 2:])


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

    A cell is a local maximum when no in-grid neighbor exceeds it, so every
    cell of a tied plateau is one. NaN has no order: a spectrum holding NaN
    raises ``ValueError``.
    """
    if p_hat < 0:
        raise ValueError("p_hat must be non-negative")
    v = spectrum.values
    if np.isnan(v).any():
        raise ValueError("pseudo-spectrum holds NaN")
    if p_hat == 0:
        return DetectionSet([], segment_index, 0)
    ii, jj = np.nonzero(v >= _neighborhood_max(v))
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

