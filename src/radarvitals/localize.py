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
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import ConfigError, PolarLocation, RadarConfig, block_len

_DENOM_FLOOR = np.finfo(np.float64).tiny
# music_spectrum: the unit roundoff, and the multiple of the complement's error
# bound below which a cell is recomputed from the noise subspace
_UNIT = np.finfo(np.float64).eps / 2
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
    """Eigen-decomposition of a smoothed, forward-backward-averaged sample
    covariance r_fb, which itself is not kept.

    ``eigvals`` are real and sorted descending; ``eig_basis`` columns are
    the matching eigenvectors, V = Q W for the unitary Q and the real
    eigenvectors W of the real symmetric Q^H r_fb Q (see
    ``smoothed_covariance``), so r_fb = V diag(eigvals) V^H.
    """

    eigvals: np.ndarray
    eig_basis: np.ndarray
    spec: SmoothingSpec


def snapshot_indices(l: int, n_cov: int) -> np.ndarray:
    """``n_cov`` slow-time indices spread uniformly over a segment."""
    if not 1 <= n_cov <= l:
        raise ValueError(f"n_cov={n_cov} not in [1, {l}]")
    return sorted_unique(np.round(np.linspace(0, l - 1, n_cov)).astype(int))


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D array: its distinct values, ascending. numpy 2
    imports ``numpy.ma`` (about 15 ms and 1.3 MB) on a first ``np.unique``;
    a sort and an adjacent de-duplication do not."""
    a = np.sort(a)
    keep = np.ones(a.size, bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


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

    Only the first row and column of each W are summed from P. In the
    flat panel, whose rows are ``row`` = (n_b - b1) k items long, a step
    along a diagonal is a step of row + 1, so the row seeds W[0, c] =
    sum_i P[i, c + i] of all pairs are one (n_i, pairs, w_k) view with
    item strides (row + 1, k, 1), and the column seeds W[t, 0] = sum_i
    P[t + i, i] one (n_i, pairs, w_k - 1) view with strides (row + 1, k,
    row). Each is summed over its first axis in index order. Along a
    diagonal, W[k1 + 1, k2 + 1] = W[k1, k2] - P[k1, k2] + P[k1 + n_i,
    k2 + n_i]. With the block pairs q stacked last, as sums[k1, k2, q],
    that recurrence is one contiguous addition of the previous k1-row,
    shifted by one k2, per k1 over all pairs at once: O(w_k^2) additions
    per pair instead of the O(w_k^2 n_i) of summing every window.
    """
    n_parts, n_cov, k, m = snaps.shape
    n_i, n_j = k - w_k + 1, m - w_m + 1
    n_b = n_parts * w_m
    # y[p, m1, r, l, j] = snaps[p, l, r, m1 + j]
    s_p, s_l, s_r, s_m = snaps.strides
    y = as_strided(snaps, (n_parts, w_m, k, n_cov, n_j), (s_p, s_m, s_r, s_l, s_m), writeable=False)
    z = y.reshape(n_b * k, n_cov * n_j)
    z_h = z.conj().T
    # the pairs (b1, b2 >= b1) in row-major order; those of panel b1 are
    # first[b1]:first[b1 + 1]
    first = [b1 * n_b - b1 * (b1 - 1) // 2 for b1 in range(n_b + 1)]
    n_q = first[-1]
    sums = np.empty((w_k, w_k, n_q), dtype=z.dtype)
    item = z.itemsize
    for b1 in range(n_b):
        n_p, row = n_b - b1, (n_b - b1) * k
        panel = (z[b1 * k : (b1 + 1) * k] @ z_h[:, b1 * k :]).reshape(k, n_p, k)
        s = sums[:, :, first[b1] : first[b1 + 1]]
        diag = ((row + 1) * item, k * item)
        _sum_rows(np.ndarray((n_i, n_p, w_k), z.dtype, panel, 0, diag + (item,)), s[0].T)
        _sum_rows(
            np.ndarray((n_i, n_p, w_k - 1), z.dtype, panel, row * item, diag + (row * item,)),
            s[1:, 0].T,
        )
        # each step along a diagonal adds one entry of P and drops one
        np.subtract(
            panel[n_i:, :, n_i:], panel[: w_k - 1, :, : w_k - 1], out=s[1:, 1:].transpose(0, 2, 1)
        )
        del panel  # so that no two panels are held at once
    # sums[t, 1:] += sums[t - 1, :-1], one flat run of (w_k - 1) n_q per step
    steps = sums.reshape(w_k, w_k * n_q)
    for cur, prev in zip(steps[1:, n_q:], steps[:, :-n_q]):
        np.add(cur, prev, out=cur)
    out = np.empty((n_b, w_k, n_b, w_k), dtype=z.dtype)
    for b1 in range(n_b):
        s = sums[:, :, first[b1] : first[b1 + 1]]
        out[b1, :, b1:] = s.transpose(0, 2, 1)
        out[b1 + 1 :, :, b1] = s[:, :, 1:].conj().transpose(2, 1, 0)
    return out.reshape(n_b * w_k, n_b * w_k)


def _sum_rows(terms: np.ndarray, out: np.ndarray) -> None:
    """Sum ``terms`` over axis 0 into ``out``, one row after another.

    With more than one output the reduction runs row by row in index order.
    A lone output would make axis 0 the inner loop, which numpy sums
    pairwise, so that case accumulates instead.
    """
    if out.size == 1:
        out[...] = np.add.accumulate(terms, axis=0)[-1]
    else:
        np.add.reduce(terms, axis=0, out=out)


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
    snapshots into a Hermitian r, and returns the eigen-decomposition,
    sorted descending, of its forward-backward average r_fb = (r + J conj(r)
    J) / 2, J the exchange matrix.

    r_fb is centro-Hermitian, so a fixed sparse unitary Q makes Q^H r_fb Q
    real symmetric (``_real_form``; Huarng & Yeh, IEEE TSP 39(4), 1991;
    Pesavento, Gershman & Haardt, IEEE TSP 48(5), 2000). It is formed from
    r directly, so r_fb itself never is. Its real ``eigh`` costs about half
    the complex one of r_fb, and the basis is mapped back as V = Q W
    (``_unitary_basis``).
    """
    snaps = _snapshots(samples, spec, n_cov)
    n, k, m = snaps.shape
    acc = _window_gram(snaps.astype(np.complex128, copy=False)[None], spec.w_k, spec.w_m)
    r = acc / (n * spec.n_slices(k, m))
    r = 0.5 * (r + r.conj().T)  # exact hermitization before the FB step
    eigvals, w = np.linalg.eigh(_real_form(r))
    return CovarianceEstimate(
        eigvals=np.ascontiguousarray(eigvals[::-1]),
        eig_basis=_unitary_basis(w[:, ::-1]),
        spec=spec,
    )


def _real_form(r: np.ndarray) -> np.ndarray:
    """T = Q^H r_fb Q, real symmetric, for a Hermitian r and its
    forward-backward average r_fb, without forming r_fb.

    With h = n // 2, J the h x h exchange and r = [[A, u, B], [v^T, rho,
    w^T], [C, x, D]] (the middle row and column only for an odd n), the
    unitary Q = [[I, 0, iI], [0, sqrt(2), 0], [J, 0, -iJ]] / sqrt(2) has
    J_n Q = conj(Q) for the n x n exchange J_n. So Q^H (J_n conj(r) J_n) Q
    = conj(Q^H r Q), and Q^H r_fb Q = Re(Q^H r Q):
    T11 = Re(A + JDJ + BJ + JC) / 2, T33 = Re(A + JDJ - BJ - JC) / 2,
    T31 = T13^T = Im(A - JDJ + BJ - JC) / 2, T1m = Re(u + Jx) / sqrt(2),
    T3m = Im(u - Jx) / sqrt(2) and Tmm = Re(rho).
    """
    n = r.shape[0]
    h, lo = n // 2, n - n // 2  # the third block starts at lo
    a, b = r[:h, :h], r[:h, lo:][:, ::-1]  # A, BJ
    c, d = r[lo:, :h][::-1], r[lo:, lo:][::-1, ::-1]  # JC, JDJ
    add, sub, bc = a + d, a - d, b + c
    t = np.empty((n, n))
    np.multiply(np.add(add, bc).real, 0.5, out=t[:h, :h])
    np.multiply(np.subtract(add, bc).real, 0.5, out=t[lo:, lo:])
    np.multiply(np.add(sub, np.subtract(b, c, out=bc)).imag, 0.5, out=t[lo:, :h])
    t[:h, lo:] = t[lo:, :h].T
    if n % 2:
        u, x = r[:h, h], r[lo:, h][::-1]
        t[h, h] = r[h, h].real
        t[:h, h] = t[h, :h] = math.sqrt(0.5) * (u + x).real
        t[lo:, h] = t[h, lo:] = math.sqrt(0.5) * (u - x).imag
    return t


def _unitary_basis(w: np.ndarray) -> np.ndarray:
    """V = Q W for the real eigenvectors W of ``_real_form``: V_top = (W_top +
    i W_bot) / sqrt(2), V_mid = W_mid and V_bot = J (W_top - i W_bot) /
    sqrt(2)."""
    n = w.shape[0]
    h, lo = n // 2, n - n // 2
    v = np.empty((n, n), dtype=np.complex128)
    scale = math.sqrt(0.5)
    np.multiply(w[:h], scale, out=v.real[:h])
    np.multiply(w[lo:], scale, out=v.imag[:h])
    v[lo:] = v[:h][::-1].conj()
    if n % 2:
        v[h] = w[h]
    return v


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
    snaps = _snapshots(samples, spec, n_cov).astype(np.complex128, copy=False)
    n, k, m = snaps.shape
    # [Re, Im] as a [part, snapshot, step, channel] view, without a copy
    parts = snaps[..., None].view(np.float64).transpose(3, 0, 1, 2)
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

    Every steering entry has unit modulus, so ||a||^2 = dim = w_k w_m and
    the denominator is the complement dim - S with S = a^H P_s a and
    P_s = V_s V_s^H, formed once per call. The entry a[m, k] = r_d[k]
    b_theta[m, k] has a range factor r_d[k] = exp(-2j pi f_k 2d / c), and
    with uniform steps f_k = f_0 + k delta_f the product
    conj(r_d[k1]) r_d[k2] depends only on the lag tau = k2 - k1: the carrier
    cancels. So S = C_0(theta) + 2 Re sum_{tau >= 1} exp(-2j pi tau delta_f
    2d / c) C_tau(theta), a trigonometric polynomial in d as in root-MUSIC.
    C_tau sums the lag-tau diagonals of the (m1, m2) blocks of P_s, weighted
    by E_{m2 - m1}[theta, k1] = exp(-2j pi f_k1 sin(theta) (m2 - m1) delta
    / c) and F_m2[theta, tau] = exp(-2j pi tau delta_f sin(theta) x_m2 / c):
    w_m^2 GEMMs of (n_t x w_k) @ (w_k x w_k). The grid is then one real GEMM
    (n_d x 2 w_k) @ (2 w_k x n_t) against the cosines and sines of the lag
    phases. On the default grid and tuning that is about 5.7 M real
    multiply-adds per call, where the GEMM against V_s took 60 M. All phase
    tables depend only on (cfg, grid, w_k, w_m); ``_scan_factors`` caches
    them read-only, so the segments of a run share them, and the per-angle
    work runs one block of angles at a time in buffers allocated once per
    call.

    The complement differs from ||V_n^H a||^2 by aᴴ(V V^H - I)a, at most
    ||V^H V - I||_F dim, by the rounding of the lag form (see
    ``_signal_complement``), and by the drift beta of the lag form's uniform
    steps from the float steps the per-cell phases use: a unit phase of at
    most beta per steering entry, which moves the complement c by at most
    2 beta sqrt(dim c) + beta^2 dim. Each cell whose complement is below the
    least c at which these sum to 1e-10 c (the cells near a null, and any
    negative complement) is recomputed as ||V_n^H a||^2 from the per-cell
    factors, so every value is within 1e-10 relative of the noise-subspace
    form. The bounds are worst cases: on the m16 scene (seeds 1, 2, 3, 7
    and 11) the threshold is 0.115-0.126 and 4.4 % of the cells are
    recomputed on average, at most 6.8 % of a segment; the GEMM form, whose
    rounding term was taken as 2 dim eps dim, recomputed 1.3 %.
    """
    dim = cov.eig_basis.shape[0]
    check_signal_order(p_sub, dim)
    w_k, w_m = cov.spec.w_k, cov.spec.w_m
    basis = cov.eig_basis
    departure = np.linalg.norm(basis.conj().T @ basis - np.eye(dim))
    factors = _scan_factors(cfg, grid, w_k, w_m)
    denom, rounding = _signal_complement(factors, basis[:, :p_sub])
    # the least c with error + 2 b sqrt(c) <= c / _NULL_MARGIN, b = beta sqrt(dim)
    b = factors.drift * math.sqrt(dim)
    error = departure * dim + rounding + b * b
    near_null = (_NULL_MARGIN * (b + math.sqrt(b * b + error / _NULL_MARGIN))) ** 2
    _recompute_near_nulls(denom, near_null, factors.r_conj, factors.b_conj, basis[:, p_sub:])
    np.maximum(denom, _DENOM_FLOOR, out=denom)
    d_axis, theta_axis = grid.axes()
    return PseudoSpectrum(d_axis, theta_axis, np.divide(1.0, denom, out=denom))


class _ScanFactors(NamedTuple):
    """The read-only phase tables of one (cfg, grid, w_k, w_m) and two phase
    error bounds of the lag form, in radians."""

    r_conj: np.ndarray  # (n_d, w_k): conj(r_d[k]), per cell
    b_conj: np.ndarray  # (n_t, w_m, w_k): conj(b_theta[m, k]), per cell
    lag: np.ndarray  # (n_d, 2 w_k): 1, 0, then 2 cos and 2 sin of lag tau's phase
    offset: np.ndarray  # (2 w_m - 1, n_t, w_k): E_o[theta, k], o = w_m - 1 - row
    chan: np.ndarray  # (w_m, n_t, w_k): F_m[theta, tau]
    phase_err: float  # of one lag-form weight, against the uniform steps
    drift: float  # of one steering entry, the uniform steps against the float ones


@functools.lru_cache(maxsize=4)
def _scan_factors(cfg: RadarConfig, grid: GridSpec, w_k: int, w_m: int) -> _ScanFactors:
    """The phase tables of the scan and the recompute, and their errors.

    They depend only on the arguments, all immutable, so one run computes
    them once instead of once per segment. Every phase is reduced with
    ``_phase_turns``; the per-angle tables are built one block of angles at
    a time, so the reduction's temporaries stay within the block budget.

    The lag form takes the steps as uniform, f_k = f_0 + k delta_f and
    x_m = x_0 + m delta, while the float steps that the per-cell phases use
    carry rounding residuals e_k and xi_m, found exactly here. Their effect
    splits into a unit phase on each steering entry, at most ``drift``, and
    a rest that enters ``phase_err``. The lag phases tau delta_f 2d / c, up
    to 14 turns on the default grid, are taken with tau delta_f carried
    exactly; the channel phases round their float inputs, which costs at
    most 2 u times their unreduced turns (u the unit roundoff). Each table
    entry adds at most 11 u for its reduction, the 2 pi scaling and the
    exponential.
    """
    k_off = (cfg.k - w_k) / 2
    m_off = (cfg.m_r * cfg.m_t - w_m) / 2
    delta_f = cfg.b / cfg.k
    freqs = cfg.f0 + delta_f * (k_off + np.arange(w_k))
    chan = cfg.delta * (m_off + np.arange(w_m))
    # tau delta_f = lag_f + lag_err exactly
    lag_f, lag_err = _two_product(np.arange(w_k, dtype=np.float64), delta_f)
    offsets = cfg.delta * (w_m - 1 - np.arange(2 * w_m - 1))  # (m2 - m1) delta
    d_axis, theta_axis = grid.axes()
    sin_t = np.sin(theta_axis)
    n_t = sin_t.size
    path_d = 2.0 * d_axis[:, None]
    r_conj = np.exp(2j * np.pi * _phase_turns(path_d, freqs[None, :], cfg.c))
    turns_lag = _phase_turns(path_d, lag_f, cfg.c) + lag_err * path_d / cfg.c
    # conj(exp(-2j pi t)) has (cos, sin)(2 pi t) as its (real, imaginary) parts
    lag = (2.0 * np.exp(2j * np.pi * turns_lag)).view(np.float64)
    lag[:, :2] = (1.0, 0.0)
    b_conj = np.empty((n_t, w_m, w_k), dtype=complex)
    offset = np.empty((2 * w_m - 1, n_t, w_k), dtype=complex)
    chan_f = np.empty((w_m, n_t, w_k), dtype=complex)
    block = block_len((4 * w_m - 1) * w_k * 16)
    for lo in range(0, n_t, block):
        s = sin_t[lo : lo + block, None]
        b_conj[lo : lo + block] = np.exp(
            2j * np.pi * _phase_turns(freqs, (s * chan)[:, :, None], cfg.c))
        offset[:, lo : lo + block] = np.exp(
            -2j * np.pi * _phase_turns(freqs, (offsets * s).T[:, :, None], cfg.c))
        chan_f[:, lo : lo + block] = np.exp(
            -2j * np.pi * _phase_turns(lag_f, (chan * s).T[:, :, None], cfg.c))
    # residuals of the float steps from uniform ones, exactly
    e_max = max(abs(Fraction(f) - Fraction(freqs[0]) - k * Fraction(delta_f))
                for k, f in enumerate(freqs))
    xi_max = max(abs(Fraction(x) - Fraction(chan[0]) - m * Fraction(cfg.delta))
                 for m, x in enumerate(chan))
    s_max = float(np.abs(sin_t).max())
    f_max, x_max, lag_max = freqs[-1], float(np.abs(chan).max()), lag_f[-1]
    d_max = float(d_axis[-1])
    drift = 2 * math.pi * float(e_max * (2 * d_max + s_max * x_max)
                                + f_max * s_max * xi_max) / cfg.c
    turns_offset = f_max * s_max * (w_m - 1) * cfg.delta / cfg.c
    turns_chan = lag_max * s_max * x_max / cfg.c
    residual = float(e_max * (w_m - 1) * cfg.delta + lag_max * xi_max) * s_max / cfg.c
    phase_err = 33 * _UNIT + 2 * math.pi * (_UNIT * 2 * (turns_offset + turns_chan) + residual)
    for table in (r_conj, b_conj, lag, offset, chan_f):
        table.flags.writeable = False
    return _ScanFactors(r_conj, b_conj, lag, offset, chan_f, phase_err, drift)


def _signal_complement(f: _ScanFactors, v_s: np.ndarray) -> tuple[np.ndarray, float]:
    """w_k w_m - a^H P_s a for every (range, angle) cell, in the lag form, and
    a bound on its rounding.

    A computed sum of n products is off by at most n u times the sum of the
    products' moduli (u the unit roundoff; a complex product counts as two
    real ones, and a complex result gains a factor sqrt(2)). Each stage's
    products sum, in modulus, to at most the mass M = sum |P_s[i, j]|, or
    for P_s itself A = sum_l (sum_i |V_s[i, l]|)^2, so the complement is
    within u (2 sqrt(2) p_sub A + (2 sqrt(2) w_k + sqrt(2) (w_m^2 + 2) +
    2 w_k) M) + phase_err M of the lag form in exact arithmetic: forming
    P_s, the w_k-term block GEMMs, their w_m^2-term weighted sum, the
    2 w_k-term grid GEMM, and the phase errors of the weights.
    """
    n_d = f.lag.shape[0]
    w_m, n_t, w_k = f.chan.shape
    proj = v_s @ v_s.conj().T
    # diags[m1, m2, k1, tau] = P_s[(m1, k1), (m2, k1 + tau)], zero past the block
    padded = np.zeros((w_m, w_k, w_m, 2 * w_k), dtype=complex)
    padded[..., :w_k] = proj.reshape(w_m, w_k, w_m, w_k)
    s0, s1, s2, s3 = padded.strides
    diags = as_strided(padded, (w_m, w_m, w_k, w_k), (s0, s2, s1 + s3, s3), writeable=False)
    # weights[m1, m2] = E_{m2 - m1}: the offset rows, read backwards along m2
    o0, o1, o2 = f.offset.strides
    weights = as_strided(f.offset[w_m - 1], (w_m, w_m, n_t, w_k), (o0, -o0, o1, o2),
                         writeable=False)
    block = min(n_t, block_len((w_m * w_m + 1) * w_k * 16))  # angles per block
    g_buf = np.empty(w_m * w_m * block * w_k, dtype=complex)
    c_buf = np.empty(block * w_k, dtype=complex)
    denom = np.empty((n_d, n_t))
    for lo in range(0, n_t, block):
        n_b = min(block, n_t - lo)
        g = g_buf[: w_m * w_m * n_b * w_k].reshape(w_m, w_m, n_b, w_k)
        np.matmul(weights[:, :, lo : lo + n_b], diags, out=g)
        c = c_buf[: n_b * w_k].reshape(n_b, w_k)  # C[theta, tau]
        np.einsum("ijtk,jtk->tk", g, f.chan[:, lo : lo + n_b], out=c)
        np.matmul(f.lag, c.view(np.float64).T, out=denom[:, lo : lo + n_b])
    mass = float(np.abs(proj).sum())
    col_mass = float(np.square(np.abs(v_s).sum(axis=0)).sum())
    sq2 = math.sqrt(2)
    gemms = 2 * sq2 * w_k + sq2 * (w_m * w_m + 2) + 2 * w_k
    rounding = _UNIT * (2 * sq2 * v_s.shape[1] * col_mass + gemms * mass) + f.phase_err * mass
    return np.subtract(w_k * w_m, denom, out=denom), rounding


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
    # np.nonzero of the 2-D mask gives the same cells in the same order, 4x slower
    ii, jj = np.divmod(np.flatnonzero(denom < near_null), denom.shape[1])
    dim, n_noise = v_n.shape
    # per cell: its steering vector, its range factors and its a^H V_n
    cells = block_len((dim + r_conj.shape[1] + n_noise) * 16)
    for lo in range(0, ii.size, cells):
        i, j = ii[lo : lo + cells], jj[lo : lo + cells]
        a_conj = b_conj[j]
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
    ii, jj = np.divmod(np.flatnonzero(v >= _neighborhood_max(v)), v.shape[1])
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

