"""Person-count estimation from eigenvalue gaps.

The criterion looks at the relative drop between successive eigenvalues of
the smoothed covariance: candidate cut points are the largest local maxima
of those drops, and a cut is accepted once the eigenvalue above it
dominates the alpha-scaled mean of everything below. Because the smoothed
signal eigenvalues come in pairs (one forward, one backward direction per
return), the person count is half the accepted cut index.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import ConfigError


@dataclass(frozen=True)
class ModelOrderConfig:
    """Tuning of the eigenvalue-gap criterion.

    ``d_cap`` restricts the criterion to the leading eigenvalues; the
    smoothing window sizes introduce an artificial drop beyond
    ``min(2 * n_slices, w_k * w_m)``, so the caller caps at that index.
    ``None`` means all eigenvalues.
    """

    alpha: float = 3.0
    n_candidates: int = 5
    d_cap: int | None = None
    p_max: int = 15

    def __post_init__(self) -> None:
        if not self.alpha >= 1:
            raise ConfigError(f"alpha must be >= 1, got {self.alpha}")
        if self.n_candidates < 1:
            raise ConfigError("n_candidates must be >= 1")
        if self.p_max < 0:
            raise ConfigError("p_max must be non-negative")


def relative_distances(lam: np.ndarray, d_cap: int) -> np.ndarray:
    """Relative drop between successive eigenvalues.

    ``rd[i] = (lam[i] - lam[i+1]) / lam[i+1]`` for ``i = 0 .. d_cap - 2``.
    ``lam`` must be sorted descending with a positive leading eigenvalue;
    non-positive entries within the cap are floored (with a warning) so the
    ratios stay finite.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if lam.ndim != 1 or lam.size < 2:
        raise ValueError("need a 1-d vector of at least two eigenvalues")
    if not 2 <= d_cap <= lam.size:
        raise ValueError(f"d_cap={d_cap} not in [2, {lam.size}]")
    if lam[0] <= 0:
        raise ValueError("largest eigenvalue must be positive")
    if np.any(lam[1:] > lam[:-1] + 1e-9 * np.abs(lam[:-1]) + 1e-300):
        raise ValueError("eigenvalues must be sorted descending")
    head = lam[:d_cap]
    if np.any(head <= 0):
        warnings.warn(
            "non-positive eigenvalues floored for the gap criterion", stacklevel=2
        )
        head = np.maximum(head, 1e-300 * lam[0])
    return head[:-1] / head[1:] - 1.0


def _candidates(rd: np.ndarray, n_candidates: int) -> list[int]:
    """Indices of the largest local maxima of rd, descending index order.

    A local maximum rises strictly above its left neighbor and at least
    matches its right one; both boundaries are eligible. Value ties break
    toward the larger index.
    """
    padded = np.concatenate(([-np.inf], rd, [-np.inf]))
    is_max = (padded[1:-1] > padded[:-2]) & (padded[1:-1] >= padded[2:])
    cand = np.nonzero(is_max)[0].tolist()
    ranked = sorted(cand, key=lambda i: (-rd[i], -i))
    return sorted(ranked[:n_candidates], reverse=True)


@dataclass
class OrderDiagnostics:
    """Everything the criterion looked at, for diagnostic dumps.

    ``candidates`` are 0-based indices into ``rd``; ``beta`` is the accepted
    number of retained eigenvalues (1-based), ``None`` when no candidate
    passed the condition.
    """

    lam: np.ndarray
    rd: np.ndarray
    candidates: list[int]
    beta: int | None
    p_hat: int


def order_diagnostics(
    lam: np.ndarray, cfg: ModelOrderConfig = ModelOrderConfig()
) -> OrderDiagnostics:
    """Run the gap criterion and keep the intermediate quantities."""
    lam = np.asarray(lam, dtype=np.float64)
    if lam.size < 2:
        raise ValueError("need at least two eigenvalues")
    if lam[0] <= 0:
        # an identically zero (or negative) spectrum carries no signal
        warnings.warn("no positive eigenvalues; estimating zero persons", stacklevel=2)
        return OrderDiagnostics(lam, np.zeros(0), [], None, 0)
    d_cap = min(cfg.d_cap if cfg.d_cap is not None else lam.size, lam.size)
    rd = relative_distances(lam, d_cap)
    candidates = _candidates(rd, cfg.n_candidates)
    beta = None
    for c in candidates:  # largest index first
        b = c + 1  # number of eigenvalues kept above the cut
        tail = lam[b:d_cap]
        if lam[c] >= cfg.alpha / (d_cap - b) * tail.sum():
            beta = b
            break
    # complex returns contribute eigenvalue pairs; odd cuts round up to
    # favor detection over omission
    p_hat = 0 if beta is None else min((beta + 1) // 2, cfg.p_max)
    return OrderDiagnostics(lam, rd, candidates, beta, p_hat)


def estimate_order(
    lam: np.ndarray, cfg: ModelOrderConfig = ModelOrderConfig()
) -> int:
    """Estimated number of persons from a descending eigenvalue vector,
    ``order_diagnostics(lam, cfg).p_hat``; it stays for the benchmark."""
    return order_diagnostics(lam, cfg).p_hat
