"""Segment-to-segment person tracking and evaluation metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import CartesianLocation, PolarLocation, polar_to_cartesian
from .localize import Detection, DetectionSet
from .simulate import Scene
from .vitals import VitalSeries


def _as_xy(loc) -> tuple[float, float]:
    if isinstance(loc, PolarLocation):
        cart = polar_to_cartesian(loc)
        return cart.x, cart.y
    if isinstance(loc, CartesianLocation):
        return loc.x, loc.y
    x, y = loc
    return float(x), float(y)


@dataclass
class Track:
    """One person identity across segments."""

    label: int
    records: list[tuple[int, Detection]] = field(default_factory=list)
    series: list[tuple[int, VitalSeries]] = field(default_factory=list)
    breathing_estimate: float | None = None

    @property
    def last_location(self) -> PolarLocation:
        return self.records[-1][1].location


def update_tracks(
    tracks: list[Track], detections: DetectionSet, radius: float = 0.25
) -> list[int]:
    """Associate one segment's detections with existing tracks.

    Greedy nearest-neighbor assignment in Cartesian distance against each
    track's last location; every track and detection is used at most once
    and distances at or above ``radius`` never link. Unassigned detections
    open new tracks. The track list is extended in place; the return value
    gives the track label per detection, in detection order.
    """
    seg = detections.segment_index
    det_xy = [_as_xy(det.location) for det in detections.detections]
    pairs = []
    for ti, track in enumerate(tracks):
        tx, ty = _as_xy(track.last_location)
        for di, (x, y) in enumerate(det_xy):
            dist = math.hypot(x - tx, y - ty)
            if dist < radius:
                pairs.append((dist, ti, di))
    pairs.sort()
    used_tracks: set[int] = set()
    labels: list[int | None] = [None] * len(det_xy)
    for _, ti, di in pairs:
        if ti in used_tracks or labels[di] is not None:
            continue
        tracks[ti].records.append((seg, detections.detections[di]))
        labels[di] = tracks[ti].label
        used_tracks.add(ti)
    next_label = max((t.label for t in tracks), default=-1) + 1
    for di, det in enumerate(detections.detections):
        if labels[di] is None:
            track = Track(next_label, records=[(seg, det)])
            tracks.append(track)
            labels[di] = next_label
            next_label += 1
    return labels  # type: ignore[return-value]


@dataclass
class EvalReport:
    """Per-scenario detection scores.

    The counts always satisfy p == p_hat + p_md - p_fd. ``tpp`` is ``None``
    when no reference persons exist.
    """

    p: int
    p_hat: int
    p_md: int
    p_fd: int
    tpp: float | None
    fdp: float
    matches: list[tuple[int, int, float]]  # (reference idx, estimate idx, distance)
    location_errors: list[float]
    mean_location_error: float | None
    median_location_error: float | None
    breathing_errors: list[float] | None = None


def match_and_score(
    estimates: list, references: list, d_match: float = 0.3
) -> EvalReport:
    """Greedy one-to-one matching in ascending distance under ``d_match``.

    Locations may be polar or Cartesian; distances are Euclidean in the
    plane. Distance ties break toward the lower (reference, estimate) index
    pair, so the matching is deterministic and symmetric under relabeling.
    """
    ref_xy = [_as_xy(loc) for loc in references]
    est_xy = [_as_xy(loc) for loc in estimates]
    pairs = []
    for ri, (rx, ry) in enumerate(ref_xy):
        for ei, (ex, ey) in enumerate(est_xy):
            dist = math.hypot(ex - rx, ey - ry)
            if dist < d_match:
                pairs.append((dist, ri, ei))
    pairs.sort()
    used_ref: set[int] = set()
    used_est: set[int] = set()
    matches: list[tuple[int, int, float]] = []
    for dist, ri, ei in pairs:
        if ri in used_ref or ei in used_est:
            continue
        matches.append((ri, ei, dist))
        used_ref.add(ri)
        used_est.add(ei)
    p = len(references)
    p_hat = len(estimates)
    p_md = p - len(matches)
    p_fd = p_hat - len(matches)
    errors = [dist for _, _, dist in matches]
    return EvalReport(
        p=p,
        p_hat=p_hat,
        p_md=p_md,
        p_fd=p_fd,
        tpp=None if p == 0 else (p - p_md) / p,
        fdp=p_fd / max(1, p_hat),
        matches=matches,
        location_errors=errors,
        mean_location_error=float(np.mean(errors)) if errors else None,
        median_location_error=float(np.median(errors)) if errors else None,
    )


def score_breathing(
    report: EvalReport, labels: list[int], rates: dict[int, float | None], truth_rates: list[float]
) -> dict[int, float]:
    """Relative breathing error per reference index, in match order, for
    each match whose estimate's track label (``labels``) has a rate."""
    errors = {}
    for ref_i, est_j, _ in report.matches:
        f_hat = rates.get(labels[est_j])
        if f_hat is not None:
            errors[ref_i] = breathing_error(f_hat, truth_rates[ref_i])
    return errors


def score_estimates(
    estimates: list, labels: list[int], rates: dict[int, float | None] | None,
    truth: Scene, d_match: float,
) -> tuple[EvalReport, dict[int, float]]:
    """Match estimates (track ``labels``) to the persons of ``truth``; with ``rates``
    per label, also score breathing. Returns the report and error per person index."""
    if not (d_match > 0 and math.isfinite(d_match)):
        raise ValueError(f"d_match must be a positive finite number, got {d_match}")
    report = match_and_score(estimates, [p.location for p in truth.persons], d_match)
    errors = {}
    if rates is not None:
        errors = score_breathing(report, labels, rates, [p.breath_freq for p in truth.persons])
        report.breathing_errors = list(errors.values())
    return report, errors


def breathing_error(estimate: float, reference: float) -> float:
    """Relative breathing-frequency error (f_hat - f_ref) / f_ref."""
    if reference <= 0:
        raise ValueError("reference breathing frequency must be positive")
    return (estimate - reference) / reference
