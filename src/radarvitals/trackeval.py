"""Segment-to-segment person tracking and evaluation metrics."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .core import PolarLocation, polar_to_cartesian
from .localize import Detection, DetectionSet
from .simulate import Scene
from .vitals import VitalSeries


def _as_xy(loc) -> tuple[float, float]:
    if isinstance(loc, PolarLocation):
        loc = polar_to_cartesian(loc)
    return loc.x, loc.y


def _greedy_links(anchors: list, points: list, radius: float) -> list[tuple[int, int, float]]:
    """One-to-one links ``(i, j, distance)`` of the locations ``anchors[i]``
    and ``points[j]`` (polar or Cartesian), the one association rule of
    tracking and scoring.

    Every pair strictly closer than ``radius`` in the plane is a candidate;
    candidates are taken in ascending ``(distance, i, j)`` order, each ``i``
    and each ``j`` at most once.
    """
    points_xy = [_as_xy(loc) for loc in points]
    pairs = sorted(
        (dist, i, j)
        for i, (ax, ay) in enumerate(map(_as_xy, anchors))
        for j, (bx, by) in enumerate(points_xy)
        if (dist := math.hypot(bx - ax, by - ay)) < radius
    )
    used_i, used_j, links = set(), set(), []
    for dist, i, j in pairs:
        if i not in used_i and j not in used_j:
            links.append((i, j, dist))
            used_i.add(i)
            used_j.add(j)
    return links


def check_radius(name: str, value: float) -> None:
    """Raise ``ValueError`` unless the radius ``value`` is positive and finite."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be a positive finite number, got {value}")


@dataclass
class Track:
    """One person identity across segments."""

    label: int
    records: list[tuple[int, Detection]] = field(default_factory=list)
    series: list[VitalSeries] = field(default_factory=list)  # one per record
    breathing_estimate: float | None = None

    @property
    def last_location(self) -> PolarLocation:
        return self.records[-1][1].location


def update_tracks(
    tracks: list[Track], detections: DetectionSet, radius: float = 0.25
) -> list[int]:
    """Associate one segment's detections with existing tracks.

    Each track's last location is linked to the detections by the greedy
    rule of ``_greedy_links`` under ``radius``. Unassigned detections open
    new tracks labelled max + 1, max + 2, ... in order, so from an empty list
    ``tracks[label]`` is the track of ``label``. The list is extended in
    place; the return value gives the track label per detection, in order.
    """
    seg = detections.segment_index
    dets = detections.detections
    links = _greedy_links([t.last_location for t in tracks], [d.location for d in dets], radius)
    labels: list[int | None] = [None] * len(dets)
    for ti, di, _ in links:
        tracks[ti].records.append((seg, dets[di]))
        labels[di] = tracks[ti].label
    next_label = max((t.label for t in tracks), default=-1) + 1
    for di, det in enumerate(dets):
        if labels[di] is None:
            tracks.append(Track(next_label, records=[(seg, det)]))
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
    mean_location_error: float | None
    median_location_error: float | None
    breathing_errors: list[float] | None = None


def match_and_score(
    estimates: list, references: list, d_match: float = 0.3
) -> EvalReport:
    """Match references to estimates one-to-one under ``d_match`` by the
    greedy rule tracking uses (``_greedy_links``).

    Locations may be polar or Cartesian. Distance ties break toward the
    lower (reference, estimate) index pair, so the matching is
    deterministic and symmetric under relabeling.
    """
    matches = _greedy_links(references, estimates, d_match)
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
        mean_location_error=float(np.mean(errors)) if errors else None,
        median_location_error=float(statistics.median(errors)) if errors else None,
    )


def score_estimates(
    estimates: list, labels: list[int], rates: dict[int, float | None] | None,
    truth: Scene, d_match: float,
) -> tuple[EvalReport, dict[int, float]]:
    """Match estimates (track ``labels``) to the persons of ``truth``; with ``rates``
    per label, also score breathing. Returns the report and error per person index."""
    check_radius("d_match", d_match)
    report = match_and_score(estimates, [p.location for p in truth.persons], d_match)
    errors = {}
    if rates is not None:
        # in match order, for each match whose estimate's track has a rate
        for ref_i, est_j, _ in report.matches:
            f_hat = rates.get(labels[est_j])
            if f_hat is not None:
                errors[ref_i] = breathing_error(f_hat, truth.persons[ref_i].breath_freq)
        report.breathing_errors = list(errors.values())
    return report, errors


def breathing_error(estimate: float, reference: float) -> float:
    """Relative breathing-frequency error (f_hat - f_ref) / f_ref."""
    if reference <= 0:
        raise ValueError("reference breathing frequency must be positive")
    return (estimate - reference) / reference
