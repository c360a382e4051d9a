"""End-to-end processing of one recording.

Each slow-time segment is processed from its own raw rows: clutter
removal over the segment and the ``w_st - 1`` rows before it (only of the
rows that are read), a localization covariance and pseudo spectrum
(summed with the spectra of all previous segments to suppress spurious
peaks), a separately smoothed covariance for the person count, peak
extraction, spatial filtering at every detected location and tracking.
Finally each track gets one breathing estimate from its averaged
periodograms.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ConfigError,
    DerivedParams,
    PolarLocation,
    RadarConfig,
    config_from_entries,
    config_to_entries,
    derive_params,
    polar_to_cartesian,
)
from .dataio import DataError, check_finite, read_container
from .localize import (
    DetectionSet,
    GridSpec,
    PseudoSpectrum,
    SmoothingSpec,
    accumulate_spectrum,
    extract_peaks,
    music_spectrum,
    smoothed_covariance,
    snapshot_indices,
    stacked_covariance_eigenvalues,
)
from .modelorder import ModelOrderConfig, OrderDiagnostics, order_diagnostics
from .preprocess import segment, sma_filter, sma_rows
from .simulate import MeasurementCube, Scene
from .trackeval import EvalReport, Track, score_estimates, update_tracks
from .vitals import averaged_periodogram, beamform, breathing_frequency, build_filter, displacement
from .vitals import _WINDOWS
from .vitals import extract_displacement  # noqa: F401  perfbench wraps the stages by these names

@dataclass(frozen=True)
class PipelineConfig:
    """All tuning of the processing chain, with the defaults it ships with."""

    w_st: int = 64
    l_st: int = 200
    w_k_music: int = 38
    w_m_music: int = 2
    w_k_moe: int = 38
    w_m_moe: int = 3
    n_cov: int = 10
    p_sub: int = 15
    alpha: float = 3.0
    n_candidates: int = 5
    p_max: int = 15
    grid: GridSpec = field(default_factory=GridSpec)
    group_radius: float = 0.3
    track_radius: float = 0.25
    d_match: float = 0.3
    window: str = "hann"
    band_lo: float = 0.1
    band_hi: float = 0.8
    pad_factor: int = 8
    accumulate: bool = True

    def music_spec(self) -> SmoothingSpec:
        return SmoothingSpec(self.w_k_music, self.w_m_music)

    def moe_spec(self) -> SmoothingSpec:
        return SmoothingSpec(self.w_k_moe, self.w_m_moe)

    def order_config(self, k: int, m: int) -> ModelOrderConfig:
        spec = self.moe_spec()
        d_cap = min(2 * spec.n_slices(k, m), spec.w_k * spec.w_m)
        return ModelOrderConfig(self.alpha, self.n_candidates, d_cap, self.p_max)

    def validate(self, cfg: RadarConfig, derived: DerivedParams) -> None:
        """Fail early on settings the modules would reject mid-run."""
        try:
            self.music_spec().validate(cfg.k, derived.m)
            self.moe_spec().validate(cfg.k, derived.m)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.w_st < 1:
            raise ConfigError("w_st must be >= 1")
        if self.l_st < 2:
            raise ConfigError("l_st must be >= 2")
        if not 1 <= self.n_cov <= self.l_st:
            raise ConfigError("n_cov must lie in [1, l_st]")
        if not 1 <= self.p_sub < self.w_k_music * self.w_m_music:
            raise ConfigError("p_sub must be < w_k_music * w_m_music")
        self.order_config(cfg.k, derived.m)  # checks alpha, n_candidates and p_max
        if not all(r > 0 for r in (self.group_radius, self.track_radius, self.d_match)):
            raise ConfigError("radii must be positive")
        if not 0 <= self.band_lo < self.band_hi:
            raise ConfigError("breathing band must satisfy 0 <= lo < hi")
        if self.pad_factor < 1:
            raise ConfigError("pad_factor must be >= 1")
        if self.window not in _WINDOWS:
            raise ConfigError(f"unknown window {self.window!r}; choose from {sorted(_WINDOWS)}")


def pipeline_config_from_entries(entries: dict[str, str]) -> PipelineConfig:
    """Build a config from key/value entries; the grid is read under ``grid.``."""
    unknown = sorted(set(entries) - set(pipeline_config_to_entries(PipelineConfig())))
    if unknown:
        raise ConfigError(f"unknown pipeline config key {unknown[0]!r}")
    grid = config_from_entries(GridSpec, entries, "grid.")
    return config_from_entries(PipelineConfig, entries, grid=grid)


def pipeline_config_to_entries(config: PipelineConfig) -> dict[str, str]:
    return {**config_to_entries(config), **config_to_entries(config.grid, "grid.")}


@dataclass
class SegmentOutcome:
    """Everything produced while processing one segment."""

    index: int
    p_hat: int
    order: OrderDiagnostics
    detections: DetectionSet
    track_labels: list[int]
    slow_time: np.ndarray
    spectrum: PseudoSpectrum


@dataclass
class PipelineResult:
    config: PipelineConfig
    segments: list[SegmentOutcome]
    tracks: list[Track]
    accumulated: PseudoSpectrum | None

    @property
    def final_detections(self) -> DetectionSet:
        if not self.segments:
            return DetectionSet([], -1, 0)
        return self.segments[-1].detections


def run_pipeline(
    source: MeasurementCube | str | os.PathLike,
    config: PipelineConfig = PipelineConfig(),
) -> PipelineResult:
    """Process a container path or an in-memory cube.

    Deterministic for a fixed (recording, config): segments are processed
    in order and the spectrum accumulation follows that order. Segment
    ``i`` is the clutter filter applied to raw rows ``[i * l_st, (i + 1) *
    l_st + w_st - 1)``, the same rows the filtered whole recording would
    hold. Only the rows the stages read are filtered: the ``n_cov``
    covariance snapshots, and each detection's beamformer output, filtered
    in 1-D after beamforming the raw rows. No filtered copy of a segment or
    of the recording is made.
    """
    if isinstance(source, MeasurementCube):
        cube = source
        check_finite(cube.samples, "recording")
    else:
        cube = read_container(source)  # checks the samples itself
    cfg = cube.config
    derived = derive_params(cfg)
    config.validate(cfg, derived)

    w_st, l_st = config.w_st, config.l_st
    count = (cube.l - w_st + 1) // l_st
    if count < 1:  # raises (shorter than w_st) or warns (shorter than a segment)
        segment(sma_filter(cube, w_st), l_st)
    order_cfg = config.order_config(cfg.k, derived.m)
    snapshots = snapshot_indices(l_st, config.n_cov)

    tracks: list[Track] = []
    outcomes: list[SegmentOutcome] = []
    accumulated: PseudoSpectrum | None = None
    for i in range(count):
        raw = cube.samples[i * l_st : (i + 1) * l_st + w_st - 1]
        slow_time = cube.slow_time[i * l_st + w_st - 1 : (i + 1) * l_st + w_st - 1]
        try:
            # only the covariance snapshots of the filtered segment are formed
            snaps = sma_rows(raw, w_st, snapshots)
            cov_music = smoothed_covariance(snaps, config.music_spec(), len(snaps))
            spec = music_spectrum(cov_music, config.p_sub, config.grid, cfg)
            if accumulated is None or not config.accumulate:
                accumulated = spec
            else:
                accumulated = accumulate_spectrum(accumulated, spec)
            lam_moe = stacked_covariance_eigenvalues(snaps, config.moe_spec(), len(snaps))
            order = order_diagnostics(lam_moe, order_cfg)
            detections = extract_peaks(
                accumulated, order.p_hat, config.group_radius, segment_index=i
            )
            labels = update_tracks(tracks, detections, config.track_radius)
            if labels:
                # the filter is linear, so SMA(h^H x) = h^H SMA(x): beamform
                # the raw rows and filter the outputs in 1-D
                filters = [
                    build_filter(det.location, cfg, derived, config.window)
                    for det in detections.detections
                ]
                outputs = sma_rows(beamform(filters, raw), w_st)
                by_label = {t.label: t for t in tracks}
                for label, y in zip(labels, outputs.T):
                    series = displacement(y, slow_time, cfg, derived.f_c)
                    by_label[label].series.append((i, series))
        except Exception as exc:
            if hasattr(exc, "add_note"):
                exc.add_note(f"while processing segment {i}")
            elif exc.args and isinstance(exc.args[0], str):
                exc.args = (f"segment {i}: {exc.args[0]}",) + exc.args[1:]
            raise
        outcomes.append(
            SegmentOutcome(
                index=i,
                p_hat=order.p_hat,
                order=order,
                detections=detections,
                track_labels=labels,
                slow_time=slow_time,
                spectrum=spec,
            )
        )

    for track in tracks:  # each track has the series of the segment that opened it
        track.breathing_estimate = breathing_frequency(
            [vs for _, vs in track.series], (config.band_lo, config.band_hi), config.pad_factor
        )
    return PipelineResult(config, outcomes, tracks, accumulated)


def evaluate_result(result: PipelineResult, truth: Scene) -> EvalReport:
    """Score the final detection set against the ground truth at the run's
    ``d_match``; a matched estimate whose track carries a breathing rate
    also gets its error."""
    last = result.segments[-1] if result.segments else None
    rates = {t.label: t.breathing_estimate for t in result.tracks} if last else None
    estimates = [det.location for det in result.final_detections.detections]
    return score_estimates(estimates, last.track_labels if last else [], rates, truth,
                           result.config.d_match)[0]


# CSV tables: one header per table, shared by its writer and reader. A cell is
# empty for None, 0/1 for a flag, an int as is and a float by its shortest
# round-trip repr, and is quoted only when it holds ",", '"' or a line break.

_DETECTIONS = ("segment", "p_hat", "track", "d_m", "theta_rad", "x_m", "y_m", "value")
_VITALS = ("track", "segment", "t_s", "eta_m")
_BREATHING = ("track", "d_m", "theta_rad", "f_hat_hz")
_ORDER = ("segment", "index", "eigenvalue", "rd", "is_candidate", "beta", "p_hat")
_REPORT = ("id", "obstacle", "p", "p_hat", "p_md", "p_fd", "tpp", "fdp",
           "mean_loc_error_m", "median_loc_error_m")
_SPECTRUM = ("d_m", "theta_rad", "value")
_PERIODOGRAM = ("track", "f_hz", "power")
# csv.writer writes these by the cell rule: None as empty, int and str as is,
# float by repr
_PLAIN = frozenset((type(None), int, float, str))


def _cell(value):
    """``value`` as a plain scalar that ``csv.writer`` writes by the cell rule."""
    if type(value) in _PLAIN:
        return value
    return int(value) if isinstance(value, (int, np.integer, np.bool_)) else float(value)


def _table(columns: tuple[str, ...], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(map(_cell, row) for row in rows)
    return buf.getvalue()


def _read_table(path, columns: tuple[str, ...], types: tuple[type, ...]) -> list[tuple]:
    """Rows as tuples in ``columns`` order, each cell parsed by its type. A
    missing column or a cell that is not a finite number of its type is a
    ``DataError`` naming file, line and column."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for column in columns:
            if column not in (reader.fieldnames or ()):
                raise DataError(f"{path}: line {reader.line_num or 1}: missing column {column!r}")
        rows = []
        for row in reader:
            cells = []
            for column, typ in zip(columns, types):
                text = row[column]  # None when the row is short
                try:
                    value = typ(text)
                except (TypeError, ValueError):
                    value = None
                if value is None or not math.isfinite(value):
                    raise DataError(f"{path}: line {reader.line_num}, column {column!r}: "
                                    f"{text!r} is not a finite {typ.__name__}")
                cells.append(value)
            rows.append(tuple(cells))
    return rows


def detections_csv(result: PipelineResult) -> str:
    return _table(_DETECTIONS, (
        (o.index, o.p_hat, label, det.location.d, det.location.theta, xy.x, xy.y, det.value)
        for o in result.segments
        for label, det in zip(o.track_labels, o.detections.detections)
        for xy in [polar_to_cartesian(det.location)]
    ))


def read_final_detections(path) -> tuple[list[PolarLocation], list[int]]:
    """Locations and track labels of the last segment of a detections CSV."""
    rows = _read_table(path, _DETECTIONS, (int, int, int, float, float, float, float, float))
    last = max((row[0] for row in rows), default=None)
    final = [row for row in rows if row[0] == last]
    return [PolarLocation(row[3], row[4]) for row in final], [row[2] for row in final]


def vitals_csv(result: PipelineResult) -> str:
    stamps = {o.index: o.slow_time.tolist() for o in result.segments}
    return _table(_VITALS, (
        (track.label, seg, t, eta)
        for track in sorted(result.tracks, key=lambda t: t.label)
        for seg, series in track.series
        for t, eta in zip(stamps[seg], series.eta.tolist())
    ))


def breathing_csv(result: PipelineResult) -> str:
    return _table(_BREATHING, (
        (t.label, t.last_location.d, t.last_location.theta, t.breathing_estimate)
        for t in sorted(result.tracks, key=lambda t: t.label)
        if t.breathing_estimate is not None
    ))


def read_breathing_rates(path) -> dict[int, float]:
    """Breathing rate per track label from a breathing CSV."""
    return {row[0]: row[3] for row in _read_table(path, _BREATHING, (int, float, float, float))}


def periodogram_csv(result: PipelineResult) -> str:
    """Averaged breathing periodogram of every track."""
    def rows():
        for track in sorted(result.tracks, key=lambda t: t.label):
            series = [vs for _, vs in track.series]
            freqs, power = averaged_periodogram(series, result.config.pad_factor)
            yield from ((track.label, f, p) for f, p in zip(freqs.tolist(), power.tolist()))

    return _table(_PERIODOGRAM, rows())


def order_diagnostics_csv(result: PipelineResult) -> str:
    def rows():
        for o in result.segments:
            rd, cand = o.order.rd.tolist(), set(o.order.candidates)
            for i, lam in enumerate(o.order.lam.tolist()):
                yield (o.index, i + 1, lam, rd[i] if i < len(rd) else None, i in cand,
                       o.order.beta, o.p_hat)

    return _table(_ORDER, rows())


def report_csv(report: EvalReport, scenario_id: str = "", obstacle: str = "") -> str:
    return _table(_REPORT, [(
        scenario_id, obstacle, report.p, report.p_hat, report.p_md, report.p_fd,
        report.tpp, report.fdp, report.mean_location_error, report.median_location_error,
    )])


def spectrum_csv(spectrum: PseudoSpectrum) -> str:
    """Flatten a pseudo-spectrum into one ``d, theta, value`` row per grid cell."""
    thetas = spectrum.theta_axis.tolist()
    return _table(_SPECTRUM, (
        (d, theta, value)
        for d, values in zip(spectrum.d_axis.tolist(), spectrum.values.tolist())
        for theta, value in zip(thetas, values)
    ))
