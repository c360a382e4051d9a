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
from contextlib import nullcontext
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
    reject_unknown,
)
from .dataio import ContainerReader, DataError, check_finite
from .localize import (
    DetectionSet,
    GridSpec,
    PseudoSpectrum,
    SmoothingSpec,
    accumulate_spectrum,
    check_signal_order,
    extract_peaks,
    music_spectrum,
    smoothed_covariance,
    snapshot_indices,
    stacked_covariance_eigenvalues,
)
from .modelorder import ModelOrderConfig, OrderDiagnostics, order_diagnostics
# perfbench wraps read_container, segment, sma_filter and extract_displacement
# by these names
from .dataio import read_container  # noqa: F401
from .preprocess import segment, segment_count, sma_filter, sma_rows  # noqa: F401
from .simulate import MeasurementCube, Scene
from .trackeval import EvalReport, Track, check_radius, score_estimates, update_tracks
from .vitals import averaged_periodogram, beamform, breathing_frequency, build_filter, check_band
from .vitals import displacement, extract_displacement  # noqa: F401

# Most values a config may ask one stage to hold: the scan's spectrum cells
# plus the phase tables it caches, or the points of a breathing periodogram.
# With windows of at most k steps and m channels the tables are, per range,
# the k range factors and 2 k lag cosines and sines, and per angle the m k
# angle factors, (2 m - 1) k channel-offset phases and m k lag phases. The
# default grid needs 716 451 values with a walabot radar, and the default
# periodogram 1600 points. At the budget a spectrum takes at most 32 MB and the
# tables or the periodogram's FFT 64 MB; a 10 um range step would take GBs.
MAX_VALUES = 1 << 22

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
        """Fail early on settings the modules would reject mid-run, and on a
        scan grid or periodogram above ``MAX_VALUES``."""
        if self.grid.d_max > derived.d_max:
            raise ConfigError(f"config key 'grid.d_max' {self.grid.d_max} m exceeds the "
                              f"unambiguous range {derived.d_max} m, past which the scan aliases")
        g = self.grid
        n_d, n_t = g.shape()
        # the windows are at most k x m, which bounds the phase tables
        if (values := n_d * n_t + cfg.k * (3 * n_d + (4 * derived.m - 1) * n_t)) > MAX_VALUES:
            raise ConfigError(
                f"scan grid of {n_d} x {n_t} cells ('grid.d_max' {g.d_max}, 'grid.d_step' "
                f"{g.d_step}, 'grid.theta_max' {g.theta_max}, 'grid.theta_step' "
                f"{g.theta_step}) needs {values} values, above the budget of {MAX_VALUES}")
        if self.pad_factor < 1:
            raise ConfigError("pad_factor must be >= 1")
        if (points := self.pad_factor * self.l_st) > MAX_VALUES:
            raise ConfigError(f"periodogram of 'pad_factor' {self.pad_factor} * 'l_st' "
                              f"{self.l_st} = {points} points is above the budget of {MAX_VALUES}")
        try:
            segment_count(self.w_st - 1 + self.l_st, self.w_st, self.l_st)  # one segment
            snapshot_indices(self.l_st, self.n_cov)
            self.music_spec().validate(cfg.k, derived.m)
            self.moe_spec().validate(cfg.k, derived.m)
            check_signal_order(self.p_sub, self.w_k_music * self.w_m_music)
            check_band(self.band_lo, self.band_hi)
            build_filter(PolarLocation(0.0, 0.0), cfg, derived, self.window)
            for name in ("group_radius", "track_radius", "d_match"):
                check_radius(name, getattr(self, name))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self.order_config(cfg.k, derived.m)  # checks alpha, n_candidates and p_max
        if self.band_lo > cfg.f_st / 2:
            raise ConfigError(
                f"band_lo {self.band_lo} Hz exceeds the Nyquist rate {cfg.f_st / 2} Hz"
            )
        if (bin_hz := cfg.f_st / (self.pad_factor * self.l_st)) > self.band_hi - self.band_lo:
            raise ConfigError(f"breathing band band_lo {self.band_lo} .. band_hi "
                              f"{self.band_hi} Hz is narrower than one periodogram bin, "
                              f"{bin_hz} Hz")


def pipeline_config_from_entries(entries: dict[str, str]) -> PipelineConfig:
    """Build a config from key/value entries; the grid is read under ``grid.``."""
    reject_unknown(entries, pipeline_config_to_entries(PipelineConfig()), "pipeline config")
    grid = config_from_entries(GridSpec, entries, "grid.")
    return config_from_entries(PipelineConfig, entries, grid=grid)


def pipeline_config_to_entries(config: PipelineConfig) -> dict[str, str]:
    return {**config_to_entries(config), **config_to_entries(config.grid, "grid.")}


@dataclass
class SegmentOutcome:
    """Everything produced while processing the segment at its list position."""

    order: OrderDiagnostics
    detections: DetectionSet
    track_labels: list[int]
    slow_time: np.ndarray


@dataclass
class PipelineResult:
    config: PipelineConfig
    segments: list[SegmentOutcome]
    tracks: list[Track]  # tracks[label] is the track of that label
    accumulated: PseudoSpectrum | None

    @property
    def final_detections(self) -> DetectionSet:
        if not self.segments:
            return DetectionSet([], -1, 0)
        return self.segments[-1].detections


def run_pipeline(
    source: MeasurementCube | ContainerReader | str | os.PathLike,
    config: PipelineConfig = PipelineConfig(),
) -> PipelineResult:
    """Process an in-memory cube, or a container given by its path or as an
    open ``ContainerReader``.

    Deterministic for a fixed (recording, config): segments are processed
    in order and the spectrum accumulation follows that order. Segment
    ``i`` is the clutter filter applied to raw rows ``[i * l_st, (i + 1) *
    l_st + w_st - 1)``, the same rows the filtered whole recording would
    hold. Only the rows the stages read are filtered: the ``n_cov``
    covariance snapshots, and each detection's beamformer output, filtered
    in 1-D after beamforming the raw rows. No filtered copy of a segment or
    of the recording is made. The beamformer weights of a detection cell
    are built once per run, when a detection first falls on it, and reused
    read-only by every later detection on that cell.

    Both sources feed one segment loop through ``_raw_segments``. A
    container is read one segment at a time into one reused buffer of
    ``l_st + w_st - 1`` rows, so an on-disk run holds O(``l_st`` + ``w_st``)
    sample rows whatever the recording length. Validation runs in this
    order: the container header (when reading one), then the config, then
    the samples as they are read. Every sample row is checked for
    finiteness once, when first read, and the rows past the last segment
    after it; a non-finite sample is a ``DataError`` naming its [l, k, m].
    """
    on_disk = isinstance(source, (str, os.PathLike))
    with ContainerReader(source) if on_disk else nullcontext(source) as rec:
        cfg = rec.config
        derived = derive_params(cfg)
        config.validate(cfg, derived)

        w_st, l_st = config.w_st, config.l_st
        count = segment_count(rec.l, w_st, l_st)
        order_cfg = config.order_config(cfg.k, derived.m)
        snapshots = snapshot_indices(l_st, config.n_cov)

        weights: dict[PolarLocation, np.ndarray] = {}  # read-only, one per detection cell
        tracks: list[Track] = []
        outcomes: list[SegmentOutcome] = []
        accumulated: PseudoSpectrum | None = None
        for i, raw in enumerate(_raw_segments(rec, count, w_st, l_st)):
            slow_time = rec.slow_time[i * l_st + w_st - 1 : (i + 1) * l_st + w_st - 1]
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
                # the filter is linear, so SMA(h^H x) = h^H SMA(x): beamform the
                # raw rows and filter the outputs in 1-D
                filters = []
                for det in detections.detections:
                    if (filt := weights.get(det.location)) is None:
                        filt = weights[det.location] = build_filter(
                            det.location, cfg, derived, config.window)
                        filt.flags.writeable = False
                    filters.append(filt)
                outputs = sma_rows(beamform(filters, raw), w_st).T if filters else []
                series = [displacement(y, slow_time, cfg, derived.f_c) for y in outputs]
                labels = update_tracks(tracks, detections, config.track_radius)
                for label, vs in zip(labels, series):
                    tracks[label].series.append(vs)  # labels are list positions
            except Exception as exc:
                if hasattr(exc, "add_note"):
                    exc.add_note(f"while processing segment {i}")
                elif exc.args and isinstance(exc.args[0], str):
                    exc.args = (f"segment {i}: {exc.args[0]}",) + exc.args[1:]
                raise
            outcomes.append(
                SegmentOutcome(
                    order=order,
                    detections=detections,
                    track_labels=labels,
                    slow_time=slow_time,
                )
            )

    for track in tracks:  # each track has the series of the segment that opened it
        track.breathing_estimate = breathing_frequency(
            track.series, (config.band_lo, config.band_hi), config.pad_factor
        )
    return PipelineResult(config, outcomes, tracks, accumulated)


def _raw_segments(rec: MeasurementCube | ContainerReader, count: int, w_st: int, l_st: int):
    """Yield the raw rows ``[i * l_st, (i + 1) * l_st + w_st - 1)`` of each
    segment ``i < count``, then check the rows past the last segment.

    Each row is checked for finiteness once, when first read. A cube yields
    views of its samples. A reader reads into one buffer of
    ``l_st + w_st - 1`` rows, which each segment overwrites: the ``w_st - 1``
    rows that a segment shares with the one before it are moved to the
    front, and only its ``l_st`` new rows are read behind them. The rows
    past the last segment, fewer than a buffer, are read through it too.
    """
    span, done = l_st + w_st - 1, 0  # rows [0, done) are checked
    if isinstance(rec, MeasurementCube):
        for start in range(0, count * l_st, l_st):
            check_finite(rec.samples[done : start + span], "recording", done)
            done = start + span
            yield rec.samples[start:done]
        check_finite(rec.samples[done:], "recording", done)
        return
    buf = rec.buffer(min(span, rec.l))
    for start in range(0, count * l_st, l_st):
        kept = done - start
        buf[:kept] = buf[span - kept :]
        rec.read(done, buf[kept:])
        done = start + span
        yield buf
    rec.read(done, buf[: rec.l - done])


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
        (i, o.order.p_hat, label, det.location.d, det.location.theta, xy.x, xy.y, det.value)
        for i, o in enumerate(result.segments)
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
    """One row per track and slow-time sample. Every cell is a number, so the
    rows are written by the cell rule without ``csv.writer``: labels and
    segments as ints, stamps and displacements by ``repr``."""
    stamps = [[repr(t) for t in o.slow_time.tolist()] for o in result.segments]
    lines = [",".join(_VITALS)]
    for track in result.tracks:
        for (seg, _), series in zip(track.records, track.series):
            lines += [f"{track.label},{seg},{t},{eta!r}"
                      for t, eta in zip(stamps[seg], series.eta.tolist())]
    lines.append("")
    return "\n".join(lines)


def breathing_csv(result: PipelineResult) -> str:
    return _table(_BREATHING, (
        (t.label, t.last_location.d, t.last_location.theta, t.breathing_estimate)
        for t in result.tracks
        if t.breathing_estimate is not None
    ))


def read_breathing_rates(path) -> dict[int, float]:
    """Breathing rate per track label from a breathing CSV."""
    return {row[0]: row[3] for row in _read_table(path, _BREATHING, (int, float, float, float))}


def periodogram_csv(result: PipelineResult) -> str:
    """Averaged breathing periodogram of every track."""
    def rows():
        for track in result.tracks:
            freqs, power = averaged_periodogram(track.series, result.config.pad_factor)
            yield from ((track.label, f, p) for f, p in zip(freqs.tolist(), power.tolist()))

    return _table(_PERIODOGRAM, rows())


def order_diagnostics_csv(result: PipelineResult) -> str:
    def rows():
        for seg, o in enumerate(result.segments):
            rd, cand = o.order.rd.tolist(), set(o.order.candidates)
            for i, lam in enumerate(o.order.lam.tolist()):
                yield (seg, i + 1, lam, rd[i] if i < len(rd) else None, i in cand,
                       o.order.beta, o.order.p_hat)

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
