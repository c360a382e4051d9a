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
    DataError,
    DerivedParams,
    PolarLocation,
    RadarConfig,
    block_len,
    config_from_entries,
    config_to_entries,
    derive_params,
    polar_to_cartesian,
    reject_unknown,
)
from .dataio import ContainerReader, check_f_st
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
    sorted_unique,
    stacked_covariance_eigenvalues,
)
from .modelorder import ModelOrderConfig, OrderDiagnostics, order_diagnostics
# perfbench wraps read_container, segment, sma_filter and extract_displacement
# by these names
from .dataio import read_container  # noqa: F401
from .preprocess import segment, segment_count, segment_rows, sma_filter, sma_rows  # noqa: F401
from .simulate import MeasurementCube, Scene
from .trackeval import EvalReport, Track, check_radius, score_estimates, update_tracks
from .vitals import (averaged_periodogram, beamform, breathing_frequency, build_filter,
                     check_band, check_window, displacements, filter_matrix)
from .vitals import extract_displacement  # noqa: F401

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
            check_window(self.window)
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
    """Build a config from a copy of the entries, the grid under ``grid.``,
    and reject any key left over."""
    rest = dict(entries)
    grid = config_from_entries(GridSpec, rest, "grid.")
    config = config_from_entries(PipelineConfig, rest, grid=grid)
    reject_unknown(rest, "pipeline config")
    return config


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
    *,
    vitals: bool = True,
) -> PipelineResult:
    """Process an in-memory cube, or a container given by its path or as an
    open ``ContainerReader``.

    With ``vitals=False`` only the detections are formed: no beamformer
    weights are built, no displacement series formed and no breathing rate
    estimated, so every track has no series and no estimate. The
    detections, track labels, order diagnostics and spectra are those of a
    full run.

    Deterministic for a fixed (recording, config): segments are processed
    in order and the spectrum accumulation follows that order. Segment
    ``i`` is the clutter filter applied to raw rows ``segment_rows(i, w_st,
    l_st)``, the same rows the filtered whole recording would hold. Only
    the rows the stages read are filtered: the ``n_cov`` covariance
    snapshots, and each detection's beamformer output, filtered in 1-D
    after beamforming the raw rows. No filtered copy of a segment or of the
    recording is made. The beamformer weights of a detection cell
    are built once per run, when a detection first falls on it, and reused
    read-only by every later detection on that cell.

    Both sources feed one segment loop, ``_raw_segments``, by ``rows``: a
    reader reads one block of B = ``block_len(k m 16)`` rows (59 walabot
    rows, 1 MB) at a time into its one buffer, a cube serves each span as
    one view. The snapshots' running sums carry across a span's blocks, and
    a run with vitals beamforms the span a second time, block by block, the
    last one still in the buffer. So an on-disk run holds one block of
    sample rows whatever ``l_st`` and the recording length. Validation runs
    in this order: the container header when reading one, or else the
    cube's stamps against ``f_st`` by the readers' check, then the config,
    then the samples as they are read, screened through the filtered
    snapshots with no separate pass. A
    non-finite sample, or finite ones that would overflow the covariance
    sums, is a ``DataError`` raised before anything is formed from it.
    """
    on_disk = isinstance(source, (str, os.PathLike))
    with ContainerReader(source) if on_disk else nullcontext(source) as rec:
        cfg = rec.config
        if isinstance(rec, MeasurementCube):  # a reader checked them when opened
            check_f_st(rec.slow_time, cfg.f_st, "recording")
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
        for i, (snaps, blocks, held) in enumerate(
                _raw_segments(rec, count, w_st, l_st, snapshots)):
            slow_time = rec.slow_time[segment_rows(i, w_st, l_st)][w_st - 1 :]
            try:
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
                for det in detections.detections if vitals else ():
                    if (filt := weights.get(det.location)) is None:
                        filt = weights[det.location] = build_filter(
                            det.location, cfg, derived, config.window)
                        filt.flags.writeable = False
                    filters.append(filt)
                series = []
                if filters:
                    ys = _beamform_span(rec, blocks, held, filter_matrix(filters))
                    series = displacements(sma_rows(ys, w_st).T, slow_time, cfg, derived.f_c)
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

    if vitals:
        for track in tracks:  # each track has the series of the segment that opened it
            track.breathing_estimate = breathing_frequency(
                track.series, (config.band_lo, config.band_hi), config.pad_factor
            )
    return PipelineResult(config, outcomes, tracks, accumulated)


def _raw_segments(rec: MeasurementCube | ContainerReader, count: int, w_st: int, l_st: int,
                  snapshots: np.ndarray):
    """Yield, for each segment ``i < count``, the filtered covariance
    snapshots ``sma_rows(raw, w_st, snapshots)`` of its raw rows ``raw`` =
    ``segment_rows(i, w_st, l_st)``, those rows as blocks (slices) and the
    last block as read; then check the rows past the last segment.

    Every row is read by ``rec.rows`` one block at a time. A reader reads
    ``_row_blocks`` of B = ``block_len(k m 16)`` rows, 59 walabot rows or
    1 MB, the row block of ``simulate`` and ``ContainerWriter.add_imag``,
    into its one buffer, so whatever ``l_st`` an on-disk run holds about
    one block of sample rows. A cube serves each span as one block, a view
    of its samples, which holds no buffer and beamforms in one GEMM, as
    blocks of 2 or more rows do bit for bit. The running sums of the
    snapshots carry across a span's blocks (``_screened_snapshots``), and
    the last block stays in the buffer, read, until the next read.

    Each span is screened by its filtered snapshots and row ``l_st - 1``,
    whose window ends on the span's last row: its running sum has added
    every row, and a nan or inf sample keeps it, and the row, not finite.
    No part of these rows may exceed ``bound`` in magnitude, which fails
    for nan, inf and finite samples that would overflow the covariance
    sums; ``rec.check`` then names the first non-finite sample of the
    span, its blocks read again in order, or else the span and ``bound``.

    The bound: with each part of a snapshot at most B, a part of a product
    of two is at most 2 B^2. An entry of ``localize._window_gram`` sums
    ``snapshots.size * n_slices`` products, at most N = ``snapshots.size *
    k * m``, and its diagonal recurrence adds a difference of two partial
    sums, so no intermediate exceeds 4 N B^2. ``_parity_blocks`` folds 4
    real entries of at most N B^2, ``_real_form`` 4 of the normalized
    covariance. B^2 = max / (8 N), max the largest float, keeps every
    value below max / 2.
    """
    cfg = rec.config
    m = cfg.m_r * cfg.m_t
    # a cube's rows are views, which hold no buffer: one block per span
    size = block_len(cfg.k * m * 16) if isinstance(rec, ContainerReader) else rec.l
    screened = sorted_unique(np.append(snapshots, l_st - 1))
    bound = math.sqrt(np.finfo(np.float64).max / (8 * snapshots.size * cfg.k * m))
    done = 0  # rows [0, done) are checked
    for i in range(count):
        blocks = _row_blocks(segment_rows(i, w_st, l_st), size)
        snaps, held = _screened_snapshots(rec, blocks, w_st, screened, bound)
        done = blocks[-1].stop
        yield snaps[: snapshots.size], blocks, held
    for rows in _row_blocks(slice(done, rec.l), size):
        rec.check(rows.start, rec.rows(rows.start, rows.stop))


def _row_blocks(rows: slice, size: int) -> list[slice]:
    """``rows`` in consecutive blocks of ``size`` rows and a shorter last one.
    A last block of one row joins the one before it, so that no beamformer
    GEMM sees a single row: numpy gives that the matrix-vector product,
    whose rounding differs from the GEMM's (4.6e-14 relative at worst over
    20 random 40-row walabot arrays), while blocks of 2 or more rows give
    the GEMM's bytes."""
    starts = list(range(rows.start, rows.stop, max(size, 2)))
    if len(starts) > 1 and rows.stop - starts[-1] == 1:
        del starts[-1]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [rows.stop])]


def _screened_snapshots(rec: MeasurementCube | ContainerReader, blocks: list[slice], w_st: int,
                        screened: np.ndarray, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """The filtered rows ``screened`` of the span of ``blocks``, read one
    block at a time, and the last block as read; ``_raw_segments`` screens
    them against ``bound``. The running sums live and die in this call, so
    none is kept while the segment is processed."""
    held = [None]

    def read():
        for rows in blocks:
            held[0] = rec.rows(rows.start, rows.stop)
            yield held[0]

    # a nan, inf or overflowing sample would warn in the sums before its error
    with np.errstate(over="ignore", invalid="ignore"):
        snaps = sma_rows(read(), w_st, screened)
    if not np.abs(snaps.view(np.float64)).max() <= bound:
        for rows in blocks:
            rec.check(rows.start, rec.rows(rows.start, rows.stop))
        # no sample is non-finite: the error names the whole span
        rec.check(blocks[0].start, held[0][:0], bound, blocks[-1].stop)
    return snaps, held[0]


def _beamform_span(rec: MeasurementCube | ContainerReader, blocks: list[slice],
                   held: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``beamform(h, raw)`` of the raw rows of ``blocks``, (span, filter),
    formed one block at a time into one output: the last block from
    ``held``, still in the buffer, then the others read again in order."""
    first = blocks[0].start
    out = np.empty((blocks[-1].stop - first, h.shape[1]), np.result_type(held, h))
    beamform(h, held, out[blocks[-1].start - first :])
    for rows in blocks[:-1]:
        beamform(h, rec.rows(rows.start, rows.stop), out[rows.start - first : rows.stop - first])
    return out


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
# Each table has one writer, write_<table>(fh, ...), which streams it into an
# open text file; detections_csv, breathing_csv and report_csv return the
# same text as a string.

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


def _write_table(fh, columns: tuple[str, ...], rows) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(map(_cell, row) for row in rows)


def _text(write, *args) -> str:
    """The table ``write(fh, *args)`` writes, as a string."""
    buf = io.StringIO()
    write(buf, *args)
    return buf.getvalue()


def _read_table(path, columns: tuple[str, ...], types: tuple[type, ...],
                blank: tuple[str, ...] = (), key: tuple[str, ...] = ()) -> list[tuple]:
    """Rows as tuples in ``columns`` order, each cell parsed by its type. A
    missing column or a cell that is not a finite number of its type is a
    ``DataError`` naming file, line and column. A row whose ``blank`` cells
    are all empty holds None in them. A row whose ``key`` cells, the last not
    None, repeat those of an earlier row is a ``DataError`` naming both lines."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for column in columns:
            if column not in (reader.fieldnames or ()):
                raise DataError(f"{path}: line {reader.line_num or 1}: missing column {column!r}")
        rows, lines = [], {}
        for row in reader:
            empty = blank if all(row[column] == "" for column in blank) else ()
            cells = []
            for column, typ in zip(columns, types):
                text = row[column]  # None when the row is short
                if column in empty:
                    cells.append(None)
                    continue
                try:
                    value = typ(text)
                except (TypeError, ValueError):
                    value = None
                if value is None or not math.isfinite(value):
                    raise DataError(f"{path}: line {reader.line_num}, column {column!r}: "
                                    f"{text!r} is not a finite {typ.__name__}")
                cells.append(value)
            named = tuple(cells[columns.index(column)] for column in key)
            if named and named[-1] is not None:
                if (first := lines.setdefault(named, reader.line_num)) != reader.line_num:
                    raise DataError(f"{path}: line {reader.line_num}, column {key[-1]!r}: "
                                    f"{named[-1]} repeats line {first}")
            rows.append(tuple(cells))
    return rows


def write_detections(fh, result: PipelineResult) -> None:
    """One row per detection, and one for each segment without detections,
    whose detection cells are empty."""
    def rows():
        for i, o in enumerate(result.segments):
            if not o.detections.detections:
                yield (i, o.order.p_hat) + (None,) * (len(_DETECTIONS) - 2)
            for label, det in zip(o.track_labels, o.detections.detections):
                xy = polar_to_cartesian(det.location)
                yield (i, o.order.p_hat, label, det.location.d, det.location.theta, xy.x, xy.y,
                       det.value)

    _write_table(fh, _DETECTIONS, rows())


def detections_csv(result: PipelineResult) -> str:
    return _text(write_detections, result)


def read_final_detections(path) -> tuple[list[PolarLocation], list[int]]:
    """Locations and track labels of the last segment of a detections CSV; a
    row with empty detection cells stands for a segment without detections."""
    rows = _read_table(path, _DETECTIONS, (int, int, int, float, float, float, float, float),
                       blank=_DETECTIONS[2:], key=("segment", "track"))
    last = max((row[0] for row in rows), default=None)
    final = [row for row in rows if row[0] == last and row[2] is not None]
    return [PolarLocation(row[3], row[4]) for row in final], [row[2] for row in final]


def write_vitals(fh, result: PipelineResult) -> None:
    """One row per track and slow-time sample, written one series at a time.
    Every cell is a number, so the rows are written by the cell rule without
    ``csv.writer``: labels and segments as ints, stamps and displacements by
    ``repr``. Each series formats its label and segment once, as the prefix
    of its rows."""
    stamps = [[repr(t) for t in o.slow_time.tolist()] for o in result.segments]
    fh.write(",".join(_VITALS) + "\n")
    for track in result.tracks:
        for (seg, _), series in zip(track.records, track.series):
            prefix = f"{track.label},{seg},"
            fh.write("".join([f"{prefix}{t},{eta!r}\n"
                              for t, eta in zip(stamps[seg], series.eta.tolist())]))


def write_breathing(fh, result: PipelineResult) -> None:
    _write_table(fh, _BREATHING, (
        (t.label, t.last_location.d, t.last_location.theta, t.breathing_estimate)
        for t in result.tracks
        if t.breathing_estimate is not None
    ))


def breathing_csv(result: PipelineResult) -> str:
    return _text(write_breathing, result)


def read_breathing_rates(path) -> dict[int, float]:
    """Breathing rate per track label from a breathing CSV."""
    rows = _read_table(path, _BREATHING, (int, float, float, float), key=("track",))
    return {row[0]: row[3] for row in rows}


def write_periodogram(fh, result: PipelineResult) -> None:
    """Averaged breathing periodogram of every track."""
    def rows():
        for track in result.tracks:
            freqs, power = averaged_periodogram(track.series, result.config.pad_factor)
            yield from ((track.label, f, p) for f, p in zip(freqs.tolist(), power.tolist()))

    _write_table(fh, _PERIODOGRAM, rows())


def write_order_diagnostics(fh, result: PipelineResult) -> None:
    def rows():
        for seg, o in enumerate(result.segments):
            rd, cand = o.order.rd.tolist(), set(o.order.candidates)
            for i, lam in enumerate(o.order.lam.tolist()):
                yield (seg, i + 1, lam, rd[i] if i < len(rd) else None, i in cand,
                       o.order.beta, o.order.p_hat)

    _write_table(fh, _ORDER, rows())


def write_report(fh, report: EvalReport, scenario_id: str = "", obstacle: str = "") -> None:
    _write_table(fh, _REPORT, [(
        scenario_id, obstacle, report.p, report.p_hat, report.p_md, report.p_fd,
        report.tpp, report.fdp, report.mean_location_error, report.median_location_error,
    )])


def report_csv(report: EvalReport, scenario_id: str = "", obstacle: str = "") -> str:
    return _text(write_report, report, scenario_id, obstacle)


def write_spectrum(fh, spectrum: PseudoSpectrum) -> None:
    """Flatten a pseudo-spectrum into one ``d, theta, value`` row per grid cell."""
    thetas = spectrum.theta_axis.tolist()
    _write_table(fh, _SPECTRUM, (
        (d, theta, value)
        for d, values in zip(spectrum.d_axis.tolist(), spectrum.values.tolist())
        for theta, value in zip(thetas, values)
    ))
