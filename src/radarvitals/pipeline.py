"""End-to-end processing of one recording.

Order of operations per recording: clutter removal over the whole slow
time, segmentation, then per segment a localization covariance and pseudo
spectrum (summed with the spectra of all previous segments to suppress
spurious peaks), a separately smoothed covariance for the person count,
peak extraction, spatial filtering at every detected location, tracking,
and finally one breathing estimate per track from its averaged
periodograms.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

import numpy as np

from .core import ConfigError, DerivedParams, RadarConfig, derive_params, polar_to_cartesian
from .dataio import check_finite, read_container
from .localize import (
    DetectionSet,
    GridSpec,
    PseudoSpectrum,
    SmoothingSpec,
    accumulate_spectrum,
    extract_peaks,
    music_spectrum,
    smoothed_covariance,
    stacked_covariance_eigenvalues,
)
from .modelorder import ModelOrderConfig, OrderDiagnostics, order_diagnostics
from .preprocess import segment, sma_filter
from .simulate import MeasurementCube, Scene
from .trackeval import EvalReport, Track, breathing_error, match_and_score, update_tracks
from .vitals import breathing_frequency, build_filter, extract_displacement

_CONFIG_FIELD_TYPES = {
    "w_st": int, "l_st": int, "w_k_music": int, "w_m_music": int,
    "w_k_moe": int, "w_m_moe": int, "n_cov": int, "p_sub": int,
    "alpha": float, "n_candidates": int, "p_max": int,
    "group_radius": float, "track_radius": float, "d_match": float,
    "window": str, "band_lo": float, "band_hi": float, "pad_factor": int,
    "accumulate": bool,
}
_GRID_KEYS = ("d_max", "d_step", "theta_max", "theta_step")


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
        if self.alpha < 1:
            raise ConfigError("alpha must be >= 1")
        if min(self.group_radius, self.track_radius, self.d_match) <= 0:
            raise ConfigError("radii must be positive")
        if not 0 <= self.band_lo < self.band_hi:
            raise ConfigError("breathing band must satisfy 0 <= lo < hi")
        if self.pad_factor < 1:
            raise ConfigError("pad_factor must be >= 1")


def pipeline_config_from_entries(entries: dict[str, str]) -> PipelineConfig:
    kwargs: dict = {}
    grid_kwargs: dict = {}
    for key, value in entries.items():
        if key.startswith("grid."):
            name = key[len("grid.") :]
            if name not in _GRID_KEYS:
                raise ConfigError(f"unknown grid key {key!r}")
            grid_kwargs[name] = float(value)
        elif key in _CONFIG_FIELD_TYPES:
            typ = _CONFIG_FIELD_TYPES[key]
            if typ is bool:
                kwargs[key] = value.lower() in ("1", "true", "yes", "on")
            else:
                kwargs[key] = typ(value)
        else:
            raise ConfigError(f"unknown pipeline config key {key!r}")
    if grid_kwargs:
        kwargs["grid"] = GridSpec(**grid_kwargs)
    return PipelineConfig(**kwargs)


def pipeline_config_to_entries(config: PipelineConfig) -> dict[str, str]:
    entries: dict[str, str] = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name == "grid":
            for key in _GRID_KEYS:
                entries[f"grid.{key}"] = repr(float(getattr(value, key)))
        elif isinstance(value, bool):
            entries[f.name] = "true" if value else "false"
        elif isinstance(value, float):
            entries[f.name] = repr(value)
        else:
            entries[f.name] = str(value)
    return entries


@dataclass
class SegmentOutcome:
    """Everything produced while processing one segment."""

    index: int
    p_hat: int
    order: OrderDiagnostics
    detections: DetectionSet
    track_labels: list[int]
    slow_time: np.ndarray
    spectrum: PseudoSpectrum | None = None


@dataclass
class PipelineResult:
    radar_config: RadarConfig
    derived: DerivedParams
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
    keep_segment_spectra: bool = False,
) -> PipelineResult:
    """Process a container path or an in-memory cube.

    Deterministic for a fixed (recording, config): segments are processed
    in order and the spectrum accumulation follows that order.
    """
    if isinstance(source, MeasurementCube):
        cube = source
        check_finite(cube.samples, "recording")
    else:
        cube = read_container(source)  # checks the samples itself
    cfg = cube.config
    derived = derive_params(cfg)
    config.validate(cfg, derived)

    filtered = sma_filter(cube, config.w_st)
    segmented = segment(filtered, config.l_st)
    order_cfg = config.order_config(cfg.k, derived.m)

    tracks: list[Track] = []
    outcomes: list[SegmentOutcome] = []
    accumulated: PseudoSpectrum | None = None
    for i, seg in enumerate(segmented.segments):
        try:
            cov_music = smoothed_covariance(seg.samples, config.music_spec(), config.n_cov)
            spec = music_spectrum(cov_music, config.p_sub, config.grid, cfg)
            if accumulated is None or not config.accumulate:
                accumulated = spec
            else:
                accumulated = accumulate_spectrum(accumulated, spec)
            lam_moe = stacked_covariance_eigenvalues(
                seg.samples, config.moe_spec(), config.n_cov
            )
            order = order_diagnostics(lam_moe, order_cfg)
            detections = extract_peaks(
                accumulated, order.p_hat, config.group_radius, segment_index=i
            )
            labels = update_tracks(tracks, detections, config.track_radius)
            by_label = {t.label: t for t in tracks}
            for label, det in zip(labels, detections.detections):
                filt = build_filter(det.location, cfg, derived, config.window)
                series = extract_displacement(filt, seg, derived.f_c, label=label)
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
                slow_time=seg.slow_time,
                spectrum=spec if keep_segment_spectra else None,
            )
        )

    for track in tracks:
        series = [vs for _, vs in track.series]
        if series:
            track.breathing_estimate = breathing_frequency(
                series, (config.band_lo, config.band_hi), config.pad_factor
            )
    return PipelineResult(cfg, derived, config, outcomes, tracks, accumulated)


def evaluate_result(
    result: PipelineResult, truth: Scene, d_match: float | None = None
) -> EvalReport:
    """Score the final accumulated detection set against the ground truth.

    Matched estimates inherit a relative breathing error when their track
    carries an estimate; unmatched or silent tracks contribute nothing.
    """
    if d_match is None:
        d_match = result.config.d_match
    final = result.final_detections
    estimates = [det.location for det in final.detections]
    references = [p.location for p in truth.persons]
    report = match_and_score(estimates, references, d_match)
    if result.segments:
        labels = result.segments[-1].track_labels
        by_label = {t.label: t for t in result.tracks}
        errors = []
        for ref_i, est_j, _ in report.matches:
            track = by_label.get(labels[est_j])
            if track is not None and track.breathing_estimate is not None:
                errors.append(
                    breathing_error(
                        track.breathing_estimate, truth.persons[ref_i].breath_freq
                    )
                )
        report.breathing_errors = errors
    return report


def detections_csv(result: PipelineResult) -> str:
    lines = ["segment,p_hat,track,d_m,theta_rad,x_m,y_m,value"]
    for outcome in result.segments:
        for label, det in zip(outcome.track_labels, outcome.detections.detections):
            cart = polar_to_cartesian(det.location)
            lines.append(
                f"{outcome.index},{outcome.p_hat},{label},"
                f"{det.location.d!r},{det.location.theta!r},"
                f"{cart.x!r},{cart.y!r},{det.value!r}"
            )
    return "\n".join(lines) + "\n"


def vitals_csv(result: PipelineResult) -> str:
    lines = ["track,segment,t_s,eta_m"]
    stamps = {o.index: o.slow_time for o in result.segments}
    for track in sorted(result.tracks, key=lambda t: t.label):
        for seg_idx, series in track.series:
            t = stamps[seg_idx]
            for ti, eta in zip(t, series.eta):
                lines.append(f"{track.label},{seg_idx},{float(ti)!r},{float(eta)!r}")
    return "\n".join(lines) + "\n"


def breathing_csv(result: PipelineResult) -> str:
    lines = ["track,d_m,theta_rad,f_hat_hz"]
    for track in sorted(result.tracks, key=lambda t: t.label):
        if track.breathing_estimate is None:
            continue
        loc = track.last_location
        lines.append(
            f"{track.label},{loc.d!r},{loc.theta!r},{track.breathing_estimate!r}"
        )
    return "\n".join(lines) + "\n"


def order_diagnostics_csv(result: PipelineResult) -> str:
    lines = ["segment,index,eigenvalue,rd,is_candidate,beta,p_hat"]
    for outcome in result.segments:
        order = outcome.order
        beta = "" if order.beta is None else str(order.beta)
        cand = set(order.candidates)
        for i, lam in enumerate(order.lam):
            rd = repr(float(order.rd[i])) if i < order.rd.size else ""
            lines.append(
                f"{outcome.index},{i + 1},{float(lam)!r},{rd},"
                f"{int(i in cand)},{beta},{order.p_hat}"
            )
    return "\n".join(lines) + "\n"


def report_csv(
    report: EvalReport, scenario_id: str = "", obstacle: str = ""
) -> str:
    lines = ["id,obstacle,p,p_hat,p_md,p_fd,tpp,fdp,mean_loc_error_m,median_loc_error_m"]
    tpp = "" if report.tpp is None else repr(report.tpp)
    mean_err = "" if report.mean_location_error is None else repr(report.mean_location_error)
    med_err = "" if report.median_location_error is None else repr(report.median_location_error)
    lines.append(
        f"{scenario_id},{obstacle},{report.p},{report.p_hat},{report.p_md},"
        f"{report.p_fd},{tpp},{report.fdp!r},{mean_err},{med_err}"
    )
    return "\n".join(lines) + "\n"
