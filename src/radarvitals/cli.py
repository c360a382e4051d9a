"""Command-line interface.

Subcommands cover the whole chain: ``simulate`` a scene into a container,
``convert`` raw recordings, ``detect`` persons, extract ``vitals``,
``evaluate`` against ground truth and ``dump-spectrum`` for plotting.

Exit codes: 0 success, 2 usage or configuration error, 3 data error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radarvitals",
        description="Multi-person localization and breathing estimation "
        "for stepped-frequency MIMO radar.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a measurement container from a scene file")
    p.add_argument("--scenario", required=True, help="scene key/value file")
    p.add_argument("--config", help="radar config key/value file (default: built-in sensor)")
    p.add_argument("--out", required=True, help="output container path")

    p = sub.add_parser("convert", help="convert a raw recording directory to a container")
    p.add_argument("--raw", required=True, help="raw recording directory")
    p.add_argument("--out", required=True, help="output container path")

    p = sub.add_parser("detect", help="run detection/localization on a container")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True, help="detections CSV path")
    p.add_argument("--config", help="pipeline config key/value file")
    p.add_argument("--no-accumulate", action="store_true",
                   help="score each segment on its own spectrum")
    p.add_argument("--order-diagnostics", help="eigenvalue/criterion CSV path")

    p = sub.add_parser("vitals", help="extract displacement series and breathing rates")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True, help="displacement CSV path")
    p.add_argument("--breathing-out", help="per-track breathing CSV path")
    p.add_argument("--periodogram-out", help="per-track averaged periodogram CSV path")
    p.add_argument("--config", help="pipeline config key/value file")

    p = sub.add_parser("evaluate", help="score detections against container ground truth")
    p.add_argument("--in", dest="infile", required=True, help="detections CSV from 'detect'")
    p.add_argument("--truth", required=True, help="container with ground truth")
    p.add_argument("--breathing", help="breathing CSV from 'vitals'")
    p.add_argument("--out", help="report CSV path")
    p.add_argument("--d-match", type=float, default=None)

    p = sub.add_parser("dump-spectrum", help="export a pseudo-spectrum as CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--segment", type=int, default=None,
                   help="single segment index (default: accumulated)")
    p.add_argument("--config", help="pipeline config key/value file")
    return parser


def _load_pipeline_config(path: str | None, accumulate: bool = True):
    from dataclasses import replace

    from .kvfile import read_kv
    from .pipeline import PipelineConfig, pipeline_config_from_entries

    config = pipeline_config_from_entries(read_kv(path)) if path else PipelineConfig()
    return replace(config, accumulate=config.accumulate and accumulate)


def _cmd_simulate(args) -> int:
    from .core import radar_config_from_entries, walabot_config
    from .dataio import write_container
    from .kvfile import read_kv
    from .simulate import scene_from_entries, simulate

    scene, extras = scene_from_entries(read_kv(args.scenario))
    if args.config:
        cfg = radar_config_from_entries(read_kv(args.config), strict=True)
    else:
        cfg = walabot_config(f_st=scene.f_st)
    cube = simulate(scene, cfg)
    meta = {k.removeprefix("meta."): v for k, v in extras.items()}
    write_container(cube, args.out, meta=meta)
    print(f"wrote {cube.l} x {cfg.k} x {cube.samples.shape[2]} cube to {args.out}")
    return 0


def _cmd_convert(args) -> int:
    from .dataio import convert_recording, read_raw_dir, write_container

    raw, cfg = read_raw_dir(args.raw)
    cube = convert_recording(raw, cfg)
    write_container(cube, args.out)
    print(f"converted {raw.profiles.shape[0]} sweeps to {args.out}")
    return 0


def _cmd_detect(args) -> int:
    from .pipeline import detections_csv, order_diagnostics_csv, run_pipeline

    config = _load_pipeline_config(args.config, accumulate=not args.no_accumulate)
    result = run_pipeline(args.infile, config)
    Path(args.out).write_text(detections_csv(result), encoding="utf-8")
    if args.order_diagnostics:
        Path(args.order_diagnostics).write_text(
            order_diagnostics_csv(result), encoding="utf-8"
        )
    found = len(result.final_detections.detections)
    print(f"{len(result.segments)} segments, final detection count {found}")
    return 0


def _cmd_vitals(args) -> int:
    from .pipeline import breathing_csv, periodogram_csv, run_pipeline, vitals_csv

    config = _load_pipeline_config(args.config)
    result = run_pipeline(args.infile, config)
    Path(args.out).write_text(vitals_csv(result), encoding="utf-8")
    if args.breathing_out:
        Path(args.breathing_out).write_text(breathing_csv(result), encoding="utf-8")
    if args.periodogram_out:
        Path(args.periodogram_out).write_text(periodogram_csv(result), encoding="utf-8")
    for track in result.tracks:
        if track.breathing_estimate is not None:
            loc = track.last_location
            print(
                f"track {track.label}: d={loc.d:.3f} m theta={loc.theta:.3f} rad "
                f"breathing {track.breathing_estimate:.4f} Hz"
            )
    return 0


def _cmd_evaluate(args) -> int:
    from .dataio import DataError, ground_truth_from_header, read_header
    from .pipeline import PipelineConfig, read_breathing_rates, read_final_detections, report_csv
    from .trackeval import score_estimates

    header = read_header(args.truth)
    truth = ground_truth_from_header(header, args.truth)
    if truth is None:
        raise DataError(f"{args.truth} carries no ground truth")
    estimates, labels = read_final_detections(args.infile)
    rates = read_breathing_rates(args.breathing) if args.breathing else None
    d_match = args.d_match if args.d_match is not None else PipelineConfig().d_match
    report, errors = score_estimates(estimates, labels, rates, truth, d_match)
    for ref_i, err in errors.items():
        print(f"person {ref_i}: breathing error {100 * err:+.1f} %")

    text = report_csv(
        report, header.get("meta.id", ""), header.get("meta.obstacle", "")
    )
    tpp = "n/a" if report.tpp is None else f"{report.tpp:.3f}"
    print(f"P={report.p} P_hat={report.p_hat} P_MD={report.p_md} "
          f"P_FD={report.p_fd} TPP={tpp} FDP={report.fdp:.3f}")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def _segment_spectrum(path: str, segment: int, config):
    """Segment ``segment``'s own spectrum, formed from its raw rows alone,
    which make a recording of exactly one segment; only they are read."""
    from .dataio import ContainerReader
    from .pipeline import run_pipeline

    start = segment * config.l_st
    rows = slice(start, start + config.l_st + config.w_st - 1)
    with ContainerReader(path, rows) as own:
        if segment < 0 or own.l < rows.stop - start:
            raise ValueError(f"segment {segment} out of range")
        return run_pipeline(own, config).accumulated


def _cmd_dump_spectrum(args) -> int:
    from .pipeline import run_pipeline, spectrum_csv

    config = _load_pipeline_config(args.config)
    if args.segment is None:
        spectrum = run_pipeline(args.infile, config).accumulated
    else:  # the segment's rows are freed before the CSV is formed
        spectrum = _segment_spectrum(args.infile, args.segment, config)
    if spectrum is None:
        raise ValueError("recording produced no spectrum (too short?)")
    Path(args.out).write_text(spectrum_csv(spectrum), encoding="utf-8")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "convert": _cmd_convert,
    "detect": _cmd_detect,
    "vitals": _cmd_vitals,
    "evaluate": _cmd_evaluate,
    "dump-spectrum": _cmd_dump_spectrum,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    from .core import ConfigError
    from .dataio import DataError

    import numpy as np

    try:
        return _COMMANDS[args.command](args)
    # LinAlgError subclasses ValueError, so it is caught first
    except (np.linalg.LinAlgError, FloatingPointError, ZeroDivisionError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
