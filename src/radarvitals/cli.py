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


def _write(path: str, write, *args) -> None:
    """Stream a table into ``path`` as ``write(fh, *args)`` formats it."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write(fh, *args)


def _cmd_simulate(args) -> int:
    from .core import radar_config_from_entries, walabot_config
    from .dataio import ContainerWriter, check_container_target
    from .kvfile import read_kv
    from .simulate import scene_from_entries, synthesize_rows

    check_container_target(args.out, "--out")
    scene, extras = scene_from_entries(read_kv(args.scenario))
    if args.config:
        cfg = radar_config_from_entries(read_kv(args.config), strict=True)
    else:
        cfg = walabot_config(f_st=scene.f_st)
    # every check passes before --out is opened; no cube is formed
    slow_time, blocks, imag_noise = synthesize_rows(scene, cfg)
    meta = {key.removeprefix("meta."): value for key, value in extras.items()}
    with ContainerWriter(args.out, cfg, slow_time, scene, meta) as writer:
        for _, block in blocks:
            writer.write(block)
        # the container holds the first pass; each block's imaginary noise
        # is added to its rows read back
        for rows, noise in imag_noise:
            block = writer.reread(rows)
            block.imag += noise
            writer.rewrite(rows.start, block)
    print(f"wrote {scene.l} x {cfg.k} x {cfg.m_r * cfg.m_t} cube to {args.out}")
    return 0


def _cmd_convert(args) -> int:
    from .dataio import check_container_target, convert_recording, read_raw_dir, write_container

    check_container_target(args.out, "--out")
    raw, cfg = read_raw_dir(args.raw)
    cube = convert_recording(raw, cfg)
    write_container(cube, args.out)
    print(f"converted {raw.profiles.shape[0]} sweeps to {args.out}")
    return 0


def _cmd_detect(args) -> int:
    from .pipeline import run_pipeline, write_detections, write_order_diagnostics

    config = _load_pipeline_config(args.config, accumulate=not args.no_accumulate)
    result = run_pipeline(args.infile, config, vitals=False)
    _write(args.out, write_detections, result)
    if args.order_diagnostics:
        _write(args.order_diagnostics, write_order_diagnostics, result)
    found = len(result.final_detections.detections)
    print(f"{len(result.segments)} segments, final detection count {found}")
    return 0


def _cmd_vitals(args) -> int:
    from .pipeline import run_pipeline, write_breathing, write_periodogram, write_vitals

    config = _load_pipeline_config(args.config)
    result = run_pipeline(args.infile, config)
    _write(args.out, write_vitals, result)
    if args.breathing_out:
        _write(args.breathing_out, write_breathing, result)
    if args.periodogram_out:
        _write(args.periodogram_out, write_periodogram, result)
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
    from .pipeline import PipelineConfig, read_breathing_rates, read_final_detections, write_report
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

    tpp = "n/a" if report.tpp is None else f"{report.tpp:.3f}"
    print(f"P={report.p} P_hat={report.p_hat} P_MD={report.p_md} "
          f"P_FD={report.p_fd} TPP={tpp} FDP={report.fdp:.3f}")
    if args.out:
        _write(args.out, write_report, report, header.get("meta.id", ""),
               header.get("meta.obstacle", ""))
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
        return run_pipeline(own, config, vitals=False).accumulated


def _cmd_dump_spectrum(args) -> int:
    from .pipeline import run_pipeline, write_spectrum

    config = _load_pipeline_config(args.config)
    if args.segment is None:
        spectrum = run_pipeline(args.infile, config, vitals=False).accumulated
    else:  # the segment's rows are freed before the CSV is formed
        spectrum = _segment_spectrum(args.infile, args.segment, config)
    if spectrum is None:
        raise ValueError("recording produced no spectrum (too short?)")
    _write(args.out, write_spectrum, spectrum)
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
