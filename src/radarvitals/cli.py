"""Command-line interface.

Subcommands cover the whole chain: ``simulate`` a scene into a container,
``convert`` raw recordings, ``detect`` persons and extract ``vitals`` (one
``run_pipeline`` call that writes each table of ``_TABLES`` named on the
command line; the two differ only in the table that ``--out`` names),
``evaluate`` against ground truth and ``dump-spectrum`` for plotting.
Before any command starts, ``_check_files`` refuses an output path that is
a directory, lies in a missing directory, or names one of the command's
inputs or another of its outputs.

Exit codes: 0 success, 2 usage or configuration error, 3 data error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys

# each table a run writes by ``pipeline.write_<table>``: flag, needs vitals, help
_TABLES = {
    "detections": ("--detections-out", False, "detections CSV path"),
    "order_diagnostics": ("--order-diagnostics", False, "eigenvalue/criterion CSV path"),
    "vitals": ("--vitals-out", True, "displacement CSV path"),
    "breathing": ("--breathing-out", True, "per-track breathing CSV path"),
    "periodogram": ("--periodogram-out", True, "per-track averaged periodogram CSV path"),
}
_OUT = {"detect": "detections", "vitals": "vitals"}  # the table each run's --out names


def _build_parser() -> argparse.ArgumentParser:
    from .dataio import RAW_FILES

    parser = argparse.ArgumentParser(
        prog="radarvitals",
        description="Multi-person localization and breathing estimation "
        "for stepped-frequency MIMO radar.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each command's files for _check_files: (input arguments, output
    # arguments, the file names an input directory stands for)
    p = sub.add_parser("simulate", help="synthesize a measurement container from a scene file")
    inputs = [p.add_argument("--scenario", required=True, help="scene key/value file"),
              p.add_argument("--config", help="radar config key/value file "
                             "(default: built-in sensor)")]
    p.set_defaults(files=(inputs, [p.add_argument("--out", required=True,
                                                  help="output container path")], ()))

    p = sub.add_parser("convert", help="convert a raw recording directory to a container")
    inputs = [p.add_argument("--raw", required=True, help="raw recording directory")]
    p.set_defaults(files=(inputs, [p.add_argument("--out", required=True,
                                                  help="output container path")], RAW_FILES))

    for command, help in (("detect", "run detection/localization on a container"),
                          ("vitals", "extract displacement series and breathing rates")):
        p = sub.add_parser(command, help=help)
        inputs = [p.add_argument("--in", dest="infile", required=True),
                  p.add_argument("--config", help="pipeline config key/value file")]
        p.add_argument("--no-accumulate", action="store_true", help="score each segment on "
                       "its own spectrum; applies to every table of the call")
        outputs = [p.add_argument("--out" if table == _OUT[command] else flag, dest=table,
                                  required=table == _OUT[command], help=path_help)
                   for table, (flag, _, path_help) in _TABLES.items()]
        p.set_defaults(files=(inputs, outputs, ()))

    p = sub.add_parser("evaluate", help="score detections against container ground truth")
    inputs = [p.add_argument("--in", dest="infile", required=True,
                             help="detections CSV from 'detect'"),
              p.add_argument("--truth", required=True, help="container with ground truth"),
              p.add_argument("--breathing", help="breathing CSV from 'vitals'")]
    p.set_defaults(files=(inputs, [p.add_argument("--out", help="report CSV path")], ()))
    p.add_argument("--d-match", type=float, default=None)

    p = sub.add_parser("dump-spectrum", help="export a pseudo-spectrum as CSV")
    inputs = [p.add_argument("--in", dest="infile", required=True)]
    outputs = [p.add_argument("--out", required=True)]
    p.add_argument("--segment", type=int, default=None,
                   help="single segment index (default: accumulated)")
    inputs.append(p.add_argument("--config", help="pipeline config key/value file"))
    p.set_defaults(files=(inputs, outputs, ()))
    return parser


def _check_files(args) -> None:
    """Refuse an output path that is a directory, lies in a directory that
    does not exist, or names an input or another output, before the command
    starts; inputs may coincide with each other. A path that exists is one
    file by its device and inode, so a hard link names the file it links,
    and one that does not exist yet by its real path. An input directory
    stands for its files that the command declares (``convert``'s ``--raw``
    for ``dataio.RAW_FILES``)."""
    def key(path):
        try:
            stat = os.stat(path)
        except OSError:
            return os.path.realpath(path)
        return stat.st_dev, stat.st_ino

    inputs, outputs, within = args.files
    seen = {}
    for action in inputs:
        if (path := getattr(args, action.dest)) is not None:
            flag = action.option_strings[0]
            files = [(f"{flag} {name}", os.path.join(path, name)) for name in within]
            for name, file in files or [(flag, path)]:
                seen.setdefault(key(file), name)
    for action in outputs:
        if (path := getattr(args, action.dest)) is None:
            continue
        flag = action.option_strings[0]
        if os.path.isdir(path):
            raise ValueError(f"{flag} names a directory: {path}")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"{flag} names a file in a missing directory: {path}")
        if (other := seen.setdefault(key(path), flag)) != flag:
            raise ValueError(f"{other} and {flag} name one path: {path}")


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
    from .core import radar_config_from_entries, reject_unknown, walabot_config
    from .dataio import ContainerWriter, check_container_target
    from .kvfile import read_kv
    from .simulate import scene_from_entries, synthesize_rows

    check_container_target(args.out, "--out")
    scene, extras = scene_from_entries(read_kv(args.scenario))
    if args.config:
        cfg = radar_config_from_entries(entries := read_kv(args.config))
        reject_unknown(entries, "radar config")
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
            writer.add_imag(rows.start, noise)
    print(f"wrote {scene.l} x {cfg.k} x {cfg.m_r * cfg.m_t} cube to {args.out}")
    return 0


def _cmd_convert(args) -> int:
    from .dataio import check_container_target, convert_recording, read_raw_dir, write_container

    check_container_target(args.out, "--out")
    raw, cfg = read_raw_dir(args.raw)
    write_container(convert_recording(raw, cfg), args.out)
    print(f"converted {raw.profiles.shape[0]} sweeps to {args.out}")
    return 0


def _cmd_run(args) -> int:
    """One run, then each table asked for."""
    from . import pipeline

    tables = {table: path for table in _TABLES if (path := getattr(args, table)) is not None}
    config = _load_pipeline_config(args.config, accumulate=not args.no_accumulate)
    result = pipeline.run_pipeline(args.infile, config, vitals=any(_TABLES[t][1] for t in tables))
    for table, path in tables.items():
        _write(path, getattr(pipeline, f"write_{table}"), result)
    found = len(result.final_detections.detections)
    print(f"{len(result.segments)} segments, final detection count {found}")
    for track in result.tracks:
        if track.breathing_estimate is not None:
            loc = track.last_location
            print(f"track {track.label}: d={loc.d:.3f} m theta={loc.theta:.3f} rad "
                  f"breathing {track.breathing_estimate:.4f} Hz")
    return 0


def _cmd_evaluate(args) -> int:
    from .dataio import DataError, check_header, read_header
    from .pipeline import PipelineConfig, read_breathing_rates, read_final_detections, write_report
    from .trackeval import check_radius, score_estimates

    d_match = args.d_match if args.d_match is not None else PipelineConfig().d_match
    check_radius("d_match", d_match)  # before any file is read
    header = read_header(args.truth)
    _, _, truth = check_header(header, args.truth)
    if truth is None:
        raise DataError(f"{args.truth} carries no ground truth")
    estimates, labels = read_final_detections(args.infile)
    rates = read_breathing_rates(args.breathing) if args.breathing else None
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
        if own.l < rows.stop - start:
            raise ValueError(f"segment {segment} out of range")
        return run_pipeline(own, config, vitals=False).accumulated


def _cmd_dump_spectrum(args) -> int:
    from .dataio import DataError
    from .pipeline import run_pipeline, write_spectrum

    if args.segment is not None and args.segment < 0:  # before any file is read
        raise ValueError(f"segment {args.segment} out of range")
    config = _load_pipeline_config(args.config)
    if args.segment is None:
        spectrum = run_pipeline(args.infile, config, vitals=False).accumulated
    else:  # the segment's rows are freed before the CSV is formed
        spectrum = _segment_spectrum(args.infile, args.segment, config)
    if spectrum is None:
        raise DataError(f"{args.infile}: recording is shorter than one segment, "
                        "so it has no spectrum")
    _write(args.out, write_spectrum, spectrum)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "convert": _cmd_convert,
    "detect": _cmd_run,
    "vitals": _cmd_run,
    "evaluate": _cmd_evaluate,
    "dump-spectrum": _cmd_dump_spectrum,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    from .core import ConfigError
    from .dataio import DataError

    import numpy as np

    try:
        _check_files(args)
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
