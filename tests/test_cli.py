"""The CLI's contract as one table of cases: an argv run in an empty
directory after its setup has built the files it names, its exit code, a
regular expression its stderr must contain, and the files it must leave
unchanged or must not write; no case may print a traceback. They run here
through ``cli.main``, and in ``tests/cli_processes.py`` as fresh processes
of the installed ``radarvitals`` script.

``CASES`` maps ``<module>::<test>`` to the cases that test runs: a dict of
them by parameter id, or a case or a list that it runs in turn. Groups keep
the names and modules of the tests they replaced; ``in_process_tests`` makes
each module's tests.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import os
import re
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import radarvitals as rv
from radarvitals import cli, pipeline
from radarvitals.kvfile import read_kv, write_kv
from helpers import breather, raw_recording_of, scene_of, small_config

WALABOT = rv.walabot_config(10.0)
DETECTIONS_HEAD = "segment,p_hat,track,d_m,theta_rad,x_m,y_m,value\n"


@dataclass(frozen=True)
class Case:
    argv: str
    code: int
    err: str = ""
    setup: tuple = ()
    unchanged: tuple[str, ...] = ()
    absent: tuple[str, ...] = ()


# setup steps: each builds files in the case's directory


@functools.cache
def _container(l=264, truth=True, samples=()) -> bytes:
    """One person at 2 m, ``l`` samples (264: one segment, so that ``detect``
    runs), with each (index, value) of ``samples`` set."""
    cube = rv.simulate(scene_of([breather(2.0, 0.0)], l=l, noise_std=0.1, seed=4), WALABOT)
    for index, value in samples:
        cube.samples[index] = value
    if not truth:
        cube.ground_truth = None
    with tempfile.TemporaryDirectory() as tmp:
        rv.write_container(cube, Path(tmp) / "c.rvc")
        return (Path(tmp) / "c.rvc").read_bytes()


def container(name="rec.rvc", edit=lambda data: data, **kwargs):
    return lambda d: (d / name).write_bytes(edit(_container(**kwargs)))


def header(*lines, c=b"c"):
    """An edit of a container that names the speed of light ``c`` and adds
    ``lines`` before ``end_header``."""
    def edit(data):
        head, sep, payload = data.partition(b"\nend_header\n")
        head = head.replace(b"\nc ", b"\n" + c + b" ")
        return b"".join([head, *(b"\n" + line for line in lines), sep, payload])
    return edit


@functools.cache
def _raw_files() -> tuple[tuple[str, bytes], ...]:
    """A raw directory of two sweeps of the sensor in an empty room."""
    with tempfile.TemporaryDirectory() as tmp:
        rv.write_raw_dir(tmp, raw_recording_of(rv.simulate(scene_of([], l=2), WALABOT)), WALABOT)
        return tuple((name, (Path(tmp) / name).read_bytes()) for name in os.listdir(tmp))


def raw(edit=lambda raw_dir: None):
    def build(d):
        (d / "raw").mkdir()
        for name, data in _raw_files():
            (d / "raw" / name).write_bytes(data)
        edit(d / "raw")
    return build


def raw_kv(edit):
    return lambda raw_dir: write_kv(raw_dir / "raw.kv", edit(read_kv(raw_dir / "raw.kv")))


def raw_file(name, data):
    """A raw-directory edit that deletes the file ``name`` for None, or else
    writes ``data``: bytes, an array, or a function of the file's bytes."""
    def edit(raw_dir):
        path = raw_dir / name
        if data is None:
            path.unlink()
        elif isinstance(data, np.ndarray):
            np.save(path, data)
        else:
            path.write_bytes(data(path.read_bytes()) if callable(data) else data)
    return edit


def profiles(index, value):
    def edit(raw_dir):
        data = np.load(raw_dir / "profiles.npy")
        data[index] = value
        np.save(raw_dir / "profiles.npy", data)
    return edit


def text(name, content):
    """A file of ``content``: text, or key/value entries."""
    if isinstance(content, dict):
        return lambda d: write_kv(d / name, content)
    return lambda d: (d / name).write_text(content, encoding="utf-8")


def stray(entries):
    """``entries`` with ``C`` in place of any ``c`` and a ``bogus`` key."""
    return {**{("C" if k == "c" else k): v for k, v in entries.items()}, "bogus": "1"}


REC = container()
SCENE = text("scene.kv", "l 4\nid s01\nmeta.room a\n")
DETECTIONS = text("det.csv", DETECTIONS_HEAD)
_ITEMS = {"l": "10", "person.0.d": "2.0", "person.0.theta": "0.0", "person.1.d": "1.0",
          "person.1.theta": "0.2", "reflector.0.d": "1.5", "reflector.0.theta": "0.1"}


def radar(cfg=WALABOT, **extra):
    return text("radar.kv", {**rv.core.config_to_entries(cfg), **extra})


def scene(value):
    return text("scene.kv", rv.scene_to_entries(value))


# row shapes: each command refusing its input, with the message as text


def _exactly(message):
    return rf"\A{re.escape(message)}\n\Z"


def simulate(setup, message, extra="", keep=False):
    """``simulate`` refusing its input, or with ``keep`` refusing it before it
    opens an ``--out`` that exists."""
    files = {"unchanged" if keep else "absent": ("x.rvc",)}
    setup = (*setup, text("x.rvc", "RVC1\nkept\n")) if keep else setup
    return Case(f"simulate --scenario scene.kv{extra} --out x.rvc", 2, re.escape(message), setup,
                **files)


def detect(setup, message, extra="", code=3):
    return Case(f"detect --in rec.rvc{extra} --out o.csv", code, re.escape(message), setup,
                absent=("o.csv",))


def convert(edit, message, code):
    return Case("convert --raw raw --out x.rvc", code, message, (raw(edit),), absent=("x.rvc",))


def evaluate(setup, message, extra=""):
    return Case(f"evaluate --in det.csv --truth rec.rvc{extra}", 3, re.escape(message), setup)


def _output_names_input(argv, flag):
    files = ("scene.kv", "radar.kv", "raw/raw.kv", "raw/profiles.npy", "raw/slow_time.npy",
             "det.csv", "rec.rvc", "breath.csv", "pipe.kv")
    out = argv.split()[-1]
    return Case(argv, 2, _exactly(f"error: {flag} and --out name one path: {out}"),
                (lambda d: (d / "raw").mkdir(), *(text(name, f"{name}\n") for name in files)),
                unchanged=(out,))


CASES: dict[str, Case | dict[str, Case] | list[Case]] = {
    "test_cli::test_cli_case": {
        # a passing call of every command, on the files the other cases break
        "simulate": Case("simulate --scenario scene.kv --config radar.kv --out x.rvc", 0,
                         setup=(SCENE, radar())),
        "convert": Case("convert --raw raw --out x.rvc", 0, setup=(raw(),)),
        "detect": Case("detect --in rec.rvc --config pipe.kv --out det.csv", 0, setup=(
            REC, text("pipe.kv", rv.pipeline_config_to_entries(rv.PipelineConfig())))),
        "vitals": Case("vitals --in rec.rvc --out eta.csv --breathing-out b.csv", 0, setup=(REC,)),
        "evaluate": Case("evaluate --in det.csv --truth rec.rvc --out report.csv", 0,
                         setup=(REC, DETECTIONS)),
        "dump-spectrum": Case("dump-spectrum --in rec.rvc --out s.csv --segment 0", 0,
                              setup=(REC,)),
        "detect nan sample": detect((container(samples=(((100, 4, 5), np.nan),)),),
                                    "data error: rec.rvc: sample [100, 4, 5] is (nan"),
        "detect overflowing samples": detect(
            (container(samples=(((100, 4, 5), 1e160), ((101, 4, 5), 1e160))),),
            "data error: rec.rvc: rows [0, 263) are finite, but"),
        "detect unknown header key": detect((container(edit=header(b"bogus 1")),),
                                            "unknown container header key 'bogus'"),
        # evaluate reads the header by the rule detect reads it by
        **{f"evaluate {name}": evaluate(
            (container(edit=edit), DETECTIONS),
            f"data error: rec.rvc: bad or missing header field: {message}")
           for name, edit, message in [
               ("unknown header key", header(b"bogus 1"), "unknown container header key 'bogus'"),
               ("misspelt header key", header(b"bogus 1", c=b"C"),
                "unknown container header key 'C'"),
               ("unknown truth key", header(b"truth.bogus 1"),
                "unknown container header key 'truth.bogus'"),
               ("malformed truth", lambda data: data.replace(b"\ntruth.person.0.d 2.0", b"", 1),
                "missing config key 'truth.person.0.d'"),
           ]},
        **{f"dump-spectrum segment {segment}": Case(
            f"dump-spectrum --in rec.rvc --out s.csv --segment {segment}", 2,
            _exactly(f"error: segment {segment} out of range{message}"), (REC,),
            absent=("s.csv",))
           for segment, message in ((1, ": the recording has 1 segment"), (-1, ""))},
        # one interval has no spread to scale its deviation from 1 / f_st by
        "simulate two jittered samples": Case(
            "simulate --scenario scene.kv --out x.rvc", 0,
            setup=(text("scene.kv", "l 2\nslow_time_jitter 0.002\nseed 1\n"),)),
        # two intervals, so one degree of freedom: 10 standard errors refused
        # this seed's stamps (exit 3), the 2e-6 quantile of t admits them
        "simulate three jittered samples": Case(
            "simulate --scenario scene.kv --out x.rvc", 0,
            setup=(text("scene.kv", "l 3\nslow_time_jitter 0.002\nseed 22\n"),)),
        "convert nan profile sample": convert(
            profiles((1, 2, 7), np.nan), r"data error: raw: profiles: sample \[1, 2, 7\] is \(nan",
            3),
        "convert unknown raw.kv key": convert(raw_kv(lambda entries: {**entries, "bogus": "1"}),
                                              "error: unknown raw.kv key 'bogus'", 2),
    },
    # an argument that needs no file is refused before any input is read, so
    # a missing input does not hide it
    "test_cli::test_cli_argument_checked_before_the_inputs": {
        "evaluate --d-match": Case("evaluate --in nope.csv --truth nope.rvc --d-match=nan", 2,
                                   _exactly("error: d_match must be a positive finite number, "
                                            "got nan")),
        "dump-spectrum --segment": Case("dump-spectrum --in nope.rvc --out s.csv --segment -1", 2,
                                        _exactly("error: segment -1 out of range"),
                                        absent=("s.csv",)),
    },
    # the path rule's cases past those of the three groups of test_pipeline
    "test_cli::test_cli_path_rule": {
        "dump-spectrum --out names its --in": Case(
            "dump-spectrum --in rec.rvc --out rec.rvc", 2,
            _exactly("error: --in and --out name one path: rec.rvc"), (REC,),
            unchanged=("rec.rvc",)),
        "simulate --out hard-links --scenario": Case(
            "simulate --scenario scene.kv --out hs.kv", 2,
            _exactly("error: --scenario and --out name one path: hs.kv"),
            (SCENE, lambda d: os.link(d / "scene.kv", d / "hs.kv")), unchanged=("scene.kv",)),
        "dump-spectrum --out hard-links --in": Case(
            "dump-spectrum --in rec.rvc --out r.rvc", 2,
            _exactly("error: --in and --out name one path: r.rvc"),
            (REC, lambda d: os.link(d / "rec.rvc", d / "r.rvc")), unchanged=("rec.rvc",)),
        "detect output in a missing directory": Case(
            "detect --in rec.rvc --out det.csv --breathing-out nodir/b.csv", 2,
            _exactly("error: --breathing-out names a file in a missing directory: nodir/b.csv"),
            (REC,), absent=("det.csv",)),
    },
    "test_pipeline::test_cli_usage_error_exit_code":
        Case("detect", 2, "the following arguments are required: --in, --out"),
    "test_pipeline::test_cli_missing_file_is_data_error":
        Case("detect --in nope.rvc --out o.csv", 3, r"data error: .*nope\.rvc", absent=("o.csv",)),
    "test_pipeline::test_cli_bad_container_is_data_error":
        Case("detect --in bad.rvc --out o.csv", 3, r"data error: bad\.rvc",
             (text("bad.rvc", "not a container"),), absent=("o.csv",)),
    "test_pipeline::test_cli_evaluate_without_truth_is_data_error":
        Case("evaluate --in det.csv --truth plain.rvc", 3,
             re.escape("data error: plain.rvc carries no ground truth"),
             (container("plain.rvc", l=4, truth=False), DETECTIONS)),
    "test_pipeline::test_cli_bad_scene_key_is_usage_error":
        simulate((text("scene.kv", "l 10\nwhoops 3\n"),), "unknown scene key 'whoops'"),
    "test_pipeline::test_cli_scene_missing_key_is_usage_error":
        simulate((text("scene.kv", "l 10\nperson.0.theta 0.1\n"),), "'person.0.d'"),
    "test_pipeline::test_cli_bad_scene_item_names_it": {
        name: Case("simulate --scenario scene.kv --out x.rvc", 2, _exactly(f"error: {message}"),
                   (text("scene.kv", {**_ITEMS, key: value}),), absent=("x.rvc",))
        for name, key, value, message in [
            ("range", "person.1.d", "-1", "person.1: range must be non-negative, got -1.0"),
            ("breath_freq", "person.1.breath_freq", "-0.1",
             "person.1: breath_freq must be positive"),
            ("azimuth", "reflector.0.theta", "2",
             "reflector.0: azimuth must lie in (-pi/2, pi/2), got 2.0"),
            # a parse error names the key itself and gets no prefix
            ("parse_error", "person.1.breath_freq", "abc",
             "bad value for config key 'person.1.breath_freq': 'abc' is not a finite float"),
        ]
    },
    # an index is read only in its canonical decimal form, so person.01.d is
    # not taken for person.1.d
    "test_pipeline::test_cli_malformed_scene_item_key_is_usage_error": {
        key: simulate((text("scene.kv", f"l 10\n{key} 1.0\n"),), f"malformed key {key!r}")
        for key in ["person.x.d", "person.0", "person.01.d", "person.-1.d", "reflector.+1.d"]
    },
    "test_pipeline::test_cli_unknown_radar_config_key_is_usage_error":
        simulate((SCENE, radar(delta_tt="0.5")), "unknown radar config key 'delta_tt'",
                 " --config radar.kv"),
    "test_dataio::test_cli_simulate_rejects_a_radar_rate_other_than_the_scene_s":
        simulate((scene(scene_of([breather(1.5, 0.2)], l=8)), radar(small_config(f_st=5.0))),
                 "radar f_st 5.0 Hz differs from the scene's f_st 10.0 Hz", " --config radar.kv"),
    # a failing scene leaves a file already at --out as it was
    "test_simulate::test_cli_simulate_validates_before_opening_out": [
        simulate((scene(scene_of([breather(1.5, 10.0)], l=8)), radar(small_config(f_st=5.0))),
                 "radar f_st 5.0 Hz differs", " --config radar.kv", keep=True),
        simulate((scene(scene_of([breather(1.5, 10.0, f_b=6.0)], l=8)),), "breath_freq 6.0 Hz",
                 keep=True),
        simulate((scene(scene_of([rv.PersonModel(rv.PolarLocation(2.0, 0.0), heart_freq=6.0,
                                                 heart_amp=1e-4)], l=8)),), "heart_freq 6.0 Hz",
                 keep=True),
    ],
    "test_pipeline::test_cli_bad_pipeline_config_is_usage_error": [
        detect((REC, text("pipe.kv", line + "\n")), repr(line.split()[0]), " --config pipe.kv", 2)
        for line in ("grid.d_step 0", "grid.theta_step 0", "grid.d_step -0.1",
                     "grid.theta_max 1.6", "grid.d_max -1", "grid.d_max 20", "accumulate ture",
                     "alpha nan")
    ],
    "test_pipeline::test_cli_zero_window_or_pad_factor_is_usage_error": {
        f"{line}-{message}": detect((REC, text("pipe.kv", line + "\n")), message,
                                    " --config pipe.kv", 2)
        for line, message in [("w_st 0", "window w_st must be >= 1, got 0"),
                              ("pad_factor 0", "pad_factor must be >= 1")]
    },
    "test_dataio::test_cli_detect_on_inconsistent_header_is_data_error":
        detect((container(edit=lambda data: data.replace(b"\nm 8\n", b"\nm 9\n", 1)),),
               "header m=9 inconsistent with m_r*m_t=8"),
    "test_dataio::test_cli_detect_on_bad_slow_time_is_data_error":
        detect((container(edit=lambda data: data.replace(b",26.3\n", b",nan\n", 1)),),
               "rec.rvc: bad value for config key 'slow_time': 'nan'"),
    # no index names a segment of a recording without one, so --segment gets
    # the whole recording's warning, error and exit code
    "test_pipeline::test_cli_dump_spectrum_of_a_recording_without_a_segment": [
        Case(f"dump-spectrum --in short.rvc --out s.csv{segment}", code, err,
             (container("short.rvc", l=l),), absent=("s.csv",))
        for l, code, err in [
            (100, 3, r"UserWarning: .*which needs w_st - 1 \+ l_st = 64 - 1 \+ 200 = 263(.|\n)*"
                     r"data error: short\.rvc: recording is shorter than one segment"),
            (10, 2, _exactly("error: window w_st=64 exceeds recording length 10"))]
        for segment in ("", " --segment 0", " --segment 3")
    ],
    "test_pipeline::test_cli_evaluate_rejects_bad_d_match": {
        value: Case(f"evaluate --in det.csv --truth rec.rvc --d-match={value}", 2,
                    "error: .*d_match", (REC, DETECTIONS))
        for value in ["nan", "-1", "0", "inf"]
    },
    "test_pipeline::test_cli_evaluate_bad_csv_is_data_error": {
        name: evaluate((REC, text("det.csv", detections),
                        *([text("br.csv", breathing)] if breathing else [])),
                       f"column {column!r}", " --breathing br.csv" if breathing else "")
        for name, detections, breathing, column in [
            ("two-columns", "segment,d_m\n0,1.5\n", None, "p_hat"),
            ("no-f_hat_hz", DETECTIONS_HEAD + "0,1,0,1.5,0.0,0.0,1.5,9.0\n",
             "track,d_m,theta_rad\n0,1.5,0.0\n", "f_hat_hz"),
            ("bad-d_m", DETECTIONS_HEAD + "0,1,0,x,0.0,0.0,1.5,9.0\n", None, "d_m"),
            ("some-detection-cells-empty",
             DETECTIONS_HEAD + "0,1,0,1.5,0.0,0.0,1.5,9.0\n1,0,,,,,,9.0\n", None, "track"),
        ]
    },
    # the program writes each track once per table (per segment for
    # detections); a repeated track would score a second estimate or
    # replace a breathing rate
    "test_cli::test_cli_evaluate_rejects_a_repeated_track": {
        "breathing": evaluate(
            (REC, text("det.csv", DETECTIONS_HEAD + "0,1,0,2.0,0.0,0.0,2.0,9.0\n"),
             text("br.csv", "track,d_m,theta_rad,f_hat_hz\n0,2.0,0.0,0.3\n0,2.0,0.0,0.5\n")),
            "data error: br.csv: line 3, column 'track': 0 repeats line 2", " --breathing br.csv"),
        "detections": evaluate(
            (REC, text("det.csv", DETECTIONS_HEAD + "0,1,,,,,,\n1,2,0,2.0,0.0,0.0,2.0,9.0\n"
                                                    "1,2,0,2.1,0.0,0.0,2.1,8.0\n")),
            "data error: det.csv: line 4, column 'track': 0 repeats line 3"),
    },
    "test_pipeline::test_cli_convert_unusable_raw_dir_is_data_error": {
        name: convert(edit, re.escape(message), 3) for name, edit, message in [
            ("no raw.kv", raw_file("raw.kv", None), "cannot read raw.kv"),
            ("no pair keys", raw_kv(lambda entries: {k: v for k, v in entries.items()
                                                     if not k.startswith("pair.")}),
             "names no antenna pairs"),
            ("no profiles.npy", raw_file("profiles.npy", None), "cannot load raw arrays"),
            ("pair outside the array", raw_kv(lambda entries: {**entries, "pair.0.tx": "2"}),
             "pair (2, 0) outside the 2 x 4 array"),
            ("empty profiles.npy", raw_file("profiles.npy", b""),
             "cannot load raw arrays: profiles.npy"),
            ("truncated profiles.npy", raw_file("profiles.npy", lambda data: data[:-100]),
             "cannot load raw arrays: profiles.npy"),
            ("slow_time.npy not npy", raw_file("slow_time.npy", b"not an npy file"),
             "cannot load raw arrays: slow_time.npy"),
            ("string profiles.npy", raw_file("profiles.npy", np.full((2, 8, 8192), "a")),
             "profiles must be bool, int, float or complex, got dtype <U1"),
            ("string slow_time.npy", raw_file("slow_time.npy", np.array(["0.0", "0.1"])),
             "slow_time must be int or float, got dtype <U3"),
        ]
    },
    # an FFT of the inf would warn and write a container of nan samples
    "test_pipeline::test_cli_convert_refuses_an_inf_profile_sample_before_down_conversion":
        Case("convert --raw raw --out x.rvc", 3,
             r"data error: raw: profiles: sample \[1, 5, 7\] is \(inf",
             (raw(profiles((1, 5, 7), np.inf)), text("x.rvc", "kept")), unchanged=("x.rvc",)),
    "test_pipeline::test_cli_convert_bad_raw_slow_time_is_data_error": {
        name: convert(raw_file("slow_time.npy", np.array(stamps)),
                      _exactly(f"data error: raw: {message}"), 3)
        for name, stamps, message in [
            ("nan", [0.0, np.nan], "slow_time must be finite"),
            ("repeated", [0.1, 0.1], "slow_time must be strictly increasing"),
            ("column", [[0.0], [0.1]], "slow_time must be 1-D, got shape (2, 1)"),
        ]
    },
    "test_pipeline::test_cli_convert_bad_raw_kv_is_usage_error": {
        f"{key}-{value}": convert(raw_kv(
            lambda entries, key=key, value=value: {k: v for k, v in {**entries, key: value}.items()
                                                   if v is not None}), re.escape(repr(key)), 2)
        for key, value in [
            ("pair.0.rx", None),  # a tx entry without its rx entry
            ("pair.0.tx", "x"),
            ("f_s_ft", "nan"),
            ("f_s_ft", None),
            ("pair.8.rx", "1"),  # an rx entry past the last pair
            ("pair.0.gain", "2"),  # a field the pair table does not have
        ]
    },
    # profile column i is pair.<i>, so a pair table with a gap is rejected
    "test_pipeline::test_cli_convert_raw_kv_pair_gap_is_usage_error":
        convert(raw_kv(lambda entries: {k.replace("pair.7.", "pair.8."): v
                                        for k, v in entries.items()}), "'pair.8.rx'", 2),
    # every reader takes the keys it reads, and the first key left over, in
    # sorted order, is refused by name; a misspelt C would otherwise leave c
    # at its default, and a stray truth key is named as the header holds it
    "test_pipeline::test_cli_stray_key_on_each_key_value_surface": {
        f"{surface}-{key}-{code}": Case(argv + " --out out", code,
                                        re.escape(f"unknown {surface} key {key!r}"), setup,
                                        absent=("out",))
        for surface, key, code, argv, setup in [
            ("pipeline config", "bogus", 2, "detect --in rec.rvc --config pipe.kv", (REC, text(
                "pipe.kv", stray(rv.pipeline_config_to_entries(rv.PipelineConfig()))))),
            ("radar config", "C", 2, "simulate --scenario scene.kv --config radar.kv",
             (SCENE, text("radar.kv", stray(rv.core.config_to_entries(WALABOT))))),
            ("scene", "bogus", 2, "simulate --scenario scene.kv",
             (text("scene.kv", "l 4\nid s01\nmeta.room a\nbogus 1\n"),)),
            ("raw.kv", "C", 2, "convert --raw raw", (raw(raw_kv(stray)),)),
            ("container header", "C", 3, "detect --in rec.rvc",
             (container(edit=header(b"bogus 1", c=b"C")),)),
            ("container header", "truth.bogus", 3, "detect --in rec.rvc",
             (container(edit=header(b"truth.bogus 1")),)),
        ]
    },
    # one check in main refuses it before the command starts, for every
    # command: the input keeps its bytes
    "test_pipeline::test_cli_refuses_an_output_that_names_an_input": {
        f"{argv.split()[0]} {flag}": _output_names_input(argv, flag) for argv, flag in [
            ("simulate --scenario scene.kv --out scene.kv", "--scenario"),
            ("simulate --scenario scene.kv --config radar.kv --out radar.kv", "--config"),
            *((f"convert --raw raw --out raw/{name}", f"--raw {name}")
              for name in ("raw.kv", "profiles.npy", "slow_time.npy")),
            ("evaluate --in det.csv --truth rec.rvc --out det.csv", "--in"),
            ("evaluate --in det.csv --truth rec.rvc --out rec.rvc", "--truth"),
            ("evaluate --in det.csv --truth rec.rvc --breathing breath.csv --out breath.csv",
             "--breathing"),
            ("dump-spectrum --in rec.rvc --out rec.rvc", "--in"),
            ("dump-spectrum --in rec.rvc --config pipe.kv --out pipe.kv", "--config"),
            ("detect --in rec.rvc --config pipe.kv --out pipe.kv", "--config"),
        ]
    },
    "test_pipeline::test_cli_rejects_two_tables_on_one_path": [
        Case("vitals --in rec.rvc --out x.csv --breathing-out ./x.csv", 2,
             "--out and --breathing-out name one path", (REC,), absent=("x.csv",)),
        Case("detect --in rec.rvc --out d.csv --order-diagnostics x.csv --periodogram-out x.csv",
             2, "--order-diagnostics and --periodogram-out name one path", (REC,),
             absent=("d.csv", "x.csv")),
        Case("detect --in rec.rvc --out rec.rvc", 2, "--in and --out name one path", (REC,),
             unchanged=("rec.rvc",)),
    ],
    "test_pipeline::test_cli_rejects_a_table_path_that_is_a_directory":
        Case("vitals --in rec.rvc --out eta.csv --breathing-out .", 2,
             "--breathing-out names a directory", (REC,), absent=("eta.csv",)),
}


def all_cases(groups=CASES) -> list[tuple[str, Case]]:
    """The cases of ``groups`` by id: ``<module>.<test>``, with a case's
    parameter id or its position in a list."""
    out = []
    for group in groups:
        cases, name = CASES[group], group.replace("::", ".")
        if isinstance(cases, Case):
            out.append((name, cases))
        elif isinstance(cases, dict):
            out += [(f"{name}[{key}]", case) for key, case in cases.items()]
        else:
            out += [(f"{name}[{i}]", case) for i, case in enumerate(cases)]
    return out


def run_in_process(argv: list[str]) -> tuple[int, str]:
    """The exit code of ``cli.main(argv)`` and its stderr, with each warning
    printed where it is raised, as a fresh process prints it."""
    err = io.StringIO()

    def show(message, category, filename, lineno, file=None, line=None):
        err.write(warnings.formatwarning(message, category, filename, lineno, line))

    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.showwarning = show
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, err.getvalue()


def check(case: Case, run) -> None:
    """Build ``case``'s files in the working directory, run its argv by
    ``run`` and check what it returns, prints and leaves."""
    for step in case.setup:
        step(Path.cwd())
    before = {name: Path(name).read_bytes() for name in case.unchanged}
    code, err = run(case.argv.split())
    assert code == case.code and "Traceback" not in err, err
    assert re.search(case.err, err), err
    for name, data in before.items():
        assert Path(name).read_bytes() == data, name
    for name in case.absent:
        assert not Path(name).exists(), name


def _in_turn(cases: list[Case]):
    def test(tmp_path, monkeypatch):
        for i, case in enumerate(cases):
            (tmp_path / str(i)).mkdir()
            monkeypatch.chdir(tmp_path / str(i))
            check(case, run_in_process)
    return test


def in_process_tests(module: str) -> dict:
    """The tests of ``module``'s groups, each running its cases through
    ``cli.main``: one per parameter, or each in turn in a directory of its own."""
    tests = {}
    for group, cases in CASES.items():
        if not group.startswith(f"{module.rpartition('.')[2]}::"):
            continue
        if isinstance(cases, dict):
            @pytest.mark.parametrize("case", list(cases.values()), ids=list(cases))
            def test(case, tmp_path, monkeypatch):
                monkeypatch.chdir(tmp_path)
                check(case, run_in_process)
        else:
            test = _in_turn([cases] if isinstance(cases, Case) else cases)
        test.cases = cases
        tests[group.partition("::")[2]] = test
    return tests


globals().update(in_process_tests(__name__))

_PATH_RULE = all_cases(["test_cli::test_cli_path_rule",
                        "test_pipeline::test_cli_refuses_an_output_that_names_an_input",
                        "test_pipeline::test_cli_rejects_two_tables_on_one_path",
                        "test_pipeline::test_cli_rejects_a_table_path_that_is_a_directory"])


@pytest.mark.parametrize("case", [case for _, case in _PATH_RULE], ids=[i for i, _ in _PATH_RULE])
def test_the_path_rule_refuses_before_any_command_runs(case, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a command ran")

    for command in cli._COMMANDS:
        monkeypatch.setitem(cli._COMMANDS, command, refuse)
    monkeypatch.setattr(pipeline, "run_pipeline", refuse)
    monkeypatch.chdir(tmp_path)
    check(case, run_in_process)


def test_every_command_has_a_passing_and_a_failing_case():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    outcomes = {command: set() for command in sub.choices}
    for _, case in all_cases():
        outcomes[case.argv.split()[0]].add(case.code == 0)
    assert outcomes == {command: {True, False} for command in sub.choices}


def test_every_group_runs_in_process():
    for group, cases in CASES.items():
        module, _, name = group.partition("::")
        assert getattr(importlib.import_module(module), name).cases is cases, group
