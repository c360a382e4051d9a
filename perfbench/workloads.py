"""The benchmark's workloads: input preparation, one operation, output checks.

Every workload builds its inputs from the workload seed before anything is
timed. ``steps(i)`` are the timed steps of operation i, run in order; they
call the package only through module attributes (``pipeline.run_pipeline``,
``preprocess.sma_filter``, ...) so the traced run sees the wrapped
functions. ``check`` and ``digest`` take the list of step results and run
outside the timed region.
"""

from __future__ import annotations

import hashlib
import io
import math
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import bootstrap
import radarvitals as rv
from radarvitals import cli, kvfile, localize, modelorder, pipeline, preprocess

if not Path(rv.__file__).resolve().is_relative_to(bootstrap.SRC):
    raise SystemExit(f"perfbench: imported radarvitals from {rv.__file__}, not {bootstrap.SRC}")

F_ST = 10.0
RADAR = rv.walabot_config(f_st=F_ST)
CONFIG = rv.PipelineConfig()


def _noise_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def _person(d, theta_deg, f_b, amp, phase):
    return rv.PersonModel(
        location=rv.PolarLocation(d, math.radians(theta_deg)),
        breath_freq=f_b,
        breath_amp=amp,
        breath_phase=phase,
    )


def _save_cube(cube, path: Path) -> None:
    np.save(path.with_suffix(".samples.npy"), cube.samples)
    np.save(path.with_suffix(".slow_time.npy"), cube.slow_time)


def _load_cube(path: Path, truth) -> rv.MeasurementCube:
    return rv.MeasurementCube(
        np.load(path.with_suffix(".samples.npy")),
        np.load(path.with_suffix(".slow_time.npy")),
        RADAR,
        ground_truth=truth,
    )


class M16Pipeline:
    """``run_pipeline`` + ``evaluate_result`` on the five-person scene in memory."""

    name = "m16_pipeline"
    why = ("the paper's headline five-person scene in memory; the MUSIC grid scan "
           "dominates and there is no I/O, so scan and steering changes show here")
    # The layout of tests/helpers.m16_scene, copied so the benchmark does not
    # import the test suite.
    LOCATIONS = [(1.50, -60.0), (2.00, 0.0), (2.15, -30.0), (1.85, 45.0), (3.00, 30.0)]
    BREATH_FREQS = [0.30, 0.25, 0.35, 0.20, 0.40]
    BREATH_AMPS = [0.0006, 0.0025, 0.0011, 0.0008, 0.0010]

    def __init__(self, seed: int, work_dir: Path, small: bool = False):
        persons = tuple(
            _person(d, th, f, a, 0.9 * i)
            for i, ((d, th), f, a) in enumerate(
                zip(self.LOCATIONS, self.BREATH_FREQS, self.BREATH_AMPS)
            )
        )
        self.scene = rv.Scene(
            persons=persons,
            clutter=rv.ClutterModel(noise_std=0.1, seed=_noise_seeds(seed, 1)[0]),
            l=864 if small else 2000,
            f_st=F_ST,
        )
        self.path = work_dir / "m16"
        self.cube = None

    def prepare(self) -> None:
        self.cube = rv.simulate(self.scene, RADAR)
        _save_cube(self.cube, self.path)

    def load_probe_input(self) -> None:
        self.cube = _load_cube(self.path, self.scene)

    def recorded_s(self, i: int) -> float:
        return self.scene.l / F_ST

    def _detect_and_score(self):
        result = pipeline.run_pipeline(self.cube, CONFIG)
        return result, pipeline.evaluate_result(result, self.scene)

    def steps(self, i: int):
        return [self._detect_and_score]

    def check(self, i: int, out) -> list[str]:
        [(_, report)] = out
        errors = report.breathing_errors or []
        problems = []
        if report.tpp != 1.0 or report.fdp != 0.0:
            problems.append(f"TPP={report.tpp} FDP={report.fdp}, expected 1 and 0")
        if report.median_location_error is None or not report.median_location_error < 0.15:
            problems.append(f"median location error {report.median_location_error} m >= 0.15")
        if len(errors) != len(self.scene.persons) or any(abs(e) > 0.10 for e in errors):
            problems.append(f"breathing errors {errors} not all within 10 %")
        return problems

    def digest(self, out):
        [(result, _)] = out
        return pipeline.detections_csv(result) + pipeline.breathing_csv(result)

    def accuracy(self, outs) -> dict[str, float | None]:
        reports = [report for _, [(_, report)] in outs]
        return {
            "tpp": min(r.tpp for r in reports),
            "fdp": max(r.fdp for r in reports),
            "median_loc_error_m": max(r.median_location_error for r in reports),
            "breath_err_max": max(max(abs(e) for e in r.breathing_errors) for r in reports),
            "count_accuracy": None,
        }


class CountSweep:
    """Person count only: clutter filter, segmentation, real-stacked eigenvalues."""

    name = "count_sweep"
    why = ("occupancy counting without localization over P = 0..5; covariance and "
           "eigensolve dominate and music_spectrum is never called")
    # The layout of acceptance criterion 5 (tests/test_acceptance.py).
    LOCATIONS = [(1.2, -40.0), (1.7, 25.0), (2.2, -15.0), (2.7, 40.0), (3.2, 0.0)]
    BREATH_FREQS = [0.30, 0.25, 0.35, 0.20, 0.40]

    def __init__(self, seed: int, work_dir: Path, small: bool = False):
        seeds = _noise_seeds(seed, len(self.LOCATIONS) + 1)
        self.scenes = [
            rv.Scene(
                persons=tuple(
                    _person(d, th, f, 0.0008, 0.7 * i)
                    for i, ((d, th), f) in enumerate(
                        zip(self.LOCATIONS[:p], self.BREATH_FREQS[:p])
                    )
                ),
                clutter=rv.ClutterModel(noise_std=0.1, seed=seeds[p]),
                l=664 if small else 2064,
                f_st=F_ST,
            )
            for p in range(len(seeds))
        ]
        self.path = work_dir / "count_p0"
        self.cubes = []
        derived = rv.derive_params(RADAR)
        self.order_cfg = CONFIG.order_config(RADAR.k, derived.m)

    def prepare(self) -> None:
        self.cubes = [rv.simulate(scene, RADAR) for scene in self.scenes]
        _save_cube(self.cubes[0], self.path)

    def load_probe_input(self) -> None:
        # a probe runs operation 0 only, which is P = 0
        self.cubes = [_load_cube(self.path, self.scenes[0])]

    def persons(self, i: int) -> int:
        return i % len(self.scenes)

    def recorded_s(self, i: int) -> float:
        return self.scenes[self.persons(i)].l / F_ST

    def steps(self, i: int):
        return [lambda: self._count(self.cubes[self.persons(i)])]

    def _count(self, cube) -> list[int]:
        filtered = preprocess.sma_filter(cube, CONFIG.w_st)
        segments = preprocess.segment(filtered, CONFIG.l_st).segments
        return [
            int(modelorder.estimate_order(
                localize.stacked_covariance_eigenvalues(s.samples, CONFIG.moe_spec(), CONFIG.n_cov),
                self.order_cfg,
            ))
            for s in segments
        ]

    def check(self, i: int, out) -> list[str]:
        [out] = out
        p = self.persons(i)
        correct = sum(1 for e in out if e == p)
        ok = correct == len(out) if p == 0 else correct >= 0.8 * len(out)
        return [] if ok and out else [f"P={p}: estimates {out}"]

    def digest(self, out):
        return out[0]

    def accuracy(self, outs) -> dict[str, float | None]:
        hits = sum(e == self.persons(i) for i, [out] in outs for e in out)
        total = sum(len(out) for _, [out] in outs)
        return {
            "tpp": None, "fdp": None, "median_loc_error_m": None, "breath_err_max": None,
            "count_accuracy": hits / total,
        }


class CliLong:
    """The on-disk CLI chain: simulate, detect, vitals, evaluate."""

    name = "cli_long"
    why = ("the CLI chain on a 400 s two-person recording on disk: the only container "
           "writes and header reads, two run_pipeline calls per input, CSV output")

    def __init__(self, seed: int, work_dir: Path, small: bool = False):
        rng = np.random.default_rng(seed)
        while True:
            # PersonModel's default chest motion; positions from the seed
            locs = [rv.PolarLocation(rng.uniform(1.0, 3.5), rng.uniform(-0.6, 0.6)) for _ in range(2)]
            a, b = (rv.polar_to_cartesian(loc) for loc in locs)
            if math.hypot(a.x - b.x, a.y - b.y) >= 0.8:
                break
        self.scene = rv.Scene(
            persons=tuple(rv.PersonModel(location=loc) for loc in locs),
            clutter=rv.ClutterModel(noise_std=0.1, seed=int(rng.integers(0, 2**31 - 1))),
            l=864 if small else 4000,
            f_st=F_ST,
        )
        self.scene_id = f"cli_long-seed{seed}"
        self.scene_path = work_dir / "scene.kv"
        self.out_dir = work_dir / "ops"
        self.reference = None

    def prepare(self) -> None:
        entries = rv.scene_to_entries(self.scene)
        entries["id"] = self.scene_id
        kvfile.write_kv(self.scene_path, entries)

    def load_probe_input(self) -> None:
        self.out_dir = self.out_dir.with_name("probe")

    def recorded_s(self, i: int) -> float:
        return self.scene.l / F_ST

    def _files(self) -> dict[str, Path]:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return {name: self.out_dir / name for name in ("rec.rvc", "det.csv", "vit.csv", "br.csv", "rep.csv")}

    def steps(self, i: int):
        """One step per CLI command; each returns its exit code."""
        f = {k: str(v) for k, v in self._files().items()}
        commands = [
            ["simulate", "--scenario", str(self.scene_path), "--out", f["rec.rvc"]],
            ["detect", "--in", f["rec.rvc"], "--out", f["det.csv"]],
            ["vitals", "--in", f["rec.rvc"], "--out", f["vit.csv"], "--breathing-out", f["br.csv"]],
            ["evaluate", "--in", f["det.csv"], "--truth", f["rec.rvc"],
             "--breathing", f["br.csv"], "--out", f["rep.csv"]],
        ]
        return [lambda argv=argv: self._cli(argv) for argv in commands]

    @staticmethod
    def _cli(argv: list[str]) -> int:
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def digest(self, out):
        f = self._files()
        sha = hashlib.sha256(f["rec.rvc"].read_bytes()).hexdigest()
        return {
            "exit_codes": out,
            "container_sha256": sha,
            "detections": f["det.csv"].read_text(encoding="utf-8"),
            "breathing": f["br.csv"].read_text(encoding="utf-8"),
            "report": f["rep.csv"].read_text(encoding="utf-8"),
        }

    def _reference(self, path: Path, sha: str) -> dict:
        """Detections and report computed in-process from the container."""
        if self.reference is None or self.reference["container_sha256"] != sha:
            cube = rv.read_container(path)
            result = pipeline.run_pipeline(cube, CONFIG)
            report = pipeline.evaluate_result(result, cube.ground_truth)
            header = rv.read_header(path)
            self.reference = {
                "container_sha256": sha,
                "detections": pipeline.detections_csv(result),
                "report": pipeline.report_csv(
                    report, header.get("meta.id", ""), header.get("meta.obstacle", "")
                ),
                "eval": report,
            }
        return self.reference

    def check(self, i: int, out) -> list[str]:
        if any(code != 0 for code in out) or len(out) != 4:
            return [f"exit codes {out}"]
        got = self.digest(out)
        ref = self._reference(self._files()["rec.rvc"], got["container_sha256"])
        return [
            f"{key} differs from the in-process pipeline on the same container"
            for key in ("detections", "report")
            if got[key] != ref[key]
        ]

    def accuracy(self, outs) -> dict[str, float | None]:
        report = self.reference["eval"]
        return {
            "tpp": report.tpp,
            "fdp": report.fdp,
            "median_loc_error_m": report.median_location_error,
            "breath_err_max": max((abs(e) for e in report.breathing_errors or []), default=None),
            "count_accuracy": None,
        }


WORKLOADS = {w.name: w for w in (M16Pipeline, CountSweep, CliLong)}
