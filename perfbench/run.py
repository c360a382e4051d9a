"""Benchmark of the radarvitals processing chain.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload m16_pipeline --seed 1 --seconds 15 --trace 0

Each workload is a closed loop with one caller in this process: the next
operation starts when the previous one returned. Inputs are generated from
``--seed`` before timing. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the same operations untraced and then traced, and reports
the per-layer metrics. The last line of standard output is one JSON object;
the lines before it, and ``perfbench/results/``, hold the details.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

import bootstrap

bootstrap.pin_and_locate()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
MIN_OPS = 3
PROBES = 3
PROBE_TIMEOUT_S = 170

# The machine is shared: its speed swings by up to half between regimes
# that last tens of seconds. A fixed numpy kernel (complex exponentials, a
# small complex GEMM, a streaming cumulative sum) is timed before and after
# every step of an operation and every set-up probe, and each time is
# rescaled by CAL_NOMINAL_S over the mean of the two. The reported seconds
# are those of the machine running the kernel in CAL_NOMINAL_S, about its
# uncontended speed; raw wall-clock times are printed and saved beside them.
CAL_NOMINAL_S = 0.004
_CAL_RNG = np.random.default_rng(0)
_CAL_PHASE = _CAL_RNG.standard_normal((145, 76))
_CAL_BASIS = _CAL_RNG.standard_normal((76, 61)) + 1j * _CAL_RNG.standard_normal((76, 61))
_CAL_STREAM = _CAL_RNG.standard_normal(700_000)


def calibrate() -> float:
    """Seconds the fixed calibration kernel takes right now (best of three)."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(7):
            g = np.exp(-1j * _CAL_PHASE) @ _CAL_BASIS
            np.einsum("ij,ij->i", g, g.conj())
        np.cumsum(_CAL_STREAM)
        best = min(best, time.perf_counter() - start)
    return best

END_TO_END = {
    "setup_s": "s",
    "recording_s_p50": "s",
    "realtime_x": "x",
    "peak_rss_mb": "MB",
}
# per-layer metric name -> unit; ``.s`` is self time per operation
PER_LAYER = {
    "localize.music_spectrum.s": "s",
    "localize.music_spectrum.calls": "count",
    "localize.music_spectrum.cells": "count",
    "localize.music_spectrum.exp_computed": "count",
    "localize.music_spectrum.flop_computed": "flop",
    "localize.stacked_covariance_eigenvalues.s": "s",
    "localize.stacked_covariance_eigenvalues.calls": "count",
    "localize.stacked_covariance_eigenvalues.flop_computed": "flop",
    "localize.smoothed_covariance.s": "s",
    "localize.accumulate_spectrum.s": "s",
    "localize.extract_peaks.s": "s",
    "localize.extract_peaks.found_ratio": "fraction",
    "preprocess.sma_filter.s": "s",
    "preprocess.segment.s": "s",
    "modelorder.order_diagnostics.s": "s",
    "modelorder.estimate_order.s": "s",
    "vitals.build_filter.s": "s",
    "vitals.extract_displacement.s": "s",
    "vitals.extract_displacement.calls": "count",
    "vitals.unreliable_frac": "fraction",
    "vitals.breathing_frequency.s": "s",
    "trackeval.update_tracks.s": "s",
    "trackeval.tracks_opened": "count",
    "trackeval.tracks_continued": "count",
    "dataio.read_container.s": "s",
    "dataio.read_container.calls": "count",
    "dataio.read_container.mb_per_s": "MB/s",
    "dataio.read_header.s": "s",
    "dataio.read_header.calls": "count",
    "dataio.write_container.s": "s",
    "dataio.write_container.calls": "count",
    "simulate.simulate.s": "s",
    "pipeline.run_pipeline.self_s": "s",
    "pipeline.run_pipeline.calls": "count",
    "cli.simulate.s": "s",
    "cli.detect.s": "s",
    "cli.vitals.s": "s",
    "cli.evaluate.s": "s",
    "trace.overhead_s": "s",
    "accuracy.tpp": "fraction",
    "accuracy.fdp": "fraction",
    "accuracy.median_loc_error_m": "m",
    "accuracy.breath_err_max": "fraction",
    "accuracy.count_accuracy": "fraction",
}


@dataclass
class Ledger:
    """Operations attempted and the problems of those that failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


@dataclass
class Ops:
    times: list[float] = field(default_factory=list)  # wall seconds
    scales: list[float] = field(default_factory=list)  # CAL_NOMINAL_S / calibration
    recorded_s: list[float] = field(default_factory=list)
    digests: list = field(default_factory=list)
    outs: list = field(default_factory=list)

    def calibrated(self) -> list[float]:
        return [t * s for t, s in zip(self.times, self.scales)]


def run_ops(wl, ledger: Ledger, label: str, *, seconds: float = 0.0, count: int | None = None,
            expect: list | None = None, recorder: spans.Recorder | None = None) -> Ops:
    """Closed loop: ``count`` operations, or at least MIN_OPS for ``seconds``.

    With ``expect``, operation i must reproduce the digest ``expect[i]``.
    """
    ops = Ops()
    start = time.perf_counter()
    cal = calibrate()
    i = 0
    while i < count if count is not None else (i < MIN_OPS or time.perf_counter() - start < seconds):
        try:
            out, elapsed, scaled = [], 0.0, 0.0
            if recorder is not None:
                recorder.start_op(i)
            try:
                for step in wl.steps(i):
                    t0 = time.perf_counter()
                    out.append(step())
                    dt = time.perf_counter() - t0
                    with recorder.span("bench.calibrate") if recorder else nullcontext():
                        cal_next = calibrate()
                    elapsed += dt
                    scaled += dt * 2 * CAL_NOMINAL_S / (cal + cal_next)
                    cal = cal_next
            finally:
                if recorder is not None:
                    recorder.end_op()
            scale = scaled / elapsed
            problems = wl.check(i, out)
            digest = wl.digest(out)
            if expect is not None and digest != expect[i]:
                problems.append("outputs differ from the untraced run")
            ops.times.append(elapsed)
            ops.scales.append(scale)
            ops.recorded_s.append(wl.recorded_s(i))
            ops.digests.append(digest)
            ops.outs.append((i, out))
        except Exception:  # a failed operation is counted, and the loop goes on
            problems = [traceback.format_exc(limit=4)]
            ops.digests.append(None)
        ledger.record(f"{label} op {i}", problems)
        i += 1
    return ops


def run_probe(name: str, seed: int, work_dir: Path, small: bool) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "probe.py"), "--workload", name,
           "--seed", str(seed), "--work-dir", str(work_dir)] + (["--small"] if small else [])
    cal = calibrate()
    proc = subprocess.run(cmd, cwd=bootstrap.ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    scale = 2 * CAL_NOMINAL_S / (cal + calibrate())
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}: {proc.stderr[-2000:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    probe["scale"] = scale
    return probe


def tail(times: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(times)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def run_settings(seed: int, seconds: float) -> dict:
    def blas_version(module) -> str:
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    sha = "unknown (not a git checkout)"
    if (bootstrap.ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bootstrap.ROOT,
                              capture_output=True, text=True, timeout=30, check=False)
        sha = proc.stdout.strip() or sha
    return {
        "blas_thread_pin": {var: os.environ[var] for var in bootstrap.THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(np),
        "openblas_scipy": blas_version(scipy),
        "git_sha": sha,
        "seed": seed,
        "seconds": seconds,
        "loop": "closed, one caller, one process",
    }


def end_to_end(loop: Ops, probes: list[dict], calibrated: bool = True) -> dict:
    """End-to-end metrics, in calibrated seconds unless ``calibrated`` is off."""
    times = loop.calibrated() if calibrated else loop.times
    setups = [p["setup_s"] * (p["scale"] if calibrated else 1.0) for p in probes]
    return {
        "setup_s": (statistics.median(setups), len(probes)),
        "recording_s_p50": (statistics.median(times), len(times)),
        "realtime_x": (sum(loop.recorded_s) / sum(times), len(times)),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in probes), len(probes)),
    }


def per_layer(wl, untraced: Ops, traced: Ops, rec: spans.Recorder) -> tuple[dict, dict]:
    n = len(traced.times)
    self_s, total_s = rec.self_times({i: s for (i, _), s in zip(traced.outs, traced.scales)})
    c = rec.counts
    per_op = lambda value: value / n
    ratio = lambda num, den: float(num / den) if den else 0.0
    values = {
        name: per_op(self_s.get(name[: -len(".s")], 0.0))
        for name in PER_LAYER if name.endswith(".s")
    }
    music_calls = c["localize.music_spectrum.calls"]
    stacked_calls = c["localize.stacked_covariance_eigenvalues.calls"]
    values.update({
        "localize.music_spectrum.calls": per_op(music_calls),
        "localize.music_spectrum.cells": ratio(c["localize.music_spectrum.cells"], music_calls),
        "localize.music_spectrum.exp_computed": ratio(c["localize.music_spectrum.exp_computed"], music_calls),
        "localize.music_spectrum.flop_computed": ratio(c["localize.music_spectrum.flop_computed"], music_calls),
        "localize.stacked_covariance_eigenvalues.calls": per_op(stacked_calls),
        "localize.stacked_covariance_eigenvalues.flop_computed": ratio(
            c["localize.stacked_covariance_eigenvalues.flop_computed"], stacked_calls),
        "localize.extract_peaks.found_ratio": ratio(c["localize.extract_peaks.found"],
                                                    c["localize.extract_peaks.requested"]),
        "vitals.extract_displacement.calls": per_op(c["vitals.extract_displacement.calls"]),
        "vitals.unreliable_frac": ratio(c["vitals.unreliable"], c["vitals.samples"]),
        "trackeval.tracks_opened": per_op(c["trackeval.tracks_opened"]),
        "trackeval.tracks_continued": per_op(c["trackeval.tracks_continued"]),
        "dataio.read_container.calls": per_op(c["dataio.read_container.calls"]),
        "dataio.read_container.mb_per_s": ratio(c["dataio.read_container.bytes"] / 1e6,
                                                total_s.get("dataio.read_container", 0.0)),
        "dataio.read_header.calls": per_op(c["dataio.read_header.calls"]),
        "dataio.write_container.calls": per_op(c["dataio.write_container.calls"]),
        "pipeline.run_pipeline.self_s": per_op(self_s.get("pipeline.run_pipeline", 0.0)),
        "pipeline.run_pipeline.calls": per_op(c["pipeline.run_pipeline.calls"]),
        "trace.overhead_s": statistics.median(traced.calibrated()) - statistics.median(untraced.calibrated()),
    })
    values.update({f"accuracy.{k}": float(v or 0.0) for k, v in wl.accuracy(traced.outs).items()})
    p50 = statistics.median(untraced.calibrated())
    shares = {name: per_op(s) / p50 for name, s in sorted(self_s.items(), key=lambda kv: -kv[1])
              if name != "bench.calibrate"}  # runs between steps, outside the op time
    shares = {("bench.op (benchmark code between package calls)" if k == "op" else k): v
              for k, v in shares.items()}
    return {name: (values[name], n) for name in PER_LAYER}, shares


def measure(name: str, seed: int, seconds: float, trace: bool, small: bool = False,
            probes: int = PROBES) -> dict:
    """Prepare the inputs, run the workload and return its full result."""
    work_dir = BENCH_DIR / "_work" / f"{name}-{seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    ledger = Ledger()
    try:
        wl = workloads.WORKLOADS[name](seed, work_dir, small)
        wl.prepare()
        warm = run_ops(wl, ledger, "warm-up", count=1)
        report = {"workload": name, "why": wl.why, "trace": int(trace),
                  "settings": run_settings(seed, seconds)}
        if not trace:
            results = []
            for k in range(probes):
                try:
                    probe = run_probe(name, seed, work_dir, small)
                except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                    ledger.record(f"set-up probe {k}", [str(exc)])
                    continue
                same = probe["digest"] == warm.digests[0]
                ledger.record(f"set-up probe {k}", [] if same else ["output differs from the warm-up"])
                results.append(probe)
            loop = run_ops(wl, ledger, "timed", seconds=seconds)
            metrics = end_to_end(loop, results)
            units = END_TO_END
            report["raw"] = {k: v for k, (v, _) in end_to_end(loop, results, calibrated=False).items()
                             if k != "peak_rss_mb"}
            report["op_times_raw"], report["op_scales"] = loop.times, loop.scales
            report["calibration_s"] = CAL_NOMINAL_S / statistics.median(loop.scales)
            report["tail"] = tail(loop.calibrated())
            report["import_s"] = statistics.median(p["import_s"] for p in results)
            report["accuracy"] = wl.accuracy(loop.outs)
        else:
            loop = run_ops(wl, ledger, "untraced", seconds=seconds)
            rec = spans.Recorder()
            try:
                rec.install()
                traced = run_ops(wl, ledger, "traced", count=len(loop.digests),
                                 expect=loop.digests, recorder=rec)
            finally:
                rec.uninstall()
            report["span_problems"] = rec.tree_problems()
            metrics, report["shares"] = per_layer(wl, loop, traced, rec)
            units = PER_LAYER
            report["spans"] = [asdict(s) for s in rec.spans]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    report["metrics"] = {k: {"value": v, "unit": units[k], "n": n} for k, (v, n) in metrics.items()}
    report["attempted"], report["failed"] = ledger.attempted, ledger.failed
    report["problems"] = ledger.problems
    return report


def print_report(report: dict) -> None:
    name = report["workload"]
    print(f"# {name}: {report['why']}")
    print(f"# settings: {json.dumps(report['settings'])}")
    for key, m in report["metrics"].items():
        print(f"{name} {key} = {m['value']!r} {m['unit']} (n={m['n']})")
    if "tail" in report:
        n = report["metrics"]["recording_s_p50"]["n"]
        if report["tail"] is None:
            print(f"{name} recording_s_tail = n/a: {n} operations, a tail needs at least 11")
        else:
            pct, value = report["tail"]
            print(f"{name} recording_s_tail = {value!r} s (p{pct:.1f}, n={n}, 10 beyond it)")
        print(f"{name} import_s = {report['import_s']!r} s (median of the set-up probes, raw)")
        for key, value in report["raw"].items():
            print(f"{name} raw {key} = {value!r} (wall clock, not calibrated)")
        print(f"{name} calibration kernel = {report['calibration_s']!r} s (median; nominal {CAL_NOMINAL_S} s)")
        for key, value in report["accuracy"].items():
            print(f"{name} accuracy.{key} = {'n/a' if value is None else repr(value)}")
    if "shares" in report:
        print(f"# {name}: self time per operation as a share of the untraced recording_s_p50")
        for key, share in report["shares"].items():
            print(f"{name} share {key} = {100 * share:.1f} %")
        total = 100 * sum(report["shares"].values())
        print(f"{name} share sum = {total:.1f} % (off 100 by the tracing overhead and drift)")
        for problem in report["span_problems"]:
            print(f"{name} span tree: {problem}")
    rate = report["failed"] / max(1, report["attempted"])
    print(f"{name} error_rate = {rate!r} ({report['failed']} of {report['attempted']} operations)")
    for problem in report["problems"][:10]:
        print(f"{name} FAILED {problem}")


def write_results(report: dict, seed: int) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{report['workload']}-seed{seed}-trace{report['trace']}"
    body = {k: v for k, v in report.items() if k != "spans"}
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(body, indent=1) + "\n", encoding="utf-8")
    if "spans" in report:
        with open(RESULTS_DIR / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in report["spans"]:
                fh.write(json.dumps(span) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    write_results(report, args.seed)
    print_report(report)
    correct = report["failed"] == 0 and not report.get("span_problems")
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
