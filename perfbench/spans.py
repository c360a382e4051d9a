"""Spans and counters recorded around the package's public functions.

``Recorder.install`` replaces each function where the package looks it up
(the stage names in ``radarvitals.pipeline``, the defining modules that
``cli`` imports from at call time, and the ``cli`` command table) with a
wrapper that records a span. ``uninstall`` puts the originals back. Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from radarvitals.localize import snapshot_indices


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    op: int


# Kernel counts derived from argument shapes ("computed", not measured).

def _music_counts(counts, result, a):
    n_d, n_t = a["grid"].shape()
    dim = a["cov"].spec.w_k * a["cov"].spec.w_m
    n_noise = dim - a["p_sub"]
    cells = n_d * n_t
    counts["localize.music_spectrum.calls"] += 1
    counts["localize.music_spectrum.cells"] += cells
    # one unit-modulus steering entry per cell and window element
    counts["localize.music_spectrum.exp_computed"] += cells * dim
    # conj(a) @ V_n (complex MAC = 8 flop) plus |g|^2 row sums (4 flop each)
    counts["localize.music_spectrum.flop_computed"] += cells * (8 * dim * n_noise + 4 * n_noise)


def _stacked_counts(counts, result, a):
    l, k, m = a["samples"].shape
    spec = a["spec"]
    n_snap = len(snapshot_indices(l, a["n_cov"]))
    n2 = 2 * spec.w_k * spec.w_m
    # forward and backward real GEMMs (n2 x S)(S x n2) per snapshot, then a
    # symmetric eigenvalue solve (4/3 n^3 for the tridiagonal reduction)
    counts["localize.stacked_covariance_eigenvalues.calls"] += 1
    counts["localize.stacked_covariance_eigenvalues.flop_computed"] += (
        n_snap * 2 * 2 * n2 * n2 * spec.n_slices(k, m) + 4 * n2**3 // 3
    )


def _peak_counts(counts, result, a):
    counts["localize.extract_peaks.requested"] += a["p_hat"]
    counts["localize.extract_peaks.found"] += len(result.detections)


def _displacement_counts(counts, result, a):
    counts["vitals.extract_displacement.calls"] += 1
    counts["vitals.samples"] += result.eta.size
    if result.unreliable is not None:
        counts["vitals.unreliable"] += int(result.unreliable.sum())


def _track_counts(counts, result, a):
    # a track opened by this call has its first record in this segment
    seg = a["detections"].segment_index
    opened = sum(1 for track in a["tracks"] if track.records[0][0] == seg)
    counts["trackeval.tracks_opened"] += opened
    counts["trackeval.tracks_continued"] += len(result) - opened


def _read_counts(counts, result, a):
    counts["dataio.read_container.calls"] += 1
    counts["dataio.read_container.bytes"] += os.path.getsize(a["path"])


def _calls(name):
    def count(counts, result, a):
        counts[name + ".calls"] += 1
    return count


# (module, attribute, span name, counter)
_PIPELINE_STAGES = [
    ("sma_filter", "preprocess.sma_filter", None),
    ("segment", "preprocess.segment", None),
    ("smoothed_covariance", "localize.smoothed_covariance", None),
    ("music_spectrum", "localize.music_spectrum", _music_counts),
    ("accumulate_spectrum", "localize.accumulate_spectrum", None),
    ("stacked_covariance_eigenvalues", "localize.stacked_covariance_eigenvalues", _stacked_counts),
    ("order_diagnostics", "modelorder.order_diagnostics", None),
    ("extract_peaks", "localize.extract_peaks", _peak_counts),
    ("update_tracks", "trackeval.update_tracks", _track_counts),
    ("build_filter", "vitals.build_filter", None),
    ("extract_displacement", "vitals.extract_displacement", _displacement_counts),
    ("breathing_frequency", "vitals.breathing_frequency", None),
    ("read_container", "dataio.read_container", _read_counts),
]
TARGETS = [("radarvitals.pipeline", attr, name, count) for attr, name, count in _PIPELINE_STAGES] + [
    # looked up in their defining modules: by cli at call time, by
    # estimate_order, and by the count_sweep workload
    ("radarvitals.preprocess", "sma_filter", "preprocess.sma_filter", None),
    ("radarvitals.preprocess", "segment", "preprocess.segment", None),
    ("radarvitals.localize", "stacked_covariance_eigenvalues",
     "localize.stacked_covariance_eigenvalues", _stacked_counts),
    ("radarvitals.modelorder", "estimate_order", "modelorder.estimate_order", None),
    ("radarvitals.modelorder", "order_diagnostics", "modelorder.order_diagnostics", None),
    ("radarvitals.pipeline", "run_pipeline", "pipeline.run_pipeline", _calls("pipeline.run_pipeline")),
    ("radarvitals.simulate", "simulate", "simulate.simulate", None),
    ("radarvitals.dataio", "read_container", "dataio.read_container", _read_counts),
    ("radarvitals.dataio", "read_header", "dataio.read_header", _calls("dataio.read_header")),
    ("radarvitals.dataio", "write_container", "dataio.write_container",
     _calls("dataio.write_container")),
]
CLI_COMMANDS = ("simulate", "detect", "vitals", "evaluate")


class Recorder:
    """Keeps spans and counters of the operations run while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list = []

    def start_op(self, op: int) -> None:
        self.op = op
        self._open("op")

    def end_op(self) -> None:
        self._close()
        self.op = None

    @contextmanager
    def span(self, name: str):
        """A span for code of the benchmark itself inside an operation."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(len(self.spans), name, time.perf_counter(), None, parent, self.op))
        self._stack.append(len(self.spans) - 1)

    def _close(self) -> None:
        self.spans[self._stack.pop()].end = time.perf_counter()

    def wrap(self, name, fn, count=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:  # calls made outside an operation are not recorded
                return fn(*args, **kwargs)
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if count is not None:
                count(self.counts, result, signature.bind(*args, **kwargs).arguments)
            return result

        return traced

    def install(self) -> None:
        for modname, attr, name, count in TARGETS:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            self._saved.append((module.__dict__, attr, original))
            setattr(module, attr, self.wrap(name, original, count))
        commands = importlib.import_module("radarvitals.cli")._COMMANDS
        for command in CLI_COMMANDS:
            self._saved.append((commands, command, commands[command]))
            commands[command] = self.wrap(f"cli.{command}", commands[command])

    def uninstall(self) -> None:
        while self._saved:
            table, key, original = self._saved.pop()
            table[key] = original

    def self_times(self, scales: dict[int, float]) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: summed self time and summed total time, each span's
        duration multiplied by the scale of its operation."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for span, inner in zip(self.spans, child_time):
            scale = scales.get(span.op, 1.0)
            self_s[span.name] += (span.end - span.start - inner) * scale
            total_s[span.name] += (span.end - span.start) * scale
        return self_s, total_s

    def tree_problems(self) -> list[str]:
        """Structural faults: open spans, children outside their parent or op."""
        problems = []
        roots = defaultdict(int)
        for span in self.spans:
            if span.end is None or span.end < span.start:
                problems.append(f"span {span.id} {span.name} not closed in order")
                continue
            if span.parent is None:
                roots[span.op] += 1
                if span.name != "op":
                    problems.append(f"root span {span.id} is {span.name}, not op")
                continue
            parent = self.spans[span.parent]
            if parent.op != span.op or not parent.start <= span.start <= span.end <= parent.end:
                problems.append(f"span {span.id} {span.name} lies outside its parent {parent.name}")
        problems += [f"op {op} has {n} root spans" for op, n in roots.items() if n != 1]
        return problems
