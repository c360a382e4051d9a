"""Quick self-check of the benchmark on small inputs.

Outside the default test run (``testpaths`` is ``tests``); run it with

    python3 -m pytest -q perfbench/test_selfcheck.py
"""

import json
import math
from types import SimpleNamespace

import pytest

import bootstrap
import run
import workloads

BENCHMARK = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = sorted(workloads.WORKLOADS)


def _units(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_benchmark_json_matches_the_runner():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == NAMES
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: wl.why for name, wl in workloads.WORKLOADS.items()
    }
    assert _units("end_to_end") == run.END_TO_END
    assert _units("per_layer") == run.PER_LAYER


@pytest.fixture(scope="module", params=NAMES)
def reports(request):
    name = request.param
    untraced = run.measure(name, seed=5, seconds=0, trace=False, small=True, probes=1)
    traced = run.measure(name, seed=5, seconds=0, trace=True, small=True)
    return name, untraced, traced


def test_untraced_run_checks_outputs_and_reports_end_to_end_metrics(reports):
    _, untraced, _ = reports
    assert untraced["failed"] == 0, untraced["problems"]
    assert untraced["attempted"] == 1 + 1 + run.MIN_OPS  # warm-up, probe, loop
    assert untraced["metrics"].keys() == run.END_TO_END.keys()
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in untraced["metrics"].values())


def test_traced_run_reproduces_outputs_and_builds_a_span_tree(reports):
    name, _, traced = reports
    assert traced["failed"] == 0, traced["problems"]
    assert traced["span_problems"] == []
    assert traced["metrics"].keys() == run.PER_LAYER.keys()
    roots = [s for s in traced["spans"] if s["parent"] is None]
    assert sorted(s["op"] for s in roots) == list(range(run.MIN_OPS))
    value = {k: m["value"] for k, m in traced["metrics"].items()}
    dataio_calls = sum(v for k, v in value.items() if k.startswith("dataio.") and k.endswith(".calls"))
    if name == "count_sweep":
        assert value["localize.music_spectrum.calls"] == 0
    else:
        assert value["localize.music_spectrum.exp_computed"] == 181 * 145 * 76
    if name == "cli_long":
        assert value["pipeline.run_pipeline.calls"] == 2
        assert dataio_calls > 0
    else:
        assert dataio_calls == 0


def test_output_checks_turn_wrong_answers_into_failures():
    unused = bootstrap.ROOT / "perfbench" / "_work"  # the constructors write nothing
    m16 = workloads.M16Pipeline(5, unused, small=True)
    wrong = SimpleNamespace(tpp=0.8, fdp=0.0, median_location_error=0.01, breathing_errors=[0.0] * 5)
    assert m16.check(0, [(None, wrong)])
    count = workloads.CountSweep(5, unused, small=True)
    assert count.check(0, [[0, 1, 0]])  # P = 0 must give 0 in every segment
    assert count.check(1, [[1, 2, 2]])  # P = 1 needs 80 % of the segments right
    assert not count.check(1, [[1, 1, 1, 1, 2]])
    assert workloads.CliLong(5, unused, small=True).check(0, [0, 3, 3, 3])
