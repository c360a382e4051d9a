"""The CLI through the installed ``radarvitals`` script, one fresh process
per command: every case of ``test_cli.CASES``, then the README's minimal
scenario and a raw recording directory through the whole chain, each table
checked against the one its writer forms in this process. A plain ``pytest``
run does not collect this file; run it by name with the package installed:
``python -m pytest -q tests/cli_processes.py``.
"""

import re
import shutil
import subprocess
from pathlib import Path

import pytest

import radarvitals as rv
from helpers import breather, raw_recording_of, scene_of, table_text
from test_cli import all_cases, check

README = Path(__file__).resolve().parents[1] / "README.md"
_CASES = all_cases()


def run_fresh(argv: list[str]) -> tuple[int, str]:
    """The exit code of ``radarvitals *argv`` and what it writes to stderr."""
    script = shutil.which("radarvitals")
    assert script, "the radarvitals script is not on PATH; install the package"
    done = subprocess.run([script, *argv], capture_output=True, text=True)
    return done.returncode, done.stderr


def run_ok(*commands: str) -> None:
    for command in commands:
        code, err = run_fresh(command.split())
        assert code == 0 and "Traceback" not in err, err


@pytest.mark.parametrize("case", [case for _, case in _CASES], ids=[i for i, _ in _CASES])
def test_case_in_a_fresh_process(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    check(case, run_fresh)


def test_readme_chain(tmp_path, monkeypatch):
    # one detect call writes the five tables of detect + vitals
    monkeypatch.chdir(tmp_path)
    text = README.read_text(encoding="utf-8")
    (scenario,) = re.findall(r"A minimal scenario file.*?```\n(.*?)```", text, re.DOTALL)
    Path("scene.kv").write_text(scenario, encoding="utf-8")
    run_ok("simulate --scenario scene.kv --out rec.rvc",
           "detect --in rec.rvc --out det.csv --order-diagnostics order.csv",
           "vitals --in rec.rvc --out eta.csv --breathing-out breath.csv --periodogram-out "
           "pgram.csv",
           "detect --in rec.rvc --out one_det.csv --order-diagnostics one_order.csv --vitals-out "
           "one_eta.csv --breathing-out one_breath.csv --periodogram-out one_pgram.csv",
           "evaluate --in det.csv --truth rec.rvc --breathing breath.csv --out report.csv",
           "dump-spectrum --in rec.rvc --out spectrum.csv",
           "dump-spectrum --in rec.rvc --out segment1.csv --segment 1")
    for name in ("det", "order", "eta", "breath", "pgram"):
        assert Path(f"{name}.csv").read_bytes() == Path(f"one_{name}.csv").read_bytes(), name

    result, config = rv.run_pipeline("rec.rvc"), rv.PipelineConfig()
    header = rv.read_header("rec.rvc")
    with rv.ContainerReader("rec.rvc") as reader:
        report = rv.evaluate_result(result, reader.ground_truth)
    rows = slice(config.l_st, 2 * config.l_st + config.w_st - 1)
    with rv.ContainerReader("rec.rvc", rows) as own:
        segment1 = rv.run_pipeline(own, config, vitals=False).accumulated
    for name, table in {
        "det.csv": table_text("detections", result),
        "order.csv": table_text("order_diagnostics", result),
        "eta.csv": table_text("vitals", result),
        "breath.csv": table_text("breathing", result),
        "pgram.csv": table_text("periodogram", result),
        "report.csv": table_text("report", report, header.get("meta.id", ""),
                                 header.get("meta.obstacle", "")),
        "spectrum.csv": table_text("spectrum", result.accumulated),
        "segment1.csv": table_text("spectrum", segment1),
    }.items():
        assert Path(name).read_bytes() == table.encode("utf-8"), name


def test_raw_chain(tmp_path, monkeypatch):
    # one segment of the sensor's array with 256-point range profiles instead
    # of its 8192, converted and detected as the same directory in process
    monkeypatch.chdir(tmp_path)
    cfg = rv.RadarConfig(f0=6.3e9, k=137, b=1.7e9, n=256, delta=0.02, m_r=4, m_t=2, f_st=10.0)
    cube = rv.simulate(scene_of([breather(2.0, 0.0)], l=300, noise_std=0.1, seed=1), cfg)
    rv.write_raw_dir("raw", raw_recording_of(cube), cfg)
    run_ok("convert --raw raw --out conv.rvc", "detect --in conv.rvc --out det.csv")
    result = rv.run_pipeline(rv.convert_recording(*rv.read_raw_dir("raw")), vitals=False)
    assert result.final_detections.detections
    assert Path("det.csv").read_bytes() == table_text("detections", result).encode("utf-8")
