"""The README's examples run against the current API."""

import re
from pathlib import Path

import radarvitals as rv
from radarvitals.kvfile import parse_kv

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples(capsys):
    text = README.read_text(encoding="utf-8")
    (library,) = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    exec(compile(library, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines and lines[-1].startswith("EvalReport(")

    (scenario,) = re.findall(r"A minimal scenario file.*?```\n(.*?)```", text, re.DOTALL)
    scene, extras = rv.scene_from_entries(parse_kv(scenario))
    assert (scene.l, scene.f_st, scene.clutter.noise_std, scene.clutter.seed) == (2000, 10.0, 0.1, 7)
    assert scene.persons == (
        rv.PersonModel(rv.PolarLocation(2.0, 0.0), breath_freq=0.25, breath_amp=0.0025),
    )
    assert extras == {"id": "DEMO", "obstacle": "free"}
