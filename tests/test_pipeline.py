import csv
import dataclasses
import io
import math
import os
import string
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import radarvitals as rv
from radarvitals.cli import main
from radarvitals.kvfile import format_kv, parse_kv, read_kv, write_kv
from radarvitals.localize import snapshot_indices
from radarvitals.pipeline import (
    pipeline_config_from_entries,
    pipeline_config_to_entries,
    run_pipeline,
)
from radarvitals.preprocess import sma_rows
from helpers import assert_same_text, breather, m16_scene, scene_of, table_text
from test_cli import in_process_tests, raw


def test_kv_parse_and_format():
    text = "a 1\n# comment\nb  two words \n\nc 3 # trailing\n"
    entries = parse_kv(text)
    assert entries == {"a": "1", "b": "two words", "c": "3"}
    assert parse_kv(format_kv(entries)) == entries
    with pytest.raises(ValueError, match="duplicate"):
        parse_kv("a 1\na 2\n")
    with pytest.raises(ValueError, match="key value"):
        parse_kv("loner\n")


_KV_KEYS = st.one_of(st.text(max_size=6), st.text(string.ascii_lowercase + "._#", min_size=1))
_KV_VALUES = st.one_of(
    st.text(max_size=10),
    st.text(string.printable, min_size=1, max_size=10),
    st.from_regex(r"[!-\"$-~]([ -\"$-~]*[!-\"$-~])?", fullmatch=True),
)


@given(st.dictionaries(_KV_KEYS, _KV_VALUES, max_size=4))
def test_kv_format_is_exact_or_raises(entries):
    # a dict is representable exactly when its plain "key value" lines
    # parse back to it; format_kv must write those and reject the rest
    plain = "".join(f"{key} {value}\n" for key, value in entries.items())
    try:
        representable = parse_kv(plain) == entries
    except ValueError:
        representable = False
    if representable:
        assert parse_kv(format_kv(entries)) == entries
    else:
        with pytest.raises(ValueError) as err:
            format_kv(entries)
        assert any(repr(key) in str(err.value) for key in entries)


def test_container_meta_must_be_representable(tmp_path):
    cube = rv.simulate(scene_of([], l=2), rv.walabot_config(10.0))
    for value in ("a#b", "two\nlines", "", " padded"):
        with pytest.raises(ValueError, match="meta.id"):
            rv.write_container(cube, tmp_path / "m.rvc", meta={"id": value})


def test_kv_file_roundtrip(tmp_path):
    path = tmp_path / "c.kv"
    write_kv(path, {"x": "1.5"})
    assert read_kv(path) == {"x": "1.5"}


def test_pipeline_config_roundtrip():
    config = rv.PipelineConfig(w_st=32, l_st=100, alpha=2.5, accumulate=False,
                               grid=rv.GridSpec(3.0, 0.05, 0.3 * np.pi, np.pi / 90))
    entries = pipeline_config_to_entries(config)
    assert pipeline_config_from_entries(entries) == config


@given(
    st.fixed_dictionaries({
        **dict.fromkeys(["w_st", "l_st", "w_k_music", "w_m_music", "w_k_moe", "w_m_moe",
                         "n_cov", "p_sub", "n_candidates", "p_max", "pad_factor"],
                        st.integers(-10**6, 10**6)),
        **dict.fromkeys(["alpha", "group_radius", "track_radius", "d_match", "band_lo",
                         "band_hi"], st.floats(allow_nan=False, allow_infinity=False)),
        "window": st.sampled_from(["hann", "hamming", "boxcar"]),
        "accumulate": st.booleans(),
        "grid": st.builds(
            rv.GridSpec,
            d_max=st.floats(0.0, 100.0),
            d_step=st.floats(1e-6, 10.0),
            theta_max=st.floats(0.0, np.pi / 2, exclude_max=True),
            theta_step=st.floats(1e-6, 1.0),
        ),
    })
)
def test_pipeline_config_entries_roundtrip_property(fields):
    # range checks belong to validate(); the codec round-trips any finite value
    config = rv.PipelineConfig(**fields)
    assert pipeline_config_from_entries(pipeline_config_to_entries(config)) == config


def test_pipeline_config_unknown_key():
    with pytest.raises(rv.ConfigError, match="unknown"):
        pipeline_config_from_entries({"bogus": "1"})
    with pytest.raises(rv.ConfigError, match="grid"):
        pipeline_config_from_entries({"grid.bogus": "1"})


def test_pipeline_config_validation(walabot, derived):
    # each rule is the check of the stage that owns it, and names its key
    for fields, key in (({"w_st": 0}, "w_st"), ({"l_st": 1}, "l_st"), ({"n_cov": 500}, "n_cov"),
                        ({"p_sub": 76}, "p_sub"), ({"p_sub": 0}, "p_sub")):
        with pytest.raises(rv.ConfigError, match=f"{key}={fields[key]}|{key} must be >= "):
            rv.PipelineConfig(**fields).validate(walabot, derived)
    with pytest.raises(rv.ConfigError):
        rv.PipelineConfig(w_k_music=200).validate(walabot, derived)
    with pytest.raises(rv.ConfigError, match="'hamming'"):
        rv.PipelineConfig(window="hamming").validate(walabot, derived)
    # radii follow the scoring rule: positive and finite
    for radius in ("group_radius", "track_radius", "d_match"):
        for value in (0.0, math.inf):
            with pytest.raises(rv.ConfigError, match=f"{radius} must be a positive finite"):
                rv.PipelineConfig(**{radius: value}).validate(walabot, derived)
    with pytest.raises(rv.ConfigError, match="band_lo < band_hi, got band_lo 0.5, band_hi 0.4"):
        rv.PipelineConfig(band_lo=0.5, band_hi=0.4).validate(walabot, derived)
    # a breathing band above the Nyquist rate fails before any segment runs
    with pytest.raises(rv.ConfigError, match="band_lo 6.0 Hz exceeds the Nyquist rate 5.0 Hz"):
        rv.PipelineConfig(band_lo=6.0, band_hi=7.0).validate(walabot, derived)


def test_grid_past_the_unambiguous_range_is_rejected(walabot, derived):
    # the range factor of the steering repeats every d_max = 12.08 m, so a
    # longer grid scans only aliased copies
    rv.PipelineConfig(grid=rv.GridSpec(d_max=derived.d_max)).validate(walabot, derived)
    with pytest.raises(rv.ConfigError, match="'grid.d_max' 20.0 m exceeds the unambiguous"):
        rv.PipelineConfig(grid=rv.GridSpec(d_max=20.0)).validate(walabot, derived)


@pytest.mark.parametrize("fields, keys", [
    ({"pad_factor": 1_000_000}, ["'pad_factor' 1000000", "'l_st' 200"]),
    ({"l_st": 10**9}, ["'pad_factor' 8", "'l_st' 1000000000"]),
    ({"grid": rv.GridSpec(d_step=1e-9)}, ["'grid.d_step' 1e-09"]),
    ({"grid": rv.GridSpec(d_step=1e-5)}, ["'grid.d_step' 1e-05"]),
    ({"grid": rv.GridSpec(theta_step=1e-9)}, ["'grid.theta_step' 1e-09"]),
])
def test_scan_grid_and_periodogram_above_the_budget_are_rejected(walabot, derived, fields, keys):
    with pytest.raises(rv.ConfigError, match="above the budget of 4194304") as err:
        rv.PipelineConfig(**fields).validate(walabot, derived)
    assert all(key in str(err.value) for key in keys)


@pytest.mark.parametrize("step", ["d_step", "theta_step"])
def test_grid_step_with_an_infinite_cell_count_is_rejected(step):
    # 4.5 / 5e-324 overflows to inf, which no cell count can hold
    with pytest.raises(rv.ConfigError, match=f"'grid.{step}' 5e-324 .*infinite number of cells"):
        rv.GridSpec(**{step: 5e-324})


def test_budget_admits_the_default_grid_and_periodogram(walabot, derived):
    n_d, n_t = rv.GridSpec().shape()
    values = n_d * n_t + walabot.k * (3 * n_d + (4 * derived.m - 1) * n_t)
    assert values == 716_451 < rv.pipeline.MAX_VALUES
    # the values the scan keeps: its spectrum and the tables it caches
    tables = rv.localize._scan_factors(walabot, rv.GridSpec(), walabot.k, derived.m)[:5]
    assert n_d * n_t + sum(t.size for t in tables) == values
    assert 8 * 200 < rv.pipeline.MAX_VALUES
    rv.PipelineConfig().validate(walabot, derived)
    rv.PipelineConfig(grid=rv.GridSpec(d_max=derived.d_max)).validate(walabot, derived)


def test_band_narrower_than_one_bin_is_rejected_before_any_segment(walabot, monkeypatch):
    # one periodogram bin is f_st / (pad_factor * l_st) = 10 / (8 * 200) = 6.25 mHz
    rv.PipelineConfig(band_lo=0.3, band_hi=0.30625).validate(walabot, rv.derive_params(walabot))
    cube = rv.simulate(scene_of([breather(2.0, 0.0)], l=464), walabot)
    monkeypatch.setattr(rv.pipeline, "sma_rows", None)  # no segment may start
    with pytest.raises(rv.ConfigError, match=r"band_lo 0.301 \.\. band_hi 0.3015 Hz is narrower"):
        run_pipeline(cube, rv.PipelineConfig(band_lo=0.301, band_hi=0.3015))


def test_unknown_window_is_rejected_at_entry(walabot):
    # also on a scene with no persons, whose segments never build a filter
    cube = rv.simulate(scene_of([], l=264, noise_std=0.1, seed=4), walabot)
    with pytest.raises(rv.ConfigError, match="'hamming'"):
        run_pipeline(cube, rv.PipelineConfig(window="hamming"))
    assert run_pipeline(cube, rv.PipelineConfig(window="rect")).segments[0].order.p_hat == 0


def test_segment_error_names_the_segment(walabot, monkeypatch):
    real = rv.pipeline.extract_peaks

    def fail_in_segment_1(*args, segment_index, **kwargs):
        if segment_index == 1:
            raise RuntimeError("peak search failed")
        return real(*args, segment_index=segment_index, **kwargs)

    monkeypatch.setattr(rv.pipeline, "extract_peaks", fail_in_segment_1)
    cube = rv.simulate(scene_of([breather(2.0, 10.0, amp=0.0015)], l=464, seed=6), walabot)
    with pytest.raises(RuntimeError) as err:
        run_pipeline(cube)
    if sys.version_info >= (3, 11):
        assert str(err.value) == "peak search failed"
        assert err.value.__notes__ == ["while processing segment 1"]
    else:
        assert str(err.value) == "segment 1: peak search failed"


def test_m16_golden_output(walabot):
    # pinned from the per-cell steering scan; the separable scan must give
    # the same detections, labels, counts and breathing estimates
    golden = Path(__file__).parent / "golden"
    result = run_pipeline(rv.simulate(m16_scene(seed=7), walabot))
    got = list(csv.DictReader(io.StringIO(table_text("detections", result))))
    expected = list(csv.DictReader(open(golden / "m16_seed7_detections.csv", encoding="utf-8")))
    exact = ["segment", "p_hat", "track", "d_m", "theta_rad", "x_m", "y_m"]
    assert [[r[c] for c in exact] for r in got] == [[r[c] for c in exact] for r in expected]
    np.testing.assert_allclose(
        [float(r["value"]) for r in got], [float(r["value"]) for r in expected], rtol=1e-9
    )
    assert_same_text(table_text("breathing", result),
                     (golden / "m16_seed7_breathing.csv").read_text(encoding="utf-8"))


def test_pipeline_does_not_import_scipy_linalg():
    # the runtime is numpy only: importing scipy.ndimage alone would load 87
    # scipy modules and add about 0.3 s and 27 MB to every process
    code = """
import sys
import radarvitals as rv
scene = rv.Scene(
    persons=(rv.PersonModel(location=rv.PolarLocation(2.0, 0.3)),),
    clutter=rv.ClutterModel(noise_std=0.1, seed=1),
    l=264,
    f_st=10.0,
)
result = rv.run_pipeline(rv.simulate(scene, rv.walabot_config(f_st=10.0)))
assert result.segments and result.tracks
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""
    src = str(Path(rv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_pipeline_does_not_load_numpy_ma():
    # numpy 2 imports numpy.ma (about 15 ms and 1.3 MB) on a first np.unique or
    # np.median; numpy 1.24 imports it with numpy, so compare before and after
    code = """
import sys
import radarvitals as rv
def numpy_ma():
    return {name for name in sys.modules if name == "numpy.ma" or name.startswith("numpy.ma.")}
loaded = numpy_ma()
scene = rv.Scene(
    persons=(rv.PersonModel(location=rv.PolarLocation(2.0, 0.3)),),
    clutter=rv.ClutterModel(noise_std=0.1, seed=1),
    l=464,
    f_st=10.0,
)
result = rv.run_pipeline(rv.simulate(scene, rv.walabot_config(f_st=10.0)))
report = rv.evaluate_result(result, scene)
assert result.segments and result.tracks and report.median_location_error is not None
print(sorted(numpy_ma() - loaded))
"""
    src = str(Path(rv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_pipeline_memory_stays_below_the_recording(walabot):
    # each segment is filtered from its own raw rows; no filtered copy of the
    # whole recording is made
    cube = rv.simulate(m16_scene(seed=7), walabot)
    tracemalloc.start()
    try:
        run_pipeline(cube)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cube.samples.nbytes


def test_segments_match_the_filtered_recording(walabot):
    # a segment filtered from its own raw rows equals that segment of the
    # filtered whole recording, up to the summation order of the cumsum
    config = rv.PipelineConfig()
    cube = rv.simulate(scene_of([breather(2.0, 10.0)], l=664, noise_std=0.1, seed=6), walabot)
    reference = rv.segment(rv.sma_filter(cube, config.w_st), config.l_st).segments
    result = run_pipeline(cube, config)
    for outcome, seg in zip(result.segments, reference, strict=True):
        np.testing.assert_array_equal(outcome.slow_time, seg.slow_time)
        lam = rv.stacked_covariance_eigenvalues(seg.samples, config.moe_spec(), config.n_cov)
        np.testing.assert_allclose(outcome.order.lam, lam, rtol=0, atol=1e-12 * lam[0])


def test_pipeline_matches_the_filtered_segment_rows(walabot):
    # run_pipeline filters only the covariance snapshot rows and the 1-D
    # beamformer outputs; the count eigenvalues must be those of the fully
    # filtered segment bit for bit, and the displacements agree to rounding
    config = rv.PipelineConfig()
    scene = scene_of([breather(1.6, -25.0, 0.25, 0.001), breather(2.7, 20.0, 0.35, 0.001)],
                     l=864, noise_std=0.1, seed=3)
    cube = rv.simulate(scene, walabot)
    result = run_pipeline(cube, config)
    f_c = rv.derive_params(walabot).f_c
    series = {(i, t.label): vs for t in result.tracks
              for (i, _), vs in zip(t.records, t.series, strict=True)}
    assert len(result.segments) == 4 and len(series) >= 2
    for index, outcome in enumerate(result.segments):
        start = index * config.l_st
        raw = cube.samples[start : start + config.l_st + config.w_st - 1]
        stamps = cube.slow_time[start : start + config.l_st + config.w_st - 1]
        seg = rv.sma_filter(rv.MeasurementCube(raw, stamps, walabot), config.w_st)
        lam = rv.stacked_covariance_eigenvalues(seg.samples, config.moe_spec(), config.n_cov)
        assert outcome.order.lam.tobytes() == lam.tobytes()
        for label, det in zip(outcome.track_labels, outcome.detections.detections):
            filt = rv.build_filter(det.location, walabot, window=config.window)
            expected = rv.extract_displacement(filt, seg, f_c)
            got = series[index, label]
            np.testing.assert_allclose(got.eta, expected.eta, rtol=0, atol=1e-12)
            assert got.f_st_actual == expected.f_st_actual


@pytest.mark.parametrize("l, segments", [(63, None), (64, 0), (262, 0), (263, 1)])
def test_short_recordings(tmp_path, walabot, l, segments):
    # default w_st = 64 and l_st = 200: one segment needs w_st - 1 + l_st = 263 samples
    cube = rv.simulate(scene_of([breather(2.0, 0.0)], l=l, noise_std=0.1, seed=1), walabot)
    path = tmp_path / "short.rvc"
    rv.write_container(cube, path)
    argv = ["detect", "--in", str(path), "--out", str(tmp_path / "o.csv")]
    if segments is None:
        with pytest.raises(ValueError, match="exceeds recording length"):
            run_pipeline(cube)
        assert main(argv) == 2
    elif segments == 0:
        with pytest.warns(UserWarning, match="shorter than one segment"):
            assert run_pipeline(cube).segments == []
        with pytest.warns(UserWarning, match="shorter than one segment"):
            assert main(argv) == 0
    else:
        assert len(run_pipeline(cube).segments) == segments
        assert main(argv) == 0


def test_non_finite_sample_is_rejected_at_entry(tmp_path, walabot):
    cube = rv.simulate(scene_of([breather(2.0, 0.0)], l=200), walabot)
    cube.samples[123, 4, 5] = np.nan
    # no segment fits in 200 samples: the rows past the last one are checked
    with pytest.warns(UserWarning, match="shorter than one segment"):
        with pytest.raises(rv.DataError, match=r"\[123, 4, 5\]"):
            run_pipeline(cube)
    path = tmp_path / "nan.rvc"
    rv.write_container(cube, path)
    with pytest.raises(rv.DataError, match=r"\[123, 4, 5\]"):
        rv.read_container(path)
    with pytest.warns(UserWarning, match="shorter than one segment"):
        assert main(["detect", "--in", str(path), "--out", str(tmp_path / "o.csv")]) == 3


def test_cli_numeric_failure_exit_code(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(rv.pipeline, "run_pipeline", fail)
    assert main(["detect", "--in", str(tmp_path / "x.rvc"),
                 "--out", str(tmp_path / "o.csv")]) == 4


def test_empty_room_yields_no_tracks(walabot):
    scene = scene_of([], l=464, noise_std=0.1, seed=4)
    result = run_pipeline(rv.simulate(scene, walabot))
    assert len(result.segments) == 2
    assert all(s.order.p_hat == 0 for s in result.segments)
    assert result.tracks == []
    assert result.final_detections.detections == []


def test_pipeline_deterministic(walabot):
    scene = scene_of([breather(2.0, 10.0, amp=0.0015)], l=464, noise_std=0.1, seed=6)
    a = run_pipeline(rv.simulate(scene, walabot))
    b = run_pipeline(rv.simulate(scene, walabot))
    for table in ("detections", "vitals", "breathing"):
        assert_same_text(table_text(table, a), table_text(table, b))


def test_pipeline_single_person_tracked(walabot):
    scene = scene_of([breather(2.0, 10.0, f_b=0.3, amp=0.0015)], l=664,
                     noise_std=0.1, seed=6)
    result = run_pipeline(rv.simulate(scene, walabot))
    assert [s.order.p_hat for s in result.segments] == [1, 1, 1]
    main_tracks = [t for t in result.tracks if len(t.records) == 3]
    assert len(main_tracks) == 1
    track = main_tracks[0]
    assert track.breathing_estimate == pytest.approx(0.3, abs=0.01)
    loc = track.last_location
    assert loc.d == pytest.approx(2.0, abs=0.05)
    assert loc.theta == pytest.approx(np.deg2rad(10.0), abs=np.deg2rad(1.5))


def test_track_labels_are_list_positions_with_one_series_per_record(walabot):
    # update_tracks labels new tracks in the order it appends them, so
    # run_pipeline finds each track of a label at that list position
    scene = scene_of([breather(1.6, -25.0, 0.25, 0.001), breather(2.7, 20.0, 0.35, 0.001)],
                     l=864, noise_std=0.1, seed=3)
    result = run_pipeline(rv.simulate(scene, walabot))
    assert len(result.tracks) >= 2
    assert [t.label for t in result.tracks] == list(range(len(result.tracks)))
    for track in result.tracks:
        assert len(track.series) == len(track.records)
        assert all(isinstance(vs, rv.VitalSeries) for vs in track.series)
    opened = [label for o in result.segments for label in o.track_labels]
    assert sorted(set(opened)) == list(range(len(result.tracks)))


def _two_person_scene(l):
    # two persons with PersonModel's default chest motion, like the benchmark's
    # 400 s CLI recordings
    persons = (rv.PersonModel(location=rv.PolarLocation(1.6, -0.3)),
               rv.PersonModel(location=rv.PolarLocation(2.9, 0.35)))
    return rv.Scene(persons=persons, clutter=rv.ClutterModel(noise_std=0.1, seed=11), l=l,
                    f_st=10.0)


@pytest.mark.parametrize("scene", [m16_scene(seed=7), _two_person_scene(2000)],
                         ids=["m16", "two_person"])
def test_weights_are_built_once_per_detection_cell(walabot, monkeypatch, scene):
    built = []
    real = rv.pipeline.build_filter

    def counting(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(rv.pipeline, "build_filter", counting)
    result = run_pipeline(rv.simulate(scene, walabot))
    cells = [det.location for o in result.segments for det in o.detections.detections]
    assert len(set(cells)) < len(cells)  # detections repeat cells, so there is reuse
    assert len(built) == len(set(cells))
    for weights in built:
        with pytest.raises(ValueError, match="read-only"):
            weights[0, 0] = 0.0


def _vitals_reference(result):
    """The vitals table as csv.writer writes it with the cell rule of every table."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("track", "segment", "t_s", "eta_m"))
    for track in result.tracks:
        for (seg, _), series in zip(track.records, track.series):
            for t, eta in zip(result.segments[seg].slow_time, series.eta):
                writer.writerow(map(rv.pipeline._cell, (track.label, seg, t, eta)))
    return buf.getvalue()


def test_vitals_csv_matches_the_csv_writer(walabot):
    result = run_pipeline(rv.simulate(_two_person_scene(864), walabot))
    assert sum(len(t.series) >= 3 for t in result.tracks) >= 2
    assert_same_text(table_text("vitals", result), _vitals_reference(result))


def test_vitals_csv_writes_floats_by_repr():
    det = rv.Detection(rv.PolarLocation(2.0, 0.1), 1.0)
    stamps = [np.array([0.0, 0.1]), np.array([0.30000000000000004, 1e-7])]
    etas = [np.array([-0.0, 5e-324]), np.array([1.2345678901234567e-05, -1e16])]
    tracks = [rv.Track(label, [(0, det), (1, det)], [rv.VitalSeries(eta, 10.0) for eta in etas])
              for label in (0, 1)]
    segments = [rv.pipeline.SegmentOutcome(None, rv.DetectionSet([det, det], seg, 2), [0, 1], t)
                for seg, t in enumerate(stamps)]
    result = rv.PipelineResult(rv.PipelineConfig(), segments, tracks, None)
    text = table_text("vitals", result)
    assert_same_text(text, _vitals_reference(result))
    # the shortest repr that reads back the same double, not the literal typed
    assert text.splitlines()[1:5] == ["0,0,0.0,-0.0", "0,0,0.1,5e-324",
                                      "0,1,0.30000000000000004,1.2345678901234568e-05",
                                      "0,1,1e-07,-1e+16"]
    empty = rv.PipelineResult(rv.PipelineConfig(), [], [], None)
    assert table_text("vitals", empty) == _vitals_reference(empty) == "track,segment,t_s,eta_m\n"


def _vitals_lines(result):
    """The vitals table by the cell rule applied to every line: both ints
    formatted on each line, the floats by repr."""
    lines = ["track,segment,t_s,eta_m"]
    for track in result.tracks:
        for (seg, _), series in zip(track.records, track.series):
            lines += [f"{track.label},{seg},{t!r},{eta!r}"
                      for t, eta in zip(result.segments[seg].slow_time.tolist(), series.eta.tolist())]
    return "\n".join(lines) + "\n"


def test_vitals_csv_equals_the_per_line_formula(walabot):
    # write_vitals formats each series' label and segment once, as a prefix
    result = run_pipeline(rv.simulate(_two_person_scene(864), walabot))
    assert sum(len(t.series) >= 3 for t in result.tracks) >= 2
    assert_same_text(table_text("vitals", result), _vitals_lines(result))


def test_no_accumulate_first_segment_identical(walabot):
    scene = scene_of([breather(2.0, 10.0, amp=0.0015)], l=664, noise_std=0.1, seed=6)
    cube = rv.simulate(scene, walabot)
    acc = run_pipeline(cube, rv.PipelineConfig())
    iso = run_pipeline(cube, rv.PipelineConfig(accumulate=False))
    first_rows = [table_text("detections", r).splitlines()[1] for r in (acc, iso)]
    assert first_rows[0] == first_rows[1]


def test_csv_shapes(walabot):
    scene = scene_of([breather(2.0, 10.0, amp=0.0015)], l=464, noise_std=0.1, seed=6)
    result = run_pipeline(rv.simulate(scene, walabot))
    det_lines = table_text("detections", result).splitlines()
    assert det_lines[0] == "segment,p_hat,track,d_m,theta_rad,x_m,y_m,value"
    assert len(det_lines) >= 2
    vit_lines = table_text("vitals", result).splitlines()
    assert vit_lines[0] == "track,segment,t_s,eta_m"
    assert len(vit_lines) == 1 + sum(len(t.series) for t in result.tracks) * 200
    diag_lines = table_text("order_diagnostics", result).splitlines()
    assert diag_lines[0] == "segment,index,eigenvalue,rd,is_candidate,beta,p_hat"


def test_evaluate_result_scores_truth(walabot):
    scene = scene_of([breather(2.0, 0.0, f_b=0.3, amp=0.0015)], l=464,
                     noise_std=0.1, seed=6)
    result = run_pipeline(rv.simulate(scene, walabot))
    report = rv.evaluate_result(result, scene)
    assert report.tpp == 1.0
    assert report.fdp == 0.0
    assert report.breathing_errors is not None
    assert abs(report.breathing_errors[0]) < 0.05


def _write_scene(path, extra=""):
    path.write_text(
        "l 464\nf_st 10.0\nnoise_std 0.1\nseed 6\n"
        "person.0.d 2.0\nperson.0.theta 0.174532925199433\n"
        "person.0.breath_freq 0.3\nperson.0.breath_amp 0.0015\n" + extra,
        encoding="utf-8",
    )


def test_cli_end_to_end(cli_tables, capsys):
    # the chain of the cli_tables run, whose evaluate call this repeats
    rec, tables = cli_tables
    assert main(["evaluate", "--in", str(tables["detections"]), "--truth", str(rec),
                 "--breathing", str(tables["breathing"])]) == 0
    assert "TPP=1.000" in capsys.readouterr().out
    report = tables["report"].read_text(encoding="utf-8").splitlines()
    assert report[0].startswith("id,obstacle,")
    assert report[1].startswith('"a,b",wood,1,1,0,0,')
    spec_lines = tables["spectrum"].read_text(encoding="utf-8").splitlines()
    assert spec_lines[0] == "d_m,theta_rad,value"
    assert len(spec_lines) == 1 + 181 * 145


def test_cli_rerun_byte_identical(cli_tables, tmp_path):
    # a second run of the cli_tables chain's first two commands
    rec, tables = cli_tables
    _write_scene(tmp_path / "scene.kv", "id a,b\nobstacle wood\n")
    for argv in (["simulate", "--scenario", tmp_path / "scene.kv", "--out", tmp_path / "b.rvc"],
                 ["detect", "--in", tmp_path / "b.rvc", "--out", tmp_path / "b.csv"]):
        assert main([str(arg) for arg in argv]) == 0
    assert (tmp_path / "b.rvc").read_bytes() == rec.read_bytes()
    assert_same_text((tmp_path / "b.csv").read_text(encoding="utf-8"),
                     tables["detections"].read_text(encoding="utf-8"))


def test_cli_convert_roundtrip(tmp_path):
    from helpers import raw_recording_of

    cfg = rv.walabot_config(10.0)
    cube = rv.simulate(scene_of([breather(1.8, 0.0)], l=2), cfg)
    rv.write_raw_dir(tmp_path / "raw", raw_recording_of(cube), cfg)
    out = tmp_path / "conv.rvc"
    assert main(["convert", "--raw", str(tmp_path / "raw"), "--out", str(out)]) == 0
    back = rv.read_container(out)
    np.testing.assert_allclose(back.samples, cube.samples, atol=1e-8)


@pytest.fixture(scope="module")
def cli_tables(tmp_path_factory):
    """All seven CSV tables of one small CLI run on a scene whose id holds a comma."""
    tmp = tmp_path_factory.mktemp("tables")
    _write_scene(tmp / "scene.kv", "id a,b\nobstacle wood\n")
    rec = tmp / "rec.rvc"
    t = {name: tmp / f"{name}.csv" for name in
         ("detections", "order", "vitals", "breathing", "periodogram", "report", "spectrum")}
    for argv in (
        ["simulate", "--scenario", tmp / "scene.kv", "--out", rec],
        ["detect", "--in", rec, "--out", t["detections"], "--order-diagnostics", t["order"]],
        ["vitals", "--in", rec, "--out", t["vitals"], "--breathing-out", t["breathing"],
         "--periodogram-out", t["periodogram"]],
        ["evaluate", "--in", t["detections"], "--truth", rec, "--breathing", t["breathing"],
         "--out", t["report"]],
        ["dump-spectrum", "--in", rec, "--out", t["spectrum"]],
    ):
        assert main([str(arg) for arg in argv]) == 0
    return rec, t


def test_cli_tables_read_back_as_numbers(cli_tables):
    _, tables = cli_tables
    for name, path in tables.items():
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, name
        for row in rows:
            for column, text in row.items():
                if column in ("id", "obstacle") or text == "":
                    continue
                try:
                    int(text)
                except ValueError:
                    float(text)  # raises on np.float64(...) and other reprs


def test_report_reads_back_id_with_comma(cli_tables):
    _, tables = cli_tables
    with open(tables["report"], newline="", encoding="utf-8") as fh:
        [row] = csv.DictReader(fh)
    assert (row["id"], row["obstacle"], row["p"]) == ("a,b", "wood", "1")


def test_cli_evaluate_reads_truth_header_only(cli_tables, monkeypatch, tmp_path):
    rec, tables = cli_tables

    def no_payload(path):
        raise AssertionError("evaluate read the container payload")

    monkeypatch.setattr(rv.dataio, "read_container", no_payload)
    out = tmp_path / "report.csv"
    assert main(["evaluate", "--in", str(tables["detections"]), "--truth", str(rec),
                 "--breathing", str(tables["breathing"]), "--out", str(out)]) == 0
    assert out.read_bytes() == tables["report"].read_bytes()


def test_cli_dump_spectrum_of_one_segment(cli_tables, tmp_path):
    rec, tables = cli_tables
    out = tmp_path / "seg1.csv"
    assert main(["dump-spectrum", "--in", str(rec), "--out", str(out), "--segment", "1"]) == 0
    text = out.read_text(encoding="utf-8")
    # segment 1's spectrum from the stage functions on its raw rows
    cube, config = rv.read_container(rec), rv.PipelineConfig()
    raw = cube.samples[config.l_st : 2 * config.l_st + config.w_st - 1]
    snaps = sma_rows(raw, config.w_st, snapshot_indices(config.l_st, config.n_cov))
    cov = rv.smoothed_covariance(snaps, config.music_spec(), len(snaps))
    assert_same_text(text, table_text("spectrum", rv.music_spectrum(cov, config.p_sub, config.grid,
                                                                    cube.config)))
    assert text != tables["spectrum"].read_text(encoding="utf-8")  # the accumulated one


def test_detect_and_dump_spectrum_form_no_vitals(cli_tables, tmp_path, monkeypatch):
    rec, tables = cli_tables
    segment = ["dump-spectrum", "--in", str(rec), "--out", str(tmp_path / "seg.csv"),
               "--segment", "1"]
    assert main(segment) == 0
    expected = {"seg": (tmp_path / "seg.csv").read_bytes(),
                **{name: tables[name].read_bytes() for name in ("detections", "order", "spectrum")}}

    def refuse(*args, **kwargs):
        raise RuntimeError("vitals work in a detections-only run")

    monkeypatch.setattr(rv.pipeline, "build_filter", refuse)
    monkeypatch.setattr(rv.pipeline, "beamform", refuse)
    out = {name: tmp_path / f"{name}.csv" for name in expected}
    assert main(["detect", "--in", str(rec), "--out", str(out["detections"]),
                 "--order-diagnostics", str(out["order"])]) == 0
    assert main(["dump-spectrum", "--in", str(rec), "--out", str(out["spectrum"])]) == 0
    assert main(segment) == 0
    for name, path in out.items():
        assert_same_text(path.read_bytes().decode(), expected[name].decode())
    with pytest.raises(RuntimeError, match="vitals work"):
        main(["vitals", "--in", str(rec), "--out", str(tmp_path / "vitals.csv")])


def test_cli_tables_equal_their_csv_strings(tmp_path, walabot):
    # each table the CLI streams into its file has the bytes its writer
    # writes into a string, and one detect call writes the five tables of
    # detect + vitals
    path = tmp_path / "rec.rvc"
    cube = rv.simulate(_two_person_scene(700), walabot)
    rv.write_container(cube, path)
    tables = ("detections", "order_diagnostics", "vitals", "breathing", "periodogram")
    out = {name: tmp_path / f"{name}.csv" for name in (*tables, "spectrum", "segment1")}
    one = {name: tmp_path / f"one_{name}.csv" for name in tables}
    flags = ["--out", "--order-diagnostics", "--vitals-out", "--breathing-out", "--periodogram-out"]
    for argv in (
        ["detect", "--in", path, "--out", out["detections"], "--order-diagnostics",
         out["order_diagnostics"]],
        ["vitals", "--in", path, "--out", out["vitals"], "--breathing-out", out["breathing"],
         "--periodogram-out", out["periodogram"]],
        ["dump-spectrum", "--in", path, "--out", out["spectrum"]],
        ["dump-spectrum", "--in", path, "--out", out["segment1"], "--segment", "1"],
        ["detect", "--in", path, *(arg for pair in zip(flags, one.values()) for arg in pair)],
    ):
        assert main([str(arg) for arg in argv]) == 0
    for name, file in one.items():
        assert file.read_bytes() == out[name].read_bytes(), name
    config = rv.PipelineConfig()
    result = run_pipeline(cube, config)
    assert len(result.segments) == 3 and sum(len(t.series) >= 2 for t in result.tracks) >= 2
    rows = slice(config.l_st, 2 * config.l_st + config.w_st - 1)
    segment1 = rv.MeasurementCube(cube.samples[rows], cube.slow_time[rows], cube.config)
    expected = {**{name: table_text(name, result) for name in tables},
                "spectrum": table_text("spectrum", result.accumulated),
                "segment1": table_text("spectrum",
                                       run_pipeline(segment1, config, vitals=False).accumulated)}
    for name, text in expected.items():
        assert_same_text(out[name].read_bytes().decode(), text)


@pytest.mark.parametrize("flag", ["--vitals-out", "--breathing-out", "--periodogram-out"])
def test_detect_with_a_vitals_side_table_forms_vitals(cli_tables, tmp_path, monkeypatch, flag):
    rec, _ = cli_tables

    def refuse(*args, **kwargs):
        raise RuntimeError("vitals work")

    monkeypatch.setattr(rv.pipeline, "build_filter", refuse)
    with pytest.raises(RuntimeError, match="vitals work"):
        main(["detect", "--in", str(rec), "--out", str(tmp_path / "d.csv"),
              flag, str(tmp_path / "v.csv")])
    assert not (tmp_path / "d.csv").exists()


def test_detect_no_accumulate_covers_every_table(tmp_path, walabot):
    # the breathing rows are those of the same non-accumulating run as the
    # detections, whose labels a separate accumulating vitals run would not give
    path = tmp_path / "rec.rvc"
    rv.write_container(rv.simulate(_two_person_scene(700), walabot), path)
    det, breath = tmp_path / "det.csv", tmp_path / "breath.csv"
    assert main(["detect", "--in", str(path), "--out", str(det), "--no-accumulate",
                 "--breathing-out", str(breath)]) == 0
    result = run_pipeline(path, rv.PipelineConfig(accumulate=False))
    assert_same_text(det.read_bytes().decode(), table_text("detections", result))
    assert_same_text(breath.read_bytes().decode(), table_text("breathing", result))
    assert table_text("breathing", result) != table_text("breathing", run_pipeline(path))


def test_vitals_streams_its_displacement_table(tmp_path, walabot):
    # the displacement table is written one series at a time: writing it
    # adds less than a quarter of its length to the run's traced peak,
    # where the line list, the joined text and its encoding took 0.7 of
    # it. 60 frequency steps and five persons with 4 mm of chest motion
    # give a long table next to the run's working set.
    cfg = dataclasses.replace(walabot, k=60, b=walabot.b * 60 / walabot.k)
    persons = [breather(d, th, f_b=f) for (d, th), f in
               zip([(1.5, -20.0), (2.5, 25.0), (2.0, 0.0), (3.0, -40.0), (1.2, 45.0)],
                   [0.3, 0.25, 0.2, 0.35, 0.4])]
    path = tmp_path / "rec.rvc"
    rv.write_container(rv.simulate(scene_of(persons, l=4500, noise_std=0.1, seed=3), cfg), path)
    out = tmp_path / "vitals.csv"
    argv = ["vitals", "--in", str(path), "--out", str(out)]
    assert main(argv) == 0  # caches the scan's phase tables
    peaks = []
    for run in (lambda: run_pipeline(path), lambda: main(argv)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    table = out.stat().st_size
    assert table > 1 << 20
    assert peaks[1] - peaks[0] < table / 4


def test_evaluate_scores_a_last_segment_that_found_nobody(tmp_path, walabot):
    # the detections table keeps a row for a segment without detections, so
    # evaluate scores the last segment as evaluate_result does, not the
    # last segment that found someone
    scene = scene_of([breather(2.0, 0.0)], l=4)
    truth = tmp_path / "truth.rvc"
    rv.write_container(rv.simulate(scene, walabot), truth)
    det = rv.Detection(rv.PolarLocation(2.0, 0.0), 1.0)
    order = rv.OrderDiagnostics(np.ones(2), np.ones(1), [0], 1, 1)
    segments = [
        rv.pipeline.SegmentOutcome(order, rv.DetectionSet([det], 0, 1), [0], np.zeros(1)),
        rv.pipeline.SegmentOutcome(dataclasses.replace(order, p_hat=0), rv.DetectionSet([], 1, 0),
                                   [], np.zeros(1)),
    ]
    result = rv.PipelineResult(rv.PipelineConfig(), segments, [rv.Track(0, [(0, det)])], None)
    text = table_text("detections", result)
    (tmp_path / "det.csv").write_text(text, encoding="utf-8")
    report = tmp_path / "report.csv"
    assert main(["evaluate", "--in", str(tmp_path / "det.csv"), "--truth", str(truth),
                 "--out", str(report)]) == 0
    expected = rv.evaluate_result(result, scene)
    assert expected.p_hat == 0
    assert report.read_text(encoding="utf-8") == table_text("report", expected)
    assert text.splitlines()[2] == "1,0,,,,,,"


def test_a_run_without_vitals_keeps_the_tracks_but_no_series(walabot):
    cube = rv.simulate(_two_person_scene(700), walabot)
    full, bare = run_pipeline(cube), run_pipeline(cube, vitals=False)
    assert_same_text(table_text("detections", bare), table_text("detections", full))
    assert [t.records for t in bare.tracks] == [t.records for t in full.tracks]
    assert all(t.series for t in full.tracks)
    assert not any(t.series or t.breathing_estimate is not None for t in bare.tracks)


@pytest.fixture(scope="module")
def long_container(tmp_path_factory):
    """A 4000-sample two-person container: 19 segments in a 70 MB payload."""
    path = tmp_path_factory.mktemp("long") / "long.rvc"
    scene = scene_of([breather(1.5, -20.0), breather(2.5, 25.0, f_b=0.25)], l=4000,
                     noise_std=0.1, seed=3)
    rv.write_container(rv.simulate(scene, rv.walabot_config(10.0)), path)
    return path


def test_cli_dump_spectrum_of_a_segment_reads_only_its_rows(long_container, tmp_path):
    # the header and segment 18's 263 raw rows (4.6 MB) rather than the whole
    # 70 MB payload, which took a 76.3 MB traced peak; segment 0 runs first,
    # so the scan's phase tables, computed once per process, are cached
    config = rv.PipelineConfig()
    segment_bytes = (config.l_st + config.w_st - 1) * 137 * 8 * 16
    assert os.path.getsize(long_container) > 15 * segment_bytes
    argv = ["dump-spectrum", "--in", str(long_container), "--out", str(tmp_path / "s.csv"),
            "--segment", "0"]
    assert main(argv) == 0
    argv[-1] = "18"
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * segment_bytes


def test_cli_dump_spectrum_of_a_segment_matches_the_whole_recording_read(long_container,
                                                                          tmp_path):
    cube, config = rv.read_container(long_container), rv.PipelineConfig()
    for segment in (0, 9, 18):
        out = tmp_path / f"seg{segment}.csv"
        argv = ["dump-spectrum", "--in", str(long_container), "--out", str(out),
                "--segment", str(segment)]
        assert main(argv) == 0
        rows = slice(segment * config.l_st, (segment + 1) * config.l_st + config.w_st - 1)
        own = rv.MeasurementCube(cube.samples[rows], cube.slow_time[rows], cube.config)
        assert_same_text(out.read_bytes().decode(),
                         table_text("spectrum", run_pipeline(own, config).accumulated))


def test_container_rows_are_checked_where_read(tmp_path):
    # a partial read checks the header, every stamp and the payload size in
    # full, and the samples it reads; a bad sample outside them goes unread
    cube = rv.simulate(scene_of([breather(2.0, 0.0)], l=8), rv.walabot_config(10.0))
    cube.samples[5, 3, 2] = np.nan
    path = tmp_path / "c.rvc"
    rv.write_container(cube, path)
    with rv.ContainerReader(path, slice(1, 4)) as part:
        samples = part.rows(0, part.l)
        part.check(0, samples)
        np.testing.assert_array_equal(samples, cube.samples[1:4])
        np.testing.assert_array_equal(part.slow_time, cube.slow_time[1:4])
    with pytest.raises(rv.DataError, match=r"sample \[5, 3, 2\] is \(nan"):
        with rv.ContainerReader(path, slice(4, 8)) as part:
            part.check(0, part.rows(0, part.l))
    with pytest.raises(rv.DataError, match="payload holds"):
        with open(path, "ab") as fh:
            fh.write(b"\0")
        rv.ContainerReader(path, slice(1, 4))


def test_on_disk_run_holds_one_segment_of_rows(long_container, tmp_path):
    # a container is read one segment at a time into one reused buffer; the
    # whole-container read took a 70 MB traced peak. The scan's phase
    # tables, computed once per process, are cached by the first run
    config = rv.PipelineConfig()
    segment_bytes = (config.l_st + config.w_st - 1) * 137 * 8 * 16
    short = tmp_path / "short.rvc"
    cube = rv.read_container(long_container)
    rv.write_container(rv.MeasurementCube(cube.samples[:2000], cube.slow_time[:2000], cube.config),
                       short)
    del cube
    run_pipeline(short, config)
    peaks = []
    for path in (short, long_container):
        tracemalloc.start()
        try:
            run_pipeline(path, config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 3 * segment_bytes
    assert peaks[1] - peaks[0] < 1 << 20


_TABLES = ("detections", "vitals", "breathing", "periodogram", "order_diagnostics")


@pytest.mark.parametrize("l, accumulate", [(700, True), (263, True), (700, False)],
                         ids=["tail", "one_segment", "no_accumulate"])
def test_streamed_run_equals_in_memory_run(tmp_path, walabot, l, accumulate):
    # 700 samples give 3 segments and 37 rows past the last; 263 exactly one
    scene = scene_of([breather(1.6, -25.0, 0.25, 0.001), breather(2.7, 20.0, 0.35, 0.001)],
                     l=l, noise_std=0.1, seed=5)
    path = tmp_path / "rec.rvc"
    rv.write_container(rv.simulate(scene, walabot), path)
    config = rv.PipelineConfig(accumulate=accumulate)
    streamed = run_pipeline(path, config)
    in_memory = run_pipeline(rv.read_container(path), config)
    assert len(streamed.segments) == (l - config.w_st + 1) // config.l_st
    assert streamed.tracks
    for table in _TABLES:
        assert_same_text(table_text(table, streamed), table_text(table, in_memory))
    assert_same_text(table_text("spectrum", streamed.accumulated),
                     table_text("spectrum", in_memory.accumulated))


@pytest.mark.parametrize("row", [410, 690], ids=["overlap", "tail"])
def test_every_sample_row_is_checked(tmp_path, walabot, row):
    # row 410 is read with segment 1 and kept for segment 2; row 690 lies past
    # the last of the 3 segments of 700 samples
    cube = rv.simulate(scene_of([breather(2.0, 0.0)], l=700, noise_std=0.1, seed=2), walabot)
    cube.samples[row, 4, 5] = np.nan
    path = tmp_path / "nan.rvc"
    rv.write_container(cube, path)
    for source in (cube, path):
        with pytest.raises(rv.DataError, match=rf"sample \[{row}, 4, 5\] is \(nan"):
            run_pipeline(source)
    assert main(["detect", "--in", str(path), "--out", str(tmp_path / "o.csv")]) == 3


def test_config_errors_are_reported_before_sample_errors(tmp_path, walabot, capsys):
    # validation order: header, config, then the samples as they are read
    cube = rv.simulate(scene_of([breather(2.0, 0.0)], l=264), walabot)
    cube.samples[0, 0, 0] = np.nan
    path = tmp_path / "nan.rvc"
    rv.write_container(cube, path)
    for source in (cube, path):
        with pytest.raises(rv.ConfigError, match="pad_factor"):
            run_pipeline(source, rv.PipelineConfig(pad_factor=0))
    config = tmp_path / "p.kv"
    config.write_text("pad_factor 0\n", encoding="utf-8")
    assert main(["detect", "--in", str(path), "--out", str(tmp_path / "o.csv"),
                 "--config", str(config)]) == 2
    assert "pad_factor" in capsys.readouterr().err


# Two segments of 463 samples: segment 0 spans rows [0, 263), segment 1 rows
# [200, 463), of which [263, 463) are new. Rows 0 and 262 are the first and
# last of segment 0's span, 263 and 462 of segment 1's new rows; 300 is read
# by no covariance snapshot.
_SCREEN_ROWS = [0, 262, 263, 300, 462]
_NON_FINITE = [complex(v, 0.0) for v in (np.nan, np.inf, -np.inf)] + [
    complex(0.0, v) for v in (np.nan, np.inf, -np.inf)]


@pytest.fixture(scope="module")
def two_segments():
    scene = scene_of([breather(2.0, 0.0)], l=463, noise_std=0.1, seed=2)
    return rv.simulate(scene, rv.walabot_config(f_st=10.0))


def _with_sample(cube, row, value, tmp_path):
    """A copy of ``cube`` with sample [row, 4, 5] set to ``value``, and that
    copy written to a container."""
    samples = cube.samples.copy()
    samples[row, 4, 5] = value
    bad = rv.MeasurementCube(samples, cube.slow_time, cube.config, cube.ground_truth)
    path = tmp_path / "bad.rvc"
    rv.write_container(bad, path)
    return bad, path


def _entry_error(samples, source) -> str:
    """The message of the entry check over the whole recording."""
    with pytest.raises(rv.DataError) as info:
        rv.dataio.check_finite(samples, source)
    return str(info.value)


@pytest.mark.parametrize("value", _NON_FINITE, ids=str)
@pytest.mark.parametrize("row", _SCREEN_ROWS)
def test_screen_names_every_non_finite_sample(two_segments, tmp_path, row, value):
    # the filtered snapshots screen each span; a sample they reject is named
    # by check_finite, as a check of the whole recording would name it
    bad, path = _with_sample(two_segments, row, value, tmp_path)
    expected = _entry_error(bad.samples, "recording")
    assert f"sample [{row}, 4, 5]" in expected
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nothing warns before the error
        for source, message in ((bad, expected), (path, _entry_error(bad.samples, path))):
            with pytest.raises(rv.DataError) as info:
                run_pipeline(source)
            assert str(info.value) == message
            # raised before the segment loop's handler, which notes the segment
            assert not getattr(info.value, "__notes__", None)


@pytest.mark.parametrize("row", [262, 462])
def test_a_single_snapshot_leaves_the_exact_check(two_segments, tmp_path, row):
    # with n_cov = 1 the only window ends on row w_st - 1 of the span, so its
    # sum does not reach the span's last row, which check_finite must cover
    config = rv.PipelineConfig(n_cov=1)
    assert (snapshot_indices(config.l_st, 1) + config.w_st).tolist() == [config.w_st]
    bad, path = _with_sample(two_segments, row, np.nan, tmp_path)
    for source in (bad, path):
        with pytest.raises(rv.DataError, match=rf"sample \[{row}, 4, 5\] is \(nan"):
            run_pipeline(source, config)


@pytest.mark.parametrize("row, value", [(0, complex(np.nan, 0.0)), (300, complex(0.0, np.inf)),
                                        (462, complex(-np.inf, 0.0))], ids=["nan", "inf_j", "-inf"])
def test_detect_reports_a_screened_sample_as_the_entry_check(two_segments, tmp_path, capsys,
                                                             row, value):
    # the error is raised outside the segment loop's handler, which would
    # prefix "segment i: " on Python 3.10, and no sum warns before it
    bad, path = _with_sample(two_segments, row, value, tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["detect", "--in", str(path), "--out", str(tmp_path / "o.csv")]) == 3
    assert capsys.readouterr().err == f"data error: {_entry_error(bad.samples, path)}\n"
    assert not (tmp_path / "o.csv").exists()


def _screen_bound(cfg, config=rv.PipelineConfig()):
    """The bound of ``pipeline._raw_segments``: sqrt(max / (8 N)), N the
    snapshots times k m, at least the products a covariance Gram entry sums."""
    n = snapshot_indices(config.l_st, config.n_cov).size * cfg.k * cfg.m_r * cfg.m_t
    return math.sqrt(sys.float_info.max / (8 * n))


@pytest.mark.parametrize("value", [1e308, 1e160])
def test_a_finite_overflow_is_a_data_error(two_segments, tmp_path, capsys, value):
    # two finite samples whose sums overflow (1e308), or whose covariance
    # products would (1e160), fail the screen of segment 1's span; with no
    # non-finite sample to name, the error names the span and the bound
    samples = two_segments.samples.copy()
    samples[[300, 301], 4, 5] = value
    bad = rv.MeasurementCube(samples, two_segments.slow_time, two_segments.config)
    path = tmp_path / "big.rvc"
    rv.write_container(bad, path)
    bound = _screen_bound(bad.config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for source in (bad, path):
            with pytest.raises(rv.DataError) as info:
                run_pipeline(source)
            assert str(info.value) == (
                f"{'recording' if source is bad else path}: rows [200, 463) are finite, but "
                f"their clutter-filtered samples exceed {bound!r} in magnitude, above which "
                f"the covariance sums may overflow")
        assert main(["detect", "--in", str(path), "--out", str(tmp_path / "o.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: rows [200, 463) are finite")
    assert "Traceback" not in err


def test_the_screen_bound_keeps_the_covariance_finite(two_segments):
    # the two samples at 1e150 pass the screen; so does every row alternating
    # at +-(1 + 1j) c with c the bound, the same in every [k, m]: the clutter
    # filter passes it unchanged and every covariance product adds
    # coherently, the worst case of the bound's derivation
    cfg, bound = two_segments.config, _screen_bound(two_segments.config)
    samples = two_segments.samples.copy()
    samples[[300, 301], 4, 5] = 1e150
    alternating = (-1.0) ** np.arange(two_segments.l)[:, None, None] * (1 + 1j)
    for rows, runs in ((samples, True), (bound * alternating, True),
                       (np.nextafter(bound, np.inf) * alternating, False)):
        cube = rv.MeasurementCube(np.broadcast_to(rows, samples.shape), two_segments.slow_time,
                                  cfg)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            if runs:
                result = run_pipeline(cube)
                assert len(result.segments) == 2
                assert np.isfinite(result.segments[0].order.lam).all()
            else:
                with pytest.raises(rv.DataError, match=r"rows \[0, 263\) are finite"):
                    run_pipeline(cube)
        assert not [w for w in record if issubclass(w.category, RuntimeWarning)]


def test_a_finite_recording_is_checked_by_the_screen(walabot, tmp_path, monkeypatch):
    # check_finite runs only over the rows past the last segment; the
    # segments' rows are screened by their filtered snapshots
    cube = rv.simulate(scene_of([breather(2.0, 0.0)], l=700, noise_std=0.1, seed=2), walabot)
    path = tmp_path / "rec.rvc"
    rv.write_container(cube, path)
    checked = []
    real = rv.dataio.check_finite

    def counting(samples, source, first_row=0, bound=None):
        checked.append((first_row, len(samples)))
        real(samples, source, first_row, bound)

    monkeypatch.setattr(rv.dataio, "check_finite", counting)
    for source in (cube, path):
        checked.clear()
        assert len(run_pipeline(source).segments) == 3
        assert checked == [(663, 37)]


def _raw_dir_of_two_samples(tmp_path):
    raw()(tmp_path)
    return tmp_path / "raw", read_kv(tmp_path / "raw" / "raw.kv")


def test_raw_kv_key_set_is_closed(tmp_path):
    # a misspelt radar key would leave its field at the default, and a stray
    # key would be dropped by the conversion: each is refused by name
    raw_dir, entries = _raw_dir_of_two_samples(tmp_path)
    misspelt = {("C" if k == "c" else k): v for k, v in entries.items()}
    for bad, key in (({**misspelt, "bogus": "1"}, "C"), ({**entries, "bogus": "1"}, "bogus")):
        write_kv(raw_dir / "raw.kv", bad)
        with pytest.raises(rv.ConfigError, match=f"unknown raw.kv key {key!r}"):
            rv.read_raw_dir(raw_dir)
    # the dataset metadata that scene files also carry is read past unread
    converted = []
    for meta in ({}, {"id": "s01", "obstacle": "free", "meta.room": "a"}):
        write_kv(raw_dir / "raw.kv", {**entries, **meta})
        out = tmp_path / f"{len(meta)}.rvc"
        assert main(["convert", "--raw", str(raw_dir), "--out", str(out)]) == 0
        converted.append((rv.read_raw_dir(raw_dir)[1], out.read_bytes()))
    assert converted[0] == converted[1]


def test_legacy_radar_keys_read_by_one_rule(tmp_path, capsys):
    # files from before RadarConfig lost delta_t, t_tone and t_sweep: t_tone and
    # t_sweep are ignored, and delta_t must be the uniform array's m_r * delta
    cfg = rv.walabot_config(10.0)

    def legacy(delta_t):
        return {"delta_t": delta_t, "t_tone": "1.0437956204379563e-07", "t_sweep": "1.43e-05"}

    container = tmp_path / "rec.rvc"  # one segment long, so that detect runs
    rv.write_container(rv.simulate(scene_of([], l=264, noise_std=0.1, seed=4), cfg), container)
    fresh = container.read_bytes()
    raw_dir, raw_entries = _raw_dir_of_two_samples(tmp_path)
    radar, scene = tmp_path / "radar.kv", tmp_path / "scene.kv"
    scene.write_text("l 4\n", encoding="utf-8")
    simulate = ["simulate", "--scenario", str(scene), "--config", str(radar),
                "--out", str(tmp_path / "sim.rvc")]
    for delta_t, codes in (("0.08", (0, 0, 0)), ("0.05", (3, 2, 2))):
        extra = "".join(f"{k} {v}\n" for k, v in legacy(delta_t).items()).encode()
        container.write_bytes(fresh.replace(b"RVC1\n", b"RVC1\n" + extra, 1))
        write_kv(raw_dir / "raw.kv", {**raw_entries, **legacy(delta_t)})
        write_kv(radar, {**rv.core.config_to_entries(cfg), **legacy(delta_t)})
        got = (main(["detect", "--in", str(container), "--out", str(tmp_path / "d.csv")]),
               main(["convert", "--raw", str(raw_dir), "--out", str(tmp_path / "c.rvc")]),
               main(simulate))
        assert got == codes, delta_t
        err = capsys.readouterr().err
        if delta_t == "0.08":
            assert rv.read_container(container).config == cfg
            assert rv.read_raw_dir(raw_dir)[1] == cfg
            assert rv.read_container(tmp_path / "sim.rvc").config == cfg
        else:
            assert err.count("config key 'delta_t' is 0.05, but only the uniform array") == 3


# the tests of this module's groups of test_cli.CASES, which run the CLI in process
globals().update(in_process_tests(__name__))
