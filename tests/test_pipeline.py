import csv
import io
import math
import os
import string
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import radarvitals as rv
from radarvitals.cli import main
from radarvitals.kvfile import format_kv, parse_kv, read_kv, write_kv
from radarvitals.localize import snapshot_indices
from radarvitals.pipeline import (
    breathing_csv,
    detections_csv,
    order_diagnostics_csv,
    periodogram_csv,
    pipeline_config_from_entries,
    pipeline_config_to_entries,
    run_pipeline,
    spectrum_csv,
    vitals_csv,
)
from radarvitals.preprocess import sma_rows
from helpers import breather, m16_scene, scene_of


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
    got = list(csv.DictReader(io.StringIO(detections_csv(result))))
    expected = list(csv.DictReader(open(golden / "m16_seed7_detections.csv", encoding="utf-8")))
    exact = ["segment", "p_hat", "track", "d_m", "theta_rad", "x_m", "y_m"]
    assert [[r[c] for c in exact] for r in got] == [[r[c] for c in exact] for r in expected]
    np.testing.assert_allclose(
        [float(r["value"]) for r in got], [float(r["value"]) for r in expected], rtol=1e-9
    )
    assert breathing_csv(result) == (golden / "m16_seed7_breathing.csv").read_text(encoding="utf-8")


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
    with pytest.raises(rv.DataError, match=r"\[123, 4, 5\]"):
        run_pipeline(cube)
    path = tmp_path / "nan.rvc"
    rv.write_container(cube, path)
    with pytest.raises(rv.DataError, match=r"\[123, 4, 5\]"):
        rv.read_container(path)
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
    assert detections_csv(a) == detections_csv(b)
    assert vitals_csv(a) == vitals_csv(b)
    assert breathing_csv(a) == breathing_csv(b)


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
    assert len(built) == len(set(cells)) + 1  # plus the config check's own call
    for weights in built[1:]:
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
    assert vitals_csv(result) == _vitals_reference(result)


def test_vitals_csv_writes_floats_by_repr():
    det = rv.Detection(rv.PolarLocation(2.0, 0.1), 1.0)
    stamps = [np.array([0.0, 0.1]), np.array([0.30000000000000004, 1e-7])]
    etas = [np.array([-0.0, 5e-324]), np.array([1.2345678901234567e-05, -1e16])]
    tracks = [rv.Track(label, [(0, det), (1, det)], [rv.VitalSeries(eta, 10.0) for eta in etas])
              for label in (0, 1)]
    segments = [rv.pipeline.SegmentOutcome(None, rv.DetectionSet([det, det], seg, 2), [0, 1], t)
                for seg, t in enumerate(stamps)]
    result = rv.PipelineResult(rv.PipelineConfig(), segments, tracks, None)
    text = vitals_csv(result)
    assert text == _vitals_reference(result)
    # the shortest repr that reads back the same double, not the literal typed
    assert text.splitlines()[1:5] == ["0,0,0.0,-0.0", "0,0,0.1,5e-324",
                                      "0,1,0.30000000000000004,1.2345678901234568e-05",
                                      "0,1,1e-07,-1e+16"]
    empty = rv.PipelineResult(rv.PipelineConfig(), [], [], None)
    assert vitals_csv(empty) == _vitals_reference(empty) == "track,segment,t_s,eta_m\n"


def test_no_accumulate_first_segment_identical(walabot):
    scene = scene_of([breather(2.0, 10.0, amp=0.0015)], l=664, noise_std=0.1, seed=6)
    cube = rv.simulate(scene, walabot)
    acc = run_pipeline(cube, rv.PipelineConfig())
    iso = run_pipeline(cube, rv.PipelineConfig(accumulate=False))
    assert detections_csv(acc).splitlines()[1] == detections_csv(iso).splitlines()[1]


def test_csv_shapes(walabot):
    scene = scene_of([breather(2.0, 10.0, amp=0.0015)], l=464, noise_std=0.1, seed=6)
    result = run_pipeline(rv.simulate(scene, walabot))
    det_lines = detections_csv(result).splitlines()
    assert det_lines[0] == "segment,p_hat,track,d_m,theta_rad,x_m,y_m,value"
    assert len(det_lines) >= 2
    vit_lines = vitals_csv(result).splitlines()
    assert vit_lines[0] == "track,segment,t_s,eta_m"
    assert len(vit_lines) == 1 + sum(len(t.series) for t in result.tracks) * 200
    diag_lines = order_diagnostics_csv(result).splitlines()
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


def test_cli_end_to_end(tmp_path, capsys):
    scene_path = tmp_path / "scene.kv"
    _write_scene(scene_path, "id T7\nobstacle free\n")
    container = tmp_path / "rec.rvc"
    assert main(["simulate", "--scenario", str(scene_path), "--out", str(container)]) == 0
    det_csv = tmp_path / "det.csv"
    assert main(["detect", "--in", str(container), "--out", str(det_csv),
                 "--order-diagnostics", str(tmp_path / "moe.csv")]) == 0
    assert det_csv.exists() and (tmp_path / "moe.csv").exists()
    vit_csv = tmp_path / "vitals.csv"
    breath_csv = tmp_path / "breath.csv"
    assert main(["vitals", "--in", str(container), "--out", str(vit_csv),
                 "--breathing-out", str(breath_csv),
                 "--periodogram-out", str(tmp_path / "pgram.csv")]) == 0
    report_csv = tmp_path / "report.csv"
    assert main(["evaluate", "--in", str(det_csv), "--truth", str(container),
                 "--breathing", str(breath_csv), "--out", str(report_csv)]) == 0
    out = capsys.readouterr().out
    assert "TPP=1.000" in out
    report = report_csv.read_text(encoding="utf-8").splitlines()
    assert report[0].startswith("id,obstacle,")
    assert report[1].startswith("T7,free,1,1,0,0,")
    assert main(["dump-spectrum", "--in", str(container),
                 "--out", str(tmp_path / "spec.csv")]) == 0
    spec_lines = (tmp_path / "spec.csv").read_text(encoding="utf-8").splitlines()
    assert spec_lines[0] == "d_m,theta_rad,value"
    assert len(spec_lines) == 1 + 181 * 145


def test_cli_rerun_byte_identical(tmp_path):
    scene_path = tmp_path / "scene.kv"
    _write_scene(scene_path)
    main(["simulate", "--scenario", str(scene_path), "--out", str(tmp_path / "a.rvc")])
    main(["simulate", "--scenario", str(scene_path), "--out", str(tmp_path / "b.rvc")])
    assert (tmp_path / "a.rvc").read_bytes() == (tmp_path / "b.rvc").read_bytes()
    main(["detect", "--in", str(tmp_path / "a.rvc"), "--out", str(tmp_path / "a.csv")])
    main(["detect", "--in", str(tmp_path / "b.rvc"), "--out", str(tmp_path / "b.csv")])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_cli_convert_roundtrip(tmp_path):
    from helpers import raw_recording_of

    cfg = rv.walabot_config(10.0)
    cube = rv.simulate(scene_of([breather(1.8, 0.0)], l=2), cfg)
    rv.write_raw_dir(tmp_path / "raw", raw_recording_of(cube), cfg)
    out = tmp_path / "conv.rvc"
    assert main(["convert", "--raw", str(tmp_path / "raw"), "--out", str(out)]) == 0
    back = rv.read_container(out)
    np.testing.assert_allclose(back.samples, cube.samples, atol=1e-8)


def test_cli_dump_spectrum_of_a_recording_without_a_segment(tmp_path, capsys):
    path = tmp_path / "short.rvc"
    rv.write_container(rv.simulate(scene_of([breather(2.0, 0.0)], l=100), rv.walabot_config(10.0)),
                       path)
    with pytest.warns(UserWarning, match="which needs w_st - 1 \\+ l_st = 64 - 1 \\+ 200 = 263"):
        code = main(["dump-spectrum", "--in", str(path), "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "no spectrum" in capsys.readouterr().err


def _drop_pair_keys(raw_dir):
    entries = read_kv(raw_dir / "raw.kv")
    write_kv(raw_dir / "raw.kv", {k: v for k, v in entries.items() if not k.startswith("pair.")})


def _pair_outside_the_array(raw_dir):
    write_kv(raw_dir / "raw.kv", {**read_kv(raw_dir / "raw.kv"), "pair.0.tx": "2"})


@pytest.mark.parametrize("edit, message", [
    (lambda raw_dir: (raw_dir / "raw.kv").unlink(), "cannot read raw.kv"),
    (_drop_pair_keys, "names no antenna pairs"),
    (lambda raw_dir: (raw_dir / "profiles.npy").unlink(), "cannot load raw arrays"),
    (_pair_outside_the_array, "pair (2, 0) outside the 2 x 4 array"),
], ids=["no raw.kv", "no pair keys", "no profiles.npy", "pair outside the array"])
def test_cli_convert_unusable_raw_dir_is_data_error(tmp_path, capsys, edit, message):
    raw_dir, _ = _raw_dir_of_two_samples(tmp_path)
    edit(raw_dir)
    assert main(["convert", "--raw", str(raw_dir), "--out", str(tmp_path / "x.rvc")]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.rvc").exists()


@pytest.mark.parametrize("key", ["person.x.d", "person.0"])
def test_cli_malformed_scene_item_key_is_usage_error(tmp_path, capsys, key):
    scene_path = tmp_path / "scene.kv"
    scene_path.write_text(f"l 10\n{key} 1.0\n", encoding="utf-8")
    assert main(["simulate", "--scenario", str(scene_path),
                 "--out", str(tmp_path / "x.rvc")]) == 2
    assert f"malformed key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("w_st 0", "window w_st must be >= 1, got 0"),
    ("pad_factor 0", "pad_factor must be >= 1"),
])
def test_cli_zero_window_or_pad_factor_is_usage_error(tmp_path, capsys, line, message):
    container = tmp_path / "rec.rvc"
    rv.write_container(rv.simulate(scene_of([], l=264, noise_std=0.1, seed=4),
                                   rv.walabot_config(10.0)), container)
    config = tmp_path / "pipe.kv"
    config.write_text(line + "\n", encoding="utf-8")
    assert main(["detect", "--in", str(container), "--out", str(tmp_path / "o.csv"),
                 "--config", str(config)]) == 2
    assert message in capsys.readouterr().err


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["detect"])  # missing required arguments
    assert err.value.code == 2


def test_cli_missing_file_is_data_error(tmp_path):
    assert main(["detect", "--in", str(tmp_path / "nope.rvc"),
                 "--out", str(tmp_path / "out.csv")]) == 3


def test_cli_bad_container_is_data_error(tmp_path):
    bad = tmp_path / "bad.rvc"
    bad.write_bytes(b"not a container")
    assert main(["detect", "--in", str(bad), "--out", str(tmp_path / "o.csv")]) == 3


def test_cli_evaluate_without_truth_is_data_error(tmp_path):
    cfg = rv.walabot_config(10.0)
    cube = rv.simulate(scene_of([], l=4), cfg)
    cube.ground_truth = None
    container = tmp_path / "plain.rvc"
    rv.write_container(cube, container)
    det = tmp_path / "det.csv"
    det.write_text("segment,p_hat,track,d_m,theta_rad,x_m,y_m,value\n", encoding="utf-8")
    assert main(["evaluate", "--in", str(det), "--truth", str(container)]) == 3


def test_cli_bad_scene_key_is_usage_error(tmp_path):
    scene_path = tmp_path / "scene.kv"
    scene_path.write_text("l 10\nwhoops 3\n", encoding="utf-8")
    assert main(["simulate", "--scenario", str(scene_path),
                 "--out", str(tmp_path / "x.rvc")]) == 2


def test_cli_scene_missing_key_is_usage_error(tmp_path, capsys):
    scene_path = tmp_path / "scene.kv"
    scene_path.write_text("l 10\nperson.0.theta 0.1\n", encoding="utf-8")
    assert main(["simulate", "--scenario", str(scene_path),
                 "--out", str(tmp_path / "x.rvc")]) == 2
    assert "'person.0.d'" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("person.1.d", "-1", "person.1: range must be non-negative, got -1.0"),
    ("person.1.breath_freq", "-0.1", "person.1: breath_freq must be positive"),
    ("reflector.0.theta", "2", "reflector.0: azimuth must lie in (-pi/2, pi/2), got 2.0"),
    # a parse error names the key itself and gets no prefix
    ("person.1.breath_freq", "abc",
     "bad value for config key 'person.1.breath_freq': 'abc' is not a finite float"),
], ids=["range", "breath_freq", "azimuth", "parse_error"])
def test_cli_bad_scene_item_names_it(tmp_path, capsys, key, value, message):
    entries = {"l": "10", "person.0.d": "2.0", "person.0.theta": "0.0",
               "person.1.d": "1.0", "person.1.theta": "0.2",
               "reflector.0.d": "1.5", "reflector.0.theta": "0.1"}
    scene_path = tmp_path / "scene.kv"
    write_kv(scene_path, {**entries, key: value})
    assert main(["simulate", "--scenario", str(scene_path),
                 "--out", str(tmp_path / "x.rvc")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_unknown_radar_config_key_is_usage_error(tmp_path, capsys):
    scene_path = tmp_path / "scene.kv"
    scene_path.write_text("l 4\n", encoding="utf-8")
    config = tmp_path / "radar.kv"
    entries = rv.core.config_to_entries(rv.walabot_config(10.0))
    write_kv(config, entries)
    argv = ["simulate", "--scenario", str(scene_path), "--config", str(config),
            "--out", str(tmp_path / "x.rvc")]
    assert main(argv) == 0
    assert rv.read_container(tmp_path / "x.rvc").config == rv.walabot_config(10.0)
    write_kv(config, {**entries, "delta_tt": "0.5"})
    assert main(argv) == 2
    assert "unknown radar config key 'delta_tt'" in capsys.readouterr().err


def test_cli_bad_pipeline_config_is_usage_error(tmp_path, capsys):
    scene_path = tmp_path / "scene.kv"
    _write_scene(scene_path)
    container = tmp_path / "rec.rvc"
    assert main(["simulate", "--scenario", str(scene_path), "--out", str(container)]) == 0
    config = tmp_path / "pipe.kv"
    for line in ("grid.d_step 0", "grid.theta_step 0", "grid.d_step -0.1",
                 "grid.theta_max 1.6", "grid.d_max -1", "grid.d_max 20", "accumulate ture",
                 "alpha nan"):
        config.write_text(line + "\n", encoding="utf-8")
        code = main(["detect", "--in", str(container), "--out", str(tmp_path / "o.csv"),
                     "--config", str(config)])
        assert code == 2, line
        assert f"'{line.split()[0]}'" in capsys.readouterr().err


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


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_cli_evaluate_rejects_bad_d_match(cli_tables, capsys, value):
    rec, tables = cli_tables
    assert main(["evaluate", "--in", str(tables["detections"]), "--truth", str(rec),
                 f"--d-match={value}"]) == 2
    assert "d_match" in capsys.readouterr().err


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
    assert text == spectrum_csv(rv.music_spectrum(cov, config.p_sub, config.grid, cube.config))
    assert text != tables["spectrum"].read_text(encoding="utf-8")  # the accumulated one
    assert main(["dump-spectrum", "--in", str(rec), "--out", str(out), "--segment", "99"]) == 2


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
        assert out.read_bytes() == spectrum_csv(run_pipeline(own, config).accumulated).encode()
    for segment in ("19", "-1"):
        argv[-1] = segment
        assert main(argv) == 2


def test_container_rows_are_checked_where_read(tmp_path):
    # a partial read checks the header, every stamp and the payload size in
    # full, and the samples it reads; a bad sample outside them goes unread
    cube = rv.simulate(scene_of([breather(2.0, 0.0)], l=8), rv.walabot_config(10.0))
    cube.samples[5, 3, 2] = np.nan
    path = tmp_path / "c.rvc"
    rv.write_container(cube, path)
    part = rv.read_container(path, slice(1, 4))
    np.testing.assert_array_equal(part.samples, cube.samples[1:4])
    np.testing.assert_array_equal(part.slow_time, cube.slow_time[1:4])
    with pytest.raises(rv.DataError, match=r"sample \[5, 3, 2\] is \(nan"):
        rv.read_container(path, slice(4, 8))
    with pytest.raises(rv.DataError, match="payload holds"):
        with open(path, "ab") as fh:
            fh.write(b"\0")
        rv.read_container(path, slice(1, 4))


def test_on_disk_run_holds_one_segment_of_rows(long_container, tmp_path):
    # a container is read one segment at a time into one reused buffer; the
    # whole-container read took a 70 MB traced peak. The scan's phase
    # tables, computed once per process, are cached by the first run
    config = rv.PipelineConfig()
    segment_bytes = (config.l_st + config.w_st - 1) * 137 * 8 * 16
    short = tmp_path / "short.rvc"
    rv.write_container(rv.read_container(long_container, slice(0, 2000)), short)
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


_TABLES = (detections_csv, vitals_csv, breathing_csv, periodogram_csv, order_diagnostics_csv)


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
        assert table(streamed) == table(in_memory), table.__name__
    assert spectrum_csv(streamed.accumulated) == spectrum_csv(in_memory.accumulated)


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


_DETECTIONS_HEAD = "segment,p_hat,track,d_m,theta_rad,x_m,y_m,value\n"


@pytest.mark.parametrize("detections, breathing, column", [
    ("segment,d_m\n0,1.5\n", None, "p_hat"),
    (_DETECTIONS_HEAD + "0,1,0,1.5,0.0,0.0,1.5,9.0\n", "track,d_m,theta_rad\n0,1.5,0.0\n",
     "f_hat_hz"),
    (_DETECTIONS_HEAD + "0,1,0,x,0.0,0.0,1.5,9.0\n", None, "d_m"),
], ids=["two-columns", "no-f_hat_hz", "bad-d_m"])
def test_cli_evaluate_bad_csv_is_data_error(tmp_path, capsys, detections, breathing, column):
    container = tmp_path / "rec.rvc"
    rv.write_container(rv.simulate(scene_of([breather(1.5, 0.0)], l=4), rv.walabot_config(10.0)),
                       container)
    det = tmp_path / "det.csv"
    det.write_text(detections, encoding="utf-8")
    argv = ["evaluate", "--in", str(det), "--truth", str(container)]
    if breathing is not None:
        (tmp_path / "br.csv").write_text(breathing, encoding="utf-8")
        argv += ["--breathing", str(tmp_path / "br.csv")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"column {column!r}" in err and "Traceback" not in err


def _raw_dir_of_two_samples(tmp_path):
    from helpers import raw_recording_of

    cfg = rv.walabot_config(10.0)
    raw_dir = tmp_path / "raw"
    rv.write_raw_dir(raw_dir, raw_recording_of(rv.simulate(scene_of([], l=2), cfg)), cfg)
    return raw_dir, read_kv(raw_dir / "raw.kv")


def _convert_is_usage_error(tmp_path, capsys, raw_dir, key):
    assert main(["convert", "--raw", str(raw_dir), "--out", str(tmp_path / "x.rvc")]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "x.rvc").exists()


@pytest.mark.parametrize("key, value", [
    ("pair.0.rx", None),  # a tx entry without its rx entry
    ("pair.0.tx", "x"),
    ("f_s_ft", "nan"),
    ("f_s_ft", None),
    ("pair.8.rx", "1"),  # an rx entry past the last pair
    ("pair.0.gain", "2"),  # a field the pair table does not have
])
def test_cli_convert_bad_raw_kv_is_usage_error(tmp_path, capsys, key, value):
    raw_dir, entries = _raw_dir_of_two_samples(tmp_path)
    if value is None:
        del entries[key]
    else:
        entries[key] = value
    write_kv(raw_dir / "raw.kv", entries)
    _convert_is_usage_error(tmp_path, capsys, raw_dir, key)


def test_cli_convert_raw_kv_pair_gap_is_usage_error(tmp_path, capsys):
    # profile column i is pair.<i>, so a pair table with a gap is rejected
    raw_dir, entries = _raw_dir_of_two_samples(tmp_path)
    entries = {k.replace("pair.7.", "pair.8."): v for k, v in entries.items()}
    write_kv(raw_dir / "raw.kv", entries)
    _convert_is_usage_error(tmp_path, capsys, raw_dir, "pair.8.rx")


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


@pytest.mark.parametrize("stamps, message", [
    ([0.0, np.nan], "slow_time must be finite"),
    ([0.1, 0.1], "slow_time must be strictly increasing"),
], ids=["nan", "repeated"])
def test_cli_convert_bad_raw_slow_time_is_data_error(tmp_path, capsys, stamps, message):
    from helpers import raw_recording_of

    cfg = rv.walabot_config(10.0)
    raw_dir = tmp_path / "raw"
    rv.write_raw_dir(raw_dir, raw_recording_of(rv.simulate(scene_of([], l=2), cfg)), cfg)
    np.save(raw_dir / "slow_time.npy", np.array(stamps))
    assert main(["convert", "--raw", str(raw_dir), "--out", str(tmp_path / "x.rvc")]) == 3
    assert capsys.readouterr().err == f"data error: {raw_dir}: {message}\n"
    assert not (tmp_path / "x.rvc").exists()
