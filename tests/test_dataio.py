import hashlib
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import radarvitals as rv
from radarvitals.cli import main
from helpers import breather, raw_recording_of, scene_of, small_config


def _random_cube(cfg, l=4, seed=0, truth=None):
    rng = np.random.default_rng(seed)
    m = cfg.m_r * cfg.m_t
    samples = rng.standard_normal((l, cfg.k, m)) + 1j * rng.standard_normal((l, cfg.k, m))
    return rv.MeasurementCube(samples, np.arange(l) / cfg.f_st, cfg, ground_truth=truth)


def test_container_roundtrip_bit_identical(tmp_path):
    cfg = small_config()
    truth = scene_of([breather(1.5, -20.0, f_b=0.27)], l=4, noise_std=0.05, seed=3)
    cube = _random_cube(cfg, truth=truth)
    path = tmp_path / "cube.rvc"
    rv.write_container(cube, path, meta={"id": "T1", "obstacle": "free"})
    back = rv.read_container(path)
    assert np.array_equal(back.samples, cube.samples)
    assert np.array_equal(back.slow_time, cube.slow_time)
    assert back.config == cfg
    assert back.ground_truth is not None
    assert back.ground_truth.persons[0].breath_freq == 0.27
    header = rv.read_header(path)
    assert header["meta.id"] == "T1"
    assert header["meta.obstacle"] == "free"


def test_container_truncation_reports_sizes(tmp_path):
    cfg = small_config()
    path = tmp_path / "cube.rvc"
    rv.write_container(_random_cube(cfg), path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(rv.RVCFormatError) as err:
        rv.read_container(path)
    expected = 4 * cfg.k * cfg.m_r * cfg.m_t * 16
    assert str(expected) in str(err.value)
    assert str(expected - 8) in str(err.value)
    assert "offset" in str(err.value)


def test_container_reader_rejects_a_payload_that_shrank_after_opening(tmp_path):
    path = tmp_path / "cube.rvc"
    rv.write_container(_random_cube(small_config()), path)
    with rv.ContainerReader(path) as reader:
        with open(path, "r+b") as fh:
            fh.truncate(path.stat().st_size - 8)
        with pytest.raises(rv.RVCFormatError, match="payload ends before row 4"):
            reader.read(0, reader.buffer(4))


def test_container_bad_magic(tmp_path):
    path = tmp_path / "cube.rvc"
    path.write_bytes(b"BOGUS\nend_header\n")
    with pytest.raises(rv.RVCFormatError, match="magic"):
        rv.read_container(path)


def test_container_consistent_small_dims(tmp_path):
    # l=2, k=3, m=4 with a matching payload is accepted
    cfg = rv.RadarConfig(f0=6e9, k=3, b=1e9, n=3, delta=0.02, m_r=2, m_t=2, f_st=10.0)
    cube = _random_cube(cfg, l=2)
    path = tmp_path / "small.rvc"
    rv.write_container(cube, path)
    back = rv.read_container(path)
    assert back.samples.shape == (2, 3, 4)


def test_container_missing_end_marker(tmp_path):
    path = tmp_path / "cube.rvc"
    path.write_bytes(b"RVC1\nl 1\n")
    with pytest.raises(rv.RVCFormatError, match="end_header"):
        rv.read_container(path)


def test_container_meta_may_contain_end_header(tmp_path):
    # the header ends at a line "end_header", not at the text inside a value
    path = tmp_path / "cube.rvc"
    rv.write_container(_random_cube(small_config()), path, meta={"id": "xend_header"})
    assert rv.read_header(path)["meta.id"] == "xend_header"
    assert rv.read_container(path).samples.shape == (4, 12, 4)


def test_container_malformed_truth_names_key(tmp_path):
    truth = scene_of([breather(1.5, -20.0)], l=4)
    path = tmp_path / "cube.rvc"
    rv.write_container(_random_cube(small_config(), truth=truth), path)
    data = path.read_bytes()
    path.write_bytes(data.replace(b"truth.person.0.d 1.5\n", b""))
    with pytest.raises(rv.RVCFormatError, match="'person.0.d'"):
        rv.read_container(path)
    det = tmp_path / "det.csv"
    det.write_text("segment,p_hat,track,d_m,theta_rad,x_m,y_m,value\n", encoding="utf-8")
    assert main(["evaluate", "--in", str(det), "--truth", str(path)]) == 3


def _edit_header(path, edit):
    """Rewrite the header lines of the container at ``path`` with ``edit``."""
    data = path.read_bytes()
    head, sep, payload = data.partition(b"\nend_header\n")
    lines = edit(head.decode("utf-8").split("\n"))
    path.write_bytes("\n".join(lines).encode("utf-8") + sep + payload)


def _drop_last_stamp(lines):
    return [line.rpartition(",")[0] if line.startswith("slow_time ") else line
            for line in lines]


def _last_stamp(text):
    return lambda lines: [line.rpartition(",")[0] + "," + text
                          if line.startswith("slow_time ") else line for line in lines]


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:2] + lines[1:], "malformed header: line 2: duplicate key 'l'"),
    (lambda lines: [("l 4.5" if line == "l 4" else line) for line in lines],
     "bad or missing header field: invalid literal for int() with base 10: '4.5'"),
    (lambda lines: [("m 5" if line == "m 4" else line) for line in lines],
     "header m=5 inconsistent with m_r*m_t=4"),
    (lambda lines: [line for line in lines if not line.startswith("slow_time ")],
     "header lacks the slow_time vector"),
    (_drop_last_stamp, "slow_time has 3 entries, header promises 4"),
    (_last_stamp("abc"), "bad value for config key 'slow_time': 'abc' is not a finite float"),
    (_last_stamp("nan"), "bad value for config key 'slow_time': 'nan' is not a finite float"),
    (_last_stamp("inf"), "bad value for config key 'slow_time': 'inf' is not a finite float"),
    (_last_stamp("0.2"), "slow_time must be strictly increasing"),
])
def test_container_header_rejections(tmp_path, edit, message):
    path = tmp_path / "cube.rvc"
    rv.write_container(_random_cube(small_config()), path)
    _edit_header(path, edit)
    with pytest.raises(rv.RVCFormatError) as err:
        rv.read_container(path)
    assert str(err.value) == f"{path}: {message}"


def test_cli_detect_on_inconsistent_header_is_data_error(tmp_path, capsys):
    path = tmp_path / "cube.rvc"
    rv.write_container(_random_cube(small_config()), path)
    _edit_header(path, lambda lines: [("m 5" if line == "m 4" else line) for line in lines])
    assert main(["detect", "--in", str(path), "--out", str(tmp_path / "o.csv")]) == 3
    assert "inconsistent with m_r*m_t=4" in capsys.readouterr().err


def test_cli_detect_on_bad_slow_time_is_data_error(tmp_path, capsys):
    path = tmp_path / "cube.rvc"
    rv.write_container(_random_cube(small_config()), path)
    _edit_header(path, _last_stamp("nan"))
    assert main(["detect", "--in", str(path), "--out", str(tmp_path / "o.csv")]) == 3
    assert f"{path}: bad value for config key 'slow_time'" in capsys.readouterr().err


def test_cli_simulate_rejects_a_radar_rate_other_than_the_scene_s(tmp_path, capsys):
    radar = tmp_path / "radar.kv"
    radar.write_text("f0 6300000000.0\nk 12\nb 300000000.0\nn 24\ndelta 0.02\n"
                     "m_r 2\nm_t 2\nf_st 5.0\n", encoding="utf-8")
    scene = tmp_path / "scene.kv"
    scene.write_text("l 8\nf_st 10.0\nperson.0.d 1.5\nperson.0.theta 0.2\n", encoding="utf-8")
    out = tmp_path / "c.rvc"
    assert main(["simulate", "--scenario", str(scene), "--config", str(radar),
                 "--out", str(out)]) == 2
    assert "radar f_st 5.0 Hz differs from the scene's f_st 10.0 Hz" in capsys.readouterr().err
    assert not out.exists()


def test_read_header_stops_at_end_header(tmp_path):
    cfg = rv.RadarConfig(f0=6.3e9, k=64, b=1e9, n=64, delta=0.02, m_r=4, m_t=2, f_st=10.0)
    cube = _random_cube(cfg, l=250)
    path = tmp_path / "cube.rvc"
    rv.write_container(cube, path, meta={"id": "T"})
    payload = cube.samples.nbytes  # 2 MB
    tracemalloc.start()
    try:
        assert rv.read_header(path)["meta.id"] == "T"
        header_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        rv.read_container(path)
        container_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert header_peak < payload / 8
    assert container_peak < 1.25 * payload  # the samples, not the file bytes plus a copy


def test_simulated_container_golden_sha256(tmp_path):
    # captured from the hand-written key tables the codec replaced
    radar = tmp_path / "radar.kv"
    radar.write_text("f0 6300000000.0\nk 12\nb 300000000.0\nn 24\ndelta 0.02\n"
                     "m_r 2\nm_t 2\nf_st 10.0\n", encoding="utf-8")
    scene = tmp_path / "scene.kv"
    scene.write_text(
        "l 8\nf_st 10.0\nnoise_std 0.05\nseed 3\nslow_time_jitter 0.002\n"
        "person.0.d 1.5\nperson.0.theta -0.3\nperson.0.amplitude 0.8\n"
        "person.0.amplitude_phase 0.4\nperson.0.breath_freq 0.27\n"
        "person.0.heart_freq 1.1\nperson.0.heart_amp 0.0002\n"
        "person.1.d 2.5\nperson.1.theta 0.2\n"
        "reflector.0.d 4.0\nreflector.0.theta 0.1\nreflector.0.gain 0.3\n"
        "reflector.0.gain_phase -0.6\nid G1\nobstacle wall\nmeta.note golden\n",
        encoding="utf-8",
    )
    out = tmp_path / "g.rvc"
    assert main(["simulate", "--scenario", str(scene), "--config", str(radar),
                 "--out", str(out)]) == 0
    data = out.read_bytes()
    # the header bytes are the codec's alone and keep the hash they had
    # before the person term became separable; the whole file also pins the
    # payload's rounding
    header = data[: data.index(b"end_header\n") + len(b"end_header\n")]
    assert hashlib.sha256(header).hexdigest() == (
        "e4f80c718fc71d87234b2763cfcf7f55eef9b115749a82039bc4ca505450de7f"
    )
    assert hashlib.sha256(data).hexdigest() == (
        "42229c8bf1a89250a3773c492cc9569d84e4adf7c1751b2d51dc6c2545294174"
    )
    # the same file as before RadarConfig dropped delta_t, less that one line
    legacy = data.replace(b"\nf_st 10.0\nc ", b"\nf_st 10.0\ndelta_t 0.04\nc ", 1)
    assert hashlib.sha256(legacy).hexdigest() == (
        "666680537b4bde4fafbe24d2c0e785d675836cd0bf11b7aa82a3e4b759e857dd"
    )


def test_write_container_makes_no_payload_copy(tmp_path, walabot):
    # the payload is written from the samples' own buffer
    cube = _random_cube(walabot, l=400)
    path = tmp_path / "big.rvc"
    tracemalloc.start()
    try:
        rv.write_container(cube, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cube.samples.nbytes / 10
    assert np.array_equal(rv.read_container(path).samples, cube.samples)


def test_check_finite_passes_a_finite_cube_whose_sum_overflows():
    # the screening sum overflows to inf; only the exact scan may decide
    samples = np.full((50, 3, 2), complex(1e308, -1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rv.dataio.check_finite(samples, "big")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_check_finite_names_the_first_bad_sample(bad, part):
    # whatever the screening sum gives, the error names the first non-finite
    # sample in [l, k, m] order
    rng = np.random.default_rng(4)
    shape = (6, 5, 4)
    for index, others in (((0, 0, 0), [(5, 4, 3)]), ((5, 4, 3), []), ((2, 1, 3), [(4, 0, 0)])):
        samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        getattr(samples, part)[index] = bad
        for i in others:
            getattr(samples, part)[i] = -bad
        with pytest.raises(rv.DataError, match=re.escape(f"sample {list(index)} is")):
            rv.dataio.check_finite(samples, "rec")


def test_downconvert_center_tone_lands_at_dc(walabot):
    f_s = 102.4e9
    derived = rv.derive_params(walabot)
    n = np.arange(walabot.n)
    profile = np.exp(2j * np.pi * derived.f_c * n / f_s)
    out = rv.downconvert_decimate(profile, walabot, f_s)
    assert out.shape == (137,)
    dc_index = (walabot.k - 1) - walabot.k // 2
    assert out[dc_index] == pytest.approx(1.0, abs=1e-12)
    others = np.delete(out, dc_index)
    assert np.max(np.abs(others)) < 1e-12


def test_downconvert_walabot_length(walabot):
    rng = np.random.default_rng(1)
    out = rv.downconvert_decimate(rng.standard_normal(8192), walabot, 102.4e9)
    assert out.shape == (137,)


def test_downconvert_linearity():
    cfg = small_config(k=8, n=32)
    f_s = cfg.n * (cfg.b / cfg.k)
    rng = np.random.default_rng(4)
    for _ in range(100):
        a = rng.standard_normal(cfg.n) + 1j * rng.standard_normal(cfg.n)
        b = rng.standard_normal(cfg.n) + 1j * rng.standard_normal(cfg.n)
        lhs = rv.downconvert_decimate(a + 3.0 * b, cfg, f_s)
        rhs = rv.downconvert_decimate(a, cfg, f_s) + 3.0 * rv.downconvert_decimate(b, cfg, f_s)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_downconvert_validation(walabot):
    with pytest.raises(ValueError, match="length"):
        rv.downconvert_decimate(np.zeros(100), walabot, 102.4e9)
    with pytest.raises(ValueError, match="exceed"):
        rv.downconvert_decimate(np.zeros(walabot.n), walabot, 1e9)


def test_downconvert_band_too_narrow():
    cfg = small_config(k=8, n=32)
    # at this rate [-b/2, b/2] spans fewer than k bins
    with pytest.raises(ValueError, match="fewer"):
        rv.downconvert_decimate(np.zeros(cfg.n), cfg, 10 * cfg.b)


def test_simulator_roundtrip_recovers_samples(walabot):
    # analytic raw profiles, converted back, match the cube
    scene = scene_of([breather(2.0, 25.0), breather(3.5, -40.0, f_b=0.22)], l=3)
    cube = rv.simulate(scene, walabot)
    raw = raw_recording_of(cube)
    recovered = rv.convert_recording(raw, walabot)
    err = np.max(np.abs(recovered.samples - cube.samples)) / np.max(np.abs(cube.samples))
    assert err < 1e-6


def test_assemble_channel_order(walabot):
    per_pair = {
        (tx, rx): np.full(3, tx * 10 + rx, dtype=complex)
        for tx in range(2) for rx in range(4)
    }
    out = rv.assemble_virtual_array(per_pair, walabot)
    assert out.shape == (3, 8)
    np.testing.assert_array_equal(out[0].real, [0, 1, 2, 3, 10, 11, 12, 13])


def test_assemble_single_transmit_is_identity():
    cfg = small_config(m_t=1, m_r=3)
    per_pair = {(0, rx): np.array([rx + 1.0]) for rx in range(3)}
    out = rv.assemble_virtual_array(per_pair, cfg)
    np.testing.assert_array_equal(out[0], [1.0, 2.0, 3.0])


def test_assemble_missing_pair_raises(walabot):
    per_pair = {(0, rx): np.zeros(2) for rx in range(4)}
    with pytest.raises(rv.DataError, match=r"tx=1, rx=0"):
        rv.assemble_virtual_array(per_pair, walabot)


def test_virtual_array_phase_slope(walabot, derived):
    # far-field target: consecutive virtual channels differ by the same
    # phase factor exp(-2j pi f delta sin(theta) / c)
    theta = np.deg2rad(20.0)
    d = 2.5
    f = walabot.f0 + 5 * derived.delta_f
    per_pair = {}
    for tx in range(walabot.m_t):
        for rx in range(walabot.m_r):
            m = tx * walabot.m_r + rx
            tau = (2 * d + m * walabot.delta * np.sin(theta)) / walabot.c
            per_pair[(tx, rx)] = np.array([np.exp(-2j * np.pi * f * tau)])
    out = rv.assemble_virtual_array(per_pair, walabot)[0]
    ratios = out[1:] / out[:-1]
    expected = np.exp(-2j * np.pi * f * walabot.delta * np.sin(theta) / walabot.c)
    np.testing.assert_allclose(ratios, expected, rtol=1e-12)


def test_raw_recording_validation():
    with pytest.raises(rv.DataError, match="unique"):
        rv.RawRecording(np.zeros((2, 2, 8)), ((0, 0), (0, 0)), 1e9, np.arange(2.0))
    with pytest.raises(rv.DataError, match="pair_table"):
        rv.RawRecording(np.zeros((2, 3, 8)), ((0, 0), (0, 1)), 1e9, np.arange(2.0))
    with pytest.raises(rv.DataError, match="slow_time"):
        rv.RawRecording(np.zeros((2, 1, 8)), ((0, 0),), 1e9, np.arange(3.0))
    with pytest.raises(rv.DataError, match="slow_time must be finite"):
        rv.RawRecording(np.zeros((2, 1, 8)), ((0, 0),), 1e9, np.array([0.0, np.nan]))
    with pytest.raises(rv.DataError, match="slow_time must be strictly increasing"):
        rv.RawRecording(np.zeros((2, 1, 8)), ((0, 0),), 1e9, np.array([0.1, 0.1]))


@pytest.mark.parametrize("jitter", [0.0, 0.002, 0.02])
def test_jittered_stamps_load_at_their_f_st(tmp_path, walabot, jitter):
    # simulate's interval jitter moves the mean interval by about
    # jitter / sqrt(l - 1), well inside the 10 standard errors allowed
    for seed in range(20):
        scene = rv.Scene(clutter=rv.ClutterModel(seed=seed), l=300, slow_time_jitter=jitter)
        rv.write_container(rv.simulate(scene, walabot), tmp_path / "j.rvc")
        assert rv.read_container(tmp_path / "j.rvc").config.f_st == 10.0


@pytest.mark.parametrize("f_st", ["1.0", "2.5", "100.0", "1000000000.0"])
def test_header_f_st_that_the_stamps_contradict_is_data_error(tmp_path, capsys, walabot, f_st):
    # 300 stamps 0.1 s apart, jittered by 2 ms, beside a radar f_st that is not 10 Hz
    scene = scene_of([breather(2.0, 0.0)], l=300, noise_std=0.1, seed=1)
    cube = rv.simulate(replace(scene, slow_time_jitter=0.002), walabot)
    path = tmp_path / "rec.rvc"
    rv.write_container(cube, path)
    path.write_bytes(path.read_bytes().replace(b"\nf_st 10.0\n", f"\nf_st {f_st}\n".encode(), 1))
    with pytest.raises(rv.DataError, match=f"f_st {f_st} Hz contradicts the slow_time stamps"):
        rv.read_container(path)
    assert main(["vitals", "--in", str(path), "--out", str(tmp_path / "v.csv")]) == 3
    assert "f_st" in capsys.readouterr().err
    raw = raw_recording_of(rv.simulate(replace(scene, l=4, slow_time_jitter=0.002), walabot))
    rv.write_raw_dir(tmp_path / "raw", raw, replace(walabot, f_st=float(f_st)))
    assert main(["convert", "--raw", str(tmp_path / "raw"), "--out", str(tmp_path / "c.rvc")]) == 3
    assert f"f_st {f_st} Hz contradicts" in capsys.readouterr().err


def test_raw_dir_roundtrip(tmp_path, walabot):
    scene = scene_of([breather(1.8, 0.0)], l=2)
    cube = rv.simulate(scene, walabot)
    raw = raw_recording_of(cube)
    rv.write_raw_dir(tmp_path / "raw", raw, walabot)
    back, cfg = rv.read_raw_dir(tmp_path / "raw")
    assert cfg == walabot
    assert back.pair_table == raw.pair_table
    assert back.f_s_ft == raw.f_s_ft
    np.testing.assert_array_equal(back.profiles, raw.profiles)
    recovered = rv.convert_recording(back, cfg)
    np.testing.assert_allclose(recovered.samples, cube.samples, atol=1e-8)
