import hashlib
import re
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import radarvitals as rv
from radarvitals.cli import main
from helpers import breather, raw_recording_of, scene_of, small_config
from test_cli import in_process_tests


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
            reader.rows(0, 4)


def test_container_writer_rejects_a_payload_that_shrank_on_reread(tmp_path):
    path = tmp_path / "cube.rvc"
    # 40 rows of 768 bytes, so that the rows add_imag reads last lie past what
    # the file object buffered on the first add_imag, which flushed the writes
    cube = _random_cube(small_config(), l=40)
    noise = np.zeros(cube.samples.shape)
    with rv.ContainerWriter(path, cube.config, cube.slow_time) as writer:
        writer.write(cube.samples)
        writer.add_imag(0, noise[:1])
        with open(path, "r+b") as fh:
            fh.truncate(path.stat().st_size - 8)
        with pytest.raises(rv.RVCFormatError, match="payload ends before row 40"):
            writer.add_imag(30, noise[30:40])


def _check_message(check, start, rows, source):
    """The message of ``check(start, rows)`` without its ``source`` prefix,
    None when it passes."""
    try:
        check(start, rows)
    except rv.DataError as exc:
        return str(exc).removeprefix(f"{source}: ")
    return None


_NON_FINITE = (np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, -np.inf))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_container_serves_the_rows_of_its_cube(data):
    # a reader of rows [first, stop) of a container, and the in-memory cube it
    # was written from, give the same rows and name the same bad sample
    cfg, l = small_config(), 12
    cube = _random_cube(cfg, l=l, seed=data.draw(st.integers(0, 2**32 - 1)))
    sample = st.tuples(st.integers(0, l - 1), st.integers(0, cfg.k - 1), st.integers(0, 3))
    for index, value in data.draw(st.lists(st.tuples(sample, st.sampled_from(_NON_FINITE)),
                                           max_size=3)):
        cube.samples[index] = value
    first = data.draw(st.integers(0, l))
    stop = data.draw(st.integers(first, l))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.rvc"
        rv.write_container(cube, path)
        with rv.ContainerReader(path, slice(first, stop)) as reader:
            n = reader.l
            assert n == stop - first
            row = st.integers(0, n)
            ranges = data.draw(st.lists(st.tuples(row, row).map(sorted), max_size=6))
            ranges += [(max(n - 3, 0), n), (n // 2, n // 2)]  # the tail and an empty range
            for a, b in ranges:
                rows = reader.rows(a, b)
                own = cube.rows(first + a, first + b)
                assert rows.tobytes() == own.tobytes()
                assert (_check_message(reader.check, a, rows, path)
                        == _check_message(cube.check, first + a, own, "recording"))


def test_rows_outside_the_recording_are_a_value_error(tmp_path):
    path = tmp_path / "cube.rvc"
    cube = _random_cube(small_config())
    rv.write_container(cube, path)
    with rv.ContainerReader(path, slice(1, 4)) as reader:
        for source, name in ((cube, "recording"), (reader, path)):
            for a, b in ((-1, 2), (2, 1), (0, source.l + 1)):
                with pytest.raises(ValueError, match=re.escape(
                        f"{name}: rows [{a}, {b}) are not within [0, {source.l}]")):
                    source.rows(a, b)


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
    with pytest.raises(rv.RVCFormatError, match="'truth.person.0.d'"):
        rv.read_container(path)


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
    # and it loads: the radar reader takes delta_t, so the header check
    # finds no key left over
    (tmp_path / "legacy.rvc").write_bytes(legacy)
    fresh, old = rv.read_container(out), rv.read_container(tmp_path / "legacy.rvc")
    assert (old.config, old.ground_truth) == (fresh.config, fresh.ground_truth)
    assert old.samples.tobytes() == fresh.samples.tobytes()


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


def test_container_writer_takes_one_row_per_stamp(tmp_path):
    cube = _random_cube(small_config(), l=4)
    path = tmp_path / "w.rvc"
    with rv.ContainerWriter(path, cube.config, cube.slow_time) as writer:
        writer.write(cube.samples[:3])
        for bad in (cube.samples[:2], cube.samples[3:, :, :2]):
            with pytest.raises(ValueError, match="cannot append rows of shape"):
                writer.write(bad)
        writer.write(cube.samples[3:])
    assert np.array_equal(rv.read_container(path).samples, cube.samples)
    with pytest.raises(ValueError, match="3 rows written, header promises 4"):
        with rv.ContainerWriter(path, cube.config, cube.slow_time) as writer:
            writer.write(cube.samples[:3])


def test_a_container_reads_back_only_after_a_clean_close(tmp_path, walabot):
    # the magic goes in last, so a writer not yet closed, or closed short of
    # its rows, leaves a file that readers reject
    cube = _random_cube(walabot, l=2)
    path = tmp_path / "w.rvc"
    writer = rv.ContainerWriter(path, cube.config, cube.slow_time)
    writer.write(cube.samples)
    with pytest.raises(rv.RVCFormatError, match=r"magic 'RVC\?' of a write that never finished"):
        rv.ContainerReader(path)
    writer.close()
    assert np.array_equal(rv.read_container(path).samples, cube.samples)
    with pytest.raises(ValueError, match="1 rows written, header promises 2"):
        with rv.ContainerWriter(path, cube.config, cube.slow_time) as writer:
            writer.write(cube.samples[:1])
    with pytest.raises(rv.RVCFormatError, match=r"magic 'RVC\?'"):
        rv.read_container(path)


def test_container_writer_rewrites_written_rows_in_place(tmp_path):
    cube = _random_cube(small_config(), l=5)
    path = tmp_path / "w.rvc"
    real, imag = cube.samples.real.astype(complex), cube.samples.imag
    with rv.ContainerWriter(path, cube.config, cube.slow_time) as writer:
        writer.write(real[:3])
        with pytest.raises(ValueError, match=r"noise of shape \(2, 12, 4\) from row 2 of 3 written"):
            writer.add_imag(2, imag[:2])
        with pytest.raises(ValueError, match=r"noise of shape \(1, 12, 5\) from row 0"):
            writer.add_imag(0, np.zeros((1, 12, 5)))
        writer.add_imag(1, imag[1:3])
        writer.write(real[3:])
        writer.add_imag(0, imag[:1])
        writer.add_imag(3, imag[3:])
    # each row's noise added once, and none by the calls refused
    assert np.array_equal(rv.read_container(path).samples, cube.samples)


def test_container_writer_forms_its_header_before_opening_the_file(tmp_path):
    cube = _random_cube(small_config(), l=4)
    path = tmp_path / "w.rvc"
    path.write_bytes(b"kept")
    with pytest.raises(ValueError, match="meta.note"):
        rv.ContainerWriter(path, cube.config, cube.slow_time, meta={"note": "a # b"})
    with pytest.raises(ValueError, match="strictly increasing"):
        rv.ContainerWriter(path, cube.config, cube.slow_time[::-1])
    with pytest.raises(ValueError, match=re.escape("slow_time must be 1-D, got shape (4, 1)")):
        rv.ContainerWriter(path, cube.config, cube.slow_time[:, None])
    assert path.read_bytes() == b"kept"


def test_cube_slow_time_must_be_1d():
    # a column of stamps has the right size, but no intervals along its last axis
    cube = _random_cube(small_config(), l=4)
    with pytest.raises(ValueError, match=re.escape("slow_time must be 1-D, got shape (4, 1)")):
        rv.MeasurementCube(cube.samples, cube.slow_time[:, None], cube.config)


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


# the sensor's array geometry with 256-point range profiles
ARRAY_256 = rv.RadarConfig(f0=6.3e9, k=137, b=1.7e9, n=256, delta=0.02, m_r=4, m_t=2, f_st=10.0)


def _raw_of_channels(cfg, samples):
    """A RawRecording whose pair (tx, rx) carries channel tx * m_r + rx of
    the [l, k, m] samples, one column per pair in tx-major order."""
    return raw_recording_of(rv.MeasurementCube(samples, np.arange(len(samples)) / cfg.f_st, cfg))


def _permuted(raw, order):
    return rv.RawRecording(raw.profiles[:, order], tuple(raw.pair_table[i] for i in order),
                           raw.f_s_ft, raw.slow_time)


def test_convert_puts_pair_tx_rx_in_channel_tx_m_r_plus_rx():
    values = np.array([0, 1, 2, 3, 10, 11, 12, 13], dtype=complex)
    raw = _raw_of_channels(ARRAY_256, np.broadcast_to(values, (3, ARRAY_256.k, 8)))
    assert raw.pair_table == ((0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3))
    out = rv.convert_recording(raw, ARRAY_256).samples
    assert out.shape == (3, ARRAY_256.k, 8)
    np.testing.assert_allclose(out, np.broadcast_to(values, out.shape), atol=1e-9)
    # the channel follows the pair, not its column
    permuted = rv.convert_recording(_permuted(raw, [5, 0, 7, 2, 1, 6, 3, 4]), ARRAY_256).samples
    assert permuted.tobytes() == out.tobytes()


@pytest.mark.parametrize("cfg", [small_config(k=11, m_t=1, m_r=3), small_config(k=12, m_t=1, m_r=3),
                                 replace(ARRAY_256, k=137), replace(ARRAY_256, k=138)],
                         ids=["k=11", "k=12", "k=137", "k=138"])
def test_convert_recovers_random_samples_at_odd_and_even_k(cfg):
    # the profile is mixed by the tone the DC bin keeps, which for an even k
    # lies half a step below the center frequency
    rng = np.random.default_rng(cfg.k)
    shape = (3, cfg.k, cfg.m_r * cfg.m_t)
    samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    out = rv.convert_recording(_raw_of_channels(cfg, samples), cfg).samples
    np.testing.assert_allclose(out, samples, rtol=0, atol=1e-11)


def test_convert_single_transmit_channel_is_rx():
    cfg = small_config(k=11, m_t=1, m_r=3)
    raw = _raw_of_channels(cfg, np.broadcast_to(np.arange(1.0, 4.0), (1, cfg.k, 3)))
    out = rv.convert_recording(raw, cfg).samples
    np.testing.assert_allclose(out[0], np.broadcast_to([1.0, 2.0, 3.0], (cfg.k, 3)), atol=1e-12)


def _no_downconversion(*args):
    raise AssertionError("a pair was down-converted")


def test_convert_missing_pair_raises_before_any_downconversion(monkeypatch):
    raw = _raw_of_channels(ARRAY_256, np.ones((2, ARRAY_256.k, 8)))
    # only the first transmitter's pairs, the first one last
    raw = _permuted(raw, [1, 2, 3, 0])
    monkeypatch.setattr(rv.dataio, "downconvert_decimate", _no_downconversion)
    with pytest.raises(rv.DataError, match=re.escape("missing signal for antenna pair (tx=1, rx=0)")):
        rv.convert_recording(raw, ARRAY_256)


def test_convert_pair_outside_the_array_raises_first(monkeypatch):
    raw = _raw_of_channels(ARRAY_256, np.ones((2, ARRAY_256.k, 8)))
    # two pairs outside the array, and so (0, 1) and (1, 2) missing
    pairs = list(raw.pair_table)
    pairs[1], pairs[6] = (2, 0), (0, 4)
    raw = rv.RawRecording(raw.profiles, tuple(pairs), raw.f_s_ft, raw.slow_time)
    monkeypatch.setattr(rv.dataio, "downconvert_decimate", _no_downconversion)
    with pytest.raises(rv.DataError, match=re.escape("pair (2, 0) outside the 2 x 4 array")):
        rv.convert_recording(raw, ARRAY_256)
    with pytest.raises(rv.DataError, match=re.escape("pair (0, 4) outside the 2 x 4 array")):
        rv.convert_recording(_permuted(raw, [6, *range(6), 7]), ARRAY_256)


def test_converted_virtual_array_phase_slope():
    # far-field target: consecutive virtual channels differ by the same
    # phase factor exp(-2j pi f delta sin(theta) / c) at every step f
    cfg = ARRAY_256
    theta = np.deg2rad(20.0)
    f = cfg.f0 + np.arange(cfg.k) * rv.derive_params(cfg).delta_f
    tau = (2 * 2.5 + np.arange(8) * cfg.delta * np.sin(theta)) / cfg.c
    raw = _raw_of_channels(cfg, np.exp(-2j * np.pi * np.outer(f, tau))[None])
    out = rv.convert_recording(raw, cfg).samples[0]
    expected = np.exp(-2j * np.pi * f * cfg.delta * np.sin(theta) / cfg.c)
    np.testing.assert_allclose(out[:, 1:] / out[:, :-1],
                               np.broadcast_to(expected[:, None], (cfg.k, 7)), rtol=1e-11)


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
    with pytest.raises(rv.DataError, match=re.escape("slow_time must be 1-D, got shape (2, 1)")):
        rv.RawRecording(np.zeros((2, 1, 8)), ((0, 0),), 1e9, np.array([[0.0], [0.1]]))
    with pytest.raises(rv.DataError, match="profiles must be bool, int, float or complex, "
                                           "got dtype <U1"):
        rv.RawRecording(np.full((2, 1, 8), "a"), ((0, 0),), 1e9, np.arange(2.0))
    with pytest.raises(rv.DataError, match="slow_time must be int or float, got dtype <U1"):
        rv.RawRecording(np.zeros((2, 1, 8)), ((0, 0),), 1e9, np.array(["a", "b"]))
    with pytest.raises(rv.DataError, match="slow_time must be int or float, got dtype complex"):
        rv.RawRecording(np.zeros((2, 1, 8)), ((0, 0),), 1e9, np.arange(2.0) + 0j)
    profiles = np.zeros((2, 1, 8))
    profiles[1, 0, 7] = np.inf
    with pytest.raises(rv.DataError, match=re.escape("profiles: sample [1, 0, 7] is inf, not finite")):
        rv.RawRecording(profiles, ((0, 0),), 1e9, np.arange(2.0))


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
    rv.write_raw_dir(tmp_path / "raw", raw, walabot)
    raw_kv = tmp_path / "raw" / "raw.kv"
    raw_kv.write_bytes(raw_kv.read_bytes().replace(b"\nf_st 10.0\n", f"\nf_st {f_st}\n".encode(), 1))
    assert main(["convert", "--raw", str(tmp_path / "raw"), "--out", str(tmp_path / "c.rvc")]) == 3
    assert f"f_st {f_st} Hz contradicts" in capsys.readouterr().err


def _cube_at_5_hz_under_f_st_10(walabot, l):
    """A recording stamped at 5 Hz under a config whose f_st is 10 Hz."""
    cube = rv.simulate(scene_of([breather(2.0, 0.0)], l=l, f_st=5.0, noise_std=0.1, seed=1),
                       rv.walabot_config(5.0))
    return rv.MeasurementCube(cube.samples, cube.slow_time, walabot)


def test_container_writer_checks_the_stamps_against_f_st(tmp_path, walabot):
    cube = _cube_at_5_hz_under_f_st_10(walabot, 264)
    path = tmp_path / "rec.rvc"
    path.write_bytes(b"kept")
    with pytest.raises(rv.DataError, match=f"{re.escape(str(path))}: f_st 10.0 Hz contradicts"):
        rv.write_container(cube, path)
    with pytest.raises(rv.DataError, match="f_st 10.0 Hz contradicts the slow_time stamps"):
        rv.ContainerWriter(path, walabot, cube.slow_time)
    assert path.read_bytes() == b"kept"


def test_write_raw_dir_checks_the_stamps_against_f_st(tmp_path, walabot):
    raw = raw_recording_of(_cube_at_5_hz_under_f_st_10(walabot, 4))
    with pytest.raises(rv.DataError, match="f_st 10.0 Hz contradicts the slow_time stamps"):
        rv.write_raw_dir(tmp_path / "raw", raw, walabot)
    assert not (tmp_path / "raw").exists()


def test_run_pipeline_checks_a_cube_s_stamps_against_f_st_as_a_reader_does(tmp_path, walabot):
    cube = _cube_at_5_hz_under_f_st_10(walabot, 264)
    path = tmp_path / "rec.rvc"
    rv.write_container(rv.MeasurementCube(cube.samples, cube.slow_time, rv.walabot_config(5.0)),
                       path)
    path.write_bytes(path.read_bytes().replace(b"\nf_st 5.0\n", b"\nf_st 10.0\n", 1))
    with pytest.raises(rv.DataError) as on_disk:
        rv.run_pipeline(path)
    with pytest.raises(rv.DataError) as in_memory:
        rv.run_pipeline(cube)
    message = str(on_disk.value).removeprefix(f"{path}: ")
    assert message.startswith("f_st 10.0 Hz contradicts the slow_time stamps")
    assert str(in_memory.value) == f"recording: {message}"


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


# the tests of this module's groups of test_cli.CASES, which run the CLI in process
globals().update(in_process_tests(__name__))
