import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import radarvitals as rv
from helpers import breather, scene_of


def _cube_from_output(h, phases, cfg, k_total=None):
    """Cube whose beamformer output under filter h has exactly ``phases``."""
    k0, m = h.shape
    k_total = k_total or cfg.k
    l = len(phases)
    samples = np.zeros((l, k_total, m), dtype=complex)
    samples[:, :k0, :] = h[None, :, :] * np.exp(1j * np.asarray(phases))[:, None, None]
    return rv.MeasurementCube(samples, np.arange(l) / cfg.f_st, cfg)


def test_rect_filter_equals_steering(walabot, derived):
    target = rv.PolarLocation(2.0, np.deg2rad(15.0))
    filt = rv.build_filter(target, walabot, derived, window="rect")
    expected = rv.steering_matrix(2.0, np.deg2rad(15.0), derived.k0, derived.m, walabot)
    np.testing.assert_array_equal(filt, expected)


def test_hann_filter_modulus_is_taper_product(walabot, derived):
    filt = rv.build_filter(rv.PolarLocation(1.0, 0.3), walabot, derived)
    expected = np.outer(np.hanning(derived.k0), np.hanning(derived.m))
    np.testing.assert_allclose(np.abs(filt), expected, atol=1e-12)


def test_filter_dimensions(walabot, derived):
    filt = rv.build_filter(rv.PolarLocation(2.0, 0.0), walabot, derived)
    assert filt.shape == (96, 8)


def test_unknown_window_rejected(walabot, derived):
    with pytest.raises(ValueError, match="window"):
        rv.build_filter(rv.PolarLocation(1.0, 0.0), walabot, derived, window="boxcar")


def test_phase_ramp_unwraps_to_line(walabot, derived):
    # a ramp of 0.9 pi per sample wraps every few samples; the recovered
    # displacement must stay on the corresponding straight line
    filt = rv.build_filter(rv.PolarLocation(1.5, 0.0), walabot, derived)
    slope = 0.9 * np.pi
    phases = slope * np.arange(40)
    cube = _cube_from_output(filt, phases, walabot)
    series = rv.extract_displacement(filt, cube, derived.f_c)
    scale = -walabot.c / (4 * np.pi * derived.f_c)
    expected = series.eta[0] + scale * slope * np.arange(40)
    assert np.max(np.abs(series.eta - expected)) < 1e-9


def test_unwrap_roundtrip_property(walabot, derived):
    filt = rv.build_filter(rv.PolarLocation(1.5, 0.0), walabot, derived)
    scale = -walabot.c / (4 * np.pi * derived.f_c)
    rng = np.random.default_rng(21)
    for _ in range(100):
        l = int(rng.integers(4, 50))
        steps = rng.uniform(-np.pi * 0.98, np.pi * 0.98, l - 1)
        phases = np.concatenate([[rng.uniform(-10, 10)], steps]).cumsum()
        cube = _cube_from_output(filt, phases, walabot)
        series = rv.extract_displacement(filt, cube, derived.f_c)
        np.testing.assert_allclose(
            np.diff(series.eta) / scale, np.diff(phases), atol=1e-9
        )


def test_lone_breather_amplitude(walabot, derived):
    # extraction at the true location recovers the chest motion amplitude
    # up to the array-weighted frequency scale, well within ten percent
    amp = 0.004
    cube = rv.simulate(scene_of([breather(2.0, 0.0, f_b=0.3, amp=amp)], l=1000), walabot)
    filt = rv.build_filter(rv.PolarLocation(2.0, 0.0), walabot, derived)
    series = rv.extract_displacement(filt, cube, derived.f_c)
    eta = series.eta - series.eta.mean()
    measured = (eta.max() - eta.min()) / 2
    assert measured == pytest.approx(amp, rel=0.10)


def test_displacement_scale_invariance(walabot, derived):
    cube = rv.simulate(scene_of([breather(2.0, 10.0)], l=50), walabot)
    filt = rv.build_filter(rv.PolarLocation(2.0, np.deg2rad(10.0)), walabot, derived)
    a = rv.extract_displacement(filt, cube, derived.f_c)
    scaled = rv.MeasurementCube(cube.samples * 2.5, cube.slow_time, walabot)
    b = rv.extract_displacement(filt, scaled, derived.f_c)
    np.testing.assert_allclose(a.eta, b.eta, atol=1e-12)


def test_vanishing_output_flagged_and_carried(walabot, derived):
    filt = rv.build_filter(rv.PolarLocation(1.5, 0.0), walabot, derived)
    phases = 0.3 * np.arange(10)
    cube = _cube_from_output(filt, phases, walabot)
    cube.samples[4] = 0.0
    series = rv.extract_displacement(filt, cube, derived.f_c)
    assert series.unreliable[4] and series.unreliable.sum() == 1
    assert series.eta[4] == series.eta[3]


def test_all_zero_segment_warns(walabot, derived):
    filt = rv.build_filter(rv.PolarLocation(1.5, 0.0), walabot, derived)
    cube = rv.MeasurementCube(
        np.zeros((6, walabot.k, 8), dtype=complex), np.arange(6) / 10.0, walabot
    )
    with pytest.warns(UserWarning, match="vanished"):
        series = rv.extract_displacement(filt, cube, derived.f_c)
    assert np.all(series.eta == 0)


def _vanished_at(caught):
    return [w.filename for w in caught if "vanished" in str(w.message)]


def test_vanished_warning_names_the_caller(walabot, derived, monkeypatch):
    # the warning points at the line that called extract_displacement or
    # run_pipeline, not at a line inside the package
    filt = rv.build_filter(rv.PolarLocation(1.5, 0.0), walabot, derived)
    cube = rv.MeasurementCube(
        np.zeros((6, walabot.k, 8), dtype=complex), np.arange(6) / 10.0, walabot
    )
    with pytest.warns(UserWarning, match="vanished") as caught:
        rv.extract_displacement(filt, cube, derived.f_c)
    assert _vanished_at(caught) == [__file__]
    # every beamformer output zero, so every detection's series vanishes
    monkeypatch.setattr(rv.pipeline, "beamform",
                        lambda filters, raw: np.zeros((len(raw), len(filters)), complex))
    cube = rv.simulate(scene_of([breather(2.0, 0.0)], l=264, noise_std=0.1, seed=1), walabot)
    with pytest.warns(UserWarning, match="vanished") as caught:
        rv.run_pipeline(cube)
    assert _vanished_at(caught) and set(_vanished_at(caught)) == {__file__}


def test_f_st_actual_from_stamps(walabot, derived):
    filt = rv.build_filter(rv.PolarLocation(1.5, 0.0), walabot, derived)
    cube = _cube_from_output(filt, np.zeros(11), walabot)
    cube.slow_time = np.arange(11) * 0.095  # 10.526 Hz actual
    series = rv.extract_displacement(filt, cube, derived.f_c)
    assert series.f_st_actual == pytest.approx(1 / 0.095, rel=1e-9)


def _tone_series(freqs_amps, f_st=10.0, l=200):
    t = np.arange(l) / f_st
    eta = sum(a * np.sin(2 * np.pi * f * t) for f, a in freqs_amps)
    return rv.VitalSeries(eta, f_st)


def test_breathing_pure_tone_within_padded_bin():
    series = _tone_series([(0.3, 1e-3)])
    bin_width = 10.0 / (8 * 200)
    assert rv.breathing_frequency([series]) == pytest.approx(0.3, abs=bin_width)


def test_breathing_band_excludes_heartbeat():
    series = _tone_series([(0.3, 1e-3), (1.2, 2e-3)])
    est = rv.breathing_frequency([series], band=(0.1, 0.8))
    assert est == pytest.approx(0.3, abs=0.01)


def test_breathing_averages_over_segments():
    rng = np.random.default_rng(5)
    segments = []
    for _ in range(6):
        t = np.arange(200) / 10.0
        eta = 1e-3 * np.sin(2 * np.pi * 0.27 * t) + 2e-4 * rng.standard_normal(200)
        segments.append(rv.VitalSeries(eta, 10.0))
    assert rv.breathing_frequency(segments) == pytest.approx(0.27, abs=0.01)


def test_breathing_band_validation():
    series = _tone_series([(0.3, 1e-3)])
    with pytest.raises(ValueError, match="band"):
        rv.breathing_frequency([series], band=(0.8, 0.1))
    with pytest.raises(ValueError):
        rv.breathing_frequency([])
    with pytest.raises(ValueError, match="length"):
        rv.breathing_frequency([series, rv.VitalSeries(np.zeros(10), 10.0)])


def test_periodogram_grid():
    series = _tone_series([(0.3, 1e-3)])
    freqs, power = rv.averaged_periodogram([series], pad_factor=8)
    assert freqs.size == power.size == 8 * 200 // 2 + 1
    assert freqs[1] == pytest.approx(10.0 / 1600)


@settings(max_examples=60, deadline=None)
@given(f_b=st.floats(0.15, 0.6), amp=st.floats(2e-4, 4e-3), phase=st.floats(0.0, 2 * np.pi),
       jitter=st.floats(0.0, 0.03), segments=st.integers(1, 3), length=st.integers(64, 300),
       pad=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_breathing_error_under_jittered_slow_time_is_bounded(walabot, derived, f_b, amp, phase,
                                                             jitter, segments, length, pad, seed):
    # Chest motion a sin(2 pi f_b t + phase) sampled at stamps t_l = l / f_st + e_l
    # with |e_l| <= J. Each sample differs from its uniform-time value u_l by at
    # most D = 2 pi f_b a J, so after detrending each DFT bin moves by at most
    # 2 L D in modulus, and so does the root mean square R over segments
    # (Minkowski). The bin chosen from the jittered samples therefore has
    # R(k) >= max R - 4 L D, and the estimate is that bin at the rate the
    # endpoint stamps give; the bound is the largest error over those bins.
    rng = np.random.default_rng(seed)
    series, spectra, rates = [], [], []
    nfft = pad * length
    for s in range(segments):
        t_uniform = (s * length + np.arange(length)) / walabot.f_st
        stamps = t_uniform + rng.uniform(-jitter, jitter, length)
        eta = amp * np.sin(2 * np.pi * f_b * stamps + phase)
        y = np.exp(-4j * np.pi * derived.f_c / walabot.c * eta)
        series.append(rv.vitals.displacements(y[None], stamps, walabot, derived.f_c)[0])
        u = amp * np.sin(2 * np.pi * f_b * t_uniform + phase)
        spectra.append(np.abs(np.fft.rfft(u - u.mean(), nfft)) ** 2)
        rates.append((length - 1) / (stamps[-1] - stamps[0]))
    band = (0.1, 0.8)
    estimate = rv.breathing_frequency(series, band, pad)

    freqs = np.fft.rfftfreq(nfft, d=1.0 / float(np.mean(rates)))
    in_band = (freqs >= band[0]) & (freqs <= band[1])
    rms = np.sqrt(np.mean(spectra, axis=0))[in_band]
    bin_shift = 2 * length * 2 * np.pi * f_b * amp * jitter  # 2 L D
    slack = 1e-9 * rms.max()  # rounding of the phase, the unwrap and the FFTs
    candidates = freqs[in_band][rms >= rms.max() - 2 * bin_shift - slack]
    assert estimate in candidates
    assert abs(estimate - f_b) <= np.abs(candidates - f_b).max()


def _per_series_displacement(y, slow_time, cfg, f_c):
    """The 1-D form ``displacements`` batches, one series at a time."""
    l_len = y.size
    bad = np.abs(y) < rv.vitals._MAG_FLOOR
    if bad.all():
        eta = np.zeros(l_len)
    else:
        last_good = np.maximum.accumulate(np.where(bad, -1, np.arange(l_len)))
        last_good[last_good < 0] = int(np.nonzero(~bad)[0][0])
        eta = -cfg.c / (4 * np.pi * f_c) * np.unwrap(np.angle(y[last_good]))
    t = slow_time
    return rv.VitalSeries(eta, float((t.size - 1) / (t[-1] - t[0])), bad)


def _per_series_periodogram(series, pad_factor):
    """The periodogram with one FFT per series."""
    length = series[0].eta.size
    nfft = pad_factor * length
    power = np.zeros(nfft // 2 + 1)
    for s in series:
        power += np.abs(np.fft.rfft(s.eta - s.eta.mean(), nfft)) ** 2 / length
    power /= len(series)
    return power


@pytest.mark.parametrize("length", [3, 4, 200, 263])
def test_batched_vitals_match_the_per_series_forms_bit_for_bit(walabot, derived, length):
    # the rows as run_pipeline forms them, a transposed (slow time, series)
    # array: a clean row, rows with unreliable samples at the start, inside
    # and at the end, and a row whose output vanished
    rng = np.random.default_rng(length)
    outputs = rng.standard_normal((length, 5)) + 1j * rng.standard_normal((length, 5))
    outputs *= np.exp(1j * np.cumsum(rng.uniform(-4, 4, (length, 5)), axis=0))
    outputs[0, 1] = outputs[-1, 1] = 0.0
    outputs[: (length + 1) // 2, 2] = 1e-160
    outputs[length // 2 :, 3] = 0.0
    outputs[:, 4] = 0.0
    stamps = np.cumsum(rng.uniform(0.09, 0.11, length))
    rows = outputs.T
    with pytest.warns(UserWarning, match="vanished") as caught:
        batched = rv.vitals.displacements(rows, stamps, walabot, derived.f_c)
    assert len(caught) == 1
    assert len(batched) == 5
    for y, got in zip(rows, batched):
        expected = _per_series_displacement(y, stamps, walabot, derived.f_c)
        assert got.eta.tobytes() == expected.eta.tobytes()
        assert got.unreliable.tobytes() == expected.unreliable.tobytes()
        assert got.f_st_actual == expected.f_st_actual
    assert [int(s.unreliable.sum()) for s in batched] == [
        0, 2, (length + 1) // 2, length - length // 2, length]
    with pytest.warns(UserWarning, match="vanished"):
        one = rv.vitals.displacements(rows[4][None], stamps, walabot, derived.f_c)[0]
    assert not one.eta.any() and one.unreliable.all()
    for pad in (1, 8):
        for series in (batched[:1], batched, batched[::-1]):
            _, power = rv.averaged_periodogram(series, pad)
            assert power.tobytes() == _per_series_periodogram(series, pad).tobytes()
