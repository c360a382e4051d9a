import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

import radarvitals as rv
from helpers import breather, location_errors, m16_scene, scene_of, small_config

M16_TRUTH = [rv.PolarLocation(d, np.deg2rad(t)) for d, t in
             [(1.50, -60.0), (2.00, 0.0), (2.15, -30.0), (1.85, 45.0), (3.00, 30.0)]]


def _random_samples(rng, l, k, m):
    return rng.standard_normal((l, k, m)) + 1j * rng.standard_normal((l, k, m))


def _slice_rows(snapshot, spec):
    """All vectorized slices of one snapshot, one slice per row.

    Each slice is stacked column-wise (fast-time index varies fastest),
    matching the steering-vector stacking.
    """
    view = sliding_window_view(snapshot, (spec.w_k, spec.w_m))
    n_i, n_j = view.shape[:2]
    # rows ordered with the fast-time offset i varying fastest
    return view.transpose(1, 0, 3, 2).reshape(n_j * n_i, spec.w_m * spec.w_k)


def test_slice_counts_match_tuning_values():
    assert rv.SmoothingSpec(38, 2).n_slices(137, 8) == 700
    assert rv.SmoothingSpec(38, 3).n_slices(137, 8) == 600


def test_smoothing_spec_validation():
    with pytest.raises(ValueError):
        rv.SmoothingSpec(10, 2).validate(8, 4)
    with pytest.raises(ValueError):
        rv.SmoothingSpec(4, 0).validate(8, 4)


def test_snapshot_indices_spread():
    idx = rv.localize.snapshot_indices(200, 10)
    assert idx[0] == 0 and idx[-1] == 199
    assert len(idx) == 10
    with pytest.raises(ValueError):
        rv.localize.snapshot_indices(5, 6)


def test_forward_backward_hand_case():
    r = np.array([[2.0, 1j], [-1j, 1.0]])
    expected = np.array([[1.5, 1j], [-1j, 1.5]])
    np.testing.assert_array_equal(rv.forward_backward(r), expected)


def test_single_slice_covariance_is_rank_one():
    # one full-size slice: the forward covariance is the plain outer
    # product (rank one); the module output adds only the backward copy
    rng = np.random.default_rng(0)
    samples = _random_samples(rng, 5, 8, 4)
    vec = samples[0].ravel(order="F")
    forward = np.outer(vec, vec.conj())
    forward_eigs = np.linalg.eigvalsh(forward)[::-1]
    assert forward_eigs[1] <= 1e-10 * forward_eigs[0]
    cov = rv.smoothed_covariance(samples, rv.SmoothingSpec(8, 4), 1)
    np.testing.assert_allclose(cov.r_hat, rv.forward_backward(forward), atol=1e-12)
    assert cov.eigvals[2] <= 1e-10 * cov.eigvals[0]


def test_covariance_shape_and_counts():
    rng = np.random.default_rng(1)
    samples = _random_samples(rng, 12, 10, 4)
    cov = rv.smoothed_covariance(samples, rv.SmoothingSpec(4, 2), 5)
    assert cov.r_hat.shape == (8, 8)
    assert cov.n_snapshots == 5
    assert cov.spec == rv.SmoothingSpec(4, 2)


def test_covariance_invariants_property():
    # Hermitian, persymmetric, non-negative spectrum, exact reconstruction
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = int(rng.integers(3, 10))
        m = int(rng.integers(2, 5))
        l = int(rng.integers(2, 8))
        w_k = int(rng.integers(1, k + 1))
        w_m = int(rng.integers(1, m + 1))
        n_cov = int(rng.integers(1, l + 1))
        samples = _random_samples(rng, l, k, m)
        cov = rv.smoothed_covariance(samples, rv.SmoothingSpec(w_k, w_m), n_cov)
        r = cov.r_hat
        scale = np.linalg.norm(r)
        assert np.linalg.norm(r - r.conj().T) <= 1e-12 * scale
        exchange_sym = np.flip(r).conj()
        assert np.linalg.norm(exchange_sym - r) <= 1e-12 * scale
        assert np.all(np.diff(cov.eigvals) <= 1e-12 * cov.eigvals[0])
        assert cov.eigvals.min() >= -1e-10 * cov.eigvals[0]
        recon = (cov.eig_basis * cov.eigvals) @ cov.eig_basis.conj().T
        assert np.linalg.norm(recon - r) <= 1e-10 * scale


def test_fbss_decorrelates_coherent_sources(walabot):
    # two fully coherent returns: the unsmoothed single-snapshot forward
    # covariance is rank one, the smoothed estimate restores the rank
    persons = [breather(2.0, -30.0, amp=0.0), breather(2.0, 30.0, amp=0.0)]
    cube = rv.simulate(scene_of(persons, l=1), walabot)
    vec = cube.samples[0].ravel(order="F")
    forward_eigs = np.linalg.eigvalsh(np.outer(vec, vec.conj()))[::-1]
    assert forward_eigs[1] <= 1e-6 * forward_eigs[0]
    smoothed = rv.smoothed_covariance(cube.samples, rv.SmoothingSpec(38, 2), 1)
    assert smoothed.eigvals[1] > 1e-6 * smoothed.eigvals[0]


def test_steering_boresight_is_all_ones(walabot):
    a = rv.steering_matrix(0.0, 0.0, 5, 3, walabot)
    np.testing.assert_array_equal(a, np.ones((5, 3), dtype=complex))


def test_steering_entry_formula(walabot, derived):
    a = rv.steering_matrix(1.0, np.deg2rad(30.0), 4, 4, walabot)
    expected = np.exp(
        -2j * np.pi * (walabot.f0 + derived.delta_f) * (2.0 + 0.01) / walabot.c
    )
    assert a[1, 1] == pytest.approx(expected, rel=1e-12)


def test_steering_unit_modulus_property():
    cfg = small_config()
    rng = np.random.default_rng(2)
    for _ in range(100):
        d = float(rng.uniform(0, 10))
        theta = float(rng.uniform(-1.4, 1.4))
        a = rv.steering_matrix(d, theta, int(rng.integers(1, 9)), int(rng.integers(1, 5)), cfg)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)


def test_steering_phases_match_exact_rationals(walabot):
    # each entry is exp(-2j pi t) with t = f * path / c reduced to its
    # fractional turn in exact arithmetic and rounded once
    freqs = walabot.f0 + walabot.b / walabot.k * np.arange(38)
    c = Fraction(walabot.c)
    for d, theta in ((0.37, -1.1), (2.15, 0.3), (4.4, 0.52)):
        a = rv.steering_matrix(d, theta, 38, 8, walabot)
        path = 2.0 * d + walabot.delta * math.sin(theta) * np.arange(8)
        turns = np.empty((38, 8))
        for k, f in enumerate(freqs):
            for m, p in enumerate(path):
                t = Fraction(float(f)) * Fraction(float(p)) / c
                turns[k, m] = t - round(t)
        np.testing.assert_allclose(a, np.exp(-2j * np.pi * turns), rtol=0, atol=2e-15)


def test_grid_shape_formula():
    assert rv.GridSpec().shape() == (181, 145)
    d_axis, t_axis = rv.GridSpec().axes()
    assert d_axis[0] == 0.0 and d_axis[-1] == pytest.approx(4.5)
    assert t_axis[0] == pytest.approx(-0.4 * np.pi)
    assert t_axis[-1] == pytest.approx(0.4 * np.pi)


def _localize_single(cube, p_sub=1, n_cov=10):
    seg = rv.segment(rv.sma_filter(cube, 64), 200).segments[0]
    cov = rv.smoothed_covariance(seg.samples, rv.SmoothingSpec(38, 2), n_cov)
    spec = rv.music_spectrum(cov, p_sub, rv.GridSpec(), cube.config)
    return spec


def test_noiseless_single_target_argmax(walabot):
    # the global argmax lands on the grid point nearest the true location
    cube = rv.simulate(scene_of([breather(3.0, -30.0)], l=264), walabot)
    spec = _localize_single(cube, p_sub=1)
    det = rv.extract_peaks(spec, 1, 0.3).detections[0]
    assert det.location.d == pytest.approx(3.0, abs=1e-9)
    assert det.location.theta == pytest.approx(np.deg2rad(-30.0), abs=1e-9)


def test_spectrum_positive_and_scale_invariant(walabot):
    cube = rv.simulate(scene_of([breather(2.0, 10.0)], l=264), walabot)
    spec = _localize_single(cube, p_sub=1)
    assert np.all(spec.values > 0)
    scaled_cube = rv.MeasurementCube(
        cube.samples * 3.7, cube.slow_time, cube.config, cube.ground_truth
    )
    spec_scaled = _localize_single(scaled_cube, p_sub=1)
    assert np.unravel_index(np.argmax(spec.values), spec.values.shape) == \
        np.unravel_index(np.argmax(spec_scaled.values), spec_scaled.values.shape)


def test_same_range_pair_resolved_exactly(walabot):
    # the coherent same-range case: subspace order matching the two
    # returns separates both at their exact grid points
    persons = [breather(2.0, -30.0, f_b=0.3), breather(2.0, 30.0, f_b=0.22, phase=1.0)]
    cube = rv.simulate(scene_of(persons, l=264), walabot)
    spec = _localize_single(cube, p_sub=2)
    dets = rv.extract_peaks(spec, 2, 0.3).detections
    found = sorted((round(d.location.d, 3), round(np.rad2deg(d.location.theta), 1))
                   for d in dets)
    assert found == [(2.0, -30.0), (2.0, 30.0)]


def test_same_range_pair_with_larger_subspace(walabot):
    # with the subspace order above the coherent rank the maxima stay
    # within a few grid cells of both persons
    persons = [breather(2.0, -30.0, f_b=0.3, amp=0.0011),
               breather(2.0, 30.0, f_b=0.22, amp=0.0011, phase=1.0)]
    cube = rv.simulate(scene_of(persons, l=264, noise_std=0.1, seed=2), walabot)
    spec = _localize_single(cube, p_sub=4)
    dets = rv.extract_peaks(spec, 2, 0.3).detections
    truth = [rv.PolarLocation(2.0, np.deg2rad(-30.0)), rv.PolarLocation(2.0, np.deg2rad(30.0))]
    errs = location_errors(dets, truth)
    assert max(errs) < 0.15


def test_music_subspace_validation(walabot):
    rng = np.random.default_rng(3)
    samples = _random_samples(rng, 4, 10, 4)
    cov = rv.smoothed_covariance(samples, rv.SmoothingSpec(4, 2), 2)
    with pytest.raises(ValueError):
        rv.music_spectrum(cov, 8, rv.GridSpec(), small_config(k=10))
    with pytest.raises(ValueError):
        rv.music_spectrum(cov, 0, rv.GridSpec(), small_config(k=10))


def _music_reference(cov, p_sub, grid, cfg):
    """1 / ||V_n^H vec a||^2 per cell from an explicitly built steering vector.

    Each phase f (2 d + sin(theta) x) / c is taken in exact rational
    arithmetic and reduced to its fractional turn before rounding. A float
    phase of hundreds of turns is off by ~1e-13 rad, which near a deep null
    of the noise projection moves the value by more than 1e-9 relative.
    """
    w_k, w_m = cov.spec.w_k, cov.spec.w_m
    v_n = cov.eig_basis[:, p_sub:]
    k_off = (cfg.k - w_k) / 2
    m_off = (cfg.m_r * cfg.m_t - w_m) / 2
    freqs = [Fraction(f) for f in cfg.f0 + cfg.b / cfg.k * (k_off + np.arange(w_k))]
    chan = [Fraction(x) for x in cfg.delta * (m_off + np.arange(w_m))]
    c = Fraction(cfg.c)
    d_axis, theta_axis = grid.axes()
    values = np.empty((d_axis.size, theta_axis.size))
    turns = np.empty((w_k, w_m))
    for i, d in enumerate(d_axis):
        for j, theta in enumerate(theta_axis):
            sin_t = Fraction(float(np.sin(theta)))
            for m, x in enumerate(chan):
                path = 2 * Fraction(d) + sin_t * x
                for k, f in enumerate(freqs):
                    t = f * path / c
                    turns[k, m] = t - round(t)
            a = np.exp(-2j * np.pi * turns)
            g = v_n.conj().T @ a.ravel(order="F")
            values[i, j] = 1.0 / np.vdot(g, g).real
    return values


def _check_music_against_reference(k, w_m, n_d, w_k, p_sub, seed):
    cfg = small_config(k=k, n=2 * k)
    samples = _random_samples(np.random.default_rng(seed), 3, k, cfg.m_r * cfg.m_t)
    cov = rv.smoothed_covariance(samples, rv.SmoothingSpec(w_k, w_m), 3)
    grid = rv.GridSpec(d_max=0.1 * (n_d - 1), d_step=0.1, theta_max=0.3, theta_step=0.1)
    assert grid.shape() == (n_d, 7)
    spec = rv.music_spectrum(cov, p_sub, grid, cfg)
    expected = _music_reference(cov, p_sub, grid, cfg)
    np.testing.assert_allclose(spec.values, expected, rtol=1e-9, atol=0)
    return spec


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(3, 9),
    w_m=st.integers(1, 3),
    n_d=st.sampled_from([1, 7, 31, 45]),
    data=st.data(),
)
def test_music_spectrum_matches_per_cell_reference(k, w_m, n_d, data):
    w_k = data.draw(st.integers(2 if w_m == 1 else 1, k), label="w_k")
    p_sub = data.draw(st.integers(1, w_k * w_m - 1), label="p_sub")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    _check_music_against_reference(k, w_m, n_d, w_k, p_sub, seed)


def test_music_spectrum_deep_null_matches_reference():
    # a two-element noise subspace whose null the 0.1 m grid passes within
    # ~1e-4 of ||a||: the value is ~1.4e8, and a phase rounded at the full
    # carrier turn count puts it 2e-9 off
    spec = _check_music_against_reference(9, 1, 31, 2, 1, 2)
    assert spec.values.max() > 1e8


def test_music_spectrum_angle_blocks_match_reference(monkeypatch):
    # a budget of two angles' g block, which holds the p_sub signal columns
    # of each angle: the 7 angles are scanned in blocks of 2, 2, 2 and 1
    # through the same buffers
    n_d, p_sub = 31, 2
    monkeypatch.setattr(rv.core, "_BLOCK_BYTES", 2 * n_d * p_sub * 16)
    assert rv.core.block_len(n_d * p_sub * 16) == 2
    _check_music_against_reference(7, 2, n_d, 3, p_sub, 11)


def test_music_spectrum_working_set_is_bounded(walabot):
    """The scan keeps U and g = a^H V_n to one block of angles.

    Built for the whole grid they were a 5.4 MB U and 4.5 MB range blocks
    (15.1 MB traced). Besides the memory, blocks that large are served by
    fresh mmaps once glibc's dynamic mmap threshold is low (as it is when no
    recording-sized array was freed before), and every scan block then
    page-faults anew; that made the pipeline slower, not faster, when the
    clutter filter stopped making its large temporaries.
    """
    cube = rv.simulate(scene_of([breather(2.0, 20.0)], l=264, noise_std=0.1, seed=4), walabot)
    seg = rv.segment(rv.sma_filter(cube, 64), 200).segments[0]
    cov = rv.smoothed_covariance(seg.samples, rv.SmoothingSpec(38, 2), 10)
    tracemalloc.start()
    try:
        rv.music_spectrum(cov, 15, rv.GridSpec(), walabot)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def test_music_spectrum_repeat_calls_bit_identical(walabot):
    cube = rv.simulate(scene_of([breather(2.0, 20.0)], l=264, noise_std=0.1, seed=4), walabot)
    seg = rv.segment(rv.sma_filter(cube, 64), 200).segments[0]
    cov = rv.smoothed_covariance(seg.samples, rv.SmoothingSpec(38, 2), 10)
    first = rv.music_spectrum(cov, 15, rv.GridSpec(), walabot)
    second = rv.music_spectrum(cov, 15, rv.GridSpec(), walabot)
    assert first.values.tobytes() == second.values.tobytes()


def _music_noise_scan(cov, p_sub, grid, cfg):
    """1 / ||V_n^H a||^2 on the centered grid through the noise subspace.

    The scan as it ran before it moved to the signal subspace: the channels
    of V_n are contracted once per angle and one GEMM over the range factors
    gives a^H V_n for every cell, without the complement or its recompute.
    """
    w_k, w_m = cov.spec.w_k, cov.spec.w_m
    n_noise = w_k * w_m - p_sub
    v_n = cov.eig_basis[:, p_sub:].reshape(w_m, w_k, n_noise).transpose(1, 0, 2)
    freqs = cfg.f0 + cfg.b / cfg.k * ((cfg.k - w_k) / 2 + np.arange(w_k))
    chan = cfg.delta * ((cfg.m_r * cfg.m_t - w_m) / 2 + np.arange(w_m))
    d_axis, theta_axis = grid.axes()
    path_t = np.sin(theta_axis)[:, None] * chan[None, :]
    turns_t = rv.localize._phase_turns(freqs[:, None, None], path_t[None], cfg.c)
    u = np.exp(2j * np.pi * turns_t) @ v_n  # (w_k, n_t, n_noise)
    turns_d = rv.localize._phase_turns(2.0 * d_axis[:, None], freqs[None, :], cfg.c)
    g = (np.exp(2j * np.pi * turns_d) @ u.reshape(w_k, -1)).reshape(d_axis.size, -1, n_noise)
    return 1.0 / np.maximum((g.real**2 + g.imag**2).sum(axis=2), np.finfo(float).tiny)


def test_music_spectrum_matches_noise_subspace_scan_on_m16(walabot):
    # every cell of every segment spectrum of the five-person scene, the
    # cells near the peaks (recomputed) and the rest (complement) alike
    cube = rv.simulate(m16_scene(seed=7), walabot)
    segments = rv.segment(rv.sma_filter(cube, 64), 200).segments
    assert len(segments) == 9
    grid = rv.GridSpec()
    for seg in segments:
        cov = rv.smoothed_covariance(seg.samples, rv.SmoothingSpec(38, 2), 10)
        spec = rv.music_spectrum(cov, 15, grid, walabot)
        expected = _music_noise_scan(cov, 15, grid, walabot)
        np.testing.assert_allclose(spec.values, expected, rtol=1e-10, atol=0)


def test_music_spectrum_non_orthonormal_basis_matches_reference():
    # a basis 1e-8 from orthonormal: the complement is off by about that
    # much of ||a||^2, so the bound sends every cell to the exact recompute
    cfg = small_config(k=7, n=14)
    samples = _random_samples(np.random.default_rng(5), 3, 7, cfg.m_r * cfg.m_t)
    cov = rv.smoothed_covariance(samples, rv.SmoothingSpec(3, 2), 3)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    e = x + x.conj().T
    basis = cov.eig_basis @ (np.eye(6) + 5e-9 * e / np.linalg.norm(e))
    departure = np.linalg.norm(basis.conj().T @ basis - np.eye(6))
    assert 5e-9 < departure < 2e-8
    cov = dataclasses.replace(cov, eig_basis=basis)
    grid = rv.GridSpec(d_max=3.0, d_step=0.1, theta_max=0.3, theta_step=0.1)
    spec = rv.music_spectrum(cov, 2, grid, cfg)
    expected = _music_reference(cov, 2, grid, cfg)
    np.testing.assert_allclose(spec.values, expected, rtol=1e-9, atol=0)


def test_music_spectrum_large_signal_subspace_matches_reference():
    # p_sub = 10 signal columns against 2 noise columns
    _check_music_against_reference(9, 3, 31, 4, 10, 21)


def test_accumulate_identities():
    d_axis = np.arange(3.0)
    t_axis = np.arange(2.0)
    a = rv.PseudoSpectrum(d_axis, t_axis, np.ones((3, 2)))
    zero = rv.PseudoSpectrum(d_axis, t_axis, np.zeros((3, 2)))
    np.testing.assert_array_equal(rv.accumulate_spectrum(zero, a).values, a.values)
    np.testing.assert_array_equal(rv.accumulate_spectrum(a, a).values, 2 * a.values)


def test_accumulate_grid_mismatch():
    a = rv.PseudoSpectrum(np.arange(3.0), np.arange(2.0), np.ones((3, 2)))
    b = rv.PseudoSpectrum(np.arange(3.0) + 0.5, np.arange(2.0), np.ones((3, 2)))
    with pytest.raises(ValueError, match="grid"):
        rv.accumulate_spectrum(a, b)


def test_accumulation_recovers_weak_person(walabot):
    # at low SNR at least one segment misses a person in its top five
    # peaks while the accumulated spectrum keeps all five
    scene = m16_scene(seed=5, noise_std=0.5)
    cube = rv.simulate(scene, walabot)
    seg = rv.segment(rv.sma_filter(cube, 64), 200)
    running = None
    per_segment_hits = []
    for s in seg.segments:
        cov = rv.smoothed_covariance(s.samples, rv.SmoothingSpec(38, 2), 10)
        spec = rv.music_spectrum(cov, 15, rv.GridSpec(), walabot)
        running = spec if running is None else rv.accumulate_spectrum(running, spec)
        dets = rv.extract_peaks(spec, 5, 0.3).detections
        errs = location_errors(dets, M16_TRUTH)
        per_segment_hits.append(sum(e < 0.3 for e in errs))
    acc_dets = rv.extract_peaks(running, 5, 0.3).detections
    acc_hits = sum(e < 0.3 for e in location_errors(acc_dets, M16_TRUTH))
    assert acc_hits == 5
    assert min(per_segment_hits) < 5


def _peak_spectrum(values):
    n_d, n_t = values.shape
    return rv.PseudoSpectrum(0.025 * np.arange(n_d), np.deg2rad(np.arange(n_t) - n_t // 2),
                             values)


def test_extract_peaks_single():
    values = np.ones((40, 21))
    values[20, 10] = 5.0
    dets = rv.extract_peaks(_peak_spectrum(values), 1, 0.3)
    assert len(dets.detections) == 1
    assert dets.detections[0].location.d == pytest.approx(0.5)
    assert dets.detections[0].value == 5.0
    assert dets.complete


def test_extract_peaks_groups_close_maxima():
    # two maxima 10 cm apart merge; the next distinct peak is returned
    values = np.ones((200, 21))
    values[80, 10] = 9.0     # d = 2.0 on boresight
    values[84, 10] = 8.0     # d = 2.1, 10 cm away: grouped
    values[120, 10] = 5.0    # d = 3.0: distinct
    dets = rv.extract_peaks(_peak_spectrum(values), 2, 0.3)
    ds = [round(det.location.d, 3) for det in dets.detections]
    assert ds == [2.0, 3.0]


def test_extract_peaks_zero_request():
    dets = rv.extract_peaks(_peak_spectrum(np.ones((5, 5))), 0, 0.3)
    assert dets.detections == [] and dets.complete


def test_extract_peaks_shortfall_warns():
    values = np.ones((40, 21))
    values[20, 10] = 5.0
    with pytest.warns(UserWarning, match="peaks"):
        dets = rv.extract_peaks(_peak_spectrum(values), 30, 10.0)
    assert not dets.complete


def _local_maxima_reference(values):
    """(value, i, j) of every cell that no in-grid neighbor exceeds, strongest
    first and then by index, from explicit neighbor loops."""
    n_d, n_t = values.shape
    maxima = []
    for i in range(n_d):
        for j in range(n_t):
            neighbors = [values[a, b]
                         for a in range(max(0, i - 1), min(n_d, i + 2))
                         for b in range(max(0, j - 1), min(n_t, j + 2))]
            if values[i, j] >= max(neighbors):
                maxima.append((float(values[i, j]), i, j))
    return sorted(maxima, key=lambda m: (-m[0], m[1], m[2]))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=7),
    # small integers give ties
    elements=st.one_of(st.integers(-2, 2).map(float), st.sampled_from([np.inf, -np.inf])),
))
@example(np.array([[3.0]]))
@example(np.array([[-np.inf]]))
@example(np.array([[1.0, 1.0, 0.0, np.inf, -np.inf]]))
@example(np.array([[-np.inf], [2.0], [2.0], [-1.0], [-np.inf]]))
def test_extract_peaks_matches_neighbor_loop_reference(values):
    # d starts above 0, so every cell is its own Cartesian point, and the
    # 0.01 m group radius is below the 0.0175 m cell spacing: every local
    # maximum is detected, in visiting order
    n_d, n_t = values.shape
    spectrum = rv.PseudoSpectrum(1.0 + 0.1 * np.arange(n_d),
                                 np.deg2rad(np.arange(n_t) - n_t // 2), values)
    expected = _local_maxima_reference(values)
    dets = rv.extract_peaks(spectrum, len(expected), 0.01)
    got = [(det.value, int(np.flatnonzero(spectrum.d_axis == det.location.d)[0]),
            int(np.flatnonzero(spectrum.theta_axis == det.location.theta)[0]))
           for det in dets.detections]
    assert got == expected and dets.complete


@pytest.mark.parametrize("p_hat", [0, 1])
def test_extract_peaks_rejects_nan(p_hat):
    values = np.ones((5, 4))
    values[2, 1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        rv.extract_peaks(_peak_spectrum(values), p_hat, 0.3)


def test_stacked_eigenvalues_pairing(walabot):
    # a lone return occupies two comparable real directions
    cube = rv.simulate(scene_of([breather(2.0, -40.0)], l=264), walabot)
    seg = rv.segment(rv.sma_filter(cube, 64), 200).segments[0]
    lam = rv.stacked_covariance_eigenvalues(seg.samples, rv.SmoothingSpec(38, 3), 10)
    assert lam.shape == (2 * 38 * 3,)
    assert lam[0] / lam[1] < 1.05
    assert np.all(np.diff(lam) <= 1e-12 * lam[0])


def test_stacked_eigenvalues_match_two_gemm_reference():
    # the backward term derived from the forward sums by a signed
    # permutation equals the explicitly stacked backward slices
    rng = np.random.default_rng(11)
    for _ in range(30):
        k, m, l = int(rng.integers(2, 9)), int(rng.integers(1, 5)), int(rng.integers(1, 6))
        spec = rv.SmoothingSpec(int(rng.integers(1, k + 1)), int(rng.integers(1, m + 1)))
        n_cov = int(rng.integers(1, l + 1))
        samples = _random_samples(rng, l, k, m)
        dim = spec.w_k * spec.w_m
        acc = np.zeros((2 * dim, 2 * dim))
        idx = rv.localize.snapshot_indices(l, n_cov)
        for li in idx:
            rows = _slice_rows(samples[li], spec)
            backward = rows[:, ::-1].conj()
            for x in (rows, backward):
                stacked = np.concatenate([x.real, x.imag], axis=1)
                acc += stacked.T @ stacked
        expected = np.linalg.eigvalsh(acc / (2 * len(idx) * spec.n_slices(k, m)))[::-1]
        lam = rv.stacked_covariance_eigenvalues(samples, spec, n_cov)
        np.testing.assert_allclose(lam, expected, rtol=0, atol=1e-13 * expected[0])


@st.composite
def _smoothing_cases(draw):
    k, m, l = draw(st.integers(1, 9)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    spec = rv.SmoothingSpec(draw(st.integers(1, k)), draw(st.integers(1, m)))
    n_cov = draw(st.integers(1, l))
    dtype = draw(st.sampled_from([np.complex128, np.complex64]))
    return k, m, l, spec, n_cov, dtype, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(_smoothing_cases())
@example((7, 4, 3, rv.SmoothingSpec(7, 4), 1, np.complex64, 0))
@example((9, 5, 1, rv.SmoothingSpec(9, 5), 1, np.complex128, 1))
@example((8, 1, 4, rv.SmoothingSpec(3, 1), 4, np.complex64, 2))
# the edges of the window-sum recurrence: one step (w_k = 1, no recurrence)
# or every step (w_k = k, one entry per diagonal sum), one or every channel
@example((6, 3, 2, rv.SmoothingSpec(1, 1), 1, np.complex128, 3))
@example((5, 4, 2, rv.SmoothingSpec(1, 4), 1, np.complex128, 4))
@example((6, 3, 2, rv.SmoothingSpec(6, 1), 1, np.complex128, 5))
@example((9, 4, 3, rv.SmoothingSpec(9, 3), 1, np.complex128, 6))
def test_covariances_match_per_slice_reference(case):
    # both smoothed covariances against the explicit sum over every
    # vectorized slice of every snapshot, formed in double precision
    k, m, l, spec, n_cov, dtype, seed = case
    samples = _random_samples(np.random.default_rng(seed), l, k, m).astype(dtype)
    exact = samples.astype(np.complex128)
    dim = spec.w_k * spec.w_m
    acc = np.zeros((dim, dim), dtype=np.complex128)
    acc_ri = np.zeros((2 * dim, 2 * dim))
    idx = rv.localize.snapshot_indices(l, n_cov)
    for li in idx:
        rows = _slice_rows(exact[li], spec)
        acc += rows.T @ rows.conj()
        for x in (rows, rows[:, ::-1].conj()):
            stacked = np.concatenate([x.real, x.imag], axis=1)
            acc_ri += stacked.T @ stacked
    n = len(idx) * spec.n_slices(k, m)
    r = acc / n
    r_hat = rv.forward_backward(0.5 * (r + r.conj().T))
    cov = rv.smoothed_covariance(samples, spec, n_cov)
    scale = np.abs(r_hat).max()
    np.testing.assert_allclose(cov.r_hat, r_hat, rtol=0, atol=1e-13 * scale)
    expected = np.linalg.eigvalsh(r_hat)[::-1]
    np.testing.assert_allclose(cov.eigvals, expected, rtol=0, atol=1e-13 * expected[0])
    expected = np.linalg.eigvalsh(acc_ri / (2 * n))[::-1]
    lam = rv.stacked_covariance_eigenvalues(samples, spec, n_cov)
    np.testing.assert_allclose(lam, expected, rtol=0, atol=1e-13 * expected[0])


def _per_slice_gram(snaps, spec, real_stacked):
    """Sum over every snapshot and every vectorized slice x of x x^H, or of
    [Re x; Im x] [Re x; Im x]^T for the real-stacked window."""
    dim = spec.w_k * spec.w_m
    acc = np.zeros((2 * dim,) * 2 if real_stacked else (dim, dim), dtype=snaps.dtype)
    for snap in snaps:
        rows = _slice_rows(snap, spec)
        if real_stacked:
            rows = np.concatenate([rows.real, rows.imag], axis=1)
        acc += rows.T @ rows.conj()
    return acc.real if real_stacked else acc


@settings(max_examples=40, deadline=None)
@given(_smoothing_cases(), st.booleans())
@example((5, 3, 1, rv.SmoothingSpec(1, 1), 1, np.complex128, 0), True)
@example((5, 3, 1, rv.SmoothingSpec(1, 3), 1, np.complex128, 1), False)
@example((5, 3, 1, rv.SmoothingSpec(5, 1), 1, np.complex128, 2), True)
@example((5, 3, 1, rv.SmoothingSpec(5, 3), 1, np.complex128, 3), False)
@example((1, 1, 1, rv.SmoothingSpec(1, 1), 1, np.complex128, 4), True)
def test_window_gram_matches_per_slice_sum(case, real_stacked):
    # the upper Gram panels, the diagonal window-sum recurrence and the
    # conjugate-transposed lower blocks against the explicit slice sum
    k, m, l, spec, n_cov, _, seed = case
    snaps = _random_samples(np.random.default_rng(seed), n_cov, k, m)
    parts = np.stack([snaps.real, snaps.imag]) if real_stacked else snaps[None]
    acc = rv.localize._window_gram(parts, spec.w_k, spec.w_m)
    expected = _per_slice_gram(snaps, spec, real_stacked)
    np.testing.assert_allclose(acc, expected, rtol=0, atol=1e-13 * np.abs(expected).max())


@pytest.mark.parametrize("spec, real_stacked", [
    (rv.SmoothingSpec(38, 2), False),  # the localization window
    (rv.SmoothingSpec(38, 3), True),  # the person-count window
])
def test_window_gram_at_production_size(spec, real_stacked):
    # k = 137 steps, 8 channels, 10 snapshots: 37 recurrence steps over
    # n_i = 100 entries per diagonal sum
    snaps = _random_samples(np.random.default_rng(13), 10, 137, 8)
    parts = np.stack([snaps.real, snaps.imag]) if real_stacked else snaps[None]
    acc = rv.localize._window_gram(parts, spec.w_k, spec.w_m)
    expected = _per_slice_gram(snaps, spec, real_stacked)
    assert acc.dtype == (np.float64 if real_stacked else np.complex128)
    np.testing.assert_allclose(acc, expected, rtol=0, atol=1e-13 * np.abs(expected).max())


def _parity_basis(dim):
    """Orthonormal bases of the +1 and the -1 eigenspace of the backward map
    S = diag(J, -J), J the index reversal, in the column order of
    ``_parity_blocks``: the Re-half vectors e_i + s e_r(i) first, then the
    Im-half ones, each normalized (a fixed point i = r(i) gives e_i)."""
    bases = []
    for re_sign, n_re in ((1.0, (dim + 1) // 2), (-1.0, dim // 2)):
        cols = []
        for half, sign, count in ((0, re_sign, n_re), (dim, -re_sign, dim - n_re)):
            for i in range(count):
                v = np.zeros(2 * dim)
                v[half + i] += 1.0
                v[half + dim - 1 - i] += sign
                cols.append(v / np.linalg.norm(v))
        bases.append(np.array(cols).T)
    return bases


@pytest.mark.parametrize("w_k, w_m", [(4, 2), (3, 3), (1, 1), (38, 3)])
def test_parity_blocks_match_explicit_projection(w_k, w_m):
    # each block is Q^T (acc + S acc S) Q / 2 on its eigenspace Q of S; an
    # odd w_k w_m puts a fixed point of the reversal in each block
    dim = w_k * w_m
    rng = np.random.default_rng(dim)
    g = rng.standard_normal((2 * dim, 3 * dim))
    acc = g @ g.T
    reverse = np.eye(dim)[::-1]
    s_map = np.block([[reverse, np.zeros((dim, dim))], [np.zeros((dim, dim)), -reverse]])
    fb = (acc + s_map @ acc @ s_map) / 2
    blocks = rv.localize._parity_blocks(acc)
    assert blocks.shape == (2, dim, dim)
    for block, q, sign in zip(blocks, _parity_basis(dim), (1.0, -1.0)):
        np.testing.assert_allclose(q.T @ q, np.eye(dim), atol=1e-15)
        np.testing.assert_allclose(s_map @ q, sign * q, atol=0)
        np.testing.assert_allclose(block, q.T @ fb @ q, rtol=0, atol=1e-13 * np.abs(acc).max())
    lam = np.sort(np.linalg.eigvalsh(blocks), axis=None)
    np.testing.assert_allclose(lam, np.linalg.eigvalsh(fb), rtol=0, atol=1e-12 * lam[-1])


def test_music_spectrum_shares_read_only_scan_factors(walabot):
    # the steering factors are computed once per (cfg, grid, window) and
    # shared read-only; each spectrum still gets its own axes
    rng = np.random.default_rng(8)
    cov = rv.smoothed_covariance(_random_samples(rng, 3, walabot.k, 8), rv.SmoothingSpec(38, 2), 3)
    grid = rv.GridSpec(d_max=1.0, theta_max=0.5)
    first = rv.music_spectrum(cov, 5, grid, walabot)
    hits = rv.localize._scan_factors.cache_info().hits
    second = rv.music_spectrum(cov, 5, grid, walabot)
    assert rv.localize._scan_factors.cache_info().hits == hits + 1
    r_conj, b_conj = rv.localize._scan_factors(walabot, grid, 38, 2)
    assert not r_conj.flags.writeable and not b_conj.flags.writeable
    assert second.values.tobytes() == first.values.tobytes()
    first.d_axis[:] = -1.0
    first.theta_axis[:] = -1.0
    np.testing.assert_array_equal(second.d_axis, grid.axes()[0])
    np.testing.assert_array_equal(second.theta_axis, grid.axes()[1])
