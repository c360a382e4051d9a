import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import as_strided, sliding_window_view

import radarvitals as rv
from helpers import breather, filtered_segments, m16_scene, scene_of, small_config, traced_peak

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


def _fb_reference(samples, spec, n_cov):
    """The forward-backward smoothed covariance of ``smoothed_covariance``,
    summed over every vectorized slice of every snapshot in double precision."""
    exact = np.asarray(samples).astype(np.complex128)
    l, k, m = exact.shape
    dim = spec.w_k * spec.w_m
    acc = np.zeros((dim, dim), dtype=np.complex128)
    idx = rv.localize.snapshot_indices(l, n_cov)
    for li in idx:
        rows = _slice_rows(exact[li], spec)
        acc += rows.T @ rows.conj()
    r = acc / (len(idx) * spec.n_slices(k, m))
    r = 0.5 * (r + r.conj().T)
    return 0.5 * (r + np.flip(r).conj())


def _reconstruct(cov):
    """V diag(eigvals) V^H of a ``CovarianceEstimate``."""
    return (cov.eig_basis * cov.eigvals) @ cov.eig_basis.conj().T


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


@given(hnp.arrays(np.intp, st.integers(0, 12), elements=st.integers(-4, 4)))
def test_sorted_unique_is_np_unique(a):
    got = rv.localize.sorted_unique(a)
    expected = np.unique(a)
    assert got.dtype == expected.dtype and got.tolist() == expected.tolist()


def test_forward_backward_hand_case():
    # one 2-sample slice x = (1 + 1j, 1): the forward covariance x x^H is
    # [[2, 1 + 1j], [1 - 1j, 1]], and averaging it with its conjugate
    # exchange (the backward copy) evens out the diagonal
    samples = np.array([[[1 + 1j], [1.0]]])
    cov = rv.smoothed_covariance(samples, rv.SmoothingSpec(2, 1), 1)
    expected = np.array([[1.5, 1 + 1j], [1 - 1j, 1.5]])
    np.testing.assert_allclose(_reconstruct(cov), expected, rtol=0, atol=1e-14)
    np.testing.assert_allclose(cov.eigvals, [1.5 + np.sqrt(2), 1.5 - np.sqrt(2)],
                               rtol=0, atol=1e-14)


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
    np.testing.assert_allclose(_reconstruct(cov), 0.5 * (forward + np.flip(forward).conj()),
                               atol=1e-12)
    assert cov.eigvals[2] <= 1e-10 * cov.eigvals[0]


def test_covariance_shape():
    rng = np.random.default_rng(1)
    samples = _random_samples(rng, 12, 10, 4)
    cov = rv.smoothed_covariance(samples, rv.SmoothingSpec(4, 2), 5)
    assert cov.eigvals.shape == (8,) and cov.eig_basis.shape == (8, 8)
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
        spec = rv.SmoothingSpec(w_k, w_m)
        cov = rv.smoothed_covariance(samples, spec, n_cov)
        r = _fb_reference(samples, spec, n_cov)
        recon = _reconstruct(cov)
        scale = np.linalg.norm(r)
        assert np.linalg.norm(recon - recon.conj().T) <= 1e-12 * scale
        exchange_sym = np.flip(recon).conj()
        assert np.linalg.norm(exchange_sym - recon) <= 1e-12 * scale
        assert np.all(np.diff(cov.eigvals) <= 1e-12 * cov.eigvals[0])
        assert cov.eigvals.min() >= -1e-10 * cov.eigvals[0]
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
    cov = rv.smoothed_covariance(filtered_segments(cube)[0], rv.SmoothingSpec(38, 2), n_cov)
    spec = rv.music_spectrum(cov, p_sub, rv.GridSpec(), cube.config)
    return spec


def test_noiseless_single_target_argmax(walabot):
    # the global argmax lands on the grid point nearest the true location
    cube = rv.simulate(scene_of([breather(3.0, -30.0)], l=264), walabot)
    spec = _localize_single(cube, p_sub=1)
    det = rv.extract_peaks(spec, 1, 0.3).detections[0]
    assert det.location.d == pytest.approx(3.0, abs=1e-9)
    assert det.location.theta == pytest.approx(np.deg2rad(-30.0), abs=1e-9)


def test_range_peak_tracks_distance(walabot):
    # one noiseless person at a random distance: the strongest detection of
    # the run lies within one grid step of it in range and in azimuth
    rng = np.random.default_rng(9)
    grid = rv.PipelineConfig().grid
    for _ in range(5):
        d = float(rng.uniform(0.8, 4.2))
        theta = float(rng.uniform(-40.0, 40.0))
        cube = rv.simulate(scene_of([breather(d, theta)], l=264), walabot)
        result = rv.run_pipeline(cube, rv.PipelineConfig(p_sub=1), vitals=False)
        det = result.final_detections.detections[0]
        assert abs(det.location.d - d) <= grid.d_step
        assert abs(det.location.theta - np.deg2rad(theta)) <= grid.theta_step


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
    report = rv.match_and_score([d.location for d in dets], truth, 0.15)
    assert report.p_md == 0


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
    # a budget of two angles of the lag scan's per-angle buffers, the w_m^2
    # block GEMM outputs and C of each angle: the 7 angles are scanned in
    # blocks of 2, 2, 2 and 1 through the same buffers
    n_d, w_k, w_m = 31, 3, 2
    per_angle = (w_m * w_m + 1) * w_k * 16
    monkeypatch.setattr(rv.core, "_BLOCK_BYTES", 2 * per_angle)
    assert rv.core.block_len(per_angle) == 2
    rv.localize._scan_factors.cache_clear()  # the tables too are built per block
    _check_music_against_reference(7, w_m, n_d, w_k, 2, 11)


def test_music_spectrum_working_set_is_bounded(walabot):
    """The scan keeps its per-angle and per-cell arrays to one block each.

    Beyond the spectrum and the cached phase tables, a call may hold two
    blocks: the tables are built one block of angles at a time, the lag
    scan runs one block of angles at a time, and the recompute one block of
    cells at a time. Built for the whole grid, the scan's U and g were a
    5.4 MB U and 4.5 MB range blocks (15.1 MB traced). Besides the memory,
    blocks that large are served by fresh mmaps once glibc's dynamic mmap
    threshold is low (as it is when no recording-sized array was freed
    before), and every scan block then page-faults anew; that made the
    pipeline slower, not faster, when the clutter filter stopped making its
    large temporaries. The wide grid, 0.1 degree steps over 1441 angles,
    needs ten times the per-angle tables and would hold ten times the
    per-angle buffers without the blocks.
    """
    cube = rv.simulate(scene_of([breather(2.0, 20.0)], l=264, noise_std=0.1, seed=4), walabot)
    cov = rv.smoothed_covariance(filtered_segments(cube)[0], rv.SmoothingSpec(38, 2), 10)
    for grid in (rv.GridSpec(), rv.GridSpec(theta_step=math.pi / 1800)):
        rv.localize._scan_factors.cache_clear()
        spec, peak = traced_peak(lambda: rv.music_spectrum(cov, 15, grid, walabot))
        tables = rv.localize._scan_factors(walabot, grid, 38, 2)[:5]
        kept = spec.values.nbytes + sum(t.nbytes for t in tables)
        assert peak < kept + 2 * rv.core._BLOCK_BYTES, (grid, peak, kept)


def test_music_spectrum_repeat_calls_bit_identical(walabot):
    cube = rv.simulate(scene_of([breather(2.0, 20.0)], l=264, noise_std=0.1, seed=4), walabot)
    cov = rv.smoothed_covariance(filtered_segments(cube)[0], rv.SmoothingSpec(38, 2), 10)
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
    segments = filtered_segments(cube)
    assert len(segments) == 9
    grid = rv.GridSpec()
    for seg in segments:
        cov = rv.smoothed_covariance(seg, rv.SmoothingSpec(38, 2), 10)
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


def _hits(dets):
    """Persons of the m16 layout matched by a detection within 0.3 m."""
    return len(rv.match_and_score([d.location for d in dets], M16_TRUTH, 0.3).matches)


def test_accumulation_recovers_weak_person(walabot):
    # at low SNR at least one segment misses a person in its top five
    # peaks while the accumulated spectrum keeps all five
    scene = m16_scene(seed=5, noise_std=0.5)
    cube = rv.simulate(scene, walabot)
    running = None
    per_segment_hits = []
    for seg in filtered_segments(cube):
        cov = rv.smoothed_covariance(seg, rv.SmoothingSpec(38, 2), 10)
        spec = rv.music_spectrum(cov, 15, rv.GridSpec(), walabot)
        running = spec if running is None else rv.accumulate_spectrum(running, spec)
        dets = rv.extract_peaks(spec, 5, 0.3).detections
        per_segment_hits.append(_hits(dets))
    acc_hits = _hits(rv.extract_peaks(running, 5, 0.3).detections)
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
    [seg] = filtered_segments(cube)
    lam = rv.stacked_covariance_eigenvalues(seg, rv.SmoothingSpec(38, 3), 10)
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
    acc_ri = np.zeros((2 * dim, 2 * dim))
    idx = rv.localize.snapshot_indices(l, n_cov)
    for li in idx:
        rows = _slice_rows(exact[li], spec)
        for x in (rows, rows[:, ::-1].conj()):
            stacked = np.concatenate([x.real, x.imag], axis=1)
            acc_ri += stacked.T @ stacked
    n = len(idx) * spec.n_slices(k, m)
    r_fb = _fb_reference(samples, spec, n_cov)
    cov = rv.smoothed_covariance(samples, spec, n_cov)
    scale = np.abs(r_fb).max()
    np.testing.assert_allclose(_reconstruct(cov), r_fb, rtol=0, atol=1e-13 * scale)
    expected = np.linalg.eigvalsh(r_fb)[::-1]
    np.testing.assert_allclose(cov.eigvals, expected, rtol=0, atol=1e-13 * expected[0])
    expected = np.linalg.eigvalsh(acc_ri / (2 * n))[::-1]
    lam = rv.stacked_covariance_eigenvalues(samples, spec, n_cov)
    np.testing.assert_allclose(lam, expected, rtol=0, atol=1e-13 * expected[0])


def _low_rank_samples(rng, l, k, m, sources, noise):
    """``sources`` plane waves over (step, channel) with random complex
    amplitudes per snapshot, plus white noise of scale ``noise``."""
    samples = noise * _random_samples(rng, l, k, m)
    for _ in range(sources):
        wave = np.exp(2j * np.pi * (rng.uniform() * np.arange(k)[:, None]
                                    + rng.uniform() * np.arange(m)[None, :]))
        samples += (rng.standard_normal(l) + 1j * rng.standard_normal(l))[:, None, None] * wave
    return samples


@settings(max_examples=80, deadline=None)
@given(_smoothing_cases(), st.integers(0, 3), st.sampled_from([1.0, 1e-3]))
# w_m = 1 with an even and with an odd w_k, an odd w_k w_m, and the
# localization window, whose 76 x 76 covariance is the one the pipeline solves
@example((8, 3, 3, rv.SmoothingSpec(6, 1), 3, np.complex128, 0), 2, 1e-3)
@example((8, 3, 3, rv.SmoothingSpec(7, 1), 2, np.complex64, 1), 1, 1e-3)
@example((9, 5, 4, rv.SmoothingSpec(7, 3), 4, np.complex64, 2), 3, 1e-3)
@example((9, 5, 4, rv.SmoothingSpec(5, 5), 3, np.complex128, 3), 0, 1.0)
@example((1, 1, 1, rv.SmoothingSpec(1, 1), 1, np.complex128, 4), 0, 1.0)
@example((45, 3, 6, rv.SmoothingSpec(38, 2), 6, np.complex128, 5), 3, 1e-3)
def test_real_form_eigensolve_matches_the_complex_one(case, sources, noise):
    # the eigenpairs solved as the real symmetric Q^H r_fb Q, mapped back by
    # Q, against the complex eigh of the forward-backward matrix itself
    k, m, l, spec, n_cov, dtype, seed = case
    samples = _low_rank_samples(np.random.default_rng(seed), l, k, m, sources, noise)
    cov = rv.smoothed_covariance(samples.astype(dtype), spec, n_cov)
    r_fb = _fb_reference(samples.astype(dtype), spec, n_cov)
    lam, v = np.linalg.eigh(r_fb)
    lam, v = lam[::-1], v[:, ::-1]
    dim = lam.size
    np.testing.assert_allclose(cov.eigvals, lam, rtol=0, atol=1e-14 * lam[0])
    basis = cov.eig_basis
    assert basis.shape == (dim, dim) and basis.flags.c_contiguous
    assert np.linalg.norm(r_fb @ basis - basis * cov.eigvals) <= 1e-13 * lam[0]
    assert np.linalg.norm(basis.conj().T @ basis - np.eye(dim)) <= 1e-13
    # where the spectrum has a wide gap, both bases span the same subspace
    for p_sub in range(1, dim):
        gap = lam[p_sub - 1] - lam[p_sub]
        if gap >= 1e-2 * lam[0]:
            ours = basis[:, :p_sub] @ basis[:, :p_sub].conj().T
            ref = v[:, :p_sub] @ v[:, :p_sub].conj().T
            assert np.linalg.norm(ours - ref) <= 1e-12, (p_sub, gap / lam[0])


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


def _diagonal_sum_gram(snaps, w_k, w_m):
    """``_window_gram`` as it was before its seeds were read as contiguous
    runs, kept as the byte reference: sums[k1, pair, k2], each seed summed
    by einsum over a diagonal-strided view of the panel, the recurrence one
    shifted 2-D addition per k1, and the full matrix assembled from the
    upper blocks."""
    n_parts, n_cov, k, m = snaps.shape
    n_i, n_j = k - w_k + 1, m - w_m + 1
    n_b = n_parts * w_m
    y = sliding_window_view(snaps, n_j, axis=3).transpose(0, 3, 2, 1, 4)
    z = y.reshape(n_b * k, n_cov * n_j)
    z_h = z.conj().T
    first = [b1 * n_b - b1 * (b1 - 1) // 2 for b1 in range(n_b + 1)]
    sums = np.empty((w_k, first[-1], w_k), dtype=z.dtype)
    for b1 in range(n_b):
        panel = (z[b1 * k : (b1 + 1) * k] @ z_h[:, b1 * k :]).reshape(k, n_b - b1, k)
        rs, bs, cs = panel.strides
        s = sums[:, first[b1] : first[b1 + 1]]
        row0 = as_strided(panel, (n_b - b1, w_k, n_i), (bs, cs, rs + cs), writeable=False)
        col0 = as_strided(panel[1:], (w_k - 1, n_b - b1, n_i), (rs, bs, rs + cs), writeable=False)
        np.einsum("ijk->ij", row0, out=s[0])
        np.einsum("ijk->ij", col0, out=s[1:, :, 0])
        np.subtract(panel[n_i:, :, n_i:], panel[: w_k - 1, :, : w_k - 1], out=s[1:, :, 1:])
    for t in range(1, w_k):
        np.add(sums[t, :, 1:], sums[t - 1, :, :-1], out=sums[t, :, 1:])
    out = np.empty((n_b, w_k, n_b, w_k), dtype=z.dtype)
    for b1 in range(n_b):
        s = sums[:, first[b1] : first[b1 + 1]]
        out[b1, :, b1:] = s
        out[b1 + 1 :, :, b1] = s[:, 1:].conj().transpose(1, 2, 0)
    return out.reshape(n_b * w_k, n_b * w_k)


def _assert_same_bytes_as_the_diagonal_sum_form(snaps, spec):
    for parts in (snaps[None], np.stack([snaps.real, snaps.imag])):
        acc = rv.localize._window_gram(parts, spec.w_k, spec.w_m)
        expected = _diagonal_sum_gram(parts, spec.w_k, spec.w_m)
        assert acc.dtype == expected.dtype
        assert acc.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(_smoothing_cases())
# n_i = 1 (w_k = k), w_k = 1, w_m = m, and w_k = 2, whose last panel has a
# lone column seed (a lone sum would be pairwise in numpy)
@example((5, 3, 1, rv.SmoothingSpec(1, 1), 1, np.complex128, 0))
@example((5, 3, 1, rv.SmoothingSpec(1, 3), 1, np.complex128, 1))
@example((5, 3, 1, rv.SmoothingSpec(5, 1), 1, np.complex128, 2))
@example((5, 3, 1, rv.SmoothingSpec(5, 3), 1, np.complex128, 3))
@example((1, 1, 1, rv.SmoothingSpec(1, 1), 1, np.complex128, 4))
@example((9, 4, 3, rv.SmoothingSpec(2, 4), 3, np.complex128, 5))
@example((12, 2, 2, rv.SmoothingSpec(1, 1), 2, np.complex128, 6))
def test_window_gram_bytes_match_the_diagonal_sum_form(case):
    # the contiguous-run seeds and the pairs-last recurrence change no bit
    # of either Gram
    k, m, l, spec, n_cov, _, seed = case
    snaps = _random_samples(np.random.default_rng(seed), n_cov, k, m)
    _assert_same_bytes_as_the_diagonal_sum_form(snaps, spec)


@pytest.fixture(scope="module")
def m16_snapshots(walabot):
    """The ``n_cov`` = 10 covariance snapshots of three segments of the
    five-person scene, as the pipeline takes them."""
    cube = rv.simulate(m16_scene(seed=7), walabot)
    return [seg[rv.localize.snapshot_indices(200, 10)] for seg in filtered_segments(cube)[::4]]


@pytest.mark.parametrize("segment", [0, 1, 2], ids=["seg0", "seg4", "seg8"])
@pytest.mark.parametrize("spec", [rv.SmoothingSpec(38, 2), rv.SmoothingSpec(38, 3)],
                         ids=["music", "count"])
def test_window_gram_bytes_match_the_diagonal_sum_form_on_m16(m16_snapshots, segment, spec):
    snaps = m16_snapshots[segment]
    assert snaps.shape == (10, 137, 8)
    _assert_same_bytes_as_the_diagonal_sum_form(snaps, spec)
    # the count reads [Re, Im] as a view of the snapshots, not a stacked copy
    blocks = rv.localize._parity_blocks(
        _diagonal_sum_gram(np.stack([snaps.real, snaps.imag]), spec.w_k, spec.w_m))
    blocks *= 1.0 / (10 * spec.n_slices(137, 8))
    expected = np.sort(np.linalg.eigvalsh(blocks), axis=None)[::-1]
    lam = rv.stacked_covariance_eigenvalues(snaps, spec, 10)
    assert lam.tobytes() == expected.tobytes()


@pytest.mark.parametrize("estimate, spec, parent_peak", [
    (rv.stacked_covariance_eigenvalues, rv.SmoothingSpec(38, 3), 2_645_237),
    (rv.smoothed_covariance, rv.SmoothingSpec(38, 2), 1_940_197),
], ids=["count", "music"])
def test_covariance_working_set_stays_within_the_diagonal_sum_form(estimate, spec, parent_peak):
    """At production size (10 snapshots of 137 steps x 8 channels) a call
    holds no more than the form ``_diagonal_sum_gram`` replaced: its traced
    peaks were 2 645 237 B for the count and 1 940 197 B for MUSIC (numpy
    2.4). A scratch buffer padded for a skewed cumulative sum would add
    about 3 times the 242 kB pair sums of the count."""
    samples = _random_samples(np.random.default_rng(13), 10, 137, 8)
    estimate(samples, spec, 10)
    peak = traced_peak(lambda: estimate(samples, spec, 10))[1]
    assert peak <= parent_peak, peak


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


def test_music_spectrum_shares_read_only_scan_factors(walabot, monkeypatch):
    # every phase table, of the lag scan and of the recompute, is computed
    # once per (cfg, grid, window) and shared read-only; each spectrum still
    # gets its own axes
    rng = np.random.default_rng(8)
    samples = _random_samples(rng, 3, walabot.k, 8)
    cov = rv.smoothed_covariance(samples, rv.SmoothingSpec(38, 2), 3)
    grid = rv.GridSpec(d_max=1.0, theta_max=0.5)
    reductions = []
    real_turns = rv.localize._phase_turns
    monkeypatch.setattr(rv.localize, "_phase_turns",
                        lambda *args: reductions.append(args) or real_turns(*args))
    rv.localize._scan_factors.cache_clear()
    first = rv.music_spectrum(cov, 5, grid, walabot)
    assert reductions
    reductions.clear()
    second = rv.music_spectrum(cov, 5, grid, walabot)
    assert not reductions
    info = rv.localize._scan_factors.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    factors = rv.localize._scan_factors(walabot, grid, 38, 2)
    tables = [t for t in factors if isinstance(t, np.ndarray)]
    assert len(tables) == 5
    assert not any(t.flags.writeable for t in tables)
    # another window is another computation
    other = rv.smoothed_covariance(samples, rv.SmoothingSpec(30, 2), 3)
    rv.music_spectrum(other, 5, grid, walabot)
    assert rv.localize._scan_factors.cache_info().misses == 2
    assert second.values.tobytes() == first.values.tobytes()
    first.d_axis[:] = -1.0
    first.theta_axis[:] = -1.0
    np.testing.assert_array_equal(second.d_axis, grid.axes()[0])
    np.testing.assert_array_equal(second.theta_axis, grid.axes()[1])


def _exact_ints(*arrays):
    """Integer arrays n and one power of two s with each x = n / s exactly."""
    ratios = [[float(v).as_integer_ratio() for v in np.ravel(x)] for x in arrays]
    scale = max(den for r in ratios for _, den in r)
    ints = [np.array([num * (scale // den) for num, den in r], dtype=object).reshape(np.shape(x))
            for r, x in zip(ratios, arrays)]
    return ints, scale


def _exact_complements(v_s, grid, cfg, w_k, w_m):
    """dim - ||V_s^H a||^2 and ||a||^2 - ||V_s^H a||^2 per cell, exactly.

    a is each cell's steering vector with every phase taken in exact
    rational arithmetic and rounded once to its fractional turn, as in
    ``_music_reference``; the squared norms are then summed in exact
    integer arithmetic from the float entries of a and V_s.
    """
    k_off = (cfg.k - w_k) / 2
    m_off = (cfg.m_r * cfg.m_t - w_m) / 2
    freqs = [Fraction(f) for f in cfg.f0 + cfg.b / cfg.k * (k_off + np.arange(w_k))]
    chan = [Fraction(x) for x in cfg.delta * (m_off + np.arange(w_m))]
    c = Fraction(cfg.c)
    d_axis, theta_axis = grid.axes()
    turns = np.empty((d_axis.size, theta_axis.size, w_m, w_k))
    for i, d in enumerate(d_axis):
        for j, theta in enumerate(theta_axis):
            sin_t = Fraction(float(np.sin(theta)))
            for m, x in enumerate(chan):
                path = 2 * Fraction(d) + sin_t * x
                for k, f in enumerate(freqs):
                    t = f * path / c
                    turns[i, j, m, k] = t - round(t)
    a = np.exp(-2j * np.pi * turns).reshape(-1, w_m * w_k)
    (ar, ai), sa = _exact_ints(a.real, a.imag)
    (vr, vi), sv = _exact_ints(v_s.real, v_s.imag)
    gr, gi = ar @ vr + ai @ vi, ar @ vi - ai @ vr  # conj(a) V_s, scaled by sa sv
    signal = [Fraction(int(x), (sa * sv) ** 2) for x in (gr * gr + gi * gi).sum(axis=1)]
    norm = [Fraction(int(x), sa * sa) for x in (ar * ar + ai * ai).sum(axis=1)]
    shape = (d_axis.size, theta_axis.size)
    return (np.array([w_k * w_m - s for s in signal], dtype=object).reshape(shape),
            np.array([n - s for n, s in zip(norm, signal)], dtype=object).reshape(shape))


@pytest.mark.parametrize("parity", [0, 1], ids=["even_w_k", "odd_w_k"])
@settings(max_examples=15, deadline=None)
@given(
    k=st.integers(3, 9),
    w_m=st.integers(1, 3),
    n_d=st.sampled_from([1, 7, 31]),
    data=st.data(),
)
def test_lag_complement_within_its_rounding_bound(parity, k, w_m, n_d, data):
    # the lag form's complement, before any recompute, against the exact
    # dim - ||V_s^H a||^2 of the per-cell steering vectors. It may differ by
    # its rounding bound, by the drift beta of its uniform steps and by the
    # reference's own rounding of a (10 u per entry, and ||a||^2 != dim):
    # a unit phase of at most beta' per entry moves the complement c by at
    # most 2 beta' sqrt(dim (c + departure dim)) + beta'^2 dim (1 + departure)
    sizes = [w for w in range(1, k + 1) if w % 2 == parity and w * w_m >= 2]
    w_k = data.draw(st.sampled_from(sizes), label="w_k")
    p_sub = data.draw(st.integers(1, w_k * w_m - 1), label="p_sub")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    cfg = small_config(k=k, n=2 * k)
    samples = _random_samples(np.random.default_rng(seed), 3, k, cfg.m_r * cfg.m_t)
    cov = rv.smoothed_covariance(samples, rv.SmoothingSpec(w_k, w_m), 3)
    grid = rv.GridSpec(d_max=0.1 * (n_d - 1), d_step=0.1, theta_max=0.3, theta_step=0.1)
    dim = w_k * w_m
    basis = cov.eig_basis
    departure = np.linalg.norm(basis.conj().T @ basis - np.eye(dim))
    factors = rv.localize._scan_factors(cfg, grid, w_k, w_m)
    complement, rounding = rv.localize._signal_complement(factors, basis[:, :p_sub])
    assert rounding < 1e-11
    exact, residual = _exact_complements(basis[:, :p_sub], grid, cfg, w_k, w_m)
    beta = factors.drift + 10 * rv.localize._UNIT
    for c, ref, res in zip(complement.ravel(), exact.ravel(), residual.ravel()):
        spread = math.sqrt(dim * (max(float(res), 0.0) + departure * dim))
        bound = (rounding + 2 * beta * spread + beta * beta * dim * (1 + departure)
                 + abs(float(ref - res)))
        assert abs(float(Fraction(float(c)) - ref)) <= bound
