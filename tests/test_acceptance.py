"""Acceptance gate: every shipped claim is checked here at its stated
tolerance, one printed pass/fail line per criterion."""

import math
import os
import time

import numpy as np
import pytest

import radarvitals as rv
from radarvitals.pipeline import run_pipeline
from radarvitals.preprocess import sma_rows
from radarvitals.vitals import beamform, displacements
from helpers import (
    breather,
    m16_scene,
    scene_of,
    small_config,
)


def _report(criterion, ok, detail=""):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def walabot():
    return rv.walabot_config(f_st=10.0)


@pytest.fixture(scope="module")
def m16_result(walabot):
    scene = m16_scene(seed=7)
    cube = rv.simulate(scene, walabot)
    result = run_pipeline(cube, rv.PipelineConfig())
    return scene, result, rv.evaluate_result(result, scene)


def test_criterion_1_derived_parameters(walabot):
    start = time.perf_counter()
    derived = rv.derive_params(walabot)
    elapsed = time.perf_counter() - start
    ok = (
        abs(derived.d_max - 12.08) <= 0.01
        and abs(derived.range_resolution - 0.088) <= 0.001
        and derived.k0 == 96
        and abs(derived.f_c - 7.15e9) <= 0.01e9
        and elapsed < 1.0
    )
    _report(1, ok, f"d_max={derived.d_max:.4f} m, resolution="
                   f"{derived.range_resolution:.4f} m, k0={derived.k0}, "
                   f"f_c={derived.f_c / 1e9:.4f} GHz, {elapsed:.3f} s")


def test_criterion_2_noiseless_single_target(walabot):
    # one coherent return leaves a rank-deficient covariance, so the scan
    # uses a matching one-dimensional signal subspace; the strongest
    # detection of the run's one segment is scored
    config = rv.PipelineConfig(p_sub=1)
    grid = config.grid
    worst = 0.0
    start = time.perf_counter()
    for d0, theta_deg in [(2.0, 0.0), (3.0, -30.0)]:
        scene = scene_of([breather(d0, theta_deg)], l=264)
        result = run_pipeline(rv.simulate(scene, walabot), config, vitals=False)
        det = result.final_detections.detections[0]
        truth = rv.PolarLocation(d0, np.deg2rad(theta_deg))
        matches = rv.match_and_score([det.location], [truth], config.d_match).matches
        err = matches[0][2] if matches else math.inf
        cell = math.hypot(grid.d_step, d0 * grid.theta_step)
        worst = max(worst, err / cell)
        assert err <= cell
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 and elapsed < 120.0
    _report(2, ok, f"worst error {worst:.3f} grid cells, {elapsed:.1f} s for both scenes")


def test_criterion_3_m16_multi_target(m16_result):
    scene, result, report = m16_result
    truth = [p.location for p in scene.persons]
    persistent = [t for t in result.tracks if len(t.records) >= len(result.segments) // 2]
    # every person is matched by a persistent track's last location
    tracks = rv.match_and_score([t.last_location for t in persistent], truth, 0.3)
    detail = (
        f"TPP={report.tpp} FDP={report.fdp:.3f} "
        f"median={report.median_location_error} over {len(result.segments)} segments, "
        f"{len(persistent)} tracks"
    )
    ok = (
        report.tpp == 1.0
        and report.fdp == 0.0
        and report.median_location_error is not None
        and report.median_location_error < 0.15
        and len(persistent) == 5
        and tracks.p_md == 0
    )
    _report(3, ok, detail)


def test_criterion_4_breathing_accuracy(m16_result):
    scene, result, report = m16_result
    errors = report.breathing_errors or []
    # pure-tone resolution check at the padded periodogram bin width
    tone = rv.VitalSeries(
        1e-3 * np.sin(2 * np.pi * 0.3 * np.arange(200) / 10.0), 10.0
    )
    bin_width = 10.0 / (8 * 200)
    tone_ok = abs(rv.breathing_frequency([tone]) - 0.3) <= bin_width
    ok = len(errors) == 5 and all(abs(e) <= 0.10 for e in errors) and tone_ok
    _report(4, ok, f"errors={['%.3f' % e for e in errors]}, "
                   f"pure tone within {bin_width} Hz: {tone_ok}")


def test_criterion_5_model_order(walabot):
    # spread layout at or beyond the range resolution, 20 dB SNR
    locations = [(1.2, -40.0), (1.7, 25.0), (2.2, -15.0), (2.7, 40.0), (3.2, 0.0)]
    freqs = [0.30, 0.25, 0.35, 0.20, 0.40]
    config = rv.PipelineConfig()
    details = []
    ok = True
    for p in range(6):
        persons = [
            breather(d, th, f_b=f, amp=0.0008, phase=0.7 * i)
            for i, ((d, th), f) in enumerate(zip(locations[:p], freqs[:p]))
        ]
        scene = scene_of(persons, l=2064, noise_std=0.1, seed=101 + p)
        result = run_pipeline(rv.simulate(scene, walabot), config, vitals=False)
        estimates = [o.order.p_hat for o in result.segments]
        correct = sum(1 for e in estimates if e == p)
        share = correct / len(estimates)
        details.append(f"P={p}:{correct}/{len(estimates)}")
        ok = ok and (share == 1.0 if p == 0 else share >= 0.8)
    _report(5, ok, " ".join(details))


def test_criterion_6_property_suites(walabot):
    rng = np.random.default_rng(2024)
    failures = []

    # covariance V diag(lambda) V^H from the eigenpairs the scan reads:
    # Hermitian, persymmetric, spectrum bounded below
    for _ in range(100):
        k, m, l = int(rng.integers(3, 9)), int(rng.integers(2, 5)), int(rng.integers(2, 6))
        samples = rng.standard_normal((l, k, m)) + 1j * rng.standard_normal((l, k, m))
        spec = rv.SmoothingSpec(int(rng.integers(1, k + 1)), int(rng.integers(1, m + 1)))
        cov = rv.smoothed_covariance(samples, spec, int(rng.integers(1, l + 1)))
        r = (cov.eig_basis * cov.eigvals) @ cov.eig_basis.conj().T
        scale = np.linalg.norm(r)
        if np.linalg.norm(r - r.conj().T) > 1e-12 * scale:
            failures.append("hermitian")
        if np.linalg.norm(np.flip(r).conj() - r) > 1e-12 * scale:
            failures.append("persymmetric")
        if cov.eigvals.min() < -1e-10 * cov.eigvals[0]:
            failures.append("eigenvalue floor")

    # steering entries stay on the unit circle
    cfg = small_config()
    for _ in range(100):
        a = rv.steering_matrix(
            float(rng.uniform(0, 12)), float(rng.uniform(-1.5, 1.5)),
            int(rng.integers(1, 10)), int(rng.integers(1, 5)), cfg
        )
        if np.max(np.abs(np.abs(a) - 1.0)) > 1e-12:
            failures.append("steering modulus")

    # down-conversion recovers a k-step snapshot from its analytic profile
    # of n + 1 > k fast-time samples, for odd and even k
    for _ in range(100):
        k = int(rng.integers(2, 12))
        n = int(rng.integers(k, 40))
        snap = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        radar = small_config(k=k, n=n + 1)
        delta_f = radar.b / k
        tones = np.outer(np.arange(n + 1), radar.f0 / delta_f + np.arange(k)) / (n + 1)
        profile = np.exp(2j * np.pi * tones) @ snap
        got = rv.downconvert_decimate(profile, radar, (n + 1) * delta_f)
        if np.max(np.abs(got - snap)) > 1e-9 * max(np.abs(snap).max(), 1):
            failures.append("down-conversion")

    # the slow-time filter annihilates constants, on all rows and on picked ones
    for _ in range(100):
        l = int(rng.integers(4, 30))
        w = int(rng.integers(1, l + 1))
        const = rng.standard_normal((1, cfg.k, 4)) + 1j * rng.standard_normal((1, cfg.k, 4))
        x = np.repeat(const, l, axis=0)
        picked = np.arange((l - w) % 2, l - w + 1, 2)
        for out in (sma_rows(x, w), sma_rows(x, w, picked)):
            if np.max(np.abs(out)) > 1e-12 * max(np.max(np.abs(const)), 1.0):
                failures.append("sma annihilation")

    # phase unwrapping is exact for sub-half-cycle increments
    derived = rv.derive_params(walabot)
    filt = rv.build_filter(rv.PolarLocation(1.5, 0.0), walabot, derived)
    scale = -walabot.c / (4 * np.pi * derived.f_c)
    for _ in range(100):
        l = int(rng.integers(3, 40))
        phases = np.concatenate(
            [[rng.uniform(-8, 8)], rng.uniform(-0.98 * np.pi, 0.98 * np.pi, l - 1)]
        ).cumsum()
        samples = np.zeros((l, walabot.k, 8), dtype=complex)
        samples[:, :96, :] = filt[None] * np.exp(1j * phases)[:, None, None]
        [series] = displacements(beamform([filt], samples).T, np.arange(l) / 10.0, walabot,
                                 derived.f_c)
        if np.max(np.abs(np.diff(series.eta) / scale - np.diff(phases))) > 1e-9:
            failures.append("unwrap")

    # person-count criterion: scale invariance and alpha monotonicity
    def p_hat(lam, order_cfg):
        return rv.order_diagnostics(lam, order_cfg).p_hat

    for _ in range(100):
        lam = np.sort(rng.gamma(2.0, 1.0, int(rng.integers(6, 40))))[::-1] + 1e-9
        cfg_a = rv.ModelOrderConfig(alpha=float(rng.uniform(1, 4)))
        if p_hat(lam, cfg_a) != p_hat(lam * float(rng.uniform(1e-6, 1e6)), cfg_a):
            failures.append("scale invariance")
        hi = rv.ModelOrderConfig(alpha=cfg_a.alpha + float(rng.uniform(0, 4)))
        if p_hat(lam, cfg_a) < p_hat(lam, hi):
            failures.append("alpha monotonicity")

    # matching count identity
    for _ in range(100):
        refs = [rv.CartesianLocation(*xy) for xy in rng.uniform(-3, 3, (int(rng.integers(0, 8)), 2))]
        ests = [rv.CartesianLocation(*xy) for xy in rng.uniform(-3, 3, (int(rng.integers(0, 8)), 2))]
        rep = rv.match_and_score(ests, refs, d_match=float(rng.uniform(0.05, 1.0)))
        if rep.p != rep.p_hat + rep.p_md - rep.p_fd:
            failures.append("count identity")

    ok = not failures
    _report(6, ok, "all 8 suites x 100 cases" if ok else f"failed: {sorted(set(failures))}")


def test_criterion_7_external_dataset():
    dataset_dir = os.environ.get("RADARVITALS_DATASET_DIR")
    if not dataset_dir:
        print("[criterion 7] SKIP external dataset not supplied "
              "(set RADARVITALS_DATASET_DIR to run)")
        pytest.skip("external dataset not supplied")
    import pathlib

    from radarvitals.dataio import convert_recording, read_raw_dir, read_header

    failures = []
    scanned = 0
    for raw_dir in sorted(pathlib.Path(dataset_dir).iterdir()):
        if not (raw_dir / "raw.kv").exists():
            continue
        meta = rv.kvfile.read_kv(raw_dir / "raw.kv")
        if meta.get("obstacle", "free") != "free":
            continue
        scanned += 1
        raw, cfg = read_raw_dir(raw_dir)
        cube = convert_recording(raw, cfg)
        result = run_pipeline(cube, rv.PipelineConfig())
        if not result.final_detections.detections:
            failures.append(raw_dir.name)
    ok = scanned > 0 and not failures
    _report(7, ok, f"{scanned} free-space scenarios, misses: {failures}")
