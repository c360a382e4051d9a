import importlib
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import radarvitals as rv
from radarvitals.cli import main
from radarvitals.kvfile import write_kv
from helpers import breather, scene_of, small_config, traced_peak
from test_cli import in_process_tests

# the module, which the package's simulate function shadows as an attribute
simulate_module = importlib.import_module("radarvitals.simulate")


def test_empty_scene_gives_zero_cube(walabot):
    cube = rv.simulate(scene_of([], l=5), walabot)
    assert cube.samples.shape == (5, 137, 8)
    assert np.all(cube.samples == 0)


def test_static_person_first_cell_phase(walabot):
    person = breather(1.5, 0.0, amp=0.0)
    cube = rv.simulate(scene_of([person], l=8), walabot)
    expected = np.exp(-2j * np.pi * walabot.f0 * 2 * 1.5 / walabot.c)
    np.testing.assert_allclose(cube.samples[:, 0, 0], expected, rtol=1e-12)


def test_static_person_matches_delay_model(walabot, derived):
    # every cell follows exp(-2j pi f_k (2 d + m delta sin theta) / c)
    person = breather(2.2, -35.0, amp=0.0)
    cube = rv.simulate(scene_of([person], l=3), walabot)
    freqs = walabot.f0 + derived.delta_f * np.arange(walabot.k)
    chan = walabot.delta * np.arange(derived.m)
    tau = (2 * 2.2 + chan * np.sin(np.deg2rad(-35.0))) / walabot.c
    expected = np.exp(-2j * np.pi * freqs[:, None] * tau[None, :])
    np.testing.assert_allclose(cube.samples[0], expected, rtol=1e-12)


def test_breathing_phase_oscillation(walabot):
    # the first-cell phase follows the chest displacement analytically
    f_b, amp, l = 0.3, 0.004, 1000
    person = breather(1.5, 0.0, f_b=f_b, amp=amp)
    cube = rv.simulate(scene_of([person], l=l), walabot)
    t = cube.slow_time
    disp = amp * np.sin(2 * np.pi * f_b * t)
    expected_phase = -2 * np.pi * walabot.f0 * (2 * 1.5 + 2 * disp) / walabot.c
    np.testing.assert_allclose(
        cube.samples[:, 0, 0], np.exp(1j * expected_phase), rtol=1e-10
    )
    measured = np.unwrap(np.angle(cube.samples[:, 0, 0]))
    peak_to_peak = measured.max() - measured.min()
    assert peak_to_peak == pytest.approx(2 * (4 * np.pi * walabot.f0 / walabot.c) * amp, rel=1e-2)


def test_superposition_of_persons(walabot):
    a = breather(1.2, 10.0, f_b=0.25, phase=0.3)
    b = breather(2.8, -25.0, f_b=0.4, phase=1.1)
    both = rv.simulate(scene_of([a, b], l=16), walabot)
    only_a = rv.simulate(scene_of([a], l=16), walabot)
    only_b = rv.simulate(scene_of([b], l=16), walabot)
    np.testing.assert_allclose(
        both.samples, only_a.samples + only_b.samples, rtol=0, atol=1e-12
    )


def test_seeded_noise_reproducible(walabot):
    scene = scene_of([breather(2.0, 0.0)], l=12, noise_std=0.5, seed=42)
    a = rv.simulate(scene, walabot)
    b = rv.simulate(scene, walabot)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.slow_time, b.slow_time)


def test_noise_level_scales(walabot):
    scene = scene_of([], l=400, noise_std=0.3, seed=1)
    cube = rv.simulate(scene, walabot)
    measured = np.sqrt(np.mean(np.abs(cube.samples) ** 2))
    assert measured == pytest.approx(0.3, rel=0.01)


def test_person_beyond_unambiguous_range_warns(walabot):
    with pytest.warns(UserWarning, match="aliasing"):
        rv.simulate(scene_of([breather(15.0, 0.0)], l=2), walabot)


def test_simulate_warnings_point_at_its_caller(walabot):
    with pytest.warns(UserWarning, match="aliasing") as record:
        rv.simulate(scene_of([breather(15.0, 0.0)], l=2), walabot)
    assert record[0].filename == __file__


_HEART_ABOVE_NYQUIST = rv.PersonModel(rv.PolarLocation(2.0, 0.0), heart_freq=6.0, heart_amp=1e-4)


def test_breath_freq_above_nyquist_rejected(walabot):
    # a heart term at 6 Hz would alias to 4 Hz at f_st 10 Hz
    for person, name in ((breather(2.0, 0.0, f_b=6.0), "breath_freq"),
                         (_HEART_ABOVE_NYQUIST, "heart_freq")):
        with pytest.raises(rv.ConfigError,
                           match=f"^{name} 6.0 Hz is not below the Nyquist rate 5.0 Hz$"):
            rv.simulate(scene_of([person], l=4), walabot)


def test_a_heart_term_of_zero_amplitude_is_not_checked(walabot):
    person = replace(_HEART_ABOVE_NYQUIST, heart_amp=0.0)
    alone = rv.simulate(scene_of([person], l=4), walabot)
    assert alone.samples.tobytes() == rv.simulate(
        scene_of([replace(person, heart_freq=0.0)], l=4), walabot).samples.tobytes()


def test_static_reflector_constant_over_slow_time(walabot):
    refl = (rv.PolarLocation(3.0, np.deg2rad(20.0)), 0.7 + 0.1j)
    scene = rv.Scene(persons=(), clutter=rv.ClutterModel(static_reflectors=(refl,)),
                     l=6, f_st=10.0)
    cube = rv.simulate(scene, walabot)
    for l in range(1, 6):
        np.testing.assert_array_equal(cube.samples[l], cube.samples[0])


def test_static_reflector_phase_steps_with_delay(walabot, derived):
    # each frequency step turns a reflector's sample by -2 pi delta_f tau_m,
    # tau_m = (2 d + x_m sin(theta)) / c, at the reflector's gain modulus
    rng = np.random.default_rng(9)
    chan = walabot.delta * np.arange(derived.m)
    for _ in range(10):
        d = float(rng.uniform(0.5, 10.0))
        theta = float(rng.uniform(-1.2, 1.2))
        gain = complex(rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0))
        scene = rv.Scene(persons=(), l=1, f_st=10.0, clutter=rv.ClutterModel(
            static_reflectors=((rv.PolarLocation(d, theta), gain),)))
        snap = rv.simulate(scene, walabot).samples[0]
        np.testing.assert_allclose(np.abs(snap), abs(gain), rtol=1e-12)
        tau = (2 * d + chan * np.sin(theta)) / walabot.c
        step = np.exp(-2j * np.pi * derived.delta_f * tau)
        np.testing.assert_allclose(snap[1:] / snap[:-1], np.broadcast_to(step, snap[1:].shape),
                                   rtol=0, atol=1e-9)


def test_slow_time_jitter_monotonic(walabot):
    scene = rv.Scene(persons=(), clutter=rv.ClutterModel(seed=5), l=200,
                     f_st=10.0, slow_time_jitter=0.02)
    cube = rv.simulate(scene, walabot)
    assert np.all(np.diff(cube.slow_time) > 0)
    assert cube.slow_time[0] == 0.0


def _displacement(person, t):
    disp = person.breath_amp * np.sin(2 * np.pi * person.breath_freq * t + person.breath_phase)
    if person.heart_amp > 0 and person.heart_freq > 0:
        disp = disp + person.heart_amp * np.sin(
            2 * np.pi * person.heart_freq * t + person.heart_phase
        )
    return disp


def _separable_term(person, disp, freqs, chan, cfg):
    # simulate's factorization over the whole recording at once
    static = person.amplitude * rv.localize.steering_matrix(
        person.location.d, person.location.theta, freqs.size, chan.size, cfg
    )
    motion = np.exp(-2j * np.pi * np.outer((2.0 / cfg.c) * disp, freqs))
    return motion[:, :, None] * static


def _per_sample_term(person, disp, freqs, chan, cfg):
    # exp(-2j pi f tau) evaluated at every sample, without localize
    base = (2.0 * person.location.d + chan * np.sin(person.location.theta)) / cfg.c
    tau = base[None, :] + (2.0 / cfg.c) * disp[:, None]
    return person.amplitude * np.exp(-2j * np.pi * freqs[None, :, None] * tau[:, None, :])


def _full_size_cube(scene, cfg, t, person_term):
    # the unblocked synthesis: one full-size temporary per term
    derived = rv.derive_params(cfg)
    rng = np.random.default_rng(scene.clutter.seed)
    if scene.slow_time_jitter > 0 and scene.l > 1:
        rng.standard_normal(scene.l - 1)  # the jitter draw comes first
    freqs = cfg.f0 + derived.delta_f * np.arange(cfg.k)
    chan = cfg.delta * np.arange(derived.m)
    cube = np.zeros((scene.l, cfg.k, derived.m), dtype=np.complex128)
    for person in scene.persons:
        cube += person_term(person, _displacement(person, t), freqs, chan, cfg)
    for loc, gain in scene.clutter.static_reflectors:
        tau_m = (2.0 * loc.d + chan * np.sin(loc.theta)) / cfg.c
        cube += gain * np.exp(-2j * np.pi * np.outer(freqs, tau_m))[None, :, :]
    shape = cube.shape
    scale = scene.clutter.noise_std / np.sqrt(2.0)
    cube += scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return cube


def _multi_block_scene(cfg):
    # several slow-time blocks long, remainder block included, with a
    # heartbeat, a reflector, noise and jitter
    rows_per_block = rv.core.block_len(cfg.k * 8 * 16)
    persons = (
        rv.PersonModel(rv.PolarLocation(1.4, -0.4), amplitude=0.6 - 0.5j,
                       heart_freq=1.1, heart_amp=2e-4),
        rv.PersonModel(rv.PolarLocation(2.6, 0.25), amplitude=0.3 + 0.45j, breath_freq=0.21),
    )
    clutter = rv.ClutterModel(((rv.PolarLocation(4.0, 0.1), 0.3 + 0.2j),), noise_std=0.1, seed=9)
    return rv.Scene(persons=persons, clutter=clutter, l=3 * rows_per_block + 17,
                    slow_time_jitter=0.001)


def test_blocked_synthesis_matches_full_size_formula(walabot):
    # the row blocks give the bytes of the separable formula evaluated unblocked
    scene = _multi_block_scene(walabot)
    cube = rv.simulate(scene, walabot)
    expected = _full_size_cube(scene, walabot, cube.slow_time, _separable_term)
    assert cube.samples.tobytes() == expected.tobytes()


def test_simulate_matches_the_per_sample_delay_formula(walabot, derived):
    # the per-sample phase f tau of hundreds of turns is rounded a few times
    # over, ~8 eps relative; simulate reduces its static phase exactly, so
    # the two differ by at most that rounding summed over the persons
    scene = _multi_block_scene(walabot)
    cube = rv.simulate(scene, walabot)
    expected = _full_size_cube(scene, walabot, cube.slow_time, _per_sample_term)
    f_max = walabot.f0 + derived.delta_f * (walabot.k - 1)
    turns = [f_max * (2 * p.location.d + 2 * p.breath_amp + 2 * p.heart_amp
                      + walabot.delta * (derived.m - 1) * abs(np.sin(p.location.theta)))
             / walabot.c for p in scene.persons]
    atol = sum(abs(p.amplitude) * 2 * np.pi * n * 8 * np.finfo(float).eps
               for p, n in zip(scene.persons, turns))
    assert 1e-12 < atol < 1e-11
    np.testing.assert_allclose(cube.samples, expected, rtol=0, atol=atol)


def test_simulated_bytes_do_not_depend_on_the_block_size(walabot, monkeypatch, tmp_path):
    # the person term is scaled in one explicit operand order, so blocks far
    # below numpy's temporary-elision size give the bytes of the default
    scene = rv.Scene(persons=(breather(1.4, -20.0), breather(2.6, 15.0, gain=0.3 + 0.45j)),
                     clutter=rv.ClutterModel(noise_std=0.1, seed=5), l=600)
    default = rv.simulate(scene, walabot)
    monkeypatch.setattr(rv.core, "_BLOCK_BYTES", 1 << 16)
    small = rv.simulate(scene, walabot)
    assert small.samples.tobytes() == default.samples.tobytes()
    rv.write_container(rv.simulate(_stored(scene), walabot), tmp_path / "default.rvc")
    assert _cli_container(scene, tmp_path) == (tmp_path / "default.rvc").read_bytes()


def test_simulate_memory_stays_near_the_cube(walabot):
    # the exponential and noise temporaries are bounded by row blocks
    persons = (breather(1.5, -20.0), breather(2.5, 25.0))
    scene = scene_of(persons, l=2000, noise_std=0.1, seed=4)
    cube, peak = traced_peak(lambda: rv.simulate(scene, walabot))
    assert peak < 1.5 * cube.samples.nbytes


def test_simulate_forms_the_motion_factor_per_block(walabot):
    # the slow-time motion factor of 2000 rows alone would take 4.2 blocks,
    # and its exponential's operands twice that again
    rows_per_block = rv.core.block_len(walabot.k * 8 * 16)
    block_bytes = rows_per_block * walabot.k * 8 * 16
    scene = scene_of((breather(1.5, -20.0), breather(2.5, 25.0)), l=2000, noise_std=0.1, seed=4)
    assert scene.l > 30 * rows_per_block
    cube, peak = traced_peak(lambda: rv.simulate(scene, walabot))
    assert peak < cube.samples.nbytes + 4 * block_bytes


def _stored(scene):
    # the scene read back from its file, as the CLI reads it: gains are
    # stored as magnitude and phase, so they come back to rounding
    return rv.scene_from_entries(rv.scene_to_entries(scene))[0]


def _cli_container(scene, tmp_path):
    """The bytes ``radarvitals simulate`` writes for a file of ``scene``."""
    write_kv(tmp_path / "scene.kv", rv.scene_to_entries(scene))
    assert main(["simulate", "--scenario", str(tmp_path / "scene.kv"),
                 "--out", str(tmp_path / "cli.rvc")]) == 0
    return (tmp_path / "cli.rvc").read_bytes()


def _rows_per_block(cfg):
    return rv.core.block_len(cfg.k * cfg.m_r * cfg.m_t * 16)


_STREAMED_SCENES = {
    "multi_block": _multi_block_scene,
    "empty_noiseless": lambda cfg: scene_of([], l=70),
    "one_row": lambda cfg: scene_of([breather(2.0, -15.0)], l=1, noise_std=0.1, seed=3),
    "one_block": lambda cfg: rv.Scene(
        persons=(breather(1.5, 10.0),),
        clutter=rv.ClutterModel(((rv.PolarLocation(3.0, -0.2), 0.5j),), noise_std=0.1, seed=2),
        l=_rows_per_block(cfg)),
    "heartbeat": lambda cfg: scene_of(
        [rv.PersonModel(rv.PolarLocation(2.2, 0.3), heart_freq=1.2, heart_amp=3e-4)],
        l=90, noise_std=0.05, seed=8),
}


@pytest.mark.parametrize("name", _STREAMED_SCENES)
def test_cli_container_equals_the_written_in_memory_cube(walabot, tmp_path, name):
    # the CLI streams row blocks into the container without forming the cube
    scene = _STREAMED_SCENES[name](walabot)
    rv.write_container(rv.simulate(_stored(scene), walabot), tmp_path / "memory.rvc")
    assert _cli_container(scene, tmp_path) == (tmp_path / "memory.rvc").read_bytes()


@pytest.mark.parametrize("l", [4000, 8000])
def test_cli_simulate_holds_a_few_blocks_whatever_the_length(walabot, tmp_path, l):
    # the container carries the first pass to the second, so no plane of
    # noise parts or samples grows with the recording
    scene = scene_of((breather(1.5, -20.0), breather(2.5, 25.0)), l=l, noise_std=0.1, seed=4)
    write_kv(tmp_path / "scene.kv", rv.scene_to_entries(scene))
    block_bytes = _rows_per_block(walabot) * walabot.k * walabot.m_r * walabot.m_t * 16
    code, peak = traced_peak(lambda: main(["simulate", "--scenario", str(tmp_path / "scene.kv"),
                                           "--out", str(tmp_path / "cli.rvc")]))
    assert code == 0
    assert peak < 6 * block_bytes


def _interrupted(synthesize_rows, passes):
    """``synthesize_rows`` whose pass ``passes`` fails after its second block."""
    def failing(scene, cfg):
        slow_time, *both = synthesize_rows(scene, cfg)

        def fail_partway(items):
            for i, item in enumerate(items):
                if i == 2:
                    raise OSError("disk full")
                yield item

        both[passes] = fail_partway(both[passes])
        return slow_time, *both

    return failing


@pytest.mark.parametrize("passes", [0, 1], ids=["first_pass", "second_pass"])
def test_an_interrupted_cli_simulate_leaves_a_file_readers_reject(walabot, tmp_path,
                                                                   monkeypatch, passes):
    monkeypatch.setattr(simulate_module, "synthesize_rows",
                        _interrupted(simulate_module.synthesize_rows, passes))
    scene = _multi_block_scene(walabot)
    write_kv(tmp_path / "scene.kv", rv.scene_to_entries(scene))
    out = tmp_path / "cli.rvc"
    assert main(["simulate", "--scenario", str(tmp_path / "scene.kv"), "--out", str(out)]) == 3
    assert out.stat().st_size > 0
    with pytest.raises(rv.RVCFormatError, match=r"magic 'RVC\?' of a write that never finished"):
        rv.ContainerReader(out)


def test_synthesize_rows_draws_the_imaginary_noise_after_the_real(walabot):
    _, blocks, imag_noise = simulate_module.synthesize_rows(_multi_block_scene(walabot), walabot)
    next(blocks)
    with pytest.raises(RuntimeError, match="exhaust the first pass first"):
        next(imag_noise)


def test_cli_simulate_refuses_an_out_that_is_not_a_regular_file(tmp_path, capsys):
    # the container is finished in place, so --out must be seekable; the
    # check runs before --out is opened, so a pipe gets nothing written. With
    # a reader open and a container smaller than the pipe's buffer, a writer
    # that did open the pipe would fail rather than block.
    write_kv(tmp_path / "scene.kv", rv.scene_to_entries(scene_of([breather(1.5, 10.0)], l=8)))
    write_kv(tmp_path / "radar.kv", rv.core.config_to_entries(small_config()))
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        for argv in (["simulate", "--scenario", str(tmp_path / "scene.kv"),
                      "--config", str(tmp_path / "radar.kv")],
                     ["convert", "--raw", str(tmp_path / "no_such_dir")]):
            assert main([*argv, "--out", str(fifo)]) == 2
            assert f"--out {fifo} is not a regular file" in capsys.readouterr().err
        assert os.read(reader, 1) == b""
    finally:
        os.close(reader)


def test_cube_validation(walabot):
    with pytest.raises(ValueError, match="inconsistent"):
        rv.MeasurementCube(np.zeros((4, 10, 8), dtype=complex), np.arange(4.0), walabot)
    with pytest.raises(ValueError, match="increasing"):
        rv.MeasurementCube(
            np.zeros((3, 137, 8), dtype=complex), np.array([0.0, 0.0, 1.0]), walabot
        )
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            rv.MeasurementCube(
                np.zeros((3, 137, 8), dtype=complex), np.array([0.0, 0.1, bad]), walabot
            )


def test_simulate_rejects_a_radar_rate_other_than_the_scene_s():
    scene = scene_of([breather(1.5, 10.0)], l=8, f_st=10.0)
    with pytest.raises(rv.ConfigError) as err:
        rv.simulate(scene, small_config(f_st=5.0))
    assert str(err.value) == "radar f_st 5.0 Hz differs from the scene's f_st 10.0 Hz"


def test_scene_entries_roundtrip():
    scene = rv.Scene(
        persons=(breather(1.5, -60.0, f_b=0.27, amp=0.003, phase=0.4),
                 breather(2.5, 10.0, gain=0.5)),
        clutter=rv.ClutterModel(
            static_reflectors=((rv.PolarLocation(4.0, 0.1), 0.3 - 0.2j),),
            noise_std=0.07,
            seed=9,
        ),
        l=321,
        f_st=10.5,
        slow_time_jitter=0.001,
    )
    entries = rv.scene_to_entries(scene)
    back, extras = rv.scene_from_entries(entries)
    assert extras == {}
    assert back.l == scene.l and back.f_st == scene.f_st
    assert back.clutter.noise_std == scene.clutter.noise_std
    assert back.clutter.seed == scene.clutter.seed
    assert len(back.persons) == 2
    p0, q0 = back.persons[0], scene.persons[0]
    assert p0.location == q0.location
    assert p0.breath_freq == q0.breath_freq
    assert p0.amplitude == pytest.approx(q0.amplitude)
    r_loc, r_gain = back.clutter.static_reflectors[0]
    assert r_loc == rv.PolarLocation(4.0, 0.1)
    assert r_gain == pytest.approx(0.3 - 0.2j)


_LOCATIONS = st.builds(
    rv.PolarLocation,
    st.floats(0.0, 50.0),
    st.floats(-np.pi / 2, np.pi / 2, exclude_min=True, exclude_max=True),
)
_GAINS = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
_PHASES = st.floats(-10.0, 10.0)
_SCENES = st.builds(
    rv.Scene,
    persons=st.lists(st.builds(
        rv.PersonModel, _LOCATIONS, _GAINS, st.floats(1e-6, 100.0), st.floats(0.0, 1.0),
        _PHASES, st.floats(0.0, 10.0), st.floats(0.0, 1.0), _PHASES,
    ), max_size=3).map(tuple),
    clutter=st.builds(
        rv.ClutterModel,
        st.lists(st.tuples(_LOCATIONS, _GAINS), max_size=3).map(tuple),
        st.floats(0.0, 10.0),
        st.integers(0, 2**63),
    ),
    l=st.integers(1, 10**7),
    f_st=st.floats(1e-3, 1e4),
    slow_time_jitter=st.floats(0.0, 1.0),
)


@given(_SCENES)
def test_scene_entries_roundtrip_property(scene):
    # gains are stored as magnitude and phase, so they come back to rounding
    back, extras = rv.scene_from_entries(rv.scene_to_entries(scene))
    assert extras == {}

    def gains(s):
        return [p.amplitude for p in s.persons] + [g for _, g in s.clutter.static_reflectors]

    def without_gains(s):
        persons = tuple(replace(p, amplitude=0) for p in s.persons)
        reflectors = tuple(loc for loc, _ in s.clutter.static_reflectors)
        return replace(s, persons=persons, clutter=replace(s.clutter, static_reflectors=reflectors))

    assert without_gains(back) == without_gains(scene)
    assert gains(back) == pytest.approx(gains(scene), rel=1e-12, abs=1e-12)


def test_scene_unknown_key_rejected():
    with pytest.raises(rv.ConfigError, match="unknown scene key"):
        rv.scene_from_entries({"l": "10", "bogus": "1"})


# the tests of this module's groups of test_cli.CASES, which run the CLI in process
globals().update(in_process_tests(__name__))
