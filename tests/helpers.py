"""Shared scene builders, raw-profile synthesis, table strings and text
comparison for the test suite."""

import io
from itertools import zip_longest

import numpy as np

import radarvitals as rv
from radarvitals import pipeline


def small_config(k=12, n=24, m_r=2, m_t=2, f0=6.3e9, b=0.3e9, delta=0.02, f_st=10.0):
    return rv.RadarConfig(f0=f0, k=k, b=b, n=n, delta=delta, m_r=m_r, m_t=m_t, f_st=f_st)


def breather(d, theta_deg, f_b=0.3, amp=0.004, phase=0.0, gain=1.0):
    return rv.PersonModel(
        location=rv.PolarLocation(d, np.deg2rad(theta_deg)),
        amplitude=gain,
        breath_freq=f_b,
        breath_amp=amp,
        breath_phase=phase,
    )


def scene_of(persons, l=264, f_st=10.0, noise_std=0.0, seed=0):
    return rv.Scene(
        persons=tuple(persons),
        clutter=rv.ClutterModel(noise_std=noise_std, seed=seed),
        l=l,
        f_st=f_st,
    )


# Five-person benchmark layout: nominal grid positions (1.5, -60), (2, 0),
# (2, -30), (2, 45), (3, 30) with realistic seating offsets for the three
# persons sharing the nominal 2 m ring, shallow per-person breathing so the
# point-scatterer window sidebands stay below the person-count threshold.
M16_LOCATIONS = [(1.50, -60.0), (2.00, 0.0), (2.15, -30.0), (1.85, 45.0), (3.00, 30.0)]
M16_BREATH_FREQS = [0.30, 0.25, 0.35, 0.20, 0.40]
M16_BREATH_AMPS = [0.0006, 0.0025, 0.0011, 0.0008, 0.0010]


def m16_scene(seed=7, l=2000, noise_std=0.1):
    persons = tuple(
        breather(d, th, f_b=f, amp=a, phase=0.9 * i)
        for i, ((d, th), f, a) in enumerate(
            zip(M16_LOCATIONS, M16_BREATH_FREQS, M16_BREATH_AMPS)
        )
    )
    return rv.Scene(
        persons=persons,
        clutter=rv.ClutterModel(noise_std=noise_std, seed=seed),
        l=l,
        f_st=10.0,
    )


def analytic_profiles(cube):
    """Raw fast-time profiles whose down-conversion reproduces the cube.

    Each snapshot is re-synthesized as the sum of its stepped tones on the
    natural fast-time grid f_s = n * delta_f, i.e. the complex range
    profile with the start-frequency carrier reinstated. Returns profiles
    indexed [slow time, channel, fast time] and the fast-time rate.
    """
    cfg = cube.config
    delta_f = cfg.b / cfg.k
    f_s = cfg.n * delta_f
    n = np.arange(cfg.n)
    k = np.arange(cfg.k)
    tones = np.exp(2j * np.pi * np.outer(n, cfg.f0 / delta_f + k) / cfg.n)
    profiles = np.einsum("nk,lkm->lmn", tones, cube.samples)
    return profiles, f_s


def raw_recording_of(cube):
    """Package analytic profiles as a RawRecording covering every pair."""
    cfg = cube.config
    profiles, f_s = analytic_profiles(cube)
    pairs = tuple(
        (tx, rx) for tx in range(cfg.m_t) for rx in range(cfg.m_r)
    )
    per_pair = np.stack(
        [profiles[:, tx * cfg.m_r + rx, :] for tx, rx in pairs], axis=1
    )
    return rv.RawRecording(per_pair, pairs, f_s, cube.slow_time)


def assert_same_text(got: str, want: str) -> None:
    """Fail naming the first differing line and both versions of it.

    pytest's own report of a failed ``==`` diffs the two strings whole,
    which takes minutes for a table of tens of thousands of lines.
    """
    if got == want:
        return
    lines = zip_longest(got.splitlines(keepends=True), want.splitlines(keepends=True))
    number, (a, b) = next((i, pair) for i, pair in enumerate(lines, 1) if pair[0] != pair[1])
    raise AssertionError(f"texts differ first at line {number}: got {a!r}, want {b!r}")


def table_text(table: str, *args) -> str:
    """The text ``pipeline.write_<table>(fh, *args)`` writes, as a string."""
    buf = io.StringIO()
    getattr(pipeline, f"write_{table}")(buf, *args)
    return buf.getvalue()
