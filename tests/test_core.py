import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import radarvitals as rv
from radarvitals.core import config_from_entries, config_to_entries

read_radar_config = functools.partial(config_from_entries, rv.RadarConfig)


def test_walabot_derived_values(walabot, derived):
    assert abs(derived.d_max - 12.08) < 0.01
    assert abs(derived.range_resolution - 0.088) < 0.001
    assert derived.k0 == 96
    assert abs(derived.f_c - 7.15e9) < 0.01e9
    assert derived.m == 8
    assert derived.delta_f == pytest.approx(1.7e9 / 137, rel=1e-12)
    assert derived.profile_granularity == pytest.approx(
        walabot.c / (2 * derived.delta_f * walabot.n), rel=1e-12
    )


def test_derive_params_deterministic(walabot):
    a = rv.derive_params(walabot)
    b = rv.derive_params(walabot)
    assert a == b


def test_single_step_config_rejected():
    with pytest.raises(rv.ConfigError):
        rv.RadarConfig(f0=rv.SPEED_OF_LIGHT / 4, k=1, b=rv.SPEED_OF_LIGHT / 2,
                       n=4, delta=0.02, m_r=1, m_t=1, f_st=10.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(f0=-1.0), dict(b=0.0), dict(n=4), dict(delta=0.0),
        dict(m_r=0), dict(m_t=0), dict(f_st=0.0), dict(c=-1.0),
    ],
)
def test_invalid_configs_rejected(kwargs):
    base = dict(f0=6e9, k=8, b=1e9, n=16, delta=0.02, m_r=2, m_t=2, f_st=10.0)
    base.update(kwargs)
    with pytest.raises(rv.ConfigError):
        rv.RadarConfig(**base)


def test_dmax_formula_identity():
    # delta_f = b / k = c / 4, so the unambiguous range is exactly 2 m
    cfg = rv.RadarConfig(f0=1e9, k=2, b=rv.SPEED_OF_LIGHT / 2, n=4,
                         delta=1e-6, m_r=1, m_t=1, f_st=10.0)
    assert rv.derive_params(cfg).d_max == pytest.approx(2.0, rel=1e-12)


def test_delta_t_mismatch_warns():
    with pytest.warns(UserWarning, match="virtual array"):
        rv.RadarConfig(f0=6e9, k=8, b=1e9, n=16, delta=0.02, m_r=4, m_t=2,
                       f_st=10.0, delta_t=0.05)


def test_k0_clamped_to_valid_range():
    # huge spacing drives the raw bound negative; the count clamps to 1
    cfg = rv.RadarConfig(f0=6e9, k=8, b=1e9, n=16, delta=10.0, m_r=1, m_t=1, f_st=10.0)
    assert rv.derive_params(cfg).k0 == 1


def test_polar_to_cartesian_boresight():
    cart = rv.polar_to_cartesian(rv.PolarLocation(2.0, 0.0))
    assert (cart.x, cart.y) == (0.0, 2.0)


def test_polar_to_cartesian_near_endfire():
    cart = rv.polar_to_cartesian(rv.PolarLocation(1.0, math.pi / 2 - 1e-9))
    assert cart.x == pytest.approx(1.0, abs=1e-12)
    assert cart.y == pytest.approx(0.0, abs=1e-8)


def test_polar_to_cartesian_evaluates_trig():
    cart = rv.polar_to_cartesian(rv.PolarLocation(1.5, -math.pi / 3))
    assert cart.x == pytest.approx(1.5 * math.sin(-math.pi / 3), rel=1e-15)
    assert cart.y == pytest.approx(0.75, rel=1e-12)
    assert cart.x == pytest.approx(-1.299, abs=5e-4)


def test_polar_roundtrip_property():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = float(rng.uniform(1e-3, 50.0))
        theta = float(rng.uniform(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6))
        back = rv.cartesian_to_polar(rv.polar_to_cartesian(rv.PolarLocation(d, theta)))
        assert back.d == pytest.approx(d, rel=1e-12)
        assert back.theta == pytest.approx(theta, rel=1e-12, abs=1e-12)


def test_location_validation():
    with pytest.raises(ValueError):
        rv.PolarLocation(-1.0, 0.0)
    with pytest.raises(ValueError):
        rv.PolarLocation(1.0, math.pi / 2)


def test_spatial_sampling_bound_property():
    # for every non-clamped config the retained steps satisfy the
    # half-wavelength bound delta <= c / (2 (f0 + (k0-1) delta_f))
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 100:
        k = int(rng.integers(2, 300))
        cfg = rv.RadarConfig(
            f0=float(rng.uniform(1e9, 10e9)),
            k=k,
            b=float(rng.uniform(0.1e9, 3e9)),
            n=k,
            delta=float(rng.uniform(0.005, 0.05)),
            m_r=int(rng.integers(1, 5)),
            m_t=int(rng.integers(1, 3)),
            f_st=10.0,
        )
        der = rv.derive_params(cfg)
        assert 1 <= der.k0 <= cfg.k
        raw = math.floor(cfg.c / (2 * cfg.delta * der.delta_f) - cfg.f0 / der.delta_f)
        if not 1 <= raw <= cfg.k:
            continue  # clamped configs do not promise the bound
        assert cfg.delta <= cfg.c / (2 * (cfg.f0 + (der.k0 - 1) * der.delta_f))
        checked += 1


def test_config_entries_roundtrip(walabot):
    entries = config_to_entries(walabot)
    assert read_radar_config(entries) == walabot


def test_config_entries_missing_key():
    with pytest.raises(rv.ConfigError, match="missing"):
        read_radar_config({"f0": "6.3e9"})


def _positive(hi):
    return st.floats(min_value=1e-9, max_value=hi, allow_nan=False, allow_subnormal=False)


@given(
    k=st.integers(2, 300),
    extra=st.integers(0, 300),
    f0=_positive(1e11),
    b=_positive(1e10),
    delta=_positive(1.0),
    m_r=st.integers(1, 8),
    m_t=st.integers(1, 4),
    f_st=_positive(1e3),
    c=_positive(1e9),
    times=st.tuples(st.none() | _positive(1.0), st.none() | _positive(1.0)),
)
def test_radar_config_entries_roundtrip_property(k, extra, f0, b, delta, m_r, m_t, f_st, c, times):
    cfg = rv.RadarConfig(f0=f0, k=k, b=b, n=k + extra, delta=delta, m_r=m_r, m_t=m_t,
                         f_st=f_st, c=c, t_tone=times[0], t_sweep=times[1])
    entries = config_to_entries(cfg)
    assert ("t_tone" in entries, "t_sweep" in entries) == (times[0] is not None,
                                                           times[1] is not None)
    assert read_radar_config(entries) == cfg


_RADAR = {"f0": "6.3e9", "k": "8", "b": "1e9", "n": "16", "delta": "0.02",
          "m_r": "2", "m_t": "2", "f_st": "10.0"}
_PERSON = {"person.0.d": "2.0", "person.0.theta": "0.1"}


@pytest.mark.parametrize(
    "read, entries, key",
    [
        (rv.pipeline_config_from_entries, {"accumulate": "ture"}, "accumulate"),
        (rv.pipeline_config_from_entries, {"w_st": "1.5"}, "w_st"),
        (rv.pipeline_config_from_entries, {"w_st": "abc"}, "w_st"),
        (rv.pipeline_config_from_entries, {"alpha": "nan"}, "alpha"),
        (rv.pipeline_config_from_entries, {"d_match": "nan"}, "d_match"),
        (rv.pipeline_config_from_entries, {"band_hi": "inf"}, "band_hi"),
        (rv.pipeline_config_from_entries, {"grid.d_step": "abc"}, "grid.d_step"),
        (rv.pipeline_config_from_entries, {"grid.d_step": "0"}, "grid.d_step"),
        (rv.pipeline_config_from_entries, {"grid.d_step": "-0.1"}, "grid.d_step"),
        (rv.pipeline_config_from_entries, {"grid.theta_step": "0"}, "grid.theta_step"),
        (rv.pipeline_config_from_entries, {"grid.d_max": "-1.0"}, "grid.d_max"),
        (rv.pipeline_config_from_entries, {"grid.theta_max": "1.6"}, "grid.theta_max"),
        (rv.pipeline_config_from_entries, {"grid.theta_max": "-0.1"}, "grid.theta_max"),
        (read_radar_config, {**_RADAR, "f0": "nan"}, "f0"),
        (read_radar_config, {**_RADAR, "c": "-inf"}, "c"),
        (read_radar_config, {**_RADAR, "k": "1.5"}, "k"),
        (read_radar_config, {**_RADAR, "m_r": "two"}, "m_r"),
        (read_radar_config, {k: v for k, v in _RADAR.items() if k != "f_st"}, "f_st"),
        (rv.scene_from_entries, {"l": "abc"}, "l"),
        (rv.scene_from_entries, {"seed": "0.5"}, "seed"),
        (rv.scene_from_entries, {"noise_std": "nan"}, "noise_std"),
        (rv.scene_from_entries, {"person.0.theta": "0.1"}, "person.0.d"),
        (rv.scene_from_entries, {**_PERSON, "person.0.breath_freq": "inf"}, "person.0.breath_freq"),
        (rv.scene_from_entries, {**_PERSON, "person.0.amplitude_phase": "nan"},
         "person.0.amplitude_phase"),
        (rv.scene_from_entries, {**_PERSON, "person.0.wobble": "1"}, "person.0.wobble"),
        (rv.scene_from_entries, {"reflector.0.d": "1.0"}, "reflector.0.theta"),
        (rv.scene_from_entries, {"reflector.0.d": "1.0", "reflector.0.theta": "0",
                                 "reflector.0.gain": "1e999"}, "reflector.0.gain"),
    ],
)
def test_bad_config_entry_names_its_key(read, entries, key):
    with pytest.raises(rv.ConfigError, match=re.escape(repr(key))):
        read(entries)


@pytest.mark.parametrize("text", ["1", "true", "Yes", "ON", "0", "False", "no", "OFF"])
def test_bool_entry_spellings(text):
    config = rv.pipeline_config_from_entries({"accumulate": text})
    assert config.accumulate == (text.lower() in ("1", "true", "yes", "on"))
