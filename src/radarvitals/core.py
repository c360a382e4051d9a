"""Radar parameterization, derived scalar quantities and scene geometry.

Everything in this module is an immutable value type or a pure function,
so instances can be shared freely across threads.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from dataclasses import dataclass

SPEED_OF_LIGHT = 2.99792458e8
"""Propagation speed in m/s (exact SI definition)."""


class ConfigError(ValueError):
    """Invalid radar, scene or pipeline configuration."""


class DataError(Exception):
    """Recording data is structurally unusable."""


# Working set of one block of the streamed kernels (the slow-time filter, the
# MUSIC scan and its near-null recompute, and simulate's row blocks): it stays
# in cache, and buffers this small are reused from the heap instead of being
# mapped and page-faulted afresh for every block. The filter's block is four
# arrays of B rows (input rows, their running sums, the sums w_st rows back
# and output rows), so B = block_len(4 × row bytes): 14 walabot rows.
_BLOCK_BYTES = 1 << 20


def block_len(item_bytes: int) -> int:
    """How many items of ``item_bytes`` bytes fit one block, at least one."""
    return max(1, _BLOCK_BYTES // max(1, item_bytes))


# Key/value codec of radar configs, pipeline configs and scenes: keys, types
# and defaults are those of the dataclass fields.

_BOOL_TEXT = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}
_EXPECTED = {bool: "one of " + "/".join(_BOOL_TEXT), int: "an int", float: "a finite float"}
_FORMAT = {bool: lambda v: "true" if v else "false", float: lambda v: repr(float(v))}


@functools.cache
def _scalar_fields(cls: type) -> tuple[tuple[dataclasses.Field, type], ...]:
    """Each ``bool``/``int``/``float``/``str`` field of a dataclass with its
    type, once per class: ``typing.get_type_hints`` compiles the string
    annotations again on every call."""
    hints = typing.get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in dataclasses.fields(cls)
                 if hints[f.name] in (bool, int, float, str))


def parse_config_value(key: str, text: str | None, typ: type) -> object:
    """Parse the text of entry ``key``, ``None`` if missing, as ``bool``, ``int``,
    ``float`` or ``str``."""
    if text is None:
        raise ConfigError(f"missing config key {key!r}")
    try:
        value = _BOOL_TEXT[text.lower()] if typ is bool else typ(text)
    except (KeyError, ValueError):
        value = None
    if value is None or (typ is float and not math.isfinite(value)):
        raise ConfigError(f"bad value for config key {key!r}: {text!r} is not {_EXPECTED[typ]}")
    return value


def config_from_entries(cls: type, entries: dict[str, str], prefix: str = "", **given):
    """Build the dataclass ``cls`` from its ``prefix + field`` entries.

    Scalar fields are parsed with ``parse_config_value``; one without a
    default must be present. Other fields are passed in ``given``. Each key
    read is taken out of ``entries``, and entries under other keys stay.
    """
    kwargs = dict(given)
    for f, typ in _scalar_fields(cls):
        if f.name in given:
            continue
        key = prefix + f.name
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if key in entries or required:
            kwargs[f.name] = parse_config_value(key, entries.pop(key, None), typ)
    return cls(**kwargs)


def reject_unknown(rest, what: str) -> None:
    """Raise ``ConfigError`` naming the first sorted key of ``rest``, the
    entries that no reader took."""
    if rest:
        raise ConfigError(f"unknown {what} key {min(rest)!r}")


def config_to_entries(obj: object, prefix: str = "") -> dict[str, str]:
    """One ``prefix + field`` entry per scalar field of ``obj``, written so
    that ``config_from_entries`` reads it back exactly."""
    return {
        prefix + f.name: _FORMAT.get(typ, str)(getattr(obj, f.name))
        for f, typ in _scalar_fields(type(obj))
    }


@dataclass(frozen=True)
class RadarConfig:
    """Frequency plan and array geometry of a stepped-frequency MIMO radar.

    SI units throughout (Hz, m, s). The transmit antennas sit ``m_r * delta``
    apart, so the ``m_r * m_t`` virtual channels form one uniform linear
    array with channel m at ``m * delta``; every model in the package
    assumes that array.

    Attributes:
        f0: start frequency of the sweep.
        k: number of frequency steps per sweep.
        b: swept bandwidth.
        n: fast-time samples per raw range profile, the length that
            ``dataio.downconvert_decimate`` reads; n >= k.
        delta: receive inter-antenna spacing.
        m_r: number of physical receive antennas.
        m_t: number of transmit antennas.
        f_st: nominal slow-time sampling rate.
        c: propagation speed, configurable for tests.
    """

    f0: float
    k: int
    b: float
    n: int
    delta: float
    m_r: int
    m_t: int
    f_st: float
    c: float = SPEED_OF_LIGHT

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ConfigError(f"at least 2 frequency steps required, got k={self.k}")
        for name in ("f0", "b", "delta", "f_st", "c"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"config key {name!r} must be positive and finite, got {value}")
        if self.n < self.k:
            raise ConfigError(f"range-profile length n={self.n} must be >= k={self.k}")
        if self.m_r < 1 or self.m_t < 1:
            raise ConfigError("antenna counts m_r and m_t must be >= 1")


def take_metadata(entries: dict[str, str]) -> dict[str, str]:
    """Take the dataset metadata, ``id``, ``obstacle`` and ``meta.*``, out of ``entries``."""
    return {k: entries.pop(k) for k in list(entries)
            if k in ("id", "obstacle") or k.startswith("meta.")}


def radar_config_from_entries(entries: dict[str, str]) -> RadarConfig:
    """Build a ``RadarConfig`` from its entries, taking its keys out of them.
    Older files may also carry ``t_tone`` and ``t_sweep``, which were never
    read and are ignored, and ``delta_t``, which only restated the transmit
    spacing: one within rel 1e-9 of ``m_r * delta`` is ignored, and any other
    describes an array no model handles and is a ``ConfigError`` naming it.
    These three are taken too."""
    cfg = config_from_entries(RadarConfig, entries)
    delta_t, *_ = (entries.pop(key, None) for key in ("delta_t", "t_tone", "t_sweep"))
    uniform = cfg.m_r * cfg.delta
    if delta_t is not None and not math.isclose(
        parse_config_value("delta_t", delta_t, float), uniform, rel_tol=1e-9
    ):
        raise ConfigError(f"config key 'delta_t' is {delta_t}, but only the "
                          f"uniform array m_r * delta = {uniform!r} is modelled")
    return cfg


@dataclass(frozen=True)
class DerivedParams:
    """Scalar quantities derived from a :class:`RadarConfig`.

    Attributes:
        delta_f: frequency step, ``b / k``.
        f_c: center frequency, ``f0 + (k - 1) / 2 * delta_f``.
        m: virtual channel count, ``m_r * m_t``.
        d_max: maximum unambiguous range, ``c / (2 delta_f)``.
        range_resolution: minimum separation of two resolvable targets,
            ``c / (2 b)``.
        k0: number of low frequency steps whose wavelength still satisfies
            the half-wavelength spatial sampling bound for spacing ``delta``,
            clamped to ``[1, k]``.
    """

    delta_f: float
    f_c: float
    m: int
    d_max: float
    range_resolution: float
    k0: int


def derive_params(cfg: RadarConfig) -> DerivedParams:
    """Compute all derived scalars for a configuration.

    Deterministic and pure: repeated calls yield bit-identical results.
    """
    delta_f = cfg.b / cfg.k
    f_c = cfg.f0 + (cfg.k - 1) / 2 * delta_f
    k0_raw = math.floor(cfg.c / (2 * cfg.delta * delta_f) - cfg.f0 / delta_f)
    return DerivedParams(
        delta_f=delta_f,
        f_c=f_c,
        m=cfg.m_r * cfg.m_t,
        d_max=cfg.c / (2 * delta_f),
        range_resolution=cfg.c / (2 * cfg.b),
        k0=max(1, min(cfg.k, k0_raw)),
    )


def walabot_config(f_st: float) -> RadarConfig:
    """Parameters of the commercial sensor this pipeline was tuned for, at the
    slow-time rate ``f_st`` of the recording or scene."""
    return RadarConfig(f0=6.3e9, k=137, b=1.7e9, n=8192, delta=0.02, m_r=4, m_t=2, f_st=f_st)


@dataclass(frozen=True)
class PolarLocation:
    """Range/azimuth position. ``theta`` is measured from boresight, rad."""

    d: float
    theta: float

    def __post_init__(self) -> None:
        if self.d < 0:
            raise ValueError(f"range must be non-negative, got {self.d}")
        if abs(self.theta) >= math.pi / 2:
            raise ValueError(f"azimuth must lie in (-pi/2, pi/2), got {self.theta}")


@dataclass(frozen=True)
class CartesianLocation:
    """Position with x along the array axis and y along boresight, m."""

    x: float
    y: float


def polar_to_cartesian(loc: PolarLocation) -> CartesianLocation:
    return CartesianLocation(loc.d * math.sin(loc.theta), loc.d * math.cos(loc.theta))
