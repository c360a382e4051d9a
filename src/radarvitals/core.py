"""Radar parameterization, derived scalar quantities and scene geometry.

Everything in this module is an immutable value type or a pure function,
so instances can be shared freely across threads.
"""

from __future__ import annotations

import dataclasses
import math
import typing
import warnings
from dataclasses import dataclass

SPEED_OF_LIGHT = 2.99792458e8
"""Propagation speed in m/s (exact SI definition)."""


class ConfigError(ValueError):
    """Invalid radar, scene or pipeline configuration."""


# Working set of one block of the streamed kernels (the slow-time filter and
# the MUSIC scan): it stays in cache, and buffers this small are reused from
# the heap instead of being mapped and page-faulted afresh for every block.
_BLOCK_BYTES = 1 << 20


def block_len(item_bytes: int, minimum: int = 1) -> int:
    """How many items of ``item_bytes`` bytes fit one block, at least ``minimum``."""
    return max(minimum, _BLOCK_BYTES // max(1, item_bytes))


# Key/value codec of radar configs, pipeline configs and scenes: keys, types
# and defaults are those of the dataclass fields.

_BOOL_TEXT = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}
_EXPECTED = {bool: "one of " + "/".join(_BOOL_TEXT), int: "an int", float: "a finite float"}
_FORMAT = {bool: lambda v: "true" if v else "false", float: lambda v: repr(float(v))}


def _scalar_fields(cls: type):
    """Yield each ``bool``/``int``/``float``/``str`` field of a dataclass with
    its type; ``X | None`` counts as ``X``."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        types = set(typing.get_args(hints[f.name]) or [hints[f.name]]) - {type(None)}
        if len(types) == 1 and types <= {bool, int, float, str}:
            yield f, types.pop()


def parse_config_value(key: str, text: str, typ: type) -> object:
    """Parse the text of entry ``key`` as ``bool``, ``int``, ``float`` or ``str``."""
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
    default must be present. Other fields are passed in ``given``, and
    entries under other keys are ignored.
    """
    kwargs = dict(given)
    for f, typ in _scalar_fields(cls):
        if f.name in given:
            continue
        key = prefix + f.name
        if key in entries:
            kwargs[f.name] = parse_config_value(key, entries[key], typ)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing config key {key!r}")
    return cls(**kwargs)


def config_to_entries(obj: object, prefix: str = "") -> dict[str, str]:
    """One ``prefix + field`` entry per scalar field of ``obj`` that is not
    ``None``, written so that ``config_from_entries`` reads it back exactly."""
    entries = {}
    for f, typ in _scalar_fields(type(obj)):
        value = getattr(obj, f.name)
        if value is not None:
            entries[prefix + f.name] = _FORMAT.get(typ, str)(value)
    return entries


@dataclass(frozen=True)
class RadarConfig:
    """Frequency plan and array geometry of a stepped-frequency MIMO radar.

    SI units throughout (Hz, m, s).

    Attributes:
        f0: start frequency of the sweep.
        k: number of frequency steps per sweep.
        b: swept bandwidth.
        n: range-profile length (inverse-DFT size), n >= k.
        delta: receive inter-antenna spacing.
        m_r: number of physical receive antennas.
        m_t: number of transmit antennas.
        f_st: nominal slow-time sampling rate.
        delta_t: transmit inter-antenna spacing. ``m_r * delta`` produces a
            gap-free virtual uniform linear array and is the default; any
            other value is tolerated with a warning.
        c: propagation speed, configurable for tests.
        t_tone: single-tone duration. Metadata only, never consumed.
        t_sweep: full-sweep duration. Metadata only, never consumed.
    """

    f0: float
    k: int
    b: float
    n: int
    delta: float
    m_r: int
    m_t: int
    f_st: float
    delta_t: float | None = None
    c: float = SPEED_OF_LIGHT
    t_tone: float | None = None
    t_sweep: float | None = None

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ConfigError(f"at least 2 frequency steps required, got k={self.k}")
        if self.f0 <= 0 or self.b <= 0:
            raise ConfigError("f0 and b must be positive")
        if self.n < self.k:
            raise ConfigError(f"range-profile length n={self.n} must be >= k={self.k}")
        if self.delta <= 0:
            raise ConfigError("antenna spacing delta must be positive")
        if self.m_r < 1 or self.m_t < 1:
            raise ConfigError("antenna counts m_r and m_t must be >= 1")
        if self.f_st <= 0:
            raise ConfigError("slow-time rate f_st must be positive")
        if self.c <= 0:
            raise ConfigError("propagation speed c must be positive")
        if self.delta_t is None:
            object.__setattr__(self, "delta_t", self.m_r * self.delta)
        elif not math.isclose(self.delta_t, self.m_r * self.delta, rel_tol=1e-9):
            warnings.warn(
                "delta_t != m_r * delta: the virtual array is not a uniform ULA",
                stacklevel=2,
            )


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
        profile_granularity: range-profile bin spacing, ``c / (2 delta_f n)``.
        k0: number of low frequency steps whose wavelength still satisfies
            the half-wavelength spatial sampling bound for spacing ``delta``,
            clamped to ``[1, k]``.
    """

    delta_f: float
    f_c: float
    m: int
    d_max: float
    range_resolution: float
    profile_granularity: float
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
        profile_granularity=cfg.c / (2 * delta_f * cfg.n),
        k0=max(1, min(cfg.k, k0_raw)),
    )


def walabot_config(f_st: float) -> RadarConfig:
    """Parameters of the commercial sensor this pipeline was tuned for, at the
    slow-time rate ``f_st`` of the recording or scene."""
    return RadarConfig(
        f0=6.3e9,
        k=137,
        b=1.7e9,
        n=8192,
        delta=0.02,
        m_r=4,
        m_t=2,
        f_st=f_st,
        t_tone=14.3e-6 / 137,
        t_sweep=14.3e-6,
    )


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


def cartesian_to_polar(loc: CartesianLocation) -> PolarLocation:
    return PolarLocation(math.hypot(loc.x, loc.y), math.atan2(loc.x, loc.y))

