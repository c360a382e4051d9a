"""Scene-driven synthesis of stepped-frequency measurement cubes.

The generator realizes a narrowband point-scatterer receive model: every
person contributes, per frequency step and virtual channel, a complex
exponential whose delay encodes range, angle and chest motion. Static
reflectors add slow-time-constant terms and measurement noise is i.i.d.
circularly symmetric complex Gaussian. Simulated cubes carry their scene as
ground truth, which makes them the oracle for end-to-end checks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ConfigError,
    PolarLocation,
    RadarConfig,
    config_from_entries,
    config_to_entries,
    derive_params,
    parse_config_value,
)

# samples per block of simulate's complex temporaries (2 MB)
_BLOCK_SAMPLES = 1 << 17


@dataclass(frozen=True)
class PersonModel:
    """Point target with sinusoidal chest motion.

    ``amplitude`` is the complex scattering gain, constant across channels.
    Displacement amplitudes are in meters; a displacement x is converted to
    a two-way delay 2 x / c internally.
    """

    location: PolarLocation
    amplitude: complex = 1.0
    breath_freq: float = 0.3
    breath_amp: float = 0.004
    breath_phase: float = 0.0
    heart_freq: float = 0.0
    heart_amp: float = 0.0
    heart_phase: float = 0.0

    def __post_init__(self) -> None:
        if self.breath_freq <= 0:
            raise ConfigError("breath_freq must be positive")
        if self.breath_amp < 0 or self.heart_amp < 0:
            raise ConfigError("displacement amplitudes must be non-negative")
        if self.heart_freq < 0:
            raise ConfigError("heart_freq must be non-negative")


@dataclass(frozen=True)
class ClutterModel:
    """Static reflectors plus white circular complex noise."""

    static_reflectors: tuple[tuple[PolarLocation, complex], ...] = ()
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.noise_std < 0:
            raise ConfigError("noise_std must be non-negative")


@dataclass(frozen=True)
class Scene:
    """Ground-truth description of one recording."""

    persons: tuple[PersonModel, ...] = ()
    clutter: ClutterModel = field(default_factory=ClutterModel)
    l: int = 200
    f_st: float = 10.0
    slow_time_jitter: float = 0.0  # std of the per-sample interval jitter, s

    def __post_init__(self) -> None:
        if self.l < 1:
            raise ConfigError("slow-time length l must be >= 1")
        if self.f_st <= 0:
            raise ConfigError("f_st must be positive")
        if self.slow_time_jitter < 0:
            raise ConfigError("slow_time_jitter must be non-negative")


@dataclass
class MeasurementCube:
    """Complex stepped-frequency samples indexed [slow time, step, channel]."""

    samples: np.ndarray
    slow_time: np.ndarray
    config: RadarConfig
    ground_truth: Scene | None = None

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        self.slow_time = np.asarray(self.slow_time, dtype=np.float64)
        expected = (self.slow_time.size, self.config.k, self.config.m_r * self.config.m_t)
        if self.samples.shape != expected:
            raise ValueError(
                f"samples shape {self.samples.shape} inconsistent with "
                f"(l, k, m) = {expected}"
            )
        if not np.isfinite(self.slow_time).all():
            raise ValueError("slow_time must be finite")
        if self.slow_time.size > 1 and np.any(np.diff(self.slow_time) <= 0):
            raise ValueError("slow_time must be strictly increasing")

    @property
    def l(self) -> int:
        return self.samples.shape[0]


def simulate(scene: Scene, cfg: RadarConfig) -> MeasurementCube:
    """Synthesize a measurement cube with the scene attached as ground truth.

    Deterministic for a fixed ``scene.clutter.seed``. The slow-time jitter
    stream (when enabled) is drawn before the noise stream, so either can be
    reproduced independently of the scene content. ``cfg.f_st`` must equal
    ``scene.f_st``, which sets the slow-time stamps; otherwise a
    ``ConfigError`` names both rates.
    """
    if cfg.f_st != scene.f_st:
        raise ConfigError(
            f"radar f_st {cfg.f_st} Hz differs from the scene's f_st {scene.f_st} Hz"
        )
    derived = derive_params(cfg)
    rng = np.random.default_rng(scene.clutter.seed)
    l, k, m = scene.l, cfg.k, derived.m

    if scene.slow_time_jitter > 0 and l > 1:
        dt = 1.0 / scene.f_st + scene.slow_time_jitter * rng.standard_normal(l - 1)
        dt = np.maximum(dt, 1e-3 / scene.f_st)
        t = np.concatenate(([0.0], np.cumsum(dt)))
    else:
        t = np.arange(l) / scene.f_st

    freqs = cfg.f0 + derived.delta_f * np.arange(k)
    chan = cfg.delta * np.arange(m)
    cube = np.zeros((l, k, m), dtype=np.complex128)
    # Temporaries are bounded by blocks of slow-time rows, and each sample
    # sees the same operations in the same order as unblocked. The person
    # term is scaled by an explicit amplitude * term call: numpy would elide
    # the temporary of ``amplitude * np.exp(...)`` for large arrays only and
    # then compute exp * amplitude, which rounds differently.
    rows_per_block = max(1, _BLOCK_SAMPLES // (k * m))
    blocks = [slice(a, a + rows_per_block) for a in range(0, l, rows_per_block)]

    for person in scene.persons:
        if person.breath_freq >= scene.f_st / 2:
            raise ConfigError(
                f"breath_freq {person.breath_freq} Hz is not below the "
                f"Nyquist rate {scene.f_st / 2} Hz"
            )
        if person.location.d > derived.d_max:
            warnings.warn(
                f"person at {person.location.d} m lies beyond the unambiguous "
                f"range {derived.d_max:.2f} m; expect range aliasing",
                stacklevel=2,
            )
        if person.breath_amp > derived.range_resolution / 10:
            warnings.warn(
                "breath_amp is not small against the range resolution; the "
                "narrowband phase model degrades",
                stacklevel=2,
            )
        disp = person.breath_amp * np.sin(
            2 * np.pi * person.breath_freq * t + person.breath_phase
        )
        if person.heart_amp > 0 and person.heart_freq > 0:
            disp = disp + person.heart_amp * np.sin(
                2 * np.pi * person.heart_freq * t + person.heart_phase
            )
        base = (2.0 * person.location.d + chan * np.sin(person.location.theta)) / cfg.c
        tau = base[None, :] + (2.0 / cfg.c) * disp[:, None]  # (l, m)
        for rows in blocks:
            term = np.exp(-2j * np.pi * freqs[None, :, None] * tau[rows, None, :])
            cube[rows] += np.multiply(person.amplitude, term, out=term)

    for loc, gain in scene.clutter.static_reflectors:
        tau_m = (2.0 * loc.d + chan * np.sin(loc.theta)) / cfg.c
        cube += gain * np.exp(-2j * np.pi * np.outer(freqs, tau_m))[None, :, :]

    if scene.clutter.noise_std > 0:
        # The stream holds every real part before every imaginary part;
        # adding scale * (re + 1j * im) one part at a time gives the same sums.
        scale = scene.clutter.noise_std / np.sqrt(2.0)
        for part in (cube.real, cube.imag):
            for rows in blocks:
                part[rows] += scale * rng.standard_normal(part[rows].shape)

    return MeasurementCube(cube, t, cfg, ground_truth=scene)


def range_profile(snapshot: np.ndarray, n: int) -> np.ndarray:
    """Magnitude range profile of one stepped-frequency snapshot.

    Computes the length-``n`` inverse DFT of the ``k`` recorded steps,
    scaled by 1/k, and returns its absolute value. Choosing ``n > k``
    oversamples the profile envelope without adding information.
    """
    snapshot = np.asarray(snapshot)
    if snapshot.ndim != 1:
        raise ValueError("snapshot must be a 1-d vector over frequency steps")
    k = snapshot.shape[0]
    if n < k:
        raise ValueError(f"profile length n={n} must be >= snapshot length k={k}")
    return np.abs(np.fft.ifft(snapshot, n=n) * (n / k))


def _polar_from_entries(entries: dict[str, str], key: str, default: complex) -> complex:
    """A complex gain stored as magnitude ``key`` and phase (rad) ``key_phase``."""
    magnitude, phase = (
        parse_config_value(k, entries[k], float) if k in entries else fallback
        for k, fallback in ((key, abs(default)), (key + "_phase", float(np.angle(default))))
    )
    return complex(magnitude * np.exp(1j * phase))


def _polar_to_entries(value: complex, key: str) -> dict[str, str]:
    return {key: repr(float(abs(value))), key + "_phase": repr(float(np.angle(value)))}


def _person_from_entries(entries: dict[str, str], prefix: str) -> PersonModel:
    location = config_from_entries(PolarLocation, entries, prefix)
    amplitude = _polar_from_entries(entries, prefix + "amplitude", PersonModel.amplitude)
    return config_from_entries(
        PersonModel, entries, prefix, location=location, amplitude=amplitude
    )


def _person_to_entries(person: PersonModel, prefix: str) -> dict[str, str]:
    return {
        **config_to_entries(person.location, prefix),
        **_polar_to_entries(person.amplitude, prefix + "amplitude"),
        **config_to_entries(person, prefix),
    }


def _reflector_from_entries(entries: dict[str, str], prefix: str) -> tuple:
    location = config_from_entries(PolarLocation, entries, prefix)
    return location, _polar_from_entries(entries, prefix + "gain", 1.0)


def _reflector_to_entries(reflector: tuple, prefix: str) -> dict[str, str]:
    location, gain = reflector
    return {**config_to_entries(location, prefix), **_polar_to_entries(gain, prefix + "gain")}


def _read_indexed(entries: dict[str, str], kind: str, read, write) -> tuple:
    """Read every ``kind.<index>.<field>`` group in index order; a field is
    known when ``write`` stores it for the item read. An invalid item is a
    ``ConfigError`` naming its ``kind.<index>``."""
    groups: dict[int, dict[str, str]] = {}
    for key, value in entries.items():
        if not key.startswith(kind + "."):
            continue
        idx_text, _, name = key[len(kind) + 1 :].partition(".")
        if not name:
            raise ConfigError(f"malformed key {key!r}")
        try:
            idx = int(idx_text)
        except ValueError:
            raise ConfigError(f"malformed key {key!r}") from None
        groups.setdefault(idx, {})[f"{kind}.{idx}.{name}"] = value
    items = []
    for idx in sorted(groups):
        prefix = f"{kind}.{idx}."
        try:
            item = read(groups[idx], prefix)
        except ValueError as exc:
            if prefix in str(exc):  # a parse error already names its key
                raise
            raise ConfigError(f"{prefix[:-1]}: {exc}") from exc
        unknown = sorted(set(groups[idx]) - set(write(item, prefix)))
        if unknown:
            raise ConfigError(f"unknown scene key {unknown[0]!r}")
        items.append(item)
    return tuple(items)


def scene_from_entries(entries: dict[str, str]) -> tuple[Scene, dict[str, str]]:
    """Build a scene from key/value entries.

    Returns the scene plus any leftover entries (``id``, ``obstacle`` and
    ``meta.*`` passthrough keys); anything else unknown is an error.
    """
    persons = _read_indexed(entries, "person", _person_from_entries, _person_to_entries)
    reflectors = _read_indexed(
        entries, "reflector", _reflector_from_entries, _reflector_to_entries
    )
    clutter = config_from_entries(ClutterModel, entries, static_reflectors=reflectors)
    scene = config_from_entries(Scene, entries, persons=persons, clutter=clutter)
    known = scene_to_entries(scene)
    extras: dict[str, str] = {}
    for key, value in entries.items():
        if key.startswith(("person.", "reflector.")) or key in known:
            continue
        if key in ("id", "obstacle") or key.startswith("meta."):
            extras[key] = value
        else:
            raise ConfigError(f"unknown scene key {key!r}")
    return scene, extras


def scene_to_entries(scene: Scene) -> dict[str, str]:
    head = config_to_entries(scene)
    jitter = head.pop("slow_time_jitter")
    # container headers list the jitter after the clutter keys
    entries = {**head, **config_to_entries(scene.clutter), "slow_time_jitter": jitter}
    for i, person in enumerate(scene.persons):
        entries.update(_person_to_entries(person, f"person.{i}."))
    for i, reflector in enumerate(scene.clutter.static_reflectors):
        entries.update(_reflector_to_entries(reflector, f"reflector.{i}."))
    return entries
