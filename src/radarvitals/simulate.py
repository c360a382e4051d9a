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
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ConfigError,
    DataError,
    PolarLocation,
    RadarConfig,
    block_len,
    config_from_entries,
    config_to_entries,
    derive_params,
    parse_config_value,
    reject_unknown,
    take_metadata,
)
from .localize import steering_matrix


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
    """Complex stepped-frequency samples indexed [slow time, step, channel],
    a row source as a ``dataio.ContainerReader`` is."""

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
        check_slow_time(self.slow_time)

    @property
    def l(self) -> int:
        return self.samples.shape[0]

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows [start, stop) of the samples, a view; ``ValueError`` outside
        [0, ``l``]."""
        check_rows(start, stop, self.l, "recording")
        return self.samples[start:stop]

    def check(self, start: int, rows: np.ndarray, bound: float | None = None,
              stop: int | None = None) -> None:
        """``check_finite`` of ``rows``, the samples from row ``start`` on;
        with ``bound``, naming rows [start, ``stop``)."""
        check_finite(rows, "recording", start, bound, stop)


def check_rows(start: int, stop: int, l: int, source: object) -> None:
    """Raise ``ValueError`` naming rows [start, stop) unless within [0, l]."""
    if not 0 <= start <= stop <= l:
        raise ValueError(f"{source}: rows [{start}, {stop}) are not within [0, {l}]")


def check_finite(samples: np.ndarray, source: object, first_row: int = 0,
                 bound: float | None = None, stop: int | None = None) -> None:
    """Raise ``DataError`` naming the first non-finite sample by its index
    ([l, k, m] for a cube, [sweep, column, bin] for raw profiles), its row
    counted from ``first_row``; with ``bound``, naming the finite rows
    [first_row, ``stop``) and the bound their filtered values exceed
    (``run_pipeline``). ``stop`` defaults to the end of ``samples``: a span
    read one block at a time is named whole after its blocks are checked.

    One sum screens the samples: a nan or inf sample always makes it
    non-finite, so the element-wise scan runs only then (a finite sum that
    overflows merely triggers the scan, which finds nothing).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        finite_sum = np.isfinite(samples.sum())
    if not finite_sum and not (finite := np.isfinite(samples)).all():
        bad = tuple(int(i) for i in np.argwhere(~finite)[0])
        index = [bad[0] + first_row, *bad[1:]]
        raise DataError(f"{source}: sample {index} is {samples[bad]}, not finite")
    if bound is not None:
        stop = first_row + len(samples) if stop is None else stop
        raise DataError(f"{source}: rows [{first_row}, {stop}) are finite, "
                        f"but their clutter-filtered samples exceed {bound!r} in magnitude, "
                        f"above which the covariance sums may overflow")


def check_slow_time(slow_time: np.ndarray, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` unless the stamps are 1-D, finite and strictly increasing."""
    if slow_time.ndim != 1:
        raise error(f"slow_time must be 1-D, got shape {slow_time.shape}")
    if not np.isfinite(slow_time).all():
        raise error("slow_time must be finite")
    if np.any(np.diff(slow_time) <= 0):
        raise error("slow_time must be strictly increasing")


def simulate(scene: Scene, cfg: RadarConfig) -> MeasurementCube:
    """Synthesize a measurement cube with the scene attached as ground truth.

    Deterministic for a fixed ``scene.clutter.seed``. The slow-time jitter
    stream (when enabled) is drawn before the noise stream, so either can be
    reproduced independently of the scene content. ``cfg.f_st`` must equal
    ``scene.f_st``, which sets the slow-time stamps; otherwise a
    ``ConfigError`` names both rates. So must every breathing and heart
    rate lie below the Nyquist rate f_st / 2 (a heart term only when its
    amplitude is positive); a ``ConfigError`` names the rate that does not.

    A person's delay separates as tau[l, m] = base[m] + (2 / c) disp[l], so
    its term is the product of a static factor, the amplitude times
    ``localize.steering_matrix`` over (k, m), and a motion factor
    exp(-2j pi f_k (2 / c) disp[l]) over (l, k), formed one row block at a
    time. The static phase of hundreds of turns is reduced exactly and the
    motion phase is small (0.21 turns for 4 mm at 8 GHz), so each factor is
    rounded to a few ulps. The per-sample exp(-2j pi f tau) would carry the
    rounding of its whole phase instead, about 2 pi |f tau| 8 eps: 2e-12 at
    |f tau| = 170 turns.

    The rows come from ``synthesize_rows`` in two passes over the row
    blocks, which the CLI streams into a container instead: ``simulate``
    copies each first-pass block into the cube and then adds each block's
    imaginary noise to the cube's rows, so the peak is the cube plus a few
    blocks.
    """
    cube = np.empty((scene.l, cfg.k, cfg.m_r * cfg.m_t), dtype=np.complex128)
    slow_time, blocks, imag_noise = synthesize_rows(scene, cfg)
    for rows, block in blocks:
        cube[rows] = block
    for rows, noise in imag_noise:
        cube[rows].imag += noise
    return MeasurementCube(cube, slow_time, cfg, ground_truth=scene)


def synthesize_rows(
    scene: Scene, cfg: RadarConfig
) -> tuple[np.ndarray, Iterator[tuple[slice, np.ndarray]], Iterator[tuple[slice, np.ndarray]]]:
    """The slow-time stamps of ``simulate(scene, cfg)`` and two passes over
    its row blocks, each a generator of (rows, array) in row order.

    Every check and warning runs first, then the jitter is drawn. The noise
    stream holds every real part before every imaginary part, so the rows
    are formed in two passes. The first yields each block of samples without
    its imaginary noise: zero, each person, the reflectors, plus the real
    noise drawn for the block. A block is overwritten when the next is
    formed. The second, which raises ``RuntimeError`` when started before
    the first is exhausted, yields the imaginary noise parts drawn for each
    block, (n, k, m) float64, for the caller to add to the block's rows; a
    noiseless scene yields none. The real and imaginary parts are added
    independently, so each sample sees the operations of a cube synthesized
    whole, in the same order, and gets the same bytes.
    """
    if cfg.f_st != scene.f_st:
        raise ConfigError(
            f"radar f_st {cfg.f_st} Hz differs from the scene's f_st {scene.f_st} Hz"
        )
    derived = derive_params(cfg)
    nyquist = scene.f_st / 2
    for person in scene.persons:
        if person.breath_freq >= nyquist:
            raise ConfigError(
                f"breath_freq {person.breath_freq} Hz is not below the "
                f"Nyquist rate {nyquist} Hz"
            )
        if person.heart_amp > 0 and person.heart_freq >= nyquist:
            raise ConfigError(
                f"heart_freq {person.heart_freq} Hz is not below the "
                f"Nyquist rate {nyquist} Hz"
            )
        # stacklevel 3: the warning points at the caller of simulate (or
        # of the CLI command)
        if person.location.d > derived.d_max:
            warnings.warn(
                f"person at {person.location.d} m lies beyond the unambiguous "
                f"range {derived.d_max:.2f} m; expect range aliasing",
                stacklevel=3,
            )
        if person.breath_amp > derived.range_resolution / 10:
            warnings.warn(
                "breath_amp is not small against the range resolution; the "
                "narrowband phase model degrades",
                stacklevel=3,
            )

    rng = np.random.default_rng(scene.clutter.seed)
    l, k, m = scene.l, cfg.k, derived.m
    if scene.slow_time_jitter > 0 and l > 1:
        dt = 1.0 / scene.f_st + scene.slow_time_jitter * rng.standard_normal(l - 1)
        dt = np.maximum(dt, 1e-3 / scene.f_st)
        t = np.concatenate(([0.0], np.cumsum(dt)))
    else:
        t = np.arange(l) / scene.f_st

    # Temporaries are bounded by blocks of slow-time rows.
    rows_per_block = block_len(k * m * 16)
    row_blocks = [slice(a, min(a + rows_per_block, l)) for a in range(0, l, rows_per_block)]
    noisy = scene.clutter.noise_std > 0
    scale = scene.clutter.noise_std / np.sqrt(2.0)

    freqs = cfg.f0 + derived.delta_f * np.arange(k)
    chan = cfg.delta * np.arange(m)
    terms = []
    for person in scene.persons:
        disp = person.breath_amp * np.sin(
            2 * np.pi * person.breath_freq * t + person.breath_phase
        )
        if person.heart_amp > 0 and person.heart_freq > 0:
            disp = disp + person.heart_amp * np.sin(
                2 * np.pi * person.heart_freq * t + person.heart_phase
            )
        static = person.amplitude * steering_matrix(
            person.location.d, person.location.theta, k, m, cfg
        )
        terms.append(((2.0 / cfg.c) * disp, static))
    reflectors = []
    for loc, gain in scene.clutter.static_reflectors:
        tau_m = (2.0 * loc.d + chan * np.sin(loc.theta)) / cfg.c
        reflectors.append(gain * np.exp(-2j * np.pi * np.outer(freqs, tau_m)))

    first_done = False

    def first_pass():
        nonlocal first_done
        buffer = np.empty((min(rows_per_block, l), k, m), dtype=np.complex128)
        for rows in row_blocks:
            block = buffer[: rows.stop - rows.start]
            block[...] = 0
            for shift, static in terms:
                motion = np.exp(-2j * np.pi * np.outer(shift[rows], freqs))
                block += motion[:, :, None] * static
            for term in reflectors:
                block += term
            if noisy:
                # adding scale * (re + 1j * im) one part at a time gives the
                # same sums as adding it whole
                block.real += scale * rng.standard_normal(block.real.shape)
            yield rows, block
        first_done = True

    def second_pass():
        if not first_done:
            raise RuntimeError("the imaginary noise is drawn after every real part: "
                               "exhaust the first pass first")
        for rows in row_blocks if noisy else ():
            yield rows, scale * rng.standard_normal((rows.stop - rows.start, k, m))

    return t, first_pass(), second_pass()


def _polar_from_entries(entries: dict[str, str], key: str, default: complex) -> complex:
    """A complex gain stored as magnitude ``key`` and phase (rad) ``key_phase``,
    both keys taken out of ``entries``."""
    magnitude, phase = (
        parse_config_value(k, entries.pop(k), float) if k in entries else fallback
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


def _read_indexed(entries: dict[str, str], kind: str, read) -> tuple:
    """Read every ``kind.<index>.<field>`` group in index order, each item
    taking its keys out of ``entries``. An index that is not in canonical
    decimal form is a malformed key, and an invalid item is a ``ConfigError``
    naming its ``kind.<index>``."""
    indices = set()
    for key in entries:
        if key.startswith(kind + "."):
            idx_text, _, name = key[len(kind) + 1 :].partition(".")
            if not (name and idx_text.isdecimal() and str(int(idx_text)) == idx_text):
                raise ConfigError(f"malformed key {key!r}")
            indices.add(int(idx_text))
    items = []
    for idx in sorted(indices):
        prefix = f"{kind}.{idx}."
        try:
            items.append(read(entries, prefix))
        except ValueError as exc:
            if prefix in str(exc):  # a parse error already names its key
                raise
            raise ConfigError(f"{prefix[:-1]}: {exc}") from exc
    return tuple(items)


def take_scene(entries: dict[str, str], prefix: str) -> Scene:
    """Build a scene from its ``prefix + key`` entries, each taken out of
    ``entries``; entries under other keys stay, and errors name full keys."""
    persons = _read_indexed(entries, prefix + "person", _person_from_entries)
    reflectors = _read_indexed(entries, prefix + "reflector", _reflector_from_entries)
    clutter = config_from_entries(ClutterModel, entries, prefix, static_reflectors=reflectors)
    return config_from_entries(Scene, entries, prefix, persons=persons, clutter=clutter)


def scene_from_entries(entries: dict[str, str]) -> tuple[Scene, dict[str, str]]:
    """Build a scene from key/value entries, read from a copy.

    Returns the scene plus the dataset metadata (``id``, ``obstacle`` and
    ``meta.*`` passthrough keys); any other key that no field reads is a
    ``ConfigError`` naming it.
    """
    rest = dict(entries)
    scene = take_scene(rest, "")
    extras = take_metadata(rest)
    reject_unknown(rest, "scene")
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
