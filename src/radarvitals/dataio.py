"""On-disk measurement container and raw-recording conversion.

The "RVC1" container is a text header followed by a binary payload of
little-endian float64 pairs (real, imag) in row-major [slow time, step,
channel] order. Raw recordings arrive as per-antenna-pair range profiles
and are converted to stepped-frequency cubes by digital down-conversion
and symmetric spectral truncation.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Mapping

import numpy as np

from .core import (
    ConfigError,
    RadarConfig,
    config_to_entries,
    derive_params,
    parse_config_value,
    radar_config_from_entries,
    reject_unknown,
)
from .kvfile import format_kv, parse_kv, read_kv
from .simulate import MeasurementCube, Scene, check_slow_time, scene_from_entries, scene_to_entries

RVC_MAGIC = "RVC1"
_HEADER_END = b"end_header\n"

# How many standard errors the mean slow-time interval may lie from 1 / f_st.
# simulate draws each interval as 1 / f_st + sigma z with z standard normal,
# so the mean of n intervals is 1 / f_st + sigma z_bar, z_bar ~ N(0, 1 / n).
# Over its standard error s / sqrt(n), s the intervals' sample standard
# deviation, the deviation follows Student's t with n - 1 degrees of freedom,
# which exceeds 10 with probability 6e-4 at 5 intervals, 2e-6 at 11 and
# below 1e-18 for the 263 samples of one default segment. A relative 1e-9
# more admits stamps computed in float64 without jitter.
_F_ST_SIGMAS = 10.0


class DataError(Exception):
    """Recording data is structurally unusable."""


class RVCFormatError(DataError):
    """Malformed measurement container."""


def check_finite(samples: np.ndarray, source: object, first_row: int = 0) -> None:
    """Raise ``DataError`` naming the first non-finite [l, k, m] sample, its
    row counted from ``first_row``.

    One sum screens the samples: a nan or inf sample always makes it
    non-finite, so the element-wise scan runs only then (a finite sum that
    overflows merely triggers the scan, which finds nothing).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(samples.sum()):
            return
    finite = np.isfinite(samples)
    if not finite.all():
        bad = tuple(int(i) for i in np.argwhere(~finite)[0])
        index = [bad[0] + first_row, *bad[1:]]
        raise DataError(f"{source}: sample {index} is {samples[bad]}, not finite")


def _check_f_st(slow_time: np.ndarray, f_st: float, source: object) -> None:
    """Raise ``DataError`` naming ``f_st`` when the mean interval of the
    stamps lies more than ``_F_ST_SIGMAS`` standard errors from 1 / f_st."""
    if slow_time.size < 2:
        return
    dt = np.diff(slow_time)
    spread = dt.std(ddof=1) / math.sqrt(dt.size) if dt.size > 1 else 0.0
    if not abs(dt.mean() - 1 / f_st) <= _F_ST_SIGMAS * spread + 1e-9 * dt.mean():
        raise DataError(f"{source}: f_st {f_st} Hz contradicts the slow_time stamps, "
                        f"whose mean rate is {1 / dt.mean()} Hz")


def write_container(
    cube: MeasurementCube,
    path: str | os.PathLike,
    meta: Mapping[str, str] | None = None,
) -> None:
    """Write a cube (and its ground truth, when present) losslessly.

    ``meta`` entries (e.g. a scenario id) are stored under ``meta.`` keys.
    """
    entries: dict[str, str] = {}
    l, k, m = cube.samples.shape
    entries["l"] = str(l)
    entries["m"] = str(m)
    entries.update(config_to_entries(cube.config))
    entries["slow_time"] = ",".join(repr(float(t)) for t in cube.slow_time)
    if cube.ground_truth is not None:
        for key, value in scene_to_entries(cube.ground_truth).items():
            entries[f"truth.{key}"] = value
    for key in sorted(meta or {}):
        entries[f"meta.{key}"] = str(meta[key])
    header = RVC_MAGIC + "\n" + format_kv(entries)
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.write(_HEADER_END)
        # the samples' own buffer when already contiguous <c16: no payload copy
        fh.write(memoryview(np.ascontiguousarray(cube.samples, dtype="<c16")))


def _read_header(fh: BinaryIO, path) -> tuple[dict[str, str], int]:
    """Header entries and payload offset, reading no further than the
    chunk that holds the ``end_header`` line."""
    marker = b"\n" + _HEADER_END
    data = b""
    while (head_end := data.find(marker)) < 0:
        chunk = fh.read(1 << 16)
        if not chunk:
            raise RVCFormatError(f"{path}: missing end_header marker")
        data += chunk
    first, _, rest = data[:head_end].decode("utf-8", errors="replace").partition("\n")
    if first.strip() != RVC_MAGIC:
        raise RVCFormatError(f"{path}: bad magic {first.strip()!r}, expected {RVC_MAGIC!r}")
    try:
        entries = parse_kv(rest)
    except ValueError as exc:
        raise RVCFormatError(f"{path}: malformed header: {exc}") from exc
    return entries, head_end + len(marker)


def read_header(path: str | os.PathLike) -> dict[str, str]:
    """Header entries only (cheap way to get meta/ground-truth keys)."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)[0]


def ground_truth_from_header(entries: Mapping[str, str], path) -> Scene | None:
    """The scene stored under the ``truth.`` keys of a container header,
    ``None`` when there are none."""
    truth = {k.removeprefix("truth."): v for k, v in entries.items() if k.startswith("truth.")}
    try:
        return scene_from_entries(truth)[0] if truth else None
    except (KeyError, ValueError) as exc:
        raise RVCFormatError(f"{path}: bad or missing header field: {exc}") from exc


class ContainerReader:
    """An open "RVC1" container whose sample rows are read on demand, the
    one reader of the container rule.

    Opening it reads and checks the header in full: the dimensions against
    the radar config, the ground truth, the payload size, every slow-time
    stamp and ``f_st``. ``rows`` (a slice of unit step, clipped to the
    recording) picks the rows it serves: ``l`` counts them, ``slow_time``
    holds their stamps, and row 0 is the recording's row ``rows.start``.
    ``read`` reads rows into a caller's buffer and checks each for
    finiteness, so a sample is checked when, and only if, it is read. Close
    it with ``close`` or use it as a context manager.
    """

    def __init__(self, path: str | os.PathLike, rows: slice = slice(None)):
        self.path = path
        self._fh = open(path, "rb")
        try:
            self._check_header(rows)
        except BaseException:
            self._fh.close()
            raise

    def _check_header(self, rows: slice) -> None:
        path = self.path
        entries, self._offset = _read_header(self._fh, path)
        try:
            l = int(entries["l"])
            m = int(entries["m"])
            cfg = radar_config_from_entries(entries)
        except (KeyError, ValueError) as exc:
            raise RVCFormatError(f"{path}: bad or missing header field: {exc}") from exc
        self.ground_truth = ground_truth_from_header(entries, path)
        if m != cfg.m_r * cfg.m_t:
            raise RVCFormatError(
                f"{path}: header m={m} inconsistent with m_r*m_t={cfg.m_r * cfg.m_t}"
            )
        self._row_bytes = cfg.k * m * 16
        expected = l * self._row_bytes
        actual = os.fstat(self._fh.fileno()).st_size - self._offset
        if actual != expected:
            raise RVCFormatError(
                f"{path}: payload holds {actual} bytes but the header promises "
                f"{expected} (l*k*m complex128) starting at byte offset {self._offset}"
            )
        if "slow_time" not in entries:
            raise RVCFormatError(f"{path}: header lacks the slow_time vector")
        try:
            slow_time = np.array(
                [parse_config_value("slow_time", v, float) for v in entries["slow_time"].split(",")]
            )
        except ConfigError as exc:
            raise RVCFormatError(f"{path}: {exc}") from exc
        if slow_time.size != l:
            raise RVCFormatError(
                f"{path}: slow_time has {slow_time.size} entries, header promises {l}"
            )
        try:
            check_slow_time(slow_time)
        except ValueError as exc:
            raise RVCFormatError(f"{path}: {exc}") from exc
        _check_f_st(slow_time, cfg.f_st, path)
        start, stop, step = rows.indices(l)
        if step != 1:
            raise ValueError(f"container rows must be read with step 1, got {step}")
        self.config = cfg
        self._first = start
        self.l = max(stop - start, 0)
        self.slow_time = slow_time[start : start + self.l]

    def buffer(self, n: int) -> np.ndarray:
        """An uninitialized buffer for ``n`` rows, in the payload's dtype."""
        return np.empty((n, self.config.k, self.config.m_r * self.config.m_t), "<c16")

    def read(self, start: int, out: np.ndarray) -> None:
        """Fill ``out``, a ``buffer``, with rows [start, start + len(out)) and
        raise ``DataError`` naming the first non-finite sample among them by
        its row in the recording."""
        self._fh.seek(self._offset + (self._first + start) * self._row_bytes)
        if self._fh.readinto(out) != out.nbytes:  # the file shrank since it was opened
            raise RVCFormatError(f"{self.path}: payload ends before row "
                                 f"{self._first + start + len(out)}")
        check_finite(out, self.path, self._first + start)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> ContainerReader:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_container(path: str | os.PathLike, rows: slice = slice(None)) -> MeasurementCube:
    """Read and strictly validate an "RVC1" container, or only the sample
    rows ``rows`` of it (a slice of unit step, clipped to the recording).

    A ``ContainerReader`` checks the header, its slow-time stamps, ``f_st``
    and the payload size in full, then reads the rows straight into the
    sample array; of the samples, only the rows read are checked, and only
    they are read.
    """
    with ContainerReader(path, rows) as reader:
        samples = reader.buffer(reader.l)
        reader.read(0, samples)
    return MeasurementCube(samples, reader.slow_time, reader.config, reader.ground_truth)


def downconvert_decimate(
    profiles: np.ndarray, cfg: RadarConfig, f_s_ft: float
) -> np.ndarray:
    """Recover stepped-frequency samples from fast-time range profiles.

    Mixes the profile down by the center frequency, Fourier transforms over
    fast time and keeps the ``k`` bins inside [-b/2, b/2], symmetric about
    DC with the extra bin on the positive side when the count is even. The
    output is ordered by ascending frequency so index k maps to the tone
    f0 + k * delta_f. Works on any leading batch shape; the profile axis is
    the last one.
    """
    profiles = np.asarray(profiles)
    n = cfg.n
    if profiles.shape[-1] != n:
        raise ValueError(
            f"profile length {profiles.shape[-1]} does not match n={n}"
        )
    if f_s_ft <= cfg.b:
        raise ValueError("fast-time rate f_s_ft must exceed the bandwidth b")
    derived = derive_params(cfg)
    carrier = np.exp(-2j * np.pi * derived.f_c * np.arange(n) / f_s_ft)
    spectrum = np.fft.fft(profiles * carrier, axis=-1)
    k = cfg.k
    n_pos = k // 2
    n_neg = k - 1 - n_pos
    spacing = f_s_ft / n
    half_band = cfg.b / 2 * (1 + 1e-9)
    if n_pos * spacing > half_band or n_neg * spacing > half_band:
        raise ValueError(
            f"[-b/2, b/2] holds fewer than k={k} bins at spacing {spacing:.4g} Hz"
        )
    offsets = np.arange(-n_neg, n_pos + 1)
    return spectrum[..., offsets % n] / n


def assemble_virtual_array(
    per_pair: Mapping[tuple[int, int], np.ndarray], cfg: RadarConfig
) -> np.ndarray:
    """Stack per-(tx, rx) signals into virtual channel order.

    Channel m = tx * m_r + rx, i.e. the signals of the second transmit
    antenna are appended to those of the first. Pure reindexing; any common
    leading shape is allowed and channels land on a new last axis.
    """
    channels = []
    for tx in range(cfg.m_t):
        for rx in range(cfg.m_r):
            try:
                channels.append(np.asarray(per_pair[(tx, rx)]))
            except KeyError:
                raise DataError(
                    f"missing signal for antenna pair (tx={tx}, rx={rx})"
                ) from None
    return np.stack(channels, axis=-1)


@dataclass
class RawRecording:
    """Per-antenna-pair range profiles straight off a recording.

    ``profiles`` is indexed [slow time, pair, fast time]; ``pair_table``
    names the (tx index, rx index) of each pair column. Hardware profiles
    are real; synthetic analytic profiles may be complex.
    """

    profiles: np.ndarray
    pair_table: tuple[tuple[int, int], ...]
    f_s_ft: float
    slow_time: np.ndarray

    def __post_init__(self) -> None:
        self.profiles = np.asarray(self.profiles)
        self.slow_time = np.asarray(self.slow_time, dtype=np.float64)
        if self.profiles.ndim != 3:
            raise DataError("profiles must be indexed [slow time, pair, fast time]")
        if len(set(self.pair_table)) != len(self.pair_table):
            raise DataError("pair_table entries must be unique")
        if self.profiles.shape[1] != len(self.pair_table):
            raise DataError(
                f"{self.profiles.shape[1]} profile columns but "
                f"{len(self.pair_table)} pair_table entries"
            )
        if self.slow_time.size != self.profiles.shape[0]:
            raise DataError("slow_time length does not match the profile count")
        check_slow_time(self.slow_time, DataError)


def convert_recording(raw: RawRecording, cfg: RadarConfig) -> MeasurementCube:
    """Down-convert every pair and assemble the virtual-array cube."""
    per_pair = {}
    for col, pair in enumerate(raw.pair_table):
        tx, rx = pair
        if not (0 <= tx < cfg.m_t and 0 <= rx < cfg.m_r):
            raise DataError(f"pair {pair} outside the {cfg.m_t} x {cfg.m_r} array")
        per_pair[pair] = downconvert_decimate(
            raw.profiles[:, col, :], cfg, raw.f_s_ft
        )
    samples = assemble_virtual_array(per_pair, cfg)
    return MeasurementCube(samples, raw.slow_time, cfg)


def read_raw_dir(path: str | os.PathLike) -> tuple[RawRecording, RadarConfig]:
    """Load the on-disk raw layout: ``raw.kv`` metadata plus npy payloads.

    ``raw.kv`` carries the radar config keys, ``f_s_ft`` and the pair table
    (``pair.<i>.tx`` / ``pair.<i>.rx``, i = 0, 1, ... without gaps; any other
    ``pair.`` key is a ``ConfigError``); ``profiles.npy`` and
    ``slow_time.npy`` hold the arrays.
    """
    root = Path(path)
    try:
        meta = read_kv(root / "raw.kv")
    except OSError as exc:
        raise DataError(f"{root}: cannot read raw.kv: {exc}") from exc
    cfg = radar_config_from_entries(meta)
    f_s_ft = parse_config_value("f_s_ft", meta.get("f_s_ft"), float)
    pairs = []
    while (tx := f"pair.{len(pairs)}.tx") in meta:
        rx = f"pair.{len(pairs)}.rx"
        pairs.append(tuple(parse_config_value(key, meta.get(key), int) for key in (tx, rx)))
    read = [f"pair.{i}.{end}" for i in range(len(pairs)) for end in ("tx", "rx")]
    reject_unknown([k for k in meta if k.startswith("pair.")], read, "raw.kv")
    if not pairs:
        raise DataError(f"{root}: raw.kv names no antenna pairs")
    try:
        profiles = np.load(root / "profiles.npy")
        slow_time = np.load(root / "slow_time.npy")
    except OSError as exc:
        raise DataError(f"{root}: cannot load raw arrays: {exc}") from exc
    try:
        raw = RawRecording(profiles, tuple(pairs), f_s_ft, slow_time)
    except DataError as exc:
        raise DataError(f"{root}: {exc}") from exc
    _check_f_st(raw.slow_time, cfg.f_st, root)
    return raw, cfg


def write_raw_dir(
    path: str | os.PathLike,
    raw: RawRecording,
    cfg: RadarConfig,
    extra: Mapping[str, str] | None = None,
) -> None:
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    meta = config_to_entries(cfg)
    meta["f_s_ft"] = repr(float(raw.f_s_ft))
    for i, (tx, rx) in enumerate(raw.pair_table):
        meta[f"pair.{i}.tx"] = str(tx)
        meta[f"pair.{i}.rx"] = str(rx)
    for key in sorted(extra or {}):
        meta[key] = str(extra[key])
    (root / "raw.kv").write_text(format_kv(meta), encoding="utf-8")
    np.save(root / "profiles.npy", raw.profiles)
    np.save(root / "slow_time.npy", raw.slow_time)
