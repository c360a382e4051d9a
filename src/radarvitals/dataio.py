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
    take_metadata,
)
from .kvfile import format_kv, parse_kv, read_kv
from .simulate import (MeasurementCube, Scene, check_rows, check_slow_time, scene_to_entries,
                       take_scene)

RVC_MAGIC = "RVC1"
# what a ContainerWriter puts in place of the magic until it is closed cleanly
_UNFINISHED_MAGIC = "RVC?"
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


def check_finite(samples: np.ndarray, source: object, first_row: int = 0,
                 bound: float | None = None) -> None:
    """Raise ``DataError`` naming the first non-finite sample by its index
    ([l, k, m] for a cube, [sweep, column, bin] for raw profiles), its row
    counted from ``first_row``; with ``bound``, naming finite samples' rows
    and the bound their filtered values exceed (``run_pipeline``).

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
        raise DataError(f"{source}: rows [{first_row}, {first_row + len(samples)}) are finite, "
                        f"but their clutter-filtered samples exceed {bound!r} in magnitude, "
                        f"above which the covariance sums may overflow")


def check_f_st(slow_time: np.ndarray, f_st: float, source: object) -> None:
    """Raise ``DataError`` naming ``f_st`` when the mean interval of the
    stamps lies more than ``_F_ST_SIGMAS`` standard errors from 1 / f_st."""
    if slow_time.size < 2:
        return
    dt = np.diff(slow_time)
    spread = dt.std(ddof=1) / math.sqrt(dt.size) if dt.size > 1 else 0.0
    if not abs(dt.mean() - 1 / f_st) <= _F_ST_SIGMAS * spread + 1e-9 * dt.mean():
        raise DataError(f"{source}: f_st {f_st} Hz contradicts the slow_time stamps, "
                        f"whose mean rate is {1 / dt.mean()} Hz")


def check_container_target(path: str | os.PathLike, name: str = "container path") -> None:
    """Raise ``ValueError`` naming ``name`` unless ``path`` is absent or a
    regular file: a container is finished in place (see ``ContainerWriter``),
    which a pipe or a device cannot hold. Nothing is opened."""
    if os.path.exists(path) and not os.path.isfile(path):
        raise ValueError(f"{name} {path} is not a regular file; a container is "
                         f"finished in place and needs a seekable file")


class _Payload:
    """An open container file's sample rows, read by the one seek and
    ``readinto`` of a payload, for the reader and the writer alike; each
    sets ``path``, ``_fh``, ``_offset``, ``_row_bytes`` and ``_dims``."""

    _buffer: np.ndarray | None = None

    def _read_rows(self, start: int, stop: int) -> np.ndarray:
        """Payload rows [start, stop) in one buffer, which grows to hold them
        and which the next call overwrites; a payload that shrank since it
        was opened is an ``RVCFormatError`` naming the row."""
        if self._buffer is None or len(self._buffer) < stop - start:
            self._buffer = np.empty((stop - start, *self._dims), "<c16")
        out = self._buffer[: stop - start]
        self._fh.seek(self._offset + start * self._row_bytes)
        if self._fh.readinto(out) != out.nbytes:
            raise RVCFormatError(f"{self.path}: payload ends before row {stop}")
        return out


class ContainerWriter(_Payload):
    """An "RVC1" container written one block of sample rows at a time, the
    one writer of the container rule.

    The header is formed before ``path`` is opened, so stamps that are not
    finite and strictly increasing, or a value that cannot be stored
    exactly (see ``kvfile.format_kv``), raise ``ValueError`` and leave any
    file at ``path`` as it was; so does a ``path`` that is not a regular
    file (``check_container_target``), and so do stamps whose rate
    contradicts ``config.f_st`` as the readers check it, which raise
    ``DataError``. Opening it writes the header: the
    dimensions, the radar config, the slow-time stamps, the ground truth
    under ``truth.`` keys when there is one and ``meta`` entries (e.g. a
    scenario id) under ``meta.`` keys. ``write`` appends sample rows, one
    (rows, k, m) block per call, in row order. ``add_imag`` adds noise to
    the imaginary parts of written rows in place, one block per call.

    The header starts with a placeholder of the magic's length, and only a
    clean ``close`` puts the magic in, as the last write. ``close`` raises
    ``ValueError`` unless the blocks held exactly one row per stamp. So a
    write that is interrupted, or a writer that is never closed, leaves a
    file that every reader rejects with an ``RVCFormatError`` naming the
    magic. Use it as a context manager.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        config: RadarConfig,
        slow_time: np.ndarray,
        ground_truth: Scene | None = None,
        meta: Mapping[str, str] | None = None,
    ):
        slow_time = np.asarray(slow_time, dtype=np.float64)
        check_slow_time(slow_time)
        check_f_st(slow_time, config.f_st, path)
        check_container_target(path)
        self.path = path
        self.l = len(slow_time)
        self._dims = (config.k, config.m_r * config.m_t)
        self._row_bytes = config.k * self._dims[1] * 16
        self._written = 0
        entries = {"l": str(self.l), "m": str(self._dims[1]), **config_to_entries(config)}
        entries["slow_time"] = ",".join(repr(float(t)) for t in slow_time)
        if ground_truth is not None:
            for key, value in scene_to_entries(ground_truth).items():
                entries[f"truth.{key}"] = value
        for key in sorted(meta or {}):
            entries[f"meta.{key}"] = str(meta[key])
        header = (_UNFINISHED_MAGIC + "\n" + format_kv(entries)).encode("utf-8") + _HEADER_END
        self._offset = len(header)
        self._fh = open(path, "w+b")
        try:
            self._fh.write(header)
        except BaseException:
            self._fh.close()
            raise

    def write(self, rows: np.ndarray) -> None:
        """Append the (n, k, m) sample rows ``rows``."""
        if rows.shape[1:] != self._dims or self._written + len(rows) > self.l:
            raise ValueError(
                f"{self.path}: cannot append rows of shape {rows.shape} after "
                f"{self._written} of {self.l} rows of (k, m) = {self._dims}"
            )
        self._write_at(self._written, rows)
        self._written += len(rows)

    def add_imag(self, start: int, noise: np.ndarray) -> None:
        """Add the (n, k, m) float64 ``noise`` to the imaginary parts of the
        written rows from ``start`` on: they are read back into the writer's
        one buffer, added to and written over themselves."""
        if noise.shape[1:] != self._dims or not 0 <= start <= self._written - len(noise):
            raise ValueError(
                f"{self.path}: cannot add noise of shape {noise.shape} from row "
                f"{start} of {self._written} written rows of (k, m) = {self._dims}"
            )
        rows = self._read_rows(start, start + len(noise))
        rows.imag += noise
        self._write_at(start, rows)

    def _write_at(self, start: int, rows: np.ndarray) -> None:
        self._fh.seek(self._offset + start * self._row_bytes)
        # the rows' own buffer when already contiguous <c16: no payload copy
        self._fh.write(memoryview(np.ascontiguousarray(rows, dtype="<c16")))

    def close(self) -> None:
        """Put the magic in and close the file; without the magic when the
        rows written are not one per stamp, which raises ``ValueError``."""
        try:
            if self._written != self.l:
                raise ValueError(
                    f"{self.path}: {self._written} rows written, header promises {self.l}")
            self._fh.seek(0)
            self._fh.write(RVC_MAGIC.encode("ascii"))
        finally:
            self._fh.close()

    def __enter__(self) -> ContainerWriter:
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.close()
        else:  # the error in flight, not the row count, is the one to report
            self._fh.close()


def write_container(
    cube: MeasurementCube,
    path: str | os.PathLike,
    meta: Mapping[str, str] | None = None,
) -> None:
    """Write a cube (and its ground truth, when present) losslessly: its
    rows in one block through a ``ContainerWriter``, which writes them from
    the samples' own buffer and puts the magic in last, so an interrupted
    write leaves a file that readers reject.

    ``meta`` entries (e.g. a scenario id) are stored under ``meta.`` keys.
    """
    with ContainerWriter(path, cube.config, cube.slow_time, cube.ground_truth, meta) as writer:
        writer.write(cube.samples)


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
    if first.strip() == _UNFINISHED_MAGIC:
        raise RVCFormatError(f"{path}: magic {_UNFINISHED_MAGIC!r} of a write that never "
                             f"finished, expected {RVC_MAGIC!r}")
    if first.strip() != RVC_MAGIC:
        raise RVCFormatError(f"{path}: bad magic {first.strip()!r}, expected {RVC_MAGIC!r}")
    try:
        entries = parse_kv(rest)
    except ValueError as exc:
        raise RVCFormatError(f"{path}: malformed header: {exc}") from exc
    return entries, head_end + len(marker)


def read_header(path: str | os.PathLike) -> dict[str, str]:
    """Header entries only, reading no further than the ``end_header`` line.

    It checks only the magic and the ``key value`` syntax; ``check_header``
    is the one check of what the entries hold."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)[0]


def check_header(entries: Mapping[str, str],
                 path: str | os.PathLike) -> tuple[RadarConfig, np.ndarray, Scene | None]:
    """The one check of what a container header holds: the radar config,
    slow-time stamps and ground truth (``None`` without ``truth.*`` keys)
    of the header ``entries`` of ``path``, read from a copy.

    It checks the dimensions against the radar config, the ``truth.*``
    scene, that no key but ``meta.*`` is left unread, every slow-time stamp
    and ``f_st``; a failure is a ``DataError`` naming ``path`` and the
    header key. The payload is not read (see ``ContainerReader``).
    """
    entries = dict(entries)
    has_truth = any(k.startswith("truth.") for k in entries)
    try:
        l = int(entries.pop("l"))
        m = int(entries.pop("m"))
        cfg = radar_config_from_entries(entries)
        truth = take_scene(entries, "truth.") if has_truth else None
        stamps = entries.pop("slow_time", None)
        reject_unknown([k for k in entries if not k.startswith("meta.")], "container header")
    except (KeyError, ValueError) as exc:
        raise RVCFormatError(f"{path}: bad or missing header field: {exc}") from exc
    if m != cfg.m_r * cfg.m_t:
        raise RVCFormatError(
            f"{path}: header m={m} inconsistent with m_r*m_t={cfg.m_r * cfg.m_t}"
        )
    if stamps is None:
        raise RVCFormatError(f"{path}: header lacks the slow_time vector")
    try:
        slow_time = np.array(
            [parse_config_value("slow_time", v, float) for v in stamps.split(",")]
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
    check_f_st(slow_time, cfg.f_st, path)
    return cfg, slow_time, truth


class ContainerReader(_Payload):
    """An open "RVC1" container whose sample rows are read on demand, the
    one reader of the container rule.

    Opening it reads the header, checks it in full (``check_header``) and
    checks the payload size against it. ``rows`` (a slice of unit step,
    clipped to the recording) picks the rows it serves: ``l`` counts them,
    ``slow_time`` holds their stamps, and row 0 is the recording's row
    ``rows.start``. Like a ``MeasurementCube`` it
    serves ``rows``, unchecked, and ``check``. Close it with ``close`` or
    use it as a context manager.
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
        entries, self._offset = _read_header(self._fh, self.path)
        cfg, slow_time, self.ground_truth = check_header(entries, self.path)
        l, self._dims = len(slow_time), (cfg.k, cfg.m_r * cfg.m_t)
        self._row_bytes = cfg.k * self._dims[1] * 16
        expected = l * self._row_bytes
        actual = os.fstat(self._fh.fileno()).st_size - self._offset
        if actual != expected:
            raise RVCFormatError(
                f"{self.path}: payload holds {actual} bytes but the header promises "
                f"{expected} (l*k*m complex128) starting at byte offset {self._offset}"
            )
        start, stop, step = rows.indices(l)
        if step != 1:
            raise ValueError(f"container rows must be read with step 1, got {step}")
        self.config = cfg
        self._first = start
        self.l = max(stop - start, 0)
        self.slow_time = slow_time[start : start + self.l]

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows [start, stop), read into the reader's one buffer, which the
        next call overwrites; ``ValueError`` outside [0, ``l``]."""
        check_rows(start, stop, self.l, self.path)
        return self._read_rows(self._first + start, self._first + stop)

    def check(self, start: int, rows: np.ndarray, bound: float | None = None) -> None:
        """``check_finite`` of ``rows``, read from row ``start``, naming a
        sample by the path and its row in the recording."""
        check_finite(rows, self.path, self._first + start, bound)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> ContainerReader:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_container(path: str | os.PathLike) -> MeasurementCube:
    """Read and strictly validate an "RVC1" container.

    A ``ContainerReader`` checks the header, its slow-time stamps, ``f_st``
    and the payload size in full, then reads the rows straight into the
    sample array, and each sample is checked for finiteness.
    """
    with ContainerReader(path) as reader:
        samples = reader.rows(0, reader.l)
        reader.check(0, samples)
    return MeasurementCube(samples, reader.slow_time, reader.config, reader.ground_truth)


def downconvert_decimate(
    profiles: np.ndarray, cfg: RadarConfig, f_s_ft: float
) -> np.ndarray:
    """Recover stepped-frequency samples from fast-time range profiles.

    Mixes the profile down by f0 + n_neg * delta_f, the tone that the DC bin
    keeps, Fourier transforms over fast time and keeps the ``k`` bins inside
    [-b/2, b/2]: n_neg = k - 1 - k // 2 below DC and k // 2 above it, so the
    mixing tone is the center frequency for an odd ``k`` and half a step
    below it for an even one. The output is ordered by ascending frequency
    so index k maps to the tone f0 + k * delta_f. Works on any leading batch
    shape; the profile axis is the last one.
    """
    profiles = np.asarray(profiles)
    n = cfg.n
    if profiles.shape[-1] != n:
        raise ValueError(
            f"profile length {profiles.shape[-1]} does not match n={n}"
        )
    if f_s_ft <= cfg.b:
        raise ValueError("fast-time rate f_s_ft must exceed the bandwidth b")
    k = cfg.k
    n_pos = k // 2
    n_neg = k - 1 - n_pos
    f_dc = cfg.f0 + n_neg * derive_params(cfg).delta_f
    spectrum = np.fft.fft(profiles * np.exp(-2j * np.pi * f_dc * np.arange(n) / f_s_ft), axis=-1)
    spacing = f_s_ft / n
    half_band = cfg.b / 2 * (1 + 1e-9)
    if n_pos * spacing > half_band or n_neg * spacing > half_band:
        raise ValueError(
            f"[-b/2, b/2] holds fewer than k={k} bins at spacing {spacing:.4g} Hz"
        )
    offsets = np.arange(-n_neg, n_pos + 1)
    return spectrum[..., offsets % n] / n


@dataclass
class RawRecording:
    """Per-antenna-pair range profiles straight off a recording.

    ``profiles`` is indexed [slow time, pair, fast time]; ``pair_table``
    names the (tx index, rx index) of each pair column. Hardware profiles
    are real; synthetic analytic profiles may be complex. Profiles that are
    not bool, int, float or complex, and stamps that are not int or float,
    are a ``DataError`` naming the array and its dtype. So is a profile
    sample that is not finite, naming its [sweep, column, bin], and stamps
    that are not 1-D, finite and strictly increasing.
    """

    profiles: np.ndarray
    pair_table: tuple[tuple[int, int], ...]
    f_s_ft: float
    slow_time: np.ndarray

    def __post_init__(self) -> None:
        self.profiles = np.asarray(self.profiles)
        for name, kinds, what in (("profiles", "biufc", "bool, int, float or complex"),
                                  ("slow_time", "iuf", "int or float")):
            if (dtype := np.asarray(getattr(self, name)).dtype).kind not in kinds:
                raise DataError(f"{name} must be {what}, got dtype {dtype}")
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
        check_finite(self.profiles, "profiles")


def convert_recording(raw: RawRecording, cfg: RadarConfig) -> MeasurementCube:
    """Down-convert each pair column straight into its virtual channel
    m = tx * m_r + rx of one cube. A pair outside the array (the first in
    column order), then a missing pair (the first in tx-major order), is a
    ``DataError`` raised before any pair is down-converted."""
    for pair in raw.pair_table:
        if not (0 <= pair[0] < cfg.m_t and 0 <= pair[1] < cfg.m_r):
            raise DataError(f"pair {pair} outside the {cfg.m_t} x {cfg.m_r} array")
    for tx, rx in np.ndindex(cfg.m_t, cfg.m_r):
        if (tx, rx) not in raw.pair_table:
            raise DataError(f"missing signal for antenna pair (tx={tx}, rx={rx})")
    samples = np.empty((len(raw.profiles), cfg.k, cfg.m_t * cfg.m_r), np.complex128)
    for column, (tx, rx) in zip(raw.profiles.swapaxes(0, 1), raw.pair_table):
        samples[..., tx * cfg.m_r + rx] = downconvert_decimate(column, cfg, raw.f_s_ft)
    return MeasurementCube(samples, raw.slow_time, cfg)


# the files of the raw layout that read_raw_dir loads: metadata, then the arrays
RAW_FILES = ("raw.kv", "profiles.npy", "slow_time.npy")


def read_raw_dir(path: str | os.PathLike) -> tuple[RawRecording, RadarConfig]:
    """Load the on-disk raw layout: ``raw.kv`` metadata plus npy payloads.

    ``raw.kv`` carries the radar config keys (``core.radar_config_from_entries``),
    ``f_s_ft``, the pair table (``pair.<i>.tx`` / ``pair.<i>.rx``, i = 0,
    1, ... without gaps) and, unread, the dataset metadata keys ``id``,
    ``obstacle`` and ``meta.*``; any other key is a ``ConfigError`` naming
    it. ``profiles.npy`` and ``slow_time.npy`` hold the arrays; one that
    cannot be loaded is a ``DataError`` naming its file.
    """
    root = Path(path)
    try:
        meta = read_kv(root / RAW_FILES[0])
    except OSError as exc:
        raise DataError(f"{root}: cannot read {RAW_FILES[0]}: {exc}") from exc
    cfg = radar_config_from_entries(meta)
    f_s_ft = parse_config_value("f_s_ft", meta.pop("f_s_ft", None), float)
    pairs = []
    while (tx := f"pair.{len(pairs)}.tx") in meta:
        rx = f"pair.{len(pairs)}.rx"
        pairs.append(tuple(parse_config_value(key, meta.pop(key, None), int) for key in (tx, rx)))
    take_metadata(meta)
    reject_unknown(meta, "raw.kv")
    if not pairs:
        raise DataError(f"{root}: raw.kv names no antenna pairs")
    arrays = []
    for name in RAW_FILES[1:]:
        try:
            arrays.append(np.load(root / name))
        except (OSError, ValueError, EOFError) as exc:
            raise DataError(f"{root}: cannot load raw arrays: {name}: {exc}") from exc
    try:
        raw = RawRecording(arrays[0], tuple(pairs), f_s_ft, arrays[1])
    except DataError as exc:
        raise DataError(f"{root}: {exc}") from exc
    check_f_st(raw.slow_time, cfg.f_st, root)
    return raw, cfg


def write_raw_dir(path: str | os.PathLike, raw: RawRecording, cfg: RadarConfig) -> None:
    """Write the layout ``read_raw_dir`` loads. Stamps that contradict
    ``cfg.f_st``, as the reader checks it, are a ``DataError`` raised before
    anything is created or written."""
    root = Path(path)
    check_f_st(raw.slow_time, cfg.f_st, root)
    root.mkdir(parents=True, exist_ok=True)
    meta = config_to_entries(cfg)
    meta["f_s_ft"] = repr(float(raw.f_s_ft))
    for i, (tx, rx) in enumerate(raw.pair_table):
        meta[f"pair.{i}.tx"] = str(tx)
        meta[f"pair.{i}.rx"] = str(rx)
    (root / RAW_FILES[0]).write_text(format_kv(meta), encoding="utf-8")
    for name, array in zip(RAW_FILES[1:], (raw.profiles, raw.slow_time)):
        np.save(root / name, array)
