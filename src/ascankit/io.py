"""File formats and configuration.

Volumes live as a two-file pair: a text header (``key: value`` lines, ``#``
comments) next to a raw little-endian binary block.  Images are 16-bit
binary PGM with a text sidecar recording the normalization bounds.  Tables
are plain CSV with a header row.  Floats are serialized with ``repr`` so a
write/read cycle and a repeated run are byte-identical.

All writers go through a temp-file-then-rename step, so an interrupted run
never leaves a truncated artifact behind.
"""

from __future__ import annotations

import csv
import errno
import io as _stdio
import math
import os
import tempfile
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .model import DataError, EnvelopeImage, RoiSpec, Volume

__all__ = [
    "VOLUME_MAGIC",
    "PipelineConfig",
    "atomic_write_bytes",
    "atomic_write_text",
    "format_kv",
    "parse_kv",
    "read_volume",
    "write_volume",
    "write_image",
    "write_csv",
    "format_csv",
    "read_config",
    "config_from_strings",
    "config_to_strings",
    "parse_roi",
    "require_field",
    "int_field",
    "float_field",
]

VOLUME_MAGIC = "PAVOL1"

_DTYPES = {"f64le": np.dtype("<f8"), "f32le": np.dtype("<f4")}
_LAYOUT = "x-major, y, t-fastest"
_BYTE_ORDER = "little-endian"


# ---------------------------------------------------------------------------
# atomic writes


def _check_file_path(path: str) -> None:
    """Refuse a ``path`` that cannot name a file: empty, ending in a separator,
    or an existing directory.  Called before anything is written, so that a
    refused path leaves nothing behind, not even a temp file beside its parent."""
    if not os.path.basename(path) or os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, "output names a directory, not a file", path)


def atomic_write_bytes(path: str, data: Union[bytes, memoryview]) -> None:
    _check_file_path(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        mask = os.umask(0)
        os.umask(mask)
        os.chmod(tmp, 0o666 & ~mask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _read(path: str, what: str, binary: bool = False) -> Union[str, bytes]:
    """The contents of the ``what`` file at ``path``, as UTF-8 text unless
    ``binary``.  A missing file, a NUL in the path and text that is not
    UTF-8 each raise an error that names the path."""
    try:
        with open(path, "rb" if binary else "r", encoding=None if binary else "utf-8") as handle:
            return handle.read()
    except FileNotFoundError:
        raise FileNotFoundError(f"{what} not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {what} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    except ValueError as exc:  # a path with a NUL in it, which open() refuses
        raise DataError(f"{what} path {path!r}: {exc}") from None


# ---------------------------------------------------------------------------
# key: value text blocks (headers, sidecars, config files)


def _is_single_line(text: str) -> bool:
    # The reader splits with str.splitlines(), which breaks on \r, \v, \f,
    # NEL, and the unicode separators as well as \n; the writer must refuse
    # everything the reader would treat as a line boundary.
    return len(f"x{text}x".splitlines()) == 1


def format_kv(pairs: Mapping[str, str]) -> str:
    lines = []
    for key, value in pairs.items():
        key = str(key)
        value = str(value)
        # parse_kv strips each value, so one that stripping would change is refused.
        if ":" in key or value != value.strip() or not _is_single_line(key + value):
            raise DataError(f"key/value not representable: {key!r}: {value!r}")
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def parse_kv(text: str, source: str = "<string>") -> Dict[str, str]:
    pairs: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise DataError(f"{source}:{lineno}: expected 'key: value', got {raw!r}")
        key = key.strip()
        if not key:
            raise DataError(f"{source}:{lineno}: empty key")
        if key in pairs:
            raise DataError(f"{source}:{lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


def require_field(pairs: Mapping[str, str], key: str, source: str) -> str:
    if key not in pairs:
        raise DataError(f"{source}: missing required field {key!r}")
    return pairs[key]


def _parse_int(text: str, key: str, source: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DataError(f"{source}: field {key!r} is not an integer: {text!r}") from None


def _parse_float(text: str, key: str, source: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataError(f"{source}: field {key!r} is not a number: {text!r}") from None


def int_field(pairs: Mapping[str, str], key: str, source: str) -> int:
    return _parse_int(require_field(pairs, key, source), key, source)


def float_field(pairs: Mapping[str, str], key: str, source: str) -> float:
    return _parse_float(require_field(pairs, key, source), key, source)


# ---------------------------------------------------------------------------
# volumes


def _data_path(header_path: str, basename: str) -> str:
    return os.path.join(os.path.dirname(os.path.abspath(header_path)), basename)


def _encoded(volume: Volume, dtype: str) -> np.ndarray:
    """``volume``'s samples in ``dtype``; an error names the first that overflows it."""
    if dtype not in _DTYPES:
        raise DataError(f"unknown dtype {dtype!r}; expected one of {sorted(_DTYPES)}")
    with np.errstate(over="ignore"):
        samples = np.ascontiguousarray(volume.data, dtype=_DTYPES[dtype])
    overflow = ~np.isfinite(samples)
    if overflow.any():
        flat = int(np.flatnonzero(overflow)[0])
        x, rem = divmod(flat, volume.ny * volume.nt)
        y, t = divmod(rem, volume.nt)
        raise DataError(
            f"volume sample at (x={x}, y={y}, t={t}) = {float(volume.data[flat])!r} "
            f"overflows {dtype}"
        )
    return samples


def write_volume(
    volume: Volume,
    path: str,
    dtype: str = "f64le",
    provenance: Optional[str] = None,
) -> None:
    """Write ``volume`` as a text header at ``path`` plus ``path + '.bin'``."""
    samples = _encoded(volume, dtype)
    data_name = os.path.basename(path) + ".bin"
    pairs = {
        "magic": VOLUME_MAGIC,
        "nx": str(volume.nx),
        "ny": str(volume.ny),
        "nt": str(volume.nt),
        "dt": repr(volume.dt),
        "dtype": dtype,
        "byte_order": _BYTE_ORDER,
        "layout": _LAYOUT,
        "data": data_name,
    }
    if provenance is not None:
        pairs["provenance"] = provenance
    header = format_kv(pairs)
    _check_file_path(path)  # the header's, before the payload is written
    atomic_write_bytes(path + ".bin", samples.data)
    atomic_write_text(path, header)


def read_volume(path: str) -> Volume:
    """Read a header/data pair back into a Volume (samples promoted to f64)."""
    pairs = parse_kv(_read(path, "volume header"), source=path)
    magic = require_field(pairs, "magic", path)
    if magic != VOLUME_MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}; expected {VOLUME_MAGIC!r}")
    nx, ny, nt = (int_field(pairs, key, path) for key in ("nx", "ny", "nt"))
    dt = float_field(pairs, "dt", path)
    dtype = require_field(pairs, "dtype", path)
    if dtype not in _DTYPES:
        raise DataError(f"{path}: unknown dtype {dtype!r}; expected one of {sorted(_DTYPES)}")
    byte_order = pairs.get("byte_order", _BYTE_ORDER)
    if byte_order != _BYTE_ORDER:
        raise DataError(f"{path}: unsupported byte_order {byte_order!r}")
    layout = pairs.get("layout", _LAYOUT)
    if layout != _LAYOUT:
        raise DataError(f"{path}: unsupported layout {layout!r}")
    data_file = _data_path(path, require_field(pairs, "data", path))
    raw = _read(data_file, "volume data", binary=True)
    item = _DTYPES[dtype].itemsize
    expected = nx * ny * nt * item
    if len(raw) != expected:
        raise DataError(
            f"{data_file}: has {len(raw)} bytes but header {path} requires "
            f"{nx}*{ny}*{nt}*{item} = {expected}"
        )
    # An f64 payload backs the Volume as read, and an f32 one its cast; the
    # Volume constructor checks either.
    data = np.frombuffer(raw, dtype=_DTYPES[dtype])
    if data.dtype != np.float64:
        data = data.astype(np.float64)
        data.setflags(write=False)
    return Volume(nx=nx, ny=ny, nt=nt, dt=dt, data=data)


# ---------------------------------------------------------------------------
# images


def write_image(image: EnvelopeImage, path: str) -> None:
    """Write a 16-bit binary PGM plus a ``path + '.meta'`` sidecar.

    Pixels are min-max normalized to [0, 65535]; a constant image maps to
    uniform mid-gray and the sidecar flags it as degenerate so the caller
    knows the bounds carry no information.
    """
    pixels = image.pixels
    lo = float(pixels.min())
    hi = float(pixels.max())
    degenerate = hi == lo
    if degenerate:
        scaled = np.full(pixels.shape, 32768, dtype=np.uint16)
    else:
        scaled = np.rint((pixels - lo) * (65535.0 / (hi - lo)))
        scaled = np.clip(scaled, 0, 65535).astype(np.uint16)
    rows = scaled.T  # row-major image: ny rows of nx columns
    header = f"P5\n{image.nx} {image.ny}\n65535\n".encode("ascii")
    atomic_write_bytes(path, header + rows.astype(">u2").tobytes())
    meta = {
        "min": repr(lo),
        "max": repr(hi),
        "maxval": "65535",
        "rows": str(image.ny),
        "cols": str(image.nx),
        "degenerate": "true" if degenerate else "false",
    }
    try:
        atomic_write_text(path + ".meta", format_kv(meta))
    except OSError:  # e.g. a sidecar name too long: no image is left without one
        os.unlink(path)
        raise


# ---------------------------------------------------------------------------
# CSV tables


def _format_cell(value: object) -> str:
    if type(value) is float:  # exact types first, the common cells; a bool is neither
        return repr(value)
    if type(value) is int:
        return str(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if bool(value) else "false"
    if isinstance(value, (float, np.floating)):
        # float(...) first: np.float64 subclasses float but reprs differently.
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def format_csv(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buffer = _stdio.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        if len(row) != len(header):
            raise DataError(
                f"row has {len(row)} cells but header has {len(header)}"
            )
        writer.writerow([_format_cell(cell) for cell in row])
    return buffer.getvalue()


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    atomic_write_text(path, format_csv(header, rows))


# ---------------------------------------------------------------------------
# pipeline configuration


def parse_roi(text: str) -> RoiSpec:
    """Parse ``"t_lo:t_hi"`` into a RoiSpec."""
    lo, sep, hi = text.partition(":")
    if not sep:
        raise DataError(f"roi {text!r} is not 't_lo:t_hi'")
    try:
        t_lo, t_hi = int(lo), int(hi)
    except ValueError:
        raise DataError(f"roi {text!r} has a non-integer bound; bounds must be integers") from None
    return RoiSpec(t_lo, t_hi)


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs shared by the CLI subcommands.

    ``q`` and ``noise_window`` accept the string ``"auto"``; auto q runs the
    candidate-grid selection first (which requires ``roi``), and auto
    noise_window picks 5% of the trace length (at least 16 samples).
    """

    q: Union[float, str] = "auto"
    noise_window: Union[int, str] = "auto"
    roi: Optional[RoiSpec] = None
    q_grid: Optional[Tuple[float, ...]] = None
    n_sample: int = 32
    seed: int = 0
    lp_cutoff_hz: float = 5e6
    background_path: Optional[str] = None

    def __post_init__(self) -> None:
        if isinstance(self.q, str):
            if self.q != "auto":
                raise DataError(f"q must be a positive number or 'auto', got {self.q!r}")
        else:
            q = float(self.q)
            if not (math.isfinite(q) and q > 0):
                raise DataError(f"q must be a positive number or 'auto', got {self.q!r}")
            object.__setattr__(self, "q", q)
        window = self.noise_window
        if window != "auto" and not (isinstance(window, int) and window >= 1):
            raise DataError(f"noise_window must be a positive integer or 'auto', got {window!r}")
        if self.q_grid is not None:
            grid = tuple(float(v) for v in self.q_grid)
            if not grid:
                raise DataError("q_grid must be non-empty when given")
            for v in grid:
                if not (math.isfinite(v) and v > 0):
                    raise DataError(f"q_grid values must be finite and positive, got {v!r}")
            object.__setattr__(self, "q_grid", grid)
        if not isinstance(self.n_sample, int) or self.n_sample < 1:
            raise DataError(f"n_sample must be a positive integer, got {self.n_sample!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise DataError(f"seed must be a non-negative integer, got {self.seed!r}")
        cutoff = float(self.lp_cutoff_hz)
        if not (math.isfinite(cutoff) and cutoff > 0):
            raise DataError(f"lp_cutoff_hz must be finite and positive, got {self.lp_cutoff_hz!r}")
        object.__setattr__(self, "lp_cutoff_hz", cutoff)


_CONFIG_KEYS = {field.name for field in fields(PipelineConfig)}


def read_config(path: str) -> PipelineConfig:
    """Load a PipelineConfig from a flat key-value file."""
    pairs = parse_kv(_read(path, "config file"), source=path)
    unknown = sorted(set(pairs) - _CONFIG_KEYS)
    if unknown:
        raise DataError(f"{path}: unknown config keys {unknown}")
    return config_from_strings(pairs, source=path)


def config_from_strings(
    pairs: Mapping[str, str],
    source: str = "<config>",
    base: Optional[PipelineConfig] = None,
) -> PipelineConfig:
    """Build (or override) a config from string-valued settings.

    Every error names ``source``, the file or the command line the settings
    came from.
    """
    config = base if base is not None else PipelineConfig()
    updates: Dict[str, object] = {}
    for key, text in pairs.items():
        if key == "q":
            updates["q"] = text if text == "auto" else _parse_float(text, "q", source)
        elif key == "noise_window":
            updates["noise_window"] = (
                text if text == "auto" else _parse_int(text, "noise_window", source)
            )
        elif key == "roi":
            try:
                updates["roi"] = parse_roi(text)
            except DataError as exc:
                raise DataError(f"{source}: {exc}") from None
        elif key == "q_grid":
            # An empty value means "derive the grid from the data", matching
            # the writer, which records an auto grid as an empty field.
            parts = [p for p in (s.strip() for s in text.split(",")) if p]
            try:
                updates["q_grid"] = tuple(float(p) for p in parts) or None
            except ValueError:
                raise DataError(f"{source}: q_grid has a non-numeric value: {text!r}") from None
        elif key in ("n_sample", "seed"):
            updates[key] = _parse_int(text, key, source)
        elif key == "lp_cutoff_hz":
            updates["lp_cutoff_hz"] = _parse_float(text, "lp_cutoff_hz", source)
        elif key == "background_path":
            updates["background_path"] = text or None
        else:
            raise DataError(f"{source}: unknown config key {key!r}")
    try:
        return replace(config, **updates)
    except DataError as exc:
        raise DataError(f"{source}: {exc}") from None


def config_to_strings(config: PipelineConfig) -> Dict[str, str]:
    """The inverse of ``config_from_strings``: each field in its text form.

    An unset roi is left out, since no text parses back to it; an unset grid
    or background path is written as an empty field.
    """
    pairs = {
        "q": "auto" if config.q == "auto" else repr(config.q),
        "noise_window": str(config.noise_window),
    }
    if config.roi is not None:
        pairs["roi"] = f"{config.roi.t_lo}:{config.roi.t_hi}"
    pairs.update(
        q_grid="" if config.q_grid is None else ",".join(repr(g) for g in config.q_grid),
        n_sample=str(config.n_sample),
        seed=str(config.seed),
        lp_cutoff_hz=repr(config.lp_cutoff_hz),
        background_path=config.background_path or "",
    )
    return pairs
