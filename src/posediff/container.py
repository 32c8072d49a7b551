"""Named-tensor container (`.ptc`): one format for datasets, checkpoints,
prompt embeddings, and predictions.

Layout: 4-byte magic ``PTC1``, little-endian uint32 manifest length, UTF-8
JSON manifest, then a contiguous blob of row-major little-endian float32 or
float64 tensors. The manifest maps each name to dtype/shape/offset and can
carry an arbitrary JSON ``meta`` block.

Writing is deterministic (names sorted, compact JSON, no timestamps) and
atomic (temp file + rename), so identical inputs produce byte-identical
files and concurrent readers never observe partial writes. Reads and writes
stream each tensor between the file and its own array, so neither holds a
second copy of the tensors.
"""

from __future__ import annotations

import json
import math
import os
import uuid

import numpy as np

from .exceptions import ConfigError

__all__ = ["write_container", "read_container"]

MAGIC = b"PTC1"
FORMAT_VERSION = 1

_DTYPES = {"f4": np.dtype("<f4"), "f8": np.dtype("<f8")}


def _dtype_code(arr: np.ndarray) -> str:
    """'f4' or 'f8' for a float32/float64 array of either byte order."""
    if arr.dtype.kind == "f" and arr.dtype.itemsize in (4, 8):
        return f"f{arr.dtype.itemsize}"
    raise ConfigError(f"container holds 32/64-bit floats only, got {arr.dtype}")


def write_container(path, tensors: dict, meta: dict | None = None) -> None:
    """Write name->ndarray map plus optional JSON metadata to `path`.

    Each contiguous little-endian array's own buffer goes to the file, so the
    write holds no second copy of the tensors; other arrays (strided,
    big-endian) are converted one at a time. Every tensor keeps its shape,
    a 0-d one included.
    """
    index = {}
    arrays = []
    offset = 0
    for name in sorted(tensors):
        arr = np.asarray(tensors[name])
        code = _dtype_code(arr)
        # ascontiguousarray makes a 0-d array 1-d; the reshape undoes that
        arr = np.ascontiguousarray(arr, dtype=_DTYPES[code]).reshape(arr.shape)
        index[name] = {
            "dtype": code,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": arr.nbytes,
        }
        arrays.append(arr)
        offset += arr.nbytes

    manifest = {
        "version": FORMAT_VERSION,
        "endianness": "little",
        "layout": "row-major",
        "tensors": index,
        "meta": meta or {},
    }
    payload = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")

    path = os.fspath(path)
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    # created 0o666 so the kernel applies the umask, as for any new file
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(MAGIC)
            f.write(len(payload).to_bytes(4, "little"))
            f.write(payload)
            for arr in arrays:
                f.write(_bytes_view(arr))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_container(path, prefixes: tuple | None = None) -> tuple[dict, dict]:
    """Read a container; returns (tensors, meta). Unknown names are preserved.

    Every manifest entry is checked against the file size before anything is
    allocated; then each tensor is read straight into its own array, and must
    hold finite values only. With
    ``prefixes``, only tensors whose names start with one of them are read.
    """
    path = os.fspath(path)
    try:
        f = open(path, "rb")
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    with f:
        head = f.read(8)
        if len(head) < 8 or head[:4] != MAGIC:
            raise ConfigError(f"{path}: not a PTC container")
        man_len = int.from_bytes(head[4:8], "little")
        payload = f.read(man_len)
        if len(payload) < man_len:
            raise ConfigError(f"{path}: truncated manifest")
        try:
            manifest = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ConfigError(f"{path}: corrupt manifest: {e}") from e
        blob_start = 8 + man_len
        blob_len = os.fstat(f.fileno()).st_size - blob_start

        if not isinstance(manifest, dict) or not isinstance(manifest.get("tensors", {}), dict):
            raise ConfigError(f"{path}: manifest and its tensors must be JSON objects")
        if manifest.get("version") != FORMAT_VERSION:
            raise ConfigError(f"{path}: unknown container version {manifest.get('version')!r}")
        meta = manifest.get("meta", {})
        if not isinstance(meta, dict):
            raise ConfigError(f"{path}: manifest meta must be a JSON object")

        entries = manifest.get("tensors", {})
        for name, info in entries.items():
            _check_entry(path, name, info, blob_len)
        tensors = {}
        for name, info in entries.items():
            if prefixes is not None and not name.startswith(prefixes):
                continue
            try:
                arr = np.empty(info["shape"], dtype=_DTYPES[info["dtype"]])
            except ValueError as e:  # a zero-size shape numpy cannot index
                raise ConfigError(f"{path}: tensor {name!r}: {e}") from e
            f.seek(blob_start + info["offset"])
            if f.readinto(_bytes_view(arr)) != arr.nbytes:
                raise ConfigError(f"{path}: tensor {name!r} is truncated")
            if not np.isfinite(arr).all():
                raise ConfigError(f"{path}: tensor {name!r} holds a non-finite value")
            tensors[name] = arr
    return tensors, meta


def _check_entry(path, name, info, blob_len) -> None:
    if not _valid_entry(info):
        raise ConfigError(
            f"{path}: tensor {name!r} needs dtype (one of {sorted(_DTYPES)}), shape "
            f"(non-negative ints), offset and nbytes (ints); got {info!r}"
        )
    offset, nbytes = info["offset"], info["nbytes"]
    if offset < 0 or offset + nbytes > blob_len:
        raise ConfigError(
            f"{path}: tensor {name!r} byte range [{offset}, {offset + nbytes}) "
            f"outside blob of {blob_len} bytes"
        )
    expected = math.prod(info["shape"]) * _DTYPES[info["dtype"]].itemsize
    if expected != nbytes:
        raise ConfigError(
            f"{path}: tensor {name!r} shape {tuple(info['shape'])} needs {expected} bytes, "
            f"manifest declares {nbytes}"
        )


def _bytes_view(arr: np.ndarray) -> np.ndarray:
    """The raw bytes of a C-contiguous array, as a flat uint8 view (no copy)."""
    return arr.reshape(-1).view(np.uint8)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _valid_entry(info) -> bool:
    return (
        isinstance(info, dict)
        and isinstance(info.get("dtype"), str)
        and info["dtype"] in _DTYPES
        and isinstance(info.get("shape"), list)
        and all(_is_int(d) and d >= 0 for d in info["shape"])
        and _is_int(info.get("offset"))
        and _is_int(info.get("nbytes"))
    )
