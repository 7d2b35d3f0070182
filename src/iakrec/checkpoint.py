"""Versioned binary checkpoint container.

Layout (all integers little-endian):
    magic           8 bytes  b"RECCKPT1"
    version         u32
    digest_len      u16      followed by that many ascii bytes (config digest)
    n_params        u32
    per parameter:
        name_len    u16      followed by utf-8 name
        ndim        u8
        dims        ndim x u64
        data        prod(dims) x f64 little-endian

Round-trips are bit-exact: raw float64 bytes are stored untouched. A save
writes a temporary file beside the target and renames it into place, so an
interrupted save never leaves a partial file under the target name.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

MAGIC = b"RECCKPT1"
VERSION = 1


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint file."""


def save_checkpoint(path: str | Path, params: dict[str, np.ndarray], config_digest: str = "") -> None:
    path = Path(path)
    digest = config_digest.encode("ascii")
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", VERSION))
            f.write(struct.pack("<H", len(digest)))
            f.write(digest)
            f.write(struct.pack("<I", len(params)))
            for name, arr in params.items():
                name_b = name.encode("utf-8")
                # ascontiguousarray would promote 0-d arrays to 1-d; asarray keeps rank
                arr = np.asarray(arr, dtype="<f8", order="C")
                f.write(struct.pack("<H", len(name_b)))
                f.write(name_b)
                f.write(struct.pack("<B", arr.ndim))
                for d in arr.shape:
                    f.write(struct.pack("<Q", d))
                f.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], str]:
    """Returns (named parameter arrays, stored config digest). Any malformed
    or truncated file raises CheckpointError."""
    blob = Path(path).read_bytes()
    try:
        return _parse(blob, path)
    except CheckpointError:
        raise
    except (struct.error, ValueError) as e:  # truncated fields, short data, bad text
        raise CheckpointError(f"{path}: truncated or corrupt checkpoint ({e})") from e


def _parse(blob: bytes, path) -> tuple[dict[str, np.ndarray], str]:
    if blob[:8] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    off = 8
    (version,) = struct.unpack_from("<I", blob, off)
    off += 4
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (dlen,) = struct.unpack_from("<H", blob, off)
    off += 2
    digest = blob[off : off + dlen].decode("ascii")
    off += dlen
    (n_params,) = struct.unpack_from("<I", blob, off)
    off += 4
    params: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        (nlen,) = struct.unpack_from("<H", blob, off)
        off += 2
        name = blob[off : off + nlen].decode("utf-8")
        off += nlen
        (ndim,) = struct.unpack_from("<B", blob, off)
        off += 1
        dims = struct.unpack_from(f"<{ndim}Q", blob, off) if ndim else ()
        off += 8 * ndim
        count = math.prod(dims)
        data = np.frombuffer(blob, dtype="<f8", count=count, offset=off).copy()
        off += 8 * count
        params[name] = data.reshape(dims)
    if off != len(blob):
        raise CheckpointError(f"{path}: trailing bytes after last parameter block")
    return params, digest
