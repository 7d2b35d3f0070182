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
goes through `write_atomic`, so an interrupted save never leaves a partial
file under the target name.

A load maps the file read-only instead of reading it, so each byte is
touched once, by the copy `restore` makes. A file that cannot be mapped (an
empty file, a character device such as /dev/null) is read into memory and
parsed the same way. Because every save replaces the file by a rename, a
mapped old file is never changed under a reader; a file truncated in place
by another process while its arrays are alive is not supported.
"""

from __future__ import annotations

import math
import mmap
import os
import secrets
import struct
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

MAGIC = b"RECCKPT1"
VERSION = 1


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint file."""


def write_atomic(path: str | Path, write: Callable[[BinaryIO], object]) -> None:
    """Write `path` through `write(f)` into a new temporary file beside it,
    then rename that into place: a reader never sees a partial file, and a
    failed write removes the temporary file and re-raises. The file gets the
    mode `open(path, "wb")` would give it, 0o666 less the umask."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    # O_BINARY (Windows only) keeps the bytes untranslated, as mkstemp does
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_checkpoint(path: str | Path, params: dict[str, np.ndarray], config_digest: str = "") -> None:
    digest = config_digest.encode("ascii")

    def write(f: BinaryIO) -> None:
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
            # the C-contiguous array's own buffer: the bytes of `tobytes`, uncopied
            f.write(arr)

    write_atomic(path, write)


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], str]:
    """Returns (named parameter arrays, stored config digest). The arrays are
    read-only views of the file's bytes, possibly unaligned: `restore` makes
    the one writable float64 copy. The views hold a read-only mapping of the
    file, which lives as long as any of them is referenced; a file that
    cannot be mapped is read whole instead. Any malformed or truncated file
    (a repeated parameter name included) raises CheckpointError."""
    with open(path, "rb") as f:
        try:
            blob = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):  # an empty file, or one mmap refuses
            blob = f.read()
    try:
        return _parse(blob, path)
    except CheckpointError:
        raise
    except (struct.error, ValueError) as e:  # truncated fields, short data, bad text
        raise CheckpointError(f"{path}: truncated or corrupt checkpoint ({e})") from e


def _parse(blob: bytes | mmap.mmap, path) -> tuple[dict[str, np.ndarray], str]:
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
        if name in params:
            raise CheckpointError(f"{path}: parameter {name!r} is stored twice")
        (ndim,) = struct.unpack_from("<B", blob, off)
        off += 1
        dims = struct.unpack_from(f"<{ndim}Q", blob, off) if ndim else ()
        off += 8 * ndim
        count = math.prod(dims)
        data = np.frombuffer(blob, dtype="<f8", count=count, offset=off)
        off += 8 * count
        params[name] = data.reshape(dims)
    if off != len(blob):
        raise CheckpointError(f"{path}: trailing bytes after last parameter block")
    return params, digest
