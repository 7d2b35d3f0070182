"""Versioned binary container of named arrays: the model checkpoints, and the
column sidecar of a dataset (`datagen.sidecar_path`).

Layout of version 2, the only one written or read (all integers little-endian):
    magic           8 bytes  b"RECCKPT1"
    version         u32      2
    digest_len      u16      followed by that many ascii bytes (the digest field:
                             a config digest, or a sidecar's key)
    n_params        u32
    per block:
        name_len    u16      followed by utf-8 name
        dtype       3 bytes  b"<f8" (float64) or b"<i8" (int64)
        ndim        u8
        dims        ndim x u64
        padding     zero bytes up to the next multiple of 8 from the file start
        data        prod(dims) x 8 bytes of that dtype, little-endian

Round-trips are bit-exact: the raw bytes are stored untouched. An integer
array is stored as `<i8`, and any other array as `<f8`. A save goes through
`write_atomic`, so an interrupted save never leaves a partial file under the
target name.

A load maps the file read-only instead of reading it. A model's `restore`
keeps its embedding table, nearly all of a checkpoint's bytes, as the
mapped block itself (read by its checks and lookups, never copied) and
copies only the small arrays. A file that cannot be mapped (an
empty file, a character device such as /dev/null) is read into memory and
parsed the same way. Because every save replaces the file by a rename, a
mapped old file is never changed under a reader; a file truncated in place
by another process while its arrays are alive is not supported. The
container holds no checksum: a reader that needs one keeps it in the digest
field (as the sidecar does).
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
VERSION = 2
DTYPES = ("<f8", "<i8")  # the block dtypes


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
    """Write `params` as a version-2 file (see the module docstring), with
    `config_digest` in its digest field."""
    digest = config_digest.encode("ascii")

    def write(f: BinaryIO) -> None:
        head = bytearray(MAGIC + struct.pack("<IH", VERSION, len(digest)) + digest + struct.pack("<I", len(params)))
        for name, arr in params.items():
            name_b = name.encode("utf-8")
            arr = np.asarray(arr)
            # ascontiguousarray would promote 0-d arrays to 1-d; asarray keeps rank
            arr = np.asarray(arr, dtype="<i8" if arr.dtype.kind == "i" else "<f8", order="C")
            head += struct.pack("<H", len(name_b)) + name_b + arr.dtype.str.encode("ascii")
            head += struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape)
            # `head` starts 8-aligned (at the file start or after 8-byte data), so
            # this pads the data to an 8-aligned file offset
            head += bytes(-len(head) % 8)
            f.write(head)
            # the C-contiguous array's own buffer: the bytes of `tobytes`, uncopied
            f.write(arr)
            head = bytearray()

    write_atomic(path, write)


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], str]:
    """Returns (named arrays, stored digest field). The arrays are read-only
    views of the file's bytes, `<f8` or `<i8`. The views hold a read-only
    mapping of the file, which lives as long as any of them is referenced (a
    restored model's table is one); a file that cannot be mapped is read
    whole instead. Any malformed or truncated file (a repeated parameter
    name, an unknown dtype and any version but 2 included, the unpadded
    version 1 of older releases too) raises CheckpointError."""
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
        dtype = blob[off : off + 3].decode("ascii")
        off += 3
        if dtype not in DTYPES:
            raise CheckpointError(f"{path}: block {name!r} has unknown dtype {dtype!r}")
        (ndim,) = struct.unpack_from("<B", blob, off)
        off += 1
        dims = struct.unpack_from(f"<{ndim}Q", blob, off) if ndim else ()
        off += 8 * ndim
        off += -off % 8
        count = math.prod(dims)
        if 8 * count > len(blob) - off:  # also keeps a damaged dim from overflowing frombuffer
            raise CheckpointError(f"{path}: truncated or corrupt checkpoint (block {name!r} runs past the end)")
        data = np.frombuffer(blob, dtype=dtype, count=count, offset=off)
        off += 8 * count
        params[name] = data.reshape(dims)
    if off != len(blob):
        raise CheckpointError(f"{path}: trailing bytes after last parameter block")
    return params, digest
