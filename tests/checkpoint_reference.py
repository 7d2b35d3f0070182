"""Checkpoint files written by hand from the layouts in the
`iakrec.checkpoint` docstring, with no check of their blocks: tests use it
to build files that `save_checkpoint` would not write, such as one that
stores a name twice, one with an `<i8` block where a parameter belongs, or
a file of the older version 1, which the loader rejects."""

from __future__ import annotations

import struct

import numpy as np

from iakrec.checkpoint import MAGIC, VERSION


def checkpoint_bytes(blocks: list[tuple[str, np.ndarray]], config_digest: str = "", version: int = VERSION) -> bytes:
    """The file holding one block per (name, array), in order. Version 2
    stores an integer array as `<i8` and any other as `<f8`, each block's
    data 8-byte aligned; version 1 stores every array as `<f8`, unpadded."""
    digest = config_digest.encode()
    blob = MAGIC + struct.pack("<IH", version, len(digest)) + digest + struct.pack("<I", len(blocks))
    for name, arr in blocks:
        arr, raw = np.asarray(arr), name.encode()
        dtype = "<i8" if version == 2 and arr.dtype.kind == "i" else "<f8"
        arr = np.asarray(arr, dtype=dtype)
        blob += struct.pack("<H", len(raw)) + raw
        if version == 2:
            blob += dtype.encode()
        blob += struct.pack("<B", arr.ndim) + struct.pack(f"<{arr.ndim}Q", *arr.shape)
        if version == 2:
            blob += bytes(-len(blob) % 8)
        blob += arr.tobytes()
    return blob
