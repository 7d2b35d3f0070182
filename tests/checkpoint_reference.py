"""A version-1 checkpoint written by hand from the layout in the
`iakrec.checkpoint` docstring, with no check of its blocks: tests use it to
build files that `save_checkpoint` would not write, such as one that stores
a name twice."""

from __future__ import annotations

import struct

import numpy as np

from iakrec.checkpoint import MAGIC, VERSION


def checkpoint_bytes(blocks: list[tuple[str, np.ndarray]], config_digest: str = "") -> bytes:
    """The file holding one block per (name, array), in order."""
    digest = config_digest.encode()
    blob = MAGIC + struct.pack("<IH", VERSION, len(digest)) + digest + struct.pack("<I", len(blocks))
    for name, arr in blocks:
        arr, raw = np.asarray(arr, dtype="<f8"), name.encode()
        blob += struct.pack("<H", len(raw)) + raw + struct.pack("<B", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}Q", *arr.shape) + arr.tobytes()
    return blob
