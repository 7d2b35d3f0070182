import os
import struct

import numpy as np
import pytest

from iakrec.checkpoint import MAGIC, VERSION, CheckpointError, load_checkpoint, save_checkpoint
from iakrec.iak import IAKAdapter, IAKConfig
from iakrec.models import FeatureSpace, ModelConfig, build_model
from iakrec.router import adapters_from_arrays


def _params():
    rng = np.random.default_rng(0)
    return {"a.w": rng.normal(size=(3, 2)), "b": np.array(1.5), "c.rows": rng.normal(size=4)}


def test_truncation_at_every_offset_raises_checkpoint_error(tmp_path):
    path = tmp_path / "full.ckpt"
    save_checkpoint(path, _params(), "digest")
    blob = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(CheckpointError):
            load_checkpoint(cut)
    arrays, digest = load_checkpoint(path)
    assert digest == "digest"
    assert all(arrays[k].tobytes() == np.asarray(v).tobytes() for k, v in _params().items())


def test_each_payload_is_the_bytes_tobytes_gives(tmp_path):
    """The file is the layout of the module docstring, each array's data the
    `tobytes` of its little-endian C-order float64 form: a 0-d array, an
    empty one, a transposed (not C-contiguous) one, float32 and big-endian
    inputs."""
    rng = np.random.default_rng(1)
    params = {"scalar": np.array(2.5), "empty": np.empty((0, 3)), "t": rng.normal(size=(3, 4)).T,
              "f32": rng.normal(size=5).astype(np.float32), "be": rng.normal(size=(2, 2)).astype(">f8")}
    save_checkpoint(tmp_path / "m.ckpt", params, "dg")
    want = MAGIC + struct.pack("<IH", VERSION, 2) + b"dg" + struct.pack("<I", len(params))
    for name, arr in params.items():
        arr = np.asarray(arr, dtype="<f8", order="C")
        want += struct.pack("<H", len(name)) + name.encode() + struct.pack("<B", arr.ndim)
        want += struct.pack(f"<{arr.ndim}Q", *arr.shape) + arr.tobytes()
    assert (tmp_path / "m.ckpt").read_bytes() == want


def test_failed_save_keeps_the_old_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _params(), "old")
    before = path.read_bytes()

    class Unsaveable:
        def __array__(self, dtype=None, copy=None):
            raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        save_checkpoint(path, {**_params(), "z": Unsaveable()}, "new")
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]


def test_loaded_arrays_are_read_only_and_restore_makes_the_one_copy(tmp_path):
    """A loaded array is a read-only view of the file's bytes; a restored
    backbone or adapter parameter owns writable, aligned float64 data."""
    space = FeatureSpace(n_users=9, n_items=7, n_scenes=2, n_regions=2, n_periods=3)
    model_cfg, iak_cfg = ModelConfig(kind="base", hidden_sizes=(6, 3)), IAKConfig(d_e=3, decoder_hidden=(4,))
    model = build_model(model_cfg, space, seed=0)
    adapter = IAKAdapter(model.rep_dim, model.n_heads, iak_cfg, {"period": 1}, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {**model.named_parameters(), **adapter.named_parameters()}, "odd")  # odd offsets
    arrays, _ = load_checkpoint(path)
    for arr in arrays.values():
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    clone = build_model(model_cfg, space, seed=None)
    clone.restore({k: v for k, v in arrays.items() if not k.startswith("adapter/")})
    (restored,) = adapters_from_arrays(arrays, clone.rep_dim, clone.n_heads, iak_cfg).values()
    params = clone.parameters() + restored.parameters()
    assert len(params) == len(arrays)
    for p in params:
        flags = p.data.flags
        assert p.data.dtype == np.float64 and flags.owndata and flags.writeable and flags.aligned, p.name
        assert p.data.tobytes() == arrays[p.name].tobytes()
