import os
import struct
import tracemalloc

import numpy as np
import pytest

from iakrec.checkpoint import MAGIC, VERSION, CheckpointError, load_checkpoint, save_checkpoint
from iakrec.iak import IAKAdapter, IAKConfig
from iakrec.models import FeatureSpace, ModelConfig, build_model
from iakrec.router import adapters_from_arrays

from checkpoint_reference import checkpoint_bytes


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


def test_a_parameter_stored_twice_is_rejected_by_name(tmp_path):
    path = tmp_path / "twice.ckpt"
    path.write_bytes(checkpoint_bytes([("a", [1.0]), ("b", [3.0])]))
    assert sorted(load_checkpoint(path)[0]) == ["a", "b"]
    path.write_bytes(checkpoint_bytes([("a", [1.0]), ("b", [3.0]), ("a", [2.0])]))
    with pytest.raises(CheckpointError, match="'a' is stored twice"):
        load_checkpoint(path)


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
def test_the_null_device_raises_checkpoint_error():
    """The null device cannot be mapped, so it is read and parsed like any
    other file. (An empty file and a file of only the magic, which also
    cannot be mapped or hold no header, are offsets 0 and 8 of the
    truncation test.)"""
    with pytest.raises(CheckpointError):
        load_checkpoint(os.devnull)


def test_loaded_arrays_survive_a_save_over_their_file(tmp_path):
    """A save replaces the file by a rename, so arrays mapped from the old
    file keep its values while the new file holds the new ones."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _params(), "old")
    arrays, _ = load_checkpoint(path)
    new = {k: np.asarray(v) + 1.0 for k, v in _params().items()}
    save_checkpoint(path, new, "new")
    for name, want in _params().items():
        assert arrays[name].tobytes() == np.asarray(want).tobytes(), name
    reloaded, digest = load_checkpoint(path)
    assert digest == "new" and all(reloaded[k].tobytes() == v.tobytes() for k, v in new.items())


def _traced_peak(fn):
    """(fn(), the peak of the memory traced while it ran)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_load_allocates_no_payload_a_blank_build_no_table_and_a_restore_one_copy(tmp_path):
    """Loading maps the file, a seed=None build holds read-only zero views,
    and the restore is the one place a table is allocated: once."""
    space = FeatureSpace(n_users=200_000, n_items=500, n_scenes=2, n_regions=3, n_periods=3)
    cfg = ModelConfig(kind="base")
    path = tmp_path / "big.ckpt"
    save_checkpoint(path, build_model(cfg, space, seed=1).named_parameters())
    size = path.stat().st_size
    (arrays, _), load_peak = _traced_peak(lambda: load_checkpoint(path))
    assert load_peak < size / 100
    blank, build_peak = _traced_peak(lambda: build_model(cfg, space, seed=None))
    table = blank.embeddings.rows[0].data
    assert table.nbytes > size / 2 and build_peak < table.nbytes / 4
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1.0
    _, restore_peak = _traced_peak(lambda: blank.restore(arrays))
    payload = sum(a.nbytes for a in arrays.values())
    assert payload <= restore_peak < 1.25 * payload
    assert blank.embeddings.rows[0].data.tobytes() == arrays["user_emb.rows"].tobytes()
