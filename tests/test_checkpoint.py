import os
import struct
import tracemalloc

import numpy as np
import pytest

from iakrec.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from iakrec.cli import EXIT_OK, EXIT_SCHEMA, main
from iakrec.config import RunConfig
from iakrec.iak import AdapterError, IAKAdapter, IAKConfig
from iakrec.models import FeatureSpace, ModelConfig, ModelError, build_model
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
    """The file is the version-2 layout of the module docstring, written by
    hand in `checkpoint_reference`: an integer array's data is the `tobytes`
    of its little-endian C-order int64 form, any other array's that of its
    float64 form, each 8-byte aligned. Inputs: a 0-d array, an empty one, a
    transposed (not C-contiguous) one, float32, big-endian float64 and
    int64, and int32."""
    rng = np.random.default_rng(1)
    params = {"scalar": np.array(2.5), "empty": np.empty((0, 3)), "t": rng.normal(size=(3, 4)).T,
              "f32": rng.normal(size=5).astype(np.float32), "be": rng.normal(size=(2, 2)).astype(">f8"),
              "ids": np.arange(-3, 3).reshape(2, 3).astype(">i8"), "i32": np.array([7, -1], dtype=np.int32)}
    save_checkpoint(tmp_path / "m.ckpt", params, "dg")
    assert (tmp_path / "m.ckpt").read_bytes() == checkpoint_bytes(list(params.items()), "dg")
    arrays, _ = load_checkpoint(tmp_path / "m.ckpt")
    assert [arrays[k].dtype.str for k in params] == ["<f8"] * 5 + ["<i8"] * 2
    for name, arr in params.items():
        assert arrays[name].shape == arr.shape and np.array_equal(arrays[name], arr), name
        assert arrays[name].flags.aligned, name


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


def test_loaded_arrays_are_read_only_and_restore_copies_all_but_the_table(tmp_path):
    """A loaded array is a read-only view of the file's bytes. A restored
    backbone's table is its loaded block itself, still read-only; every
    other backbone or adapter parameter owns writable, aligned float64 data
    that shares no memory with the file. Every named array holds its loaded
    bytes."""
    space = FeatureSpace(n_users=9, n_items=7, n_scenes=2, n_regions=2, n_periods=3)
    model_cfg, iak_cfg = ModelConfig(kind="base", hidden_sizes=(6, 3)), IAKConfig(d_e=3, decoder_hidden=(4,))
    model = build_model(model_cfg, space, seed=0)
    adapter = IAKAdapter(model.rep_dim, model.n_heads, iak_cfg, {"period": 1}, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {**model.named_parameters(), **adapter.named_parameters()}, "odd")  # padded to 8
    arrays, _ = load_checkpoint(path)
    for arr in arrays.values():
        assert arr.flags.aligned
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    clone = build_model(model_cfg, space, seed=None)
    clone.restore({k: v for k, v in arrays.items() if not k.startswith("adapter/")})
    (restored,) = adapters_from_arrays(arrays, clone.rep_dim, clone.n_heads, iak_cfg).values()
    named = {**clone.named_parameters(), **restored.named_parameters()}
    assert sorted(named) == sorted(arrays)
    assert all(named[name].tobytes() == arrays[name].tobytes() for name in arrays)
    table, *dense = clone.parameters()
    assert table.data is arrays["embeddings.rows"] and not table.data.flags.writeable
    for p in dense + restored.parameters():
        flags = p.data.flags
        assert p.data.dtype == np.float64 and flags.owndata and flags.writeable and flags.aligned, p.name
        assert not np.shares_memory(p.data, arrays[p.name]), p.name


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


def test_a_load_allocates_no_payload_a_blank_build_no_table_and_a_restore_only_the_dense_arrays(tmp_path):
    """Loading maps the file, a seed=None build holds read-only zero views,
    and the restore copies the dense arrays alone: the table stays the
    loaded block, so no step allocates a table, nor a quarter of one."""
    space = FeatureSpace(n_users=200_000, n_items=500, n_scenes=2, n_regions=3, n_periods=3)
    cfg = ModelConfig(kind="base")
    path = tmp_path / "big.ckpt"
    save_checkpoint(path, build_model(cfg, space, seed=1).named_parameters())
    size = path.stat().st_size
    (arrays, _), load_peak = _traced_peak(lambda: load_checkpoint(path))
    assert load_peak < size / 100
    blank, build_peak = _traced_peak(lambda: build_model(cfg, space, seed=None))
    table = blank.named_parameters()["embeddings.rows"]
    assert table.nbytes > 0.9 * size and build_peak < table.nbytes / 4
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1.0
    _, restore_peak = _traced_peak(lambda: blank.restore(arrays))
    dense = sum(a.nbytes for name, a in arrays.items() if name != "embeddings.rows")
    assert dense <= restore_peak < table.nbytes / 4
    assert blank.named_parameters()["embeddings.rows"] is arrays["embeddings.rows"]


def _model_and_adapter():
    space = FeatureSpace(n_users=9, n_items=7, n_scenes=2, n_regions=2, n_periods=3)
    model_cfg, iak_cfg = ModelConfig(kind="base", hidden_sizes=(6, 3)), IAKConfig(d_e=3, decoder_hidden=(4,))
    model = build_model(model_cfg, space, seed=0)
    return model, IAKAdapter(model.rep_dim, model.n_heads, iak_cfg, {"period": 1}, seed=0), model_cfg, space, iak_cfg


def test_a_version_1_file_is_rejected_by_eval(tmp_path, capsys):
    """Version 1 (no dtype tag, no padding) is no longer read: `iakrec eval`
    of a hand-written version-1 file holding a backbone's and an adapter's
    arrays exits 5 with one line naming the version, and writes no run
    directory."""
    sizes = {"datagen.n_users": "30", "datagen.n_items": "20", "datagen.n_days": "2",
             "datagen.records_per_day": "60", "model.hidden_sizes": "6,3"}
    (tmp_path / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in sizes.items()), encoding="utf-8")
    common = ["--config", str(tmp_path / "run.cfg"), "--workdir", str(tmp_path)]
    assert main(["gen-data", *common, "--outdir", "data"]) == EXIT_OK
    cfg = RunConfig(sizes)
    model = build_model(cfg.model_config(), cfg.feature_space(), seed=0)
    adapter = IAKAdapter(model.rep_dim, model.n_heads, cfg.iak_config(), {"period": 1}, seed=0)
    saved = {**model.named_parameters(), **adapter.named_parameters()}
    path = tmp_path / "v1.ckpt"
    path.write_bytes(checkpoint_bytes(list(saved.items()), cfg.digest(), version=1))
    capsys.readouterr()
    assert main(["eval", *common, "--data", "data/dataset.jsonl", "--checkpoint", "v1.ckpt"]) == EXIT_SCHEMA
    assert capsys.readouterr().err == f"iakrec: error: {path}: unsupported checkpoint version 1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "run.cfg", "v1.ckpt"]


def test_a_file_in_the_backbone_block_order_restores_and_saves_back_byte_for_byte(tmp_path):
    """A backbone checkpoint written by hand in the block order backbones
    are saved in (one table block, `embeddings.rows`: the id columns' ranges
    `user_emb.rows` to `feat3_emb.rows` stacked in that order, each its
    vocabulary plus an out-of-vocab row; then the dense weights and biases)
    restores into a blank build, and `save_checkpoint` of the restored model
    writes the file back byte for byte."""
    model, _, model_cfg, space, _ = _model_and_adapter()
    rng = np.random.default_rng(5)
    vocab = [space.n_users, space.n_items, space.n_scenes, space.n_regions, space.n_periods]
    vocab += [space.n_feature_buckets] * space.n_feature_cols
    ranges = [rng.normal(size=(v + 1, model_cfg.embed_dim)) for v in vocab]
    blocks = [("embeddings.rows", np.concatenate(ranges))]
    blocks += [(p.name, rng.normal(size=p.data.shape)) for p in model.parameters()[1:]]
    blob = checkpoint_bytes(blocks, "digest")
    (tmp_path / "hand.ckpt").write_bytes(blob)
    arrays, digest = load_checkpoint(tmp_path / "hand.ckpt")
    clone = build_model(model_cfg, space, seed=None)
    clone.restore(arrays)
    save_checkpoint(tmp_path / "again.ckpt", clone.named_parameters(), digest)
    assert (tmp_path / "again.ckpt").read_bytes() == blob


@pytest.mark.parametrize("name", ["embeddings.rows", "stacked_logits.b", "adapter/period=1/dec_out.w"])
def test_restore_rejects_an_int64_block_by_name(tmp_path, name):
    """A `<i8` block where a parameter belongs is the restore's error naming
    it, never weights cast from ints."""
    model, adapter, model_cfg, space, iak_cfg = _model_and_adapter()
    blocks = {**model.named_parameters(), **adapter.named_parameters()}
    blocks[name] = np.zeros(blocks[name].shape, dtype=np.int64)
    path = tmp_path / "ints.ckpt"
    path.write_bytes(checkpoint_bytes(list(blocks.items())))
    arrays, _ = load_checkpoint(path)
    assert arrays[name].dtype.str == "<i8"
    clone = build_model(model_cfg, space, seed=None)
    backbone = {k: v for k, v in arrays.items() if not k.startswith("adapter/")}
    if name.startswith("adapter/"):
        clone.restore(backbone)
        with pytest.raises(AdapterError, match=f"{name!r} is stored as <i8"):
            adapters_from_arrays(arrays, clone.rep_dim, clone.n_heads, iak_cfg)
    else:
        with pytest.raises(ModelError, match=f"{name!r} is stored as <i8"):
            clone.restore(backbone)


def test_an_unknown_dtype_tag_raises_checkpoint_error_naming_the_block(tmp_path):
    blob = checkpoint_bytes([("a", [1.0]), ("b", [2.0])])
    path = tmp_path / "tag.ckpt"
    path.write_bytes(blob.replace(b"b<f8", b"b<f4"))
    with pytest.raises(CheckpointError, match="block 'b' has unknown dtype '<f4'"):
        load_checkpoint(path)


def test_a_dimension_past_any_size_raises_checkpoint_error(tmp_path):
    """A dimension whose product overflows what an array can index is a
    damaged file, not an OverflowError."""
    blob = bytearray(checkpoint_bytes([("a", np.zeros((2, 3)))]))
    dims = blob.index(struct.pack("<2Q", 2, 3))
    blob[dims + 7] = 0x5A  # the high byte of the first dimension
    path = tmp_path / "huge.ckpt"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="'a' runs past the end"):
        load_checkpoint(path)
