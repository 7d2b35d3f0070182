import os

import numpy as np
import pytest

from iakrec.checkpoint import CheckpointError, load_checkpoint, save_checkpoint


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
