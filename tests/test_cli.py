"""The exit-code contract of `iakrec`: 0 success, 2 usage, 3 config error,
4 missing path, 5 data or schema violation. Each case runs `main(argv)` in
its own working directory."""

import csv
import json
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from iakrec import datagen
from iakrec.checkpoint import save_checkpoint
from iakrec.cli import EXIT_CONFIG, EXIT_OK, EXIT_PATH, EXIT_SCHEMA, EXIT_USAGE, main
from iakrec.config import RunConfig
from iakrec.datagen import read_jsonl, sidecar_path, split_chronological
from iakrec.models import MODEL_KINDS, build_model

TINY_CFG = """\
datagen.n_users = 30
datagen.n_items = 20
datagen.n_days = 2
datagen.records_per_day = 60
model.hidden_sizes = 6,3
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "run.cfg").write_text(TINY_CFG, encoding="utf-8")
    return tmp_path


def _run(workdir, command, *args):
    return main([command, "--config", str(workdir / "run.cfg"), "--workdir", str(workdir), *args])


def test_gen_data_exits_0(workdir):
    assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
    assert (workdir / "data" / "dataset.jsonl").stat().st_size > 0
    assert (workdir / "data" / "effective.cfg").exists()


@pytest.mark.parametrize("argv", [[], ["no-such-command"], ["gen-data", "--no-such-flag"], ["pretrain"]])
def test_usage_error_exits_2(argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == EXIT_USAGE


@pytest.mark.parametrize("key", ["no.such_key", "train.joint", "iak.sample_mode"])
def test_unknown_config_key_exits_3(workdir, key):
    assert _run(workdir, "gen-data", "--set", f"{key}=true") == EXIT_CONFIG
    assert not any(p.is_dir() for p in workdir.iterdir())


def test_unknown_key_in_config_file_exits_3(workdir):
    (workdir / "run.cfg").write_text(TINY_CFG + "train.joint = false\n", encoding="utf-8")
    assert _run(workdir, "gen-data") == EXIT_CONFIG


def test_missing_dataset_exits_4(workdir):
    assert _run(workdir, "pretrain", "--data", "missing.jsonl") == EXIT_PATH


def test_missing_config_file_exits_4(workdir):
    assert main(["gen-data", "--config", str(workdir / "absent.cfg"), "--workdir", str(workdir)]) == EXIT_PATH


def test_existing_outdir_exits_4(workdir):
    assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
    before = (workdir / "data" / "dataset.jsonl").read_bytes()
    assert _run(workdir, "gen-data", "--outdir", "data", "--set", "datagen.seed=1") == EXIT_PATH
    assert (workdir / "data" / "dataset.jsonl").read_bytes() == before  # reruns never overwrite


def _backbone_checkpoint(workdir):
    """An untrained backbone checkpoint at TINY_CFG's sizes, saved as backbone.ckpt."""
    cfg = RunConfig({"datagen.n_users": "30", "datagen.n_items": "20", "model.hidden_sizes": "6,3"})
    model = build_model(cfg.model_config(), cfg.feature_space(), seed=0)
    save_checkpoint(workdir / "backbone.ckpt", model.named_parameters(), cfg.digest())


def test_finetune_without_backbone_exits_4(workdir):
    assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
    assert _run(workdir, "finetune", "--data", "data/dataset.jsonl") == EXIT_PATH
    assert not any(p.name.startswith("finetune-") for p in workdir.iterdir())


def test_finetune_domains_matching_no_record_exit_5(workdir, capsys):
    assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
    _backbone_checkpoint(workdir)
    capsys.readouterr()
    assert _run(workdir, "finetune", "--data", "data/dataset.jsonl", "--backbone", "backbone.ckpt",
                "--set", "train.finetune_domains=period=7") == EXIT_SCHEMA
    assert "no records match train.finetune_domains" in capsys.readouterr().err
    assert not any(p.name.startswith("finetune-") for p in workdir.iterdir())


def test_eval_of_empty_test_split_exits_5(workdir, capsys):
    assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
    _backbone_checkpoint(workdir)
    capsys.readouterr()
    assert _run(workdir, "eval", "--data", "data/dataset.jsonl", "--checkpoint", "backbone.ckpt",
                "--set", "datagen.split_ratio=1:0") == EXIT_SCHEMA
    assert "test split is empty" in capsys.readouterr().err
    assert not any(p.name.startswith("eval-") for p in workdir.iterdir())


@pytest.mark.parametrize("keep", [3, 20, -5])  # inside the magic, the header, the last array
def test_truncated_checkpoint_exits_5(workdir, keep):
    assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
    cfg = RunConfig({"datagen.n_users": "30", "datagen.n_items": "20", "model.hidden_sizes": "6,3"})
    model = build_model(cfg.model_config(), cfg.feature_space(), seed=0)
    path = workdir / "backbone.ckpt"
    save_checkpoint(path, model.named_parameters(), cfg.digest())
    path.write_bytes(path.read_bytes()[:keep])
    assert _run(workdir, "eval", "--data", "data/dataset.jsonl", "--checkpoint", "backbone.ckpt") == EXIT_SCHEMA
    assert not any(p.name.startswith("eval-") for p in workdir.iterdir())


def test_bad_field_type_in_dataset_exits_5(workdir):
    assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
    path = workdir / "data" / "dataset.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = json.dumps(dict(json.loads(lines[1]), domain_ids=3))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _run(workdir, "pretrain", "--data", "data/dataset.jsonl") == EXIT_SCHEMA
    assert not any(p.name.startswith("pretrain-") for p in workdir.iterdir())


@pytest.mark.parametrize("entry, named", [
    ("bogus=*", "'bogus'"),
    ("bogus=1", "'bogus'"),
    ("period=0,bogus=1", "'bogus'"),
    ("period=abc", "'period=abc'"),
    ("period=1.5", "'period=1.5'"),
])
def test_bad_finetune_domain_exits_5(workdir, capsys, entry, named):
    """A non-integer id or a topic outside scene/region/period is a data
    error that names the bad entry, not a traceback or a bare int() message."""
    assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
    _backbone_checkpoint(workdir)
    capsys.readouterr()
    assert _run(workdir, "finetune", "--data", "data/dataset.jsonl", "--backbone", "backbone.ckpt",
                "--set", f"train.finetune_domains={entry}") == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("iakrec: error:") and named in err
    assert not any(p.name.startswith("finetune-") for p in workdir.iterdir())


@pytest.mark.parametrize("domains, n_adapters", [("period=0", 1), ("period=*,scene=*", 5)])
def test_eval_forwards_each_test_row_once(workdir, monkeypatch, domains, n_adapters):
    """One backbone pass over the test split, whatever the adapter count."""
    data = "data/dataset.jsonl"
    assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
    assert _run(workdir, "pretrain", "--data", data, "--outdir", "pre") == EXIT_OK
    assert _run(workdir, "finetune", "--data", data, "--backbone", "pre/backbone.ckpt", "--outdir", "ft",
                "--set", f"train.finetune_domains={domains}") == EXIT_OK
    cls = MODEL_KINDS[RunConfig().get("model.kind")]
    forward, rows = cls.forward_full, []

    def counted(self, batch):
        rows.append(len(batch))
        return forward(self, batch)

    monkeypatch.setattr(cls, "forward_full", counted)
    assert _run(workdir, "eval", "--data", data, "--checkpoint", "ft/finetuned.ckpt", "--outdir", "ev") == EXIT_OK
    _, test = split_chronological(read_jsonl(workdir / data), RunConfig().get_ratio("datagen.split_ratio"))
    assert sum(rows) == len(test)
    with open(workdir / "ev" / "report.csv", newline="", encoding="utf-8") as f:
        assert sum(r["model"].startswith("iak:") for r in csv.DictReader(f)) == n_adapters


@pytest.fixture
def parses(monkeypatch):
    """The number of JSONL parses so far: a list with one entry per parse."""
    calls = []
    parse = datagen._parse_jsonl

    def counted(lines, path):
        calls.append(path)
        return parse(lines, path)

    monkeypatch.setattr(datagen, "_parse_jsonl", counted)
    return calls


def _pipeline(workdir, tag):
    data = "data/dataset.jsonl"
    assert _run(workdir, "pretrain", "--data", data, "--outdir", f"{tag}-pre") == EXIT_OK
    assert _run(workdir, "finetune", "--data", data, "--backbone", f"{tag}-pre/backbone.ckpt",
                "--outdir", f"{tag}-ft") == EXIT_OK
    assert _run(workdir, "eval", "--data", data, "--checkpoint", f"{tag}-ft/finetuned.ckpt",
                "--outdir", f"{tag}-ev") == EXIT_OK
    return [(workdir / f).read_bytes() for f in (f"{tag}-pre/backbone.ckpt", f"{tag}-pre/pretrain_curve.csv",
                                                  f"{tag}-ft/finetuned.ckpt", f"{tag}-ft/finetune_curve.csv",
                                                  f"{tag}-ev/report.csv")]


def test_pipeline_parses_jsonl_once(workdir, parses):
    """gen-data leaves the columns beside the JSONL, so no later command
    parses it; without the sidecar the next command parses once and
    writes it back."""
    assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
    side = sidecar_path(workdir / "data" / "dataset.jsonl")
    assert side.exists()
    _pipeline(workdir, "a")
    assert _run(workdir, "eval", "--data", "data/dataset.jsonl", "--checkpoint", "a-ft/finetuned.ckpt",
                "--outdir", "a-ev2") == EXIT_OK
    assert parses == []
    side.unlink()
    assert _run(workdir, "eval", "--data", "data/dataset.jsonl", "--checkpoint", "a-ft/finetuned.ckpt",
                "--outdir", "a-ev3") == EXIT_OK
    assert len(parses) == 1 and side.exists()
    _pipeline(workdir, "b")
    assert len(parses) == 1


def test_pipeline_outputs_do_not_depend_on_the_sidecar(workdir, monkeypatch, parses):
    """With the sidecar, without it, and in a directory where it cannot be
    written, every output is the same; the unwritable run leaves no sidecar."""
    assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
    side = sidecar_path(workdir / "data" / "dataset.jsonl")
    cached = _pipeline(workdir, "cached")
    assert parses == []
    side.unlink()

    os_open = os.open

    def data_dir_unwritable(path, *args, **kwargs):
        # what a read-only data directory does to the sidecar write, even
        # when the tests run as root
        if Path(path).parent == side.parent:
            raise PermissionError(13, "Permission denied", str(path))
        return os_open(path, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(os, "open", data_dir_unwritable)
        assert _pipeline(workdir, "readonly") == cached
    assert len(parses) == 3 and not side.exists()
    assert _pipeline(workdir, "parsed") == cached
    assert len(parses) == 4 and side.exists()


def test_bad_line_exits_5_and_writes_no_sidecar(workdir, capsys):
    assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
    path = workdir / "data" / "dataset.jsonl"
    sidecar_path(path).unlink()
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].replace('"click":0', '"click":2').replace('"click":1', '"click":2')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert _run(workdir, "pretrain", "--data", "data/dataset.jsonl") == EXIT_SCHEMA
    assert f"{path}:3:" in capsys.readouterr().err
    assert not sidecar_path(path).exists()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)], ids=["022", "077", "002"])
def test_sidecar_and_checkpoint_get_the_mode_of_a_plain_open(workdir, umask, mode):
    """Other users of a shared data directory can read what gen-data and a
    checkpoint save write, as far as the umask lets them."""
    old = os.umask(umask)
    try:
        assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
        save_checkpoint(workdir / "model.ckpt", {"w": np.ones((2, 3))}, "digest")
        with open(workdir / "plain", "wb"):
            pass
    finally:
        os.umask(old)
    written = (sidecar_path(workdir / "data" / "dataset.jsonl"), workdir / "model.ckpt", workdir / "plain")
    assert [stat.S_IMODE(p.stat().st_mode) for p in written] == [mode] * 3
