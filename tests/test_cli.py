"""The exit-code contract of `iakrec`: 0 success, 2 usage, 3 config error,
4 path error (an input that is missing or cannot be read), 5 data or schema
violation. Each case runs `main(argv)` in its own working directory."""

import csv
import gc
import hashlib
import io
import json
import os
import re
import stat
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from iakrec import cli, datagen
from iakrec.checkpoint import load_checkpoint, save_checkpoint
from iakrec.cli import (EXIT_CONFIG, EXIT_OK, EXIT_PATH, EXIT_SCHEMA, EXIT_USAGE, _restore_backbone, main)
from iakrec.config import RunConfig
from iakrec.evals import SplitPass
from iakrec.datagen import read_jsonl, sidecar_path, split_chronological
from iakrec.iak import IAKAdapter, adapted_prediction
from iakrec.models import MODEL_KINDS, build_model

from checkpoint_reference import checkpoint_bytes

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


@pytest.mark.parametrize("argv", [[], ["no-such-command"], ["gen-data", "--no-such-flag"], ["pretrain"],
                                  ["gen-data", "--seed", "1"]])
def test_usage_error_exits_2(argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == EXIT_USAGE


def test_gen_data_names_its_run_by_the_generator_seed(workdir):
    assert _run(workdir, "gen-data", "--set", "datagen.seed=3") == EXIT_OK
    (run,) = [p for p in workdir.iterdir() if p.is_dir()]
    assert run.name.startswith("gen-data-") and run.name.endswith("-seed3")


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


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
@pytest.mark.parametrize("setting, message", [
    ("train.adagrad_decay=1.5", "adagrad_decay must be in (0, 1], got 1.5"),
    ("train.adagrad_decay=0", "adagrad_decay must be in (0, 1], got 0.0"),
    ("train.adagrad_epsilon=0", "adagrad_epsilon must be finite and positive, got 0.0"),
    ("train.adagrad_epsilon=-1e-8", "adagrad_epsilon must be finite and positive, got -1e-08"),
    ("train.adagrad_epsilon=inf", "adagrad_epsilon must be finite and positive, got inf"),
])
def test_bad_optimizer_setting_exits_5_before_the_split_is_read(workdir, monkeypatch, capsys, command, setting,
                                                                message):
    """A decay outside (0, 1] or an epsilon that is not finite and > 0 is a
    train-config error like a bad batch size (exit 5, one line), caught
    before the split is read, so `finetune` never runs the backbone pass
    first. (An infinite epsilon would make every step zero, and `pretrain`
    would save its untouched init.)"""
    assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
    args = ["--data", "data/dataset.jsonl"]
    if command == "finetune":
        _backbone_checkpoint(workdir)
        args += ["--backbone", "backbone.ckpt"]
    monkeypatch.setattr(cli, "_load_split", lambda *a: pytest.fail("the split was read"))
    capsys.readouterr()
    assert _run(workdir, command, *args, "--set", setting) == EXIT_SCHEMA
    assert capsys.readouterr().err == f"iakrec: error: {message}\n"
    assert not any(p.name.startswith(f"{command}-") for p in workdir.iterdir())


@pytest.mark.parametrize("settings, message", [
    (["datagen.scene_tilts=0,0,0"], "scene: shift and tilt lists must have equal length"),
    (["datagen.region_shifts=", "datagen.region_tilts="], "at least one domain required for topic 'region'"),
    (["datagen.period_shifts=0,nan,0"], "preference_shift of period=1 contains non-finite values"),
], ids=["tilts-of-another-length", "empty-topic", "nan-shift"])
def test_a_bad_domain_list_exits_5_naming_it(workdir, capsys, settings, message):
    assert _run(workdir, "gen-data", *(a for s in settings for a in ("--set", s))) == EXIT_SCHEMA
    assert capsys.readouterr().err == f"iakrec: error: {message}\n"
    assert [p.name for p in workdir.iterdir()] == ["run.cfg"]


# every input named is missing, so opening any of them first would be exit 4
MISSING_INPUTS = {"pretrain": ["--data", "missing.jsonl"],
                  "finetune": ["--data", "missing.jsonl", "--backbone", "missing.ckpt"],
                  "eval": ["--data", "missing.jsonl", "--checkpoint", "missing.ckpt"],
                  "serve": ["--checkpoint", "missing.ckpt"]}


@pytest.mark.parametrize("command, setting, message", [
    ("pretrain", "model.kind=nope", "unknown model kind 'nope'"),
    ("finetune", "model.kind=nope", "unknown model kind 'nope'"),
    ("finetune", "iak.d_e=0", "d_e must be >= 1"),
    ("eval", "model.n_experts=0", "n_experts must be >= 1"),
    ("eval", "iak.d_e=0", "d_e must be >= 1"),
    ("serve", "model.hidden_sizes=4,0", "hidden sizes must be positive"),
    ("serve", "iak.d_e=0", "d_e must be >= 1"),
    ("pretrain", "datagen.n_users=-1", "n_users must be >= 0, got -1"),
    ("finetune", "datagen.n_items=-5", "n_items must be >= 0, got -5"),
    ("eval", "datagen.n_users=-5", "n_users must be >= 0, got -5"),
    ("serve", "datagen.n_users=-1", "n_users must be >= 0, got -1"),
    ("pretrain", "datagen.split_ratio=0:0", "invalid split ratio 0:0"),
    ("finetune", "datagen.split_ratio=0:0", "invalid split ratio 0:0"),
    ("eval", "datagen.split_ratio=0:0", "invalid split ratio 0:0"),
    ("eval", "train.seed=-1", "seed must be >= 0, got -1"),
    ("pretrain", "train.finetune_domains=", "train.finetune_domains names no domain"),
    ("eval", "train.finetune_domains=city=*", "unknown domain topic 'city'; topics are scene, region, period"),
])
def test_a_bad_model_or_adapter_setting_exits_5_before_any_input_is_opened(workdir, capsys, command, setting,
                                                                          message):
    """Each command checks the config sections it reads (`model.*`, the
    vocabulary sizes, the split ratio of a command that reads the dataset,
    `train.*` in all but `serve`, and in `finetune`, `eval` and `serve` also
    `iak.*`) before it opens an input: a bad value is a one-line data error
    (exit 5), not the path error of the missing inputs, and `finetune` never
    runs a backbone pass first. A negative vocabulary size would otherwise
    build a model with an empty id range, and a negative `eval` seed would
    be written into every report row."""
    assert _run(workdir, command, *MISSING_INPUTS[command], "--set", setting) == EXIT_SCHEMA
    assert capsys.readouterr().err == f"iakrec: error: {message}\n"
    assert [p.name for p in workdir.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("command, setting, message", [
    ("pretrain", "datagen.split_ratio=6-1", "datagen.split_ratio: expected a:b ratio, got '6-1'"),
    ("eval", "train.seed=x", "train.seed: expected integer, got 'x'"),
    ("serve", "router.lazy_activation=maybe", "router.lazy_activation: expected true/false, got 'maybe'"),
])
def test_an_unparsable_setting_exits_3_before_any_input_is_opened(workdir, capsys, command, setting, message):
    """Each command parses every setting it reads before it opens an input:
    a value that does not parse is a config error (exit 3), not the path
    error of the missing inputs."""
    assert _run(workdir, command, *MISSING_INPUTS[command], "--set", setting) == EXIT_CONFIG
    assert capsys.readouterr().err == f"iakrec: config error: {message}\n"
    assert [p.name for p in workdir.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("command, setting, field", [
    ("finetune", "train.lr=nan", "base_lr"),
    ("finetune", "iak.beta=nan", "beta"),
    ("finetune", "iak.decoder_hidden=0", "decoder_hidden"),
    ("finetune", "iak.decoder_hidden=-2", "decoder_hidden"),
    ("gen-data", "datagen.records_per_day=-5", "records_per_day"),
    ("finetune", "train.finetune_window_days=-2", "finetune_window_days"),
    ("pretrain", "model.embed_dim=0", "embed_dim"),
    ("finetune", "model.embed_dim=0", "embed_dim"),
    ("pretrain", "model.embed_dim=-1", "embed_dim"),
    ("gen-data", "datagen.latent_dim=0", "latent_dim"),
    ("gen-data", "datagen.latent_dim=-1", "latent_dim"),
    ("gen-data", "datagen.seed=-1", "seed"),
    ("pretrain", "model.seed=-1", "seed"),
    ("pretrain", "train.seed=-1", "seed"),
    ("finetune", "train.mixing=period=0:1.5,period=1:-0.5", "mixing"),
    ("finetune", "train.mixing=period=0:nan", "mixing"),
    ("pretrain", "model.loss_weights=1,nan", "loss_weights"),
])
def test_an_out_of_range_or_nan_setting_exits_5_naming_its_field(workdir, capsys, command, setting, field):
    """A value that parses but is out of range, NaN included, is a one-line
    data error (exit 5) that names its field, raised before any input is
    opened: not a run that silently trains on it, nor numpy's own error."""
    assert _run(workdir, command, *MISSING_INPUTS.get(command, []), "--set", setting) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith(f"iakrec: error: {field} ") and err.count("\n") == 1, err
    assert [p.name for p in workdir.iterdir()] == ["run.cfg"]


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


@pytest.mark.parametrize("entry, message", [
    ("period=x", "bad domain key part 'period=x': the id must be an integer"),
    ("city=*", "unknown domain topic 'city'; topics are scene, region, period"),
    ("", "train.finetune_domains names no domain"),
])
def test_bad_finetune_domain_exits_5_before_any_input_is_opened(workdir, capsys, entry, message):
    """The fine-tune domains are checked with the rest of the config, before
    the dataset or the backbone is looked for: with both missing, a bad
    entry is still the error."""
    assert _run(workdir, "finetune", "--data", "missing.jsonl", "--backbone", "missing.ckpt",
                "--set", f"train.finetune_domains={entry}") == EXIT_SCHEMA
    assert capsys.readouterr().err == f"iakrec: error: {message}\n"
    assert [p.name for p in workdir.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("domains, mixing, named", [
    ("period=*", "scene=0:1", "['scene=0']"),
    ("period=0,scene=*", "period=0:0.5,period=1:0.3,region=2:0.2", "['period=1', 'region=2']"),
])
def test_a_mixing_key_outside_the_finetune_domains_exits_5_before_any_input_is_opened(workdir, capsys, domains,
                                                                                       mixing, named):
    """A mixing key that no `train.finetune_domains` entry can select (it is
    neither an explicit key nor of a topic a `topic=*` entry expands) is a
    data error naming it, raised with the rest of the config: with the
    dataset and the backbone both missing, it is still the error."""
    assert _run(workdir, "finetune", *MISSING_INPUTS["finetune"], "--set", f"train.finetune_domains={domains}",
                "--set", f"train.mixing={mixing}") == EXIT_SCHEMA
    message = f"iakrec: error: mixing references domains outside train.finetune_domains: {named}\n"
    assert capsys.readouterr().err == message
    assert [p.name for p in workdir.iterdir()] == ["run.cfg"]


def test_mixing_keys_read_however_they_are_spelled(workdir, capsys):
    """`train.mixing` names domains as `train.finetune_domains` does:
    `period=00` is `period=0`. Two keys naming one domain, or a key that
    names none, are a config error."""
    assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
    _backbone_checkpoint(workdir)

    def finetune(outdir, domains, mixing):
        return _run(workdir, "finetune", "--data", "data/dataset.jsonl", "--backbone", "backbone.ckpt",
                    "--outdir", outdir, "--set", f"train.finetune_domains={domains}",
                    "--set", f"train.mixing={mixing}")

    assert finetune("canonical", "period=0,period=1", "period=0:0.7,period=1:0.3") == EXIT_OK
    assert finetune("odd", "period=00,period=1", "period=00:0.7,period=1:0.3") == EXIT_OK
    curves = [(workdir / d / "finetune_curve.csv").read_bytes() for d in ("canonical", "odd")]
    assert curves[0] == curves[1]
    for mixing, named in (("period=0:0.4,period=00:0.3,period=1:0.3", "'period=0' is weighted twice"),
                          ("bogus=0:0.7,period=1:0.3", "'bogus'")):
        capsys.readouterr()
        assert finetune("bad", "period=0,period=1", mixing) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("iakrec: config error: train.mixing:") and named in err
        assert not (workdir / "bad").exists()


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


def test_pipeline_on_read_only_sidecar_columns_matches_parsed_columns(workdir, monkeypatch, parses):
    """Each command of a pipeline gets the sidecar's mapped columns, all
    read-only, and writes what a pipeline on freshly parsed (writable)
    columns writes: no code writes into a `Dataset` column in place."""
    assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
    read = []

    def read_dataset(path):
        read.append(datagen.read_dataset(path))
        return read[-1]

    monkeypatch.setattr(cli, "read_dataset", read_dataset)
    mapped = _pipeline(workdir, "mapped")
    assert parses == [] and len(read) == 3
    assert not any(a.flags.writeable for dataset in read for a in dataset.columns().values())
    monkeypatch.setattr(cli, "read_dataset", read_jsonl)
    assert _pipeline(workdir, "parsed") == mapped and len(parses) == 3


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


def test_non_utf8_line_exits_5_at_its_line(workdir, capsys):
    """A byte that is not UTF-8 is a bad record like any other: a one-line
    error at path:line, exit 5 and no sidecar."""
    assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
    path = workdir / "data" / "dataset.jsonl"
    sidecar_path(path).unlink()
    lines = path.read_bytes().splitlines(keepends=True)
    lines[4] = lines[4].replace(b'"click"', b'"cl\xffick"')
    path.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert _run(workdir, "pretrain", "--data", "data/dataset.jsonl") == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert f"{path}:5: not UTF-8" in err and err.count("\n") == 1
    assert not sidecar_path(path).exists()


@pytest.mark.parametrize("case, code", [("data", EXIT_PATH), ("checkpoint", EXIT_PATH), ("backbone", EXIT_PATH),
                                        ("config", EXIT_PATH), ("config-not-utf8", EXIT_CONFIG),
                                        ("checkpoint-missing", EXIT_PATH), ("checkpoint-devnull", EXIT_SCHEMA)])
def test_input_that_cannot_be_read_exits_with_one_line(workdir, capsys, case, code):
    """A directory given for an input file or a missing checkpoint exits 4,
    a config file that is not UTF-8 exits 3, and the null device as a
    checkpoint (it cannot be mapped, so it is read, and holds no header)
    exits 5, each with a one-line message and no run directory."""
    if case == "checkpoint-devnull" and not os.path.exists(os.devnull):
        pytest.skip("no null device")
    assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
    _backbone_checkpoint(workdir)
    (workdir / "adir").mkdir()
    (workdir / "latin1.cfg").write_bytes(TINY_CFG.encode("utf-8") + b"# caf\xe9\n")
    config = {"config": "adir", "config-not-utf8": "latin1.cfg"}.get(case, "run.cfg")
    args = {
        "data": ["pretrain", "--data", "adir"],
        "checkpoint": ["eval", "--data", "data/dataset.jsonl", "--checkpoint", "adir"],
        "checkpoint-missing": ["eval", "--data", "data/dataset.jsonl", "--checkpoint", "absent.ckpt"],
        "checkpoint-devnull": ["eval", "--data", "data/dataset.jsonl", "--checkpoint", os.devnull],
        "backbone": ["finetune", "--data", "data/dataset.jsonl", "--backbone", "adir"],
    }.get(case, ["gen-data"])
    before = set(workdir.iterdir())
    capsys.readouterr()
    assert main([args[0], "--config", str(workdir / config), "--workdir", str(workdir), *args[1:]]) == code
    err = capsys.readouterr().err
    assert err.startswith("iakrec: ") and err.count("\n") == 1
    assert set(workdir.iterdir()) == before


def test_serve_answers_a_non_utf8_line_and_keeps_serving(workdir, monkeypatch, capsys):
    """Under strict stdin decoding, a request line that is not UTF-8 gets a
    per-line error, and the lines before and after it are still scored."""
    _backbone_checkpoint(workdir)
    good = b'{"user_id": 1, "item_id": 2, "domain_ids": {"scene": 0, "region": 0, "period": 0}, "feature_ids": [1]}\n'
    stdin = io.TextIOWrapper(io.BytesIO(good + b'{"user_id": "\xff"}\n' + good), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdin", stdin)
    capsys.readouterr()
    assert _run(workdir, "serve", "--checkpoint", "backbone.ckpt") == EXIT_OK
    first, bad, last = (json.loads(line) for line in capsys.readouterr().out.splitlines())
    assert bad["line"] == 2 and bad["error"].startswith("malformed request: ") and len(bad) == 2
    for resp in (first, last):
        assert resp["served_by"] == "zero_shot"
    assert (first["p_ctr"], first["p_ctcvr"]) == (last["p_ctr"], last["p_ctcvr"])


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


TINY_SIZES = {"datagen.n_users": "30", "datagen.n_items": "20", "model.hidden_sizes": "6,3"}
REQUEST = b'{"user_id": 1, "item_id": 2, "domain_ids": {"scene": 0, "region": 0, "period": 0}, "feature_ids": [1]}\n'


def _checkpoint_arrays(cfg, seed=0):
    """The arrays of an untrained backbone and one adapter (period=0) at
    `cfg`'s sizes; the adapter's decoder is nudged off zero so that it
    changes the scores."""
    model = build_model(cfg.model_config(), cfg.feature_space(), seed=seed)
    adapter = IAKAdapter(model.rep_dim, model.n_heads, cfg.iak_config(), {"period": 0}, seed=seed)
    adapter.decoder_out.w.data[:] = 0.1
    return {**model.named_parameters(), **adapter.named_parameters()}


@pytest.fixture
def forbid_init_draws(monkeypatch):
    """Call it to make every generator made from then on raise on any use,
    so a random init drawn after that fails the test. (numpy's `Generator`
    type is immutable, so its `normal` cannot be patched; its factory can.)"""

    class NoDraws:
        def __init__(self, *args, **kwargs):
            pass

        def __getattr__(self, name):
            raise AssertionError(f"a generator's {name} was used during a restore")

    return lambda: monkeypatch.setattr(np.random, "default_rng", NoDraws)


def test_forbidden_init_draws_trip_a_seeded_build(forbid_init_draws):
    cfg = RunConfig(TINY_SIZES)
    forbid_init_draws()
    with pytest.raises(AssertionError, match="normal"):
        build_model(cfg.model_config(), cfg.feature_space(), seed=0)


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_restore_gives_the_checkpoint_arrays_without_an_init(tmp_path, monkeypatch, kind, forbid_init_draws):
    """Every backbone and adapter array restored by `eval`, `finetune` and
    `serve` is bitwise its checkpoint array. The backbone's table is its
    loaded block itself, read-only; every other array is held in writable
    memory that its parameter owns, no view of the arrays it was restored
    from. The restore draws no init."""
    cfg = RunConfig({**TINY_SIZES, "model.kind": kind})
    arrays = _checkpoint_arrays(cfg, seed=3)
    save_checkpoint(tmp_path / "m.ckpt", arrays, cfg.digest())
    loads = []

    def load(path):
        loads.append(load_checkpoint(path))
        return loads[-1]

    monkeypatch.setattr(cli, "load_checkpoint", load)
    forbid_init_draws()
    model, adapters = _restore_backbone(tmp_path / "m.ckpt", cfg.model_config(), cfg.feature_space(), cfg.iak_config())
    ((loaded, _),) = loads
    restored = {**model.named_parameters(), **adapters["period=0"].named_parameters()}
    assert model.frozen and sorted(restored) == sorted(arrays)
    assert not any(p.requires_grad for p in adapters["period=0"].parameters())
    for name, data in restored.items():
        assert data.dtype == np.float64 and data.tobytes() == arrays[name].tobytes(), name
    table, *dense = model.parameters()
    assert table.data is loaded["embeddings.rows"] and not table.data.flags.writeable
    for p in dense + adapters["period=0"].parameters():
        assert p.data.flags.owndata and p.data.flags.writeable, p.name
        assert not np.shares_memory(p.data, loaded[p.name]), p.name


def test_restored_adapter_scores_record_no_graph(tmp_path):
    """A restored adapter is frozen where it is built, so the adapted scores
    of `eval`, over a frozen backbone's bare arrays, are bare arrays: no
    graph is recorded and no node checked."""
    cfg = RunConfig(TINY_SIZES)
    save_checkpoint(tmp_path / "m.ckpt", _checkpoint_arrays(cfg), cfg.digest())
    model, adapters = _restore_backbone(tmp_path / "m.ckpt", cfg.model_config(), cfg.feature_space(), cfg.iak_config())
    (adapter,) = adapters.values()
    rng = np.random.default_rng(0)
    rep, logits = rng.normal(size=(5, model.rep_dim)), rng.normal(size=(5, model.n_heads))
    pred = adapted_prediction(model, adapter, rep, logits).prediction
    assert [type(p) for p in (pred.p_ctr, pred.p_ctcvr)] == [np.ndarray, np.ndarray]


def test_eval_does_not_depend_on_model_seed(workdir):
    """A restored model is the checkpoint alone: eval under two init seeds
    writes the same report."""
    data = "data/dataset.jsonl"
    assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
    assert _run(workdir, "pretrain", "--data", data, "--outdir", "pre") == EXIT_OK
    assert _run(workdir, "finetune", "--data", data, "--backbone", "pre/backbone.ckpt", "--outdir", "ft") == EXIT_OK
    reports = []
    for seed in (0, 7):
        assert _run(workdir, "eval", "--data", data, "--checkpoint", "ft/finetuned.ckpt", "--outdir", f"ev{seed}",
                    "--set", f"model.seed={seed}") == EXIT_OK
        reports.append((workdir / f"ev{seed}" / "report.csv").read_bytes())
    assert reports[0] == reports[1] and reports[0].count(b"iak:") > 0


# sha256 of what a tiny gen-data -> pretrain -> finetune -> eval at TINY_CFG
# writes: each checkpoint's array bytes concatenated in file order, and each
# CSV's bytes. The table's column ranges are contiguous and in order, so the
# checkpoint pins are the same whether it is stored as one block or as a
# block per id column.
PIPELINE_SHA256 = {
    "pre/backbone.ckpt": "f06257fe5bdd4bdeb7cc72837e926873541bacc70c7ec7d472234e6d61827bf3",
    "pre/pretrain_curve.csv": "2e5fb781f0e8926bbd306f845562c4d8e4ea25f0609591f2c37106cb438c84a3",
    "ft/finetuned.ckpt": "de544abb9a488ee20c21345edeb8a91096e9c849b659c60dfb948ed3be4d182d",
    "ft/finetune_curve.csv": "66037d5eb4fe866a0c821f8bec56607f0d6baf74f7e26f72b11a0b8195da3b75",
    "ev/report.csv": "9e490532a6b2811f71916cb21d29125c6f59c7f7b452e31d8436f124f8c06dcb",
}


@pytest.fixture(scope="module")
def pinned_run(tmp_path_factory):
    """The tiny pipeline at TINY_CFG, run once for the pinned-bits tests."""
    workdir = tmp_path_factory.mktemp("pinned")
    (workdir / "run.cfg").write_text(TINY_CFG, encoding="utf-8")
    data = "data/dataset.jsonl"
    assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
    assert _run(workdir, "pretrain", "--data", data, "--outdir", "pre") == EXIT_OK
    assert _run(workdir, "finetune", "--data", data, "--backbone", "pre/backbone.ckpt", "--outdir", "ft") == EXIT_OK
    assert _run(workdir, "eval", "--data", data, "--checkpoint", "ft/finetuned.ckpt", "--outdir", "ev") == EXIT_OK
    return workdir


def test_the_pipeline_writes_pinned_bits(pinned_run):
    """Every bit the tiny pipeline writes is pinned: a change that moves a
    score, a loss, a weight or the order of a checkpoint's bytes fails here.
    The pins hold for one numpy and BLAS build; another may round a matrix
    product differently, and only that is a reason to re-pin."""
    got = {}
    for name in PIPELINE_SHA256:
        h = hashlib.sha256()
        if name.endswith(".ckpt"):
            for arr in load_checkpoint(pinned_run / name)[0].values():
                h.update(arr.tobytes())
        else:
            h.update((pinned_run / name).read_bytes())
        got[name] = h.hexdigest()
    assert got == PIPELINE_SHA256
    assert (pinned_run / "ev" / "report.csv").read_bytes().count(b"iak:") > 0


def _request_line(user=1, **domain_ids):
    return json.dumps({"user_id": user, "item_id": 2, "domain_ids": domain_ids, "feature_ids": [1, 3]}).encode() + b"\n"


# a request for each trained period (the adapters of `period=*`), an untrained
# period, a request without `period`, an out-of-vocab user and a malformed line
SERVE_STREAM = b"".join([
    *(_request_line(scene=0, region=1, period=p) for p in (0, 1, 2)),
    _request_line(scene=1, region=0, period=3),
    _request_line(scene=1, region=2),
    _request_line(user=10**6, scene=0, region=0, period=1),
    b'{"user_id": 1\n',
])
SERVED = ["period=0", "period=1", "period=2", "zero_shot", "zero_shot", "period=1", None]
# sha256 of what `serve` writes for SERVE_STREAM on the pinned run's finetuned
# checkpoint, with each `"latency_micros": N` field cut out
SERVE_SHA256 = "7161bbfc00f1024e5ff42f4175804341a23f84e66b47c6f088a78958aacbbf5f"


@pytest.mark.parametrize("lazy", ["false", "true"], ids=["eager", "lazy"])
def test_serve_writes_pinned_bits(pinned_run, monkeypatch, capsys, lazy):
    """Every byte `serve` writes but the latencies is pinned, in both
    activation modes: a change that moves a served score, an adapter pick or
    an error reply fails here."""
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(SERVE_STREAM), encoding="utf-8"))
    capsys.readouterr()
    assert _run(pinned_run, "serve", "--checkpoint", "ft/finetuned.ckpt", "--set",
                f"router.lazy_activation={lazy}") == EXIT_OK
    out = capsys.readouterr().out.encode()
    assert [json.loads(line).get("served_by") for line in out.splitlines()] == SERVED
    assert hashlib.sha256(re.sub(rb', "latency_micros": \d+', b"", out)).hexdigest() == SERVE_SHA256


def test_eval_and_serve_read_only_the_posterior_means(pinned_run, tmp_path, monkeypatch, capsys):
    """Eval and serving score each adapter with its encoder's posterior
    means: shifting every `enc0.rho_w` and `rho_b` block of the finetuned
    checkpoint, the posterior scales fine-tuning samples with, leaves
    `report.csv` and every byte `serve` writes but the latencies as they
    are."""
    arrays, digest = load_checkpoint(pinned_run / "ft" / "finetuned.ckpt")
    rho = [name for name in arrays if re.fullmatch(r"adapter/[^/]+/enc0\.rho_[wb]", name)]
    assert len(rho) == 6  # rho_w and rho_b of the three `period=*` adapters
    save_checkpoint(tmp_path / "shifted.ckpt", {n: a + 1.5 if n in rho else a for n, a in arrays.items()}, digest)
    (tmp_path / "run.cfg").write_text(TINY_CFG, encoding="utf-8")
    assert _run(tmp_path, "eval", "--data", str(pinned_run / "data" / "dataset.jsonl"), "--checkpoint",
                "shifted.ckpt", "--outdir", "ev") == EXIT_OK
    assert (tmp_path / "ev" / "report.csv").read_bytes() == (pinned_run / "ev" / "report.csv").read_bytes()
    served = []
    for workdir, ckpt in ((pinned_run, "ft/finetuned.ckpt"), (tmp_path, "shifted.ckpt")):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(SERVE_STREAM), encoding="utf-8"))
        capsys.readouterr()
        assert _run(workdir, "serve", "--checkpoint", ckpt) == EXIT_OK
        served.append(re.sub(r', "latency_micros": \d+', "", capsys.readouterr().out))
    assert served[0] == served[1] and served[0].count("served_by") == len(SERVED) - 1


def test_a_checkpoint_with_a_table_block_per_id_column_exits_5_naming_the_table(workdir, capsys):
    """A checkpoint in the layout written before the table became one block
    (a block per id column, `user_emb.rows` to `feat3_emb.rows`) is not
    read: `eval` exits 5 naming the block it lacks."""
    assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
    cfg = RunConfig(TINY_SIZES)
    model = build_model(cfg.model_config(), cfg.feature_space(), seed=0)
    table, *dense = model.parameters()
    blocks = {name: table.data[start:end] for name, (start, end) in model.embeddings.ranges.items()}
    save_checkpoint(workdir / "old.ckpt", {**blocks, **{p.name: p.data for p in dense}}, cfg.digest())
    capsys.readouterr()
    assert _run(workdir, "eval", "--data", "data/dataset.jsonl", "--checkpoint", "old.ckpt") == EXIT_SCHEMA
    assert capsys.readouterr().err == "iakrec: error: checkpoint missing parameter 'embeddings.rows'\n"
    assert not any(p.name.startswith("eval-") for p in workdir.iterdir())


def _damage(arrays, name, how):
    if how == "missing":
        del arrays[name]
    elif how == "shape":
        arrays[name] = arrays[name][..., :-1]
    elif how == "int64":  # saved as an `<i8` block
        arrays[name] = arrays[name].astype(np.int64)
    else:
        arrays[name] = arrays[name].copy()
        bad = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[how]
        if name == "embeddings.rows":
            arrays[name][1 + 3, -1] = bad  # user 3's row, in the user range
        else:
            arrays[name].flat[-1] = bad


@pytest.mark.parametrize("command, name, how", [
    ("eval", "stacked_logits.w", "nan"),
    ("eval", "embeddings.rows", "inf"),
    ("eval", "adapter/period=0/dec_out.w", "nan"),
    ("eval", "adapter/period=0/enc0.rho_b", "-inf"),
    ("eval", "stacked_logits.b", "missing"),
    ("eval", "tower_ctr.l0.w", "shape"),
    ("eval", "adapter/period=0/enc0.mu_w", "shape"),
    ("serve", "stacked_logits.w", "nan"),
    ("serve", "embeddings.rows", "inf"),
    ("serve", "adapter/period=0/dec0.w", "nan"),
    ("serve", "adapter/period=0/dec_out.b", "missing"),
    ("finetune", "embeddings.rows", "nan"),
    ("finetune", "stacked_logits.b", "shape"),
    ("eval", "embeddings.rows", "int64"),
    ("eval", "adapter/period=0/enc0.mu_w", "int64"),
    ("serve", "adapter/period=0/dec0.w", "int64"),
    ("finetune", "stacked_logits.w", "int64"),
])
def test_damaged_checkpoint_exits_5_naming_the_parameter(workdir, monkeypatch, capsys, command, name, how):
    """A checkpoint array that is missing, of the wrong shape, holds NaN or
    Inf, or is stored as int64 is a one-line data error (exit 5) that names
    the parameter, with no run directory; `serve` reads no request. A NaN
    or Inf in the table is also placed by its row and column range."""
    assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
    cfg = RunConfig(TINY_SIZES)
    arrays = _checkpoint_arrays(cfg)
    _damage(arrays, name, how)
    save_checkpoint(workdir / "model.ckpt", arrays, cfg.digest())
    stdin = io.TextIOWrapper(io.BytesIO(REQUEST))
    monkeypatch.setattr(sys, "stdin", stdin)
    args = {
        "eval": ["--data", "data/dataset.jsonl", "--checkpoint", "model.ckpt"],
        "serve": ["--checkpoint", "model.ckpt"],
        "finetune": ["--data", "data/dataset.jsonl", "--backbone", "model.ckpt"],
    }[command]
    before = set(workdir.iterdir())
    capsys.readouterr()
    assert _run(workdir, command, *args) == EXIT_SCHEMA
    out, err = capsys.readouterr()
    assert err.startswith("iakrec: error:") and repr(name) in err and err.count("\n") == 1
    if name == "embeddings.rows" and how != "int64":
        assert err.endswith("'embeddings.rows' holds NaN or Inf (row 4, in 'user_emb.rows')\n")
    assert out == "" and stdin.buffer.tell() == 0
    assert set(workdir.iterdir()) == before


def test_eval_of_a_checkpoint_storing_a_parameter_twice_exits_5(workdir, capsys):
    assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
    cfg = RunConfig(TINY_SIZES)
    blocks = list(_checkpoint_arrays(cfg).items())
    (workdir / "model.ckpt").write_bytes(checkpoint_bytes([*blocks, blocks[0]], cfg.digest()))
    capsys.readouterr()
    assert _run(workdir, "eval", "--data", "data/dataset.jsonl", "--checkpoint", "model.ckpt") == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert f"{blocks[0][0]!r} is stored twice" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["pretrain", "eval"])
def test_non_finite_values_exit_1_with_one_line(workdir, capsys, command):
    """A run that diverges (pretraining at lr 1e200) and finite weights that
    overflow a forward (every backbone parameter times 1e100) end in one
    error line and the "anything else" code, not a traceback, and leave no
    run directory."""
    assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
    if command == "pretrain":
        args = ["--data", "data/dataset.jsonl", "--set", "train.lr=1e200", "--set", "train.batch_size=16"]
    else:
        cfg = RunConfig(TINY_SIZES)
        model = build_model(cfg.model_config(), cfg.feature_space(), seed=0)
        save_checkpoint(workdir / "model.ckpt", {n: a * 1e100 for n, a in model.named_parameters().items()},
                        cfg.digest())
        args = ["--data", "data/dataset.jsonl", "--checkpoint", "model.ckpt"]
    capsys.readouterr()
    assert _run(workdir, command, *args) == 1
    err = capsys.readouterr().err
    assert err.startswith("iakrec: error: non-finite") and err.count("\n") == 1
    assert not any(p.name.startswith(f"{command}-") for p in workdir.iterdir())


@pytest.mark.parametrize("command", ["eval", "serve"])
def test_only_the_table_block_outlives_the_restore_and_only_as_long_as_the_model(workdir, monkeypatch, command):
    """`eval` and `serve` keep the model and the adapters and, of the arrays
    they were restored from, only the table block, which the model reads in
    place: every other loaded array is dead once restored, and the table
    block (with the checkpoint's mapping) dies with the model."""
    assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
    cfg = RunConfig(TINY_SIZES)
    save_checkpoint(workdir / "model.ckpt", _checkpoint_arrays(cfg), cfg.digest())
    refs, checked, models = {}, [], []

    def load(path):
        arrays, digest = load_checkpoint(path)
        refs.update((name, weakref.ref(a)) for name, a in arrays.items())
        return arrays, digest

    def alive():
        gc.collect()
        return {name for name, ref in refs.items() if ref() is not None}

    def check(model):
        checked.append((alive(), model.embeddings.rows.data is refs["embeddings.rows"]()))
        models.append(weakref.ref(model))

    def serve(router, stdin, stdout):
        check(router.backbone)
        return EXIT_OK

    def split_pass(model, dataset):
        check(model)
        return SplitPass(model, dataset)

    monkeypatch.setattr(cli, "load_checkpoint", load)
    monkeypatch.setattr(cli, "serve", serve)
    monkeypatch.setattr(cli, "SplitPass", split_pass)
    args = {"eval": ["--data", "data/dataset.jsonl"], "serve": []}[command]
    assert _run(workdir, command, *args, "--checkpoint", "model.ckpt") == EXIT_OK
    assert len(refs) > 1 and checked == [({"embeddings.rows"}, True)]
    assert alive() == set() and models[0]() is None


def test_eval_peak_memory_stays_under_a_tenth_of_the_checkpoint(workdir, capsys):
    """An eval whose checkpoint is nearly all embedding table traces under a
    tenth of the checkpoint's size: the file is mapped, the blank model
    holds no table, and the restore keeps the table where the file is
    mapped, copying only the dense arrays. Any whole-table copy (a read of
    the file, zero tables, or a restore that copies the table) would put it
    at the checkpoint's size or above."""
    sizes = ["--set", "datagen.n_users=300000", "--set", "datagen.n_days=2", "--set", "datagen.records_per_day=200"]
    assert _run(workdir, "gen-data", "--outdir", "data", *sizes) == EXIT_OK
    cfg = RunConfig({**TINY_SIZES, "datagen.n_users": "300000"})
    save_checkpoint(workdir / "model.ckpt", _checkpoint_arrays(cfg), cfg.digest())
    size = (workdir / "model.ckpt").stat().st_size
    assert size > 15e6
    tracemalloc.start()
    try:
        code = _run(workdir, "eval", "--data", "data/dataset.jsonl", "--checkpoint", "model.ckpt", *sizes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK, capsys.readouterr().err
    assert peak < size / 10, f"peak {peak / 1e6:.1f} MB for a {size / 1e6:.1f} MB checkpoint"
