"""The exit-code contract of `iakrec`: 0 success, 2 usage, 3 config error,
4 path error (an input that is missing or cannot be read), 5 data or schema
violation. Each case runs `main(argv)` in its own working directory."""

import csv
import gc
import io
import json
import os
import stat
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from iakrec import cli, datagen
from iakrec.checkpoint import load_checkpoint, save_checkpoint
from iakrec.cli import EXIT_CONFIG, EXIT_OK, EXIT_PATH, EXIT_SCHEMA, EXIT_USAGE, _restore_backbone, main
from iakrec.config import RunConfig
from iakrec.evals import SplitPass
from iakrec.datagen import read_jsonl, sidecar_path, split_chronological
from iakrec.autodiff import Tensor
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
    """Every backbone and adapter parameter restored by `eval`, `finetune`
    and `serve` is bitwise its checkpoint array, held in its own writable
    copy (no view of the arrays it was restored from), and the restore draws
    no init."""
    cfg = RunConfig({**TINY_SIZES, "model.kind": kind})
    arrays = _checkpoint_arrays(cfg, seed=3)
    save_checkpoint(tmp_path / "m.ckpt", arrays, cfg.digest())
    loads = []

    def load(path):
        loads.append(load_checkpoint(path))
        return loads[-1]

    monkeypatch.setattr(cli, "load_checkpoint", load)
    forbid_init_draws()
    model, adapters = _restore_backbone(cfg, tmp_path / "m.ckpt")
    ((loaded, _),) = loads
    restored = {**model.named_parameters(), **adapters["period=0"].named_parameters()}
    assert model.frozen and sorted(restored) == sorted(arrays)
    assert not any(p.trainable for p in adapters["period=0"].parameters())
    for name, data in restored.items():
        assert data.dtype == np.float64 and data.tobytes() == arrays[name].tobytes(), name
        assert data.flags.owndata and data.flags.writeable, name
        assert not np.shares_memory(data, loaded[name]), name


def test_restored_adapter_scores_record_no_graph(tmp_path):
    """A restored adapter is frozen where it is built, so the adapted scores
    of `eval` link no parents: no graph is recorded and no node checked."""
    cfg = RunConfig(TINY_SIZES)
    save_checkpoint(tmp_path / "m.ckpt", _checkpoint_arrays(cfg), cfg.digest())
    model, adapters = _restore_backbone(cfg, tmp_path / "m.ckpt")
    (adapter,) = adapters.values()
    rng = np.random.default_rng(0)
    rep, logits = Tensor(rng.normal(size=(5, model.rep_dim))), Tensor(rng.normal(size=(5, model.n_heads)))
    pred = adapted_prediction(model, adapter, rep, logits)
    assert [p._parents for p in (pred.p_ctr, pred.p_ctcvr)] == [(), ()]


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


def _damage(arrays, name, how):
    if how == "missing":
        del arrays[name]
    elif how == "shape":
        arrays[name] = arrays[name][..., :-1]
    elif how == "int64":  # saved as an `<i8` block
        arrays[name] = arrays[name].astype(np.int64)
    else:
        arrays[name] = arrays[name].copy()
        arrays[name].flat[-1] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[how]


@pytest.mark.parametrize("command, name, how", [
    ("eval", "stacked_logits.w", "nan"),
    ("eval", "user_emb.rows", "inf"),
    ("eval", "adapter/period=0/dec_out.w", "nan"),
    ("eval", "adapter/period=0/enc0.rho_b", "-inf"),
    ("eval", "stacked_logits.b", "missing"),
    ("eval", "tower_ctr.l0.w", "shape"),
    ("eval", "adapter/period=0/enc0.mu_w", "shape"),
    ("serve", "stacked_logits.w", "nan"),
    ("serve", "user_emb.rows", "inf"),
    ("serve", "adapter/period=0/dec0.w", "nan"),
    ("serve", "adapter/period=0/dec_out.b", "missing"),
    ("finetune", "user_emb.rows", "nan"),
    ("finetune", "stacked_logits.b", "shape"),
    ("eval", "user_emb.rows", "int64"),
    ("eval", "adapter/period=0/enc0.mu_w", "int64"),
    ("serve", "adapter/period=0/dec0.w", "int64"),
    ("finetune", "stacked_logits.w", "int64"),
])
def test_damaged_checkpoint_exits_5_naming_the_parameter(workdir, monkeypatch, capsys, command, name, how):
    """A checkpoint array that is missing, of the wrong shape, holds NaN or
    Inf, or is stored as int64 is a one-line data error (exit 5) that names
    the parameter, with no run directory; `serve` reads no request."""
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warnings on the way to the error
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
def test_the_loaded_arrays_are_dead_once_restored(workdir, monkeypatch, command):
    """`eval` and `serve` keep the model and the adapters, not the arrays
    they were restored from: a served stream would otherwise hold the
    checkpoint's whole mapping alive."""
    assert _run(workdir, "gen-data", "--outdir", "data") == EXIT_OK
    cfg = RunConfig(TINY_SIZES)
    save_checkpoint(workdir / "model.ckpt", _checkpoint_arrays(cfg), cfg.digest())
    refs, checked = [], []

    def load(path):
        arrays, digest = load_checkpoint(path)
        refs.extend(weakref.ref(a) for a in arrays.values())
        return arrays, digest

    def all_dead():
        gc.collect()
        checked.append([r() is None for r in refs])

    def serve(router, stdin, stdout):
        all_dead()
        return EXIT_OK

    def split_pass(*args):
        all_dead()
        return SplitPass(*args)

    monkeypatch.setattr(cli, "load_checkpoint", load)
    monkeypatch.setattr(cli, "serve", serve)
    monkeypatch.setattr(cli, "SplitPass", split_pass)
    args = {"eval": ["--data", "data/dataset.jsonl"], "serve": []}[command]
    assert _run(workdir, command, *args, "--checkpoint", "model.ckpt") == EXIT_OK
    assert len(checked) == 1 and len(checked[0]) == len(refs) > 0 and all(checked[0])


def test_eval_peak_memory_stays_under_one_and_a_half_checkpoints(workdir, capsys):
    """An eval whose checkpoint is nearly all embedding table traces under
    1.5x the checkpoint's size: the file is mapped, the blank model holds no
    table, and the restore makes the one copy. A second whole-file copy
    (a read of the file, or zero tables) would put it near 2x or above."""
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
    assert peak < 1.5 * size, f"peak {peak / 1e6:.1f} MB for a {size / 1e6:.1f} MB checkpoint"
