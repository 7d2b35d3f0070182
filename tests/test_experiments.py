import csv
import hashlib
import itertools
import re
from pathlib import Path

import pytest

from iakrec import autodiff as ad
from iakrec import experiments, trainer
from iakrec.checkpoint import load_checkpoint, save_checkpoint
from iakrec.cli import EXIT_CONFIG, EXIT_OK, EXIT_SCHEMA, EXIT_USAGE, main
from iakrec.config import ConfigError, RunConfig
from iakrec.datagen import expand_domain_selectors, generate, split_chronological
from iakrec.experiments import (CSV_HEADER, EXPERIMENT_KINDS, KINDS, ExperimentError, Kind, experiment_rows, pretrained,
                                write_rows)
from iakrec.models import MODEL_KINDS, build_model
from iakrec.trainer import _finetune_joint, finetune_all, mix_domains

TINY = {
    "datagen.n_users": "60",
    "datagen.n_items": "30",
    "datagen.n_days": "4",
    "datagen.records_per_day": "500",
    "datagen.split_ratio": "3:1",
    "datagen.period_shifts": "0.5,-0.5,0.8",
    "datagen.period_tilts": "0.3,0.3,-0.3",
    "model.hidden_sizes": "8,4",
    "train.batch_size": "128",
    "iak.d_e": "4",
    "iak.decoder_hidden": "4",
    "eval.seeds": "0,1",
    "eval.windows": "1,2",
    "eval.de_grid": "2,4",
    "eval.betas": "0,0.1",
    "eval.baseline_kinds": "esmm,base",
    "eval.overlap_weights": "period=0:0.7,period=1:0.3",
}
SEEDS = ["0", "1"]
PERIODS = ["period=0", "period=1", "period=2"]

# kind -> (conditions in run order, domains each condition reports)
EXPECTED = {
    "window_sweep": (["window=1", "window=2"], PERIODS),
    "de_sweep": (["d_e=2", "d_e=4"], PERIODS),
    "beta_sweep": (["beta=0", "beta=0.1"], PERIODS),
    "overlap": (["isolated", "mixed"], ["period=0"]),
    "baseline_compare": (
        ["kind=esmm:zero_shot", "kind=esmm:iak", "kind=base:zero_shot", "kind=base:iak"],
        PERIODS,
    ),
}


def _run(kind, cfg, outdir, workdir):
    """What `iakrec experiment` writes: the kind's CSV under `outdir`."""
    return write_rows(kind, experiment_rows(kind, cfg, workdir), outdir)


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Each kind run twice in one workdir: the second run reloads the cached
    backbones the first one pretrained."""
    out = {}
    for kind in EXPERIMENT_KINDS:
        work = tmp_path_factory.mktemp(kind)
        paths = [_run(kind, RunConfig(TINY), work / f"run{i}", work) for i in range(2)]
        out[kind] = [p.read_bytes() for p in paths]
    return out


def _split(cfg):
    """The (train, test) split an experiment draws at `cfg`."""
    return split_chronological(generate(cfg.generator_config()), cfg.get_ratio("datagen.split_ratio"))


def _rows(blob: bytes) -> list[list[str]]:
    return list(csv.reader(blob.decode("utf-8").splitlines()))


def test_every_kind_is_covered():
    assert sorted(EXPECTED) == sorted(EXPERIMENT_KINDS)


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_rows_per_condition_seed_and_domain(kind, reports):
    header, *rows = _rows(reports[kind][0])
    assert tuple(header) == CSV_HEADER
    assert {r[0] for r in rows} == {kind}
    conditions, domains = EXPECTED[kind]
    per_seed = [r for r in rows if r[2] != "mean"]
    means = [r for r in rows if r[2] == "mean"]
    assert sorted(tuple(r[1:4]) for r in per_seed) == sorted(itertools.product(conditions, SEEDS, domains))
    assert [tuple(r[1:4]) for r in means] == sorted((c, "mean", d) for c in conditions for d in domains)
    assert rows == per_seed + means  # summary rows come last


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_two_runs_write_identical_csvs(kind, reports):
    first, second = reports[kind]
    assert first == second


# sha256 of each kind's CSV at TINY. The pins hold for one numpy and BLAS
# build; another may round a matrix product differently, and only that is a
# reason to re-pin.
EXPERIMENT_SHA256 = {
    "window_sweep": "e72fc3dbb0c7d486bda3b1636e358a7b6f290b7a37ea6cd1d21a86ab1a0f7fea",
    "de_sweep": "8ebc2457a9c6410ac338ba48fa9fdd11738db20ede70d6ad897bc68cc6dcde05",
    "beta_sweep": "f11d34b37c0d604fdf5234510288354efb2f63006f6008d6d2c977931e21ff27",
    "overlap": "305f4dcb76749616b17c4c154811881060bbb359524f6dd85dec236df0ea8aeb",
    "baseline_compare": "67c09a094ed08563310b51f9916a7f0cd805382d072a2e5e1673169858720183",
}


def test_every_kind_writes_pinned_bits(reports):
    """Every byte of each kind's CSV is pinned: a change that moves a score,
    a diagnostic, a cell's spelling or a row's order fails here."""
    assert {kind: hashlib.sha256(blobs[0]).hexdigest() for kind, blobs in reports.items()} == EXPERIMENT_SHA256


def test_diagnostic_columns(reports):
    col = {name: i for i, name in enumerate(CSV_HEADER)}
    for kind, blobs in reports.items():
        for r in _rows(blobs[0])[1:]:
            assert r[col["ctr_auc"]] != ""
            assert (r[col["encoder_mi"]] != "") == (kind == "beta_sweep")
            assert (r[col["score_label_kl"]] != "") == (kind == "baseline_compare")


@pytest.fixture
def training(monkeypatch):
    """The stack of `pretrain` and `finetune_all` calls the experiment runner
    is inside: empty while it scores or diagnoses."""
    stack = []

    def flagged(fn):
        def run(*args, **kwargs):
            stack.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return run

    for name in ("pretrain", "finetune_all"):
        monkeypatch.setattr(experiments, name, flagged(getattr(experiments, name)))
    return stack


def _backbone_digest(cfg, backbone_overrides):
    return RunConfig(cfg.values, backbone_overrides).digest(experiments._BACKBONE_KEYS)


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_one_test_pass_per_backbone(kind, tmp_path, monkeypatch, training):
    """Outside pretraining and fine-tuning, the backbone runs once over the
    test split per (backbone, seed), whatever the grid or the domains: once
    per seed for each backbone group the kind's conditions form."""
    scored, backbones = [], []
    for cls in MODEL_KINDS.values():
        def counted(self, batch, forward=cls.forward_full):
            if not training:
                scored.append(len(batch))
            return forward(self, batch)
        monkeypatch.setattr(cls, "forward_full", counted)

    def counted_pretrained(run, workdir, seed, train):
        backbones.append((run.digest(experiments._BACKBONE_KEYS), seed))
        return pretrained(run, workdir, seed, train)

    monkeypatch.setattr(experiments, "pretrained", counted_pretrained)
    cfg = RunConfig(TINY)
    _run(kind, cfg, tmp_path / "run", tmp_path)
    _, test = _split(cfg)
    groups = list(dict.fromkeys(_backbone_digest(cfg, backbone) for _, backbone, _ in KINDS[kind].conditions(cfg)))
    assert backbones == [(digest, int(seed)) for digest in groups for seed in SEEDS]
    assert scored == [len(test)] * len(backbones)


def test_conditions_that_name_one_backbone_pretrain_it_once(tmp_path, monkeypatch):
    """Two conditions whose backbone overrides give one backbone (here the
    base kind, named or not) share one pretraining and one cache file; a
    condition whose overrides change a key pretraining reads gets its own.
    Each file is named by its backbone's digest."""
    pretrains = []
    monkeypatch.setattr(experiments, "pretrain", lambda *args: pretrains.append(trainer.pretrain(*args)))
    conditions = [("a", {}, None), ("b", {"model.kind": "base"}, {}), ("c", {"train.lr": "0.01"}, {})]
    monkeypatch.setitem(KINDS, "grouped", Kind(lambda cfg: conditions))
    cfg = RunConfig({**TINY, "eval.seeds": "0"})
    rows = experiment_rows("grouped", cfg, tmp_path)
    assert len(pretrains) == 2
    names = sorted(p.name for p in (tmp_path / "cache").iterdir())
    assert names == sorted(f"backbone-{_backbone_digest(cfg, o)[:12]}-s0.ckpt" for o in ({}, {"train.lr": "0.01"}))
    assert [r.model_id for r in rows if r.seed == 0] == ["a"] * 3 + ["b"] * 3 + ["c"] * 3


@pytest.mark.parametrize("kind", ["de_sweep", "beta_sweep"])
def test_scoring_and_diagnostics_record_no_graph(kind, tmp_path, monkeypatch, training):
    """The adapters `finetune_all` hands the runner are frozen, so no op that
    scores a slice or runs the MI diagnostic records a graph."""
    recorded, make_op = [], ad._make

    def make(data, parents, backward, op):
        out = make_op(data, parents, backward, op)
        if out.requires_grad and not training:
            recorded.append(op)
        return out

    monkeypatch.setattr(ad, "_make", make)
    rows = experiment_rows(kind, RunConfig({**TINY, "eval.seeds": "0"}), tmp_path)
    assert len(rows) == 12 and recorded == []


@pytest.mark.parametrize("kind, key", [("window_sweep", "eval.windows"), ("de_sweep", "eval.de_grid"),
                                       ("beta_sweep", "eval.betas")])
def test_bad_grid_fails_before_pretraining(kind, key, tmp_path):
    with pytest.raises(ConfigError, match=key):
        _run(kind, RunConfig({**TINY, key: "1,x"}), tmp_path / "run", tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_backbone_cache_keys_on_what_pretraining_reads(tmp_path):
    """A setting only fine-tuning reads reuses the cached backbone; one that
    pretraining reads writes a new one."""

    def cached_after(key, value):
        cfg = RunConfig({**TINY, key: value})
        pretrained(cfg, tmp_path, 0, _split(cfg)[0])
        return sorted(p.name for p in (tmp_path / "cache").iterdir())

    names = cached_after("eval.seeds", "0")
    assert len(names) == 1
    for key, value in [("train.lr_norms", "previous"), ("model.seed", "7"), ("iak.beta", "0.5")]:
        assert cached_after(key, value) == names, key
    for key, value in [("train.lr", "0.01"), ("model.hidden_sizes", "6,3"), ("model.kind", "esmm")]:
        after = cached_after(key, value)
        assert len(after) == len(names) + 1 and set(names) < set(after), key
        names = after


def test_a_cached_backbone_that_does_not_restore_is_named(tmp_path):
    """A cache file that no longer restores (here one without the one table
    block, as a cache written in the layout with a block per id column is)
    is an `ExperimentError`, exit 5 from the CLI, that names the file to
    delete."""
    cfg = RunConfig(TINY)
    train = _split(cfg)[0]
    pretrained(cfg, tmp_path, 0, train)
    (path,) = (tmp_path / "cache").iterdir()
    arrays, digest = load_checkpoint(path)
    save_checkpoint(path, {k: v for k, v in arrays.items() if k != "embeddings.rows"}, digest)
    message = f"cached backbone {path} does not restore; delete it to pretrain again "
    message += "(checkpoint missing parameter 'embeddings.rows')"
    with pytest.raises(ExperimentError, match=f"^{re.escape(message)}$"):
        pretrained(cfg, tmp_path, 0, train)


def _cli(tmp_path, capsys, values):
    """`main` for one command on a config file holding `values`; returns the
    command's exit code and its stdout and stderr lines."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")

    def run(command, *args):
        code = main([command, "--config", str(cfg), "--workdir", str(tmp_path), *args])
        out, err = capsys.readouterr()
        return code, out.splitlines(), err.splitlines()

    return run


def test_experiment_command_exit_codes(tmp_path, capsys):
    run = _cli(tmp_path, capsys, {k: v for k, v in TINY.items() if k != "eval.overlap_weights"})
    code, out, _ = run("experiment", "--kind", "de_sweep", "--set", "eval.seeds=0")
    assert code == EXIT_OK
    (path,) = map(Path, out)
    assert path.name == "de_sweep.csv" and path.parent.name.startswith("experiment-de_sweep-")
    assert (path.parent / "effective.cfg").exists()
    before = set(tmp_path.iterdir())
    code, out, err = run("experiment", "--kind", "overlap")
    assert (code, out) == (EXIT_SCHEMA, [])
    assert err == ["iakrec: error: overlap needs eval.overlap_weights"]
    assert set(tmp_path.iterdir()) == before  # no run directory
    with pytest.raises(SystemExit) as e:
        run("experiment", "--kind", "no_such_kind")
    assert e.value.code == EXIT_USAGE


@pytest.mark.parametrize("kind, setting, code, message", [
    ("de_sweep", "eval.de_grid=10,0", EXIT_SCHEMA, "error: d_e must be >= 1"),
    ("window_sweep", "eval.seeds=0,-1", EXIT_SCHEMA, "error: seed must be >= 0, got -1"),
    ("beta_sweep", "eval.betas=0.001,-1", EXIT_SCHEMA, "error: beta must be finite and >= 0, got -1.0"),
    ("beta_sweep", "eval.mi_bins=1", EXIT_SCHEMA, "error: bins must be >= 2"),
    ("beta_sweep", "eval.mi_bins=x", EXIT_CONFIG, "config error: eval.mi_bins: expected integer, got 'x'"),
    ("baseline_compare", "eval.baseline_kinds=base,bogus", EXIT_SCHEMA, "error: unknown model kind 'bogus'"),
    ("de_sweep", "train.finetune_domains=period=x", EXIT_SCHEMA,
     "error: bad domain key part 'period=x': the id must be an integer"),
    ("de_sweep", "train.finetune_domains=city=*", EXIT_SCHEMA,
     "error: unknown domain topic 'city'; topics are scene, region, period"),
    ("de_sweep", "datagen.split_ratio=0:0", EXIT_SCHEMA, "error: invalid split ratio 0:0"),
    ("de_sweep", "train.finetune_domains=", EXIT_SCHEMA, "error: train.finetune_domains names no domain"),
    ("de_sweep", "train.seed=-1", EXIT_SCHEMA, "error: seed must be >= 0, got -1"),
    ("window_sweep", "eval.windows=1,1", EXIT_SCHEMA, "error: condition 'window=1' is given twice"),
    ("de_sweep", "eval.de_grid=2,2", EXIT_SCHEMA, "error: condition 'd_e=2' is given twice"),
    ("beta_sweep", "eval.betas=0,0.0", EXIT_SCHEMA, "error: condition 'beta=0' is given twice"),
    ("baseline_compare", "eval.baseline_kinds=base,base", EXIT_SCHEMA,
     "error: condition 'kind=base:zero_shot' is given twice"),
    ("de_sweep", "eval.seeds=1,0,1", EXIT_SCHEMA, "error: eval.seeds entry 1 is given twice"),
    ("window_sweep", "eval.seeds=", EXIT_SCHEMA, "error: window_sweep has no eval.seeds entry to run"),
    ("de_sweep", "eval.de_grid=", EXIT_SCHEMA, "error: de_sweep has no condition to run"),
    ("baseline_compare", "eval.baseline_kinds=", EXIT_SCHEMA, "error: baseline_compare has no condition to run"),
])
def test_a_bad_experiment_setting_exits_before_any_backbone_is_pretrained(tmp_path, capsys, kind, setting, code,
                                                                          message):
    """`iakrec experiment` checks every setting a row reads (the seeds, the
    MI bins, the model kinds, the split ratio, and each condition's model,
    train and adapter configs and fine-tune domains) before it pretrains,
    and a condition or a seed given twice is an error: a bad one exits with
    its one line and leaves no cached backbone and no run directory."""
    run = _cli(tmp_path, capsys, {**TINY, "eval.seeds": "0"})
    assert run("experiment", "--kind", kind, "--set", setting) == (code, [], [f"iakrec: {message}"])
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_a_mixing_key_outside_the_finetune_domains_exits_before_any_backbone_is_pretrained(tmp_path, capsys):
    """`train.mixing` is checked against `train.finetune_domains` (here the
    default `period=*`) with the other settings, so a key neither selects is
    its one line, with no cached backbone and no run directory."""
    run = _cli(tmp_path, capsys, {**TINY, "eval.seeds": "0"})
    message = "iakrec: error: mixing references domains outside train.finetune_domains: ['scene=0']"
    assert run("experiment", "--kind", "de_sweep", "--set", "train.mixing=scene=0:1") == (EXIT_SCHEMA, [], [message])
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("kind, condition, backbone, finetune", [
    ("de_sweep", "d_e=2", {}, {"iak.d_e": "2"}),
    ("baseline_compare", "kind=esmm:iak", {"model.kind": "esmm"}, {}),
])
def test_experiment_row_is_the_cli_pipeline(tmp_path, capsys, kind, condition, backbone, finetune):
    """An experiment row is `finetune --set <backbone and fine-tune
    overrides> --set train.seed=<seed>` on the row's cached backbone, then
    `eval`, to the last digit: a de_sweep row and a baseline_compare row
    whose backbone is another model kind."""
    values = {**TINY, "eval.seeds": "0", "eval.de_grid": "2", "eval.baseline_kinds": "esmm"}
    run = _cli(tmp_path, capsys, values)

    def output(*args):
        code, out, _ = run(*args)
        assert code == EXIT_OK
        (path,) = out
        return path

    rows = _rows(Path(output("experiment", "--kind", kind)).read_bytes())
    data = output("gen-data")
    digest = _backbone_digest(RunConfig(values), backbone)
    cached = tmp_path / "cache" / f"backbone-{digest[:12]}-s0.ckpt"
    sets = [a for k, v in {**backbone, **finetune, "train.seed": "0"}.items() for a in ("--set", f"{k}={v}")]
    finetuned = output("finetune", "--data", data, "--backbone", str(cached), *sets)
    report = _rows(Path(output("eval", "--data", data, "--checkpoint", finetuned, *sets)).read_bytes())
    expected = {r[3]: (r[4], r[5]) for r in rows[1:] if r[1:3] == [condition, "0"]}
    adapted = {r[1].removeprefix("iak:"): (r[2], r[3]) for r in report[1:] if r[1].startswith("iak:")}
    assert len(expected) == 3 and adapted == expected


def test_overlap_reads_a_domain_key_however_it_is_spelled(tmp_path, reports):
    odd = {**TINY, "eval.overlap_weights": "period=00:0.7,period=1:3e-1"}
    assert _run("overlap", RunConfig(odd), tmp_path / "run", tmp_path).read_bytes() == reports["overlap"][0]


def test_baseline_compare_never_reads_the_base_model_kind(tmp_path, reports):
    """baseline_compare builds and checks the model section of each kind it
    pretrains, never the base `model.kind`, so a base kind that no model
    has changes nothing."""
    cfg = RunConfig({**TINY, "model.kind": "nope"})
    assert _run("baseline_compare", cfg, tmp_path / "run", tmp_path).read_bytes() == reports["baseline_compare"][0]


@pytest.mark.parametrize("weights", ["period=0:0.3,period=1:0.7", "period=1:0.5,period=0:0.5"])
def test_overlap_reports_the_domain_its_mixed_stream_trains(tmp_path, monkeypatch, weights):
    """The overlap kind reports the highest-weighted domain of its weights,
    the first listed on a tie: the adapter whose stream `mix_domains`
    draws, fine-tuned alone in the isolated condition."""
    trained, drawn = [], []  # (domains, whether a mixed stream was just drawn) of each joint run

    def mix(*args, **kwargs):
        drawn.append(True)
        return mix_domains(*args, **kwargs)

    def joint(backbone, cache, positions, *args, **kwargs):
        trained.append((sorted(positions), bool(drawn)))
        drawn.clear()
        return _finetune_joint(backbone, cache, positions, *args, **kwargs)

    monkeypatch.setattr(trainer, "mix_domains", mix)
    monkeypatch.setattr(trainer, "_finetune_joint", joint)
    rows = experiment_rows("overlap", RunConfig({**TINY, "eval.seeds": "0", "eval.overlap_weights": weights}),
                           tmp_path)
    assert {(r.model_id, r.domain) for r in rows} == {("isolated", "period=1"), ("mixed", "period=1")}
    assert trained == [(["period=1"], False), (["period=0"], False), (["period=1"], True)]


def test_an_undefined_auc_is_an_empty_cell_in_every_row(tmp_path, capsys):
    """A slice with one class (no purchase in the test split) has no CTCVR
    AUC: `eval`'s report.csv and an experiment CSV, its mean rows included,
    write an empty cell, while the CTR AUC and the counts are written."""
    values = {**TINY, "datagen.target_purchase_rate_given_click": "1e-6", "eval.de_grid": "2"}
    assert not _split(RunConfig(values))[1].purchase.any()
    run = _cli(tmp_path, capsys, values)
    code, out, _ = run("experiment", "--kind", "de_sweep")
    assert code == EXIT_OK
    header, *rows = _rows(Path(out[0]).read_bytes())
    assert [r[2] for r in rows] == ["0", "0", "0", "1", "1", "1", "mean", "mean", "mean"]
    assert {r[header.index("ctcvr_auc")] for r in rows} == {""}
    assert "" not in {r[header.index("ctr_auc")] for r in rows}
    _, (data,), _ = run("gen-data")
    _, (backbone,), _ = run("pretrain", "--data", data)
    _, (report,), _ = run("eval", "--data", data, "--checkpoint", backbone)
    header, row = _rows(Path(report).read_bytes())
    assert row[header.index("ctcvr_auc")] == "" and row[header.index("n_pos_ctcvr")] == "0"
    assert float(row[header.index("ctr_auc")]) > 0


def test_mixed_stream_steps_follow_the_plain_stream(tmp_path):
    """The mixing primary trains after the other domains' joint batches, and
    its step numbers go on from their last step."""
    cfg = RunConfig({**TINY, "train.finetune_domains": "period=*,scene=0",
                     "train.mixing": "period=0:0.7,period=1:0.3"})
    train, _ = _split(cfg)
    backbone = build_model(cfg.model_config(), cfg.feature_space(), seed=0)
    selectors = expand_domain_selectors(cfg.get_list("train.finetune_domains"), train)
    curve = finetune_all(backbone, train, selectors, cfg.train_config(), cfg.iak_config()).curve
    plain = [row.step for row in curve if row.domain != "period=0"]
    mixed = [row.step for row in curve if row.domain == "period=0"]
    assert len(curve) > plain[-1]  # the joint batches hold several domains' rows per step
    assert plain[0] == 1 and mixed[0] == plain[-1] + 1
    assert mixed == list(range(mixed[0], mixed[0] + len(mixed)))
