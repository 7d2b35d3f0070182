import csv
import itertools

import pytest

from iakrec import experiments
from iakrec.config import RunConfig
from iakrec.experiments import CSV_HEADER, EXPERIMENT_KINDS, ExperimentContext, run_experiment
from iakrec.models import MODEL_KINDS

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
    "eval.overlap_primary": "period=0",
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


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Each kind run twice in one workdir: the second run reloads the cached
    backbones the first one pretrained."""
    out = {}
    for kind in EXPERIMENT_KINDS:
        work = tmp_path_factory.mktemp(kind)
        paths = [run_experiment(kind, RunConfig(TINY), work / f"run{i}", work) for i in range(2)]
        out[kind] = [p.read_bytes() for p in paths]
    return out


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


def test_diagnostic_columns(reports):
    col = {name: i for i, name in enumerate(CSV_HEADER)}
    for kind, blobs in reports.items():
        for r in _rows(blobs[0])[1:]:
            assert r[col["ctr_auc"]] != ""
            assert (r[col["encoder_mi"]] != "") == (kind == "beta_sweep")
            assert (r[col["score_label_kl"]] != "") == (kind == "baseline_compare")


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_one_test_pass_per_backbone(kind, tmp_path, monkeypatch):
    """Outside pretraining and fine-tuning, the backbone runs once over the
    test split per (model kind, seed), whatever the grid or the domains."""
    training, scored = [], []

    def flagged(fn):
        def run(*args, **kwargs):
            training.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                training.pop()
        return run

    for name in ("pretrain", "finetune_all"):
        monkeypatch.setattr(experiments, name, flagged(getattr(experiments, name)))
    for cls in MODEL_KINDS.values():
        def counted(self, batch, forward=cls.forward_full):
            if not training:
                scored.append(len(batch))
            return forward(self, batch)
        monkeypatch.setattr(cls, "forward_full", counted)
    cfg = RunConfig(TINY)
    run_experiment(kind, cfg, tmp_path / "run", tmp_path)
    _, test = ExperimentContext(cfg, tmp_path).dataset()
    backbones = len(cfg.get_list("eval.baseline_kinds")) if kind == "baseline_compare" else 1
    assert scored == [len(test)] * backbones * len(SEEDS)
