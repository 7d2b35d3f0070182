"""Experiment harness: the sweeps and comparisons reported by the evaluation
suite, each emitting one deterministic CSV.

Kinds:
    window_sweep     fine-tune on the last {1,3,5,7,...} days, AUC per window
    de_sweep         encoder dimension grid
    beta_sweep       regularizer grid, with the encoder MI diagnostic
    overlap          isolated vs weighted cross-domain fine-tuning of the
                     highest-weighted domain of eval.overlap_weights (the
                     first listed on a tie), the one its mixed stream trains
    baseline_compare zero-shot vs adapted AUC for each model kind, with the
                     score-label KL diagnostic

Each kind is one entry of `KINDS`: its conditions, the domains it reports
and its diagnostic. A condition is a label, the `--set` overrides its
backbone pretrains under, and those it fine-tunes under (None for the
zero-shot backbone). Backbone overrides name pretraining settings; the data
is drawn once, from the base settings. The one runner groups conditions by
backbone, the digest of the keys pretraining reads, and for each (backbone,
seed) pretrains or restores it once, scores the test split once, and
fine-tunes each condition the way `iakrec finetune` does: under the base
settings, its backbone overrides, then its fine-tune overrides. So a row is
`iakrec finetune --set ... --set train.seed=<seed>` on the cached
`backbone-<digest>-s<seed>.ckpt`, then `iakrec eval`: the `evals.EvalReport`
of one (condition, seed, domain) slice, written by `evals.write_csv` as
`eval` writes `report.csv`. Summary rows carry seed="mean".
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import DEFAULTS, RunConfig
from .datagen import Dataset, expand_domain_selectors, generate, split_chronological
from .evals import EvalReport, SplitPass, check_bins, encoder_mi, report_from_scores, score_label_decile_kl, write_csv
from .models import ModelError, MultiTaskModel, build_model, encode_records
from .trainer import finetune_all, mixing_primary, pretrain

CSV_HEADER = ("experiment", "condition", "seed", "domain", "ctr_auc", "ctcvr_auc", "encoder_mi", "score_label_kl")

# the keys pretraining reads; the seed is the `eval.seeds` entry
_BACKBONE_KEYS = (
    *(k for k in DEFAULTS if k.startswith("datagen.")),
    "model.kind", "model.hidden_sizes", "model.n_experts", "model.embed_dim", "model.loss_weights",
    "train.batch_size", "train.epochs", "train.lr", "train.adagrad_decay", "train.adagrad_epsilon",
)


class ExperimentError(ValueError):
    pass


def pretrained(run: RunConfig, workdir: Path, seed: int, train: Dataset) -> MultiTaskModel:
    """The backbone `run` pretrains at `seed`, cached under `<workdir>/cache`
    (made only to save one) by the digest of the keys pretraining reads. A
    cache file that does not restore (one saved in an older block layout,
    say) is an `ExperimentError` naming the file to delete."""
    digest = run.digest(_BACKBONE_KEYS)
    path = Path(workdir) / "cache" / f"backbone-{digest[:12]}-s{seed}.ckpt"
    cached = path.exists()
    model = build_model(run.model_config(), run.feature_space(), seed=None if cached else seed)
    if cached:
        try:
            model.restore(load_checkpoint(path)[0])
        except (CheckpointError, ModelError) as e:
            msg = f"cached backbone {path} does not restore; delete it to pretrain again ({e})"
            raise ExperimentError(msg) from e
    else:
        pretrain(model, train, replace(run.train_config(), seed=seed))
        path.parent.mkdir(parents=True, exist_ok=True)
        save_checkpoint(path, model.named_parameters(), digest)
    model.freeze()
    return model


# (label, --set overrides its backbone pretrains under, --set overrides to
# fine-tune under or None for the zero-shot backbone)
Condition = tuple[str, dict[str, str], dict[str, str] | None]


def _grid(key: str, read: Callable[[RunConfig, str], list], setting: str, label: str):
    """One condition per value of the grid at `key`, read with its typed
    accessor: `setting` set to that value."""
    return lambda cfg: [(label.format(v), {}, {setting: str(v)}) for v in read(cfg, key)]


def _overlap_conditions(cfg: RunConfig) -> list[Condition]:
    """The primary domain of eval.overlap_weights (`mixing_primary`, the one
    the mixed stream trains) fine-tuned alone, then on the weighted stream."""
    weights = cfg.get_weight_map("eval.overlap_weights")
    if not weights:
        raise ExperimentError("overlap needs eval.overlap_weights")
    mixed = {"train.finetune_domains": ",".join(sorted(weights)), "train.mixing": cfg.get("eval.overlap_weights")}
    return [("isolated", {}, {"train.finetune_domains": mixing_primary(weights)}), ("mixed", {}, mixed)]


@dataclass(frozen=True)
class Kind:
    conditions: Callable[[RunConfig], list[Condition]]
    report: Callable[[RunConfig], str] | None = None  # the one domain to report; else every fine-tuned one
    with_mi: bool = False  # encoder MI diagnostic
    with_kl: bool = False  # score-label KL diagnostic


KINDS = {
    "window_sweep": Kind(_grid("eval.windows", RunConfig.get_int_list, "train.finetune_window_days", "window={}")),
    "de_sweep": Kind(_grid("eval.de_grid", RunConfig.get_int_list, "iak.d_e", "d_e={}")),
    "beta_sweep": Kind(_grid("eval.betas", RunConfig.get_float_list, "iak.beta", "beta={:g}"), with_mi=True),
    "overlap": Kind(_overlap_conditions, report=lambda cfg: mixing_primary(cfg.get_weight_map("eval.overlap_weights"))),
    "baseline_compare": Kind(lambda cfg: [(f"kind={k}:{label}", {"model.kind": k}, overrides)
                                          for k in cfg.get_list("eval.baseline_kinds")
                                          for label, overrides in (("zero_shot", None), ("iak", {}))], with_kl=True),
}
EXPERIMENT_KINDS = tuple(KINDS)


def experiment_rows(kind: str, cfg: RunConfig, workdir: Path) -> list[EvalReport]:
    """Every row of one experiment kind, summary rows last. Each setting a
    row reads is checked before the data is drawn or a backbone pretrained,
    and no condition or seed, or one given twice, is an error."""
    if kind not in KINDS:
        raise ExperimentError(f"unknown experiment kind {kind!r}; choose from {EXPERIMENT_KINDS}")
    spec = KINDS[kind]
    conditions = spec.conditions(cfg)
    seeds = cfg.get_int_list("eval.seeds")
    for what, entries in (("condition", [label for label, _, _ in conditions]), ("eval.seeds entry", seeds)):
        if not entries:
            raise ExperimentError(f"{kind} has no {what} to run")
        if twice := [e for i, e in enumerate(entries) if e in entries[:i]]:
            raise ExperimentError(f"{what} {twice[0]!r} is given twice")
    bins = check_bins(cfg.get_int("eval.mi_bins")) if spec.with_mi else None
    report = spec.report(cfg) if spec.report else None
    runs = {}  # (backbone digest, seed) in order of first appearance -> (its run config, its conditions)
    for label, backbone_overrides, overrides in conditions:
        pre = RunConfig(cfg.values, backbone_overrides)
        run = RunConfig(pre.values, overrides)
        run.model_config()  # built only to be checked: `pretrained` builds the backbone's
        train_config, iak_config = run.train_config(), run.iak_config()
        for seed in seeds:
            _, group = runs.setdefault((pre.digest(_BACKBONE_KEYS), seed), (pre, []))
            group.append((label, overrides, replace(train_config, seed=seed), iak_config))
    ratio = cfg.split_ratio()
    train, test = split_chronological(generate(cfg.generator_config()), ratio)
    test = encode_records(test, cfg.feature_space())
    rows = []
    for (_, seed), (pre, group) in runs.items():
        backbone = pretrained(pre, workdir, seed, train)
        split = SplitPass(backbone, test)
        for label, overrides, train_config, iak_config in group:
            selectors = expand_domain_selectors(train_config.finetune_domains, train)
            if overrides is None:
                adapters, domains = None, selectors
            else:
                adapters = finetune_all(backbone, train, selectors, train_config, iak_config).adapters
                domains = {key: a.domain_key for key, a in adapters.items() if report in (None, key)}
            for key, idx, sub in split.slices(domains):
                p_ctr, p_ctcvr = split.zero_shot(idx) if adapters is None else split.adapted(adapters[key], idx)
                row = report_from_scores(p_ctr, p_ctcvr, sub, "test", label, seed)
                row.domain = key
                if spec.with_mi:
                    row.encoder_mi = encoder_mi(adapters[key], split.rep[idx], bins=bins, seed=seed)
                if spec.with_kl:
                    row.score_label_kl = score_label_decile_kl(p_ctr, sub.click, sub.item)
                rows.append(row)
    return rows + _mean_rows(rows)


_MEANS = ("ctr_auc", "ctcvr_auc", "encoder_mi", "score_label_kl")
_COUNTS = ("n_pos_ctr", "n_neg_ctr", "n_pos_ctcvr", "n_neg_ctcvr")


def _mean_rows(rows: list[EvalReport]) -> list[EvalReport]:
    """One summary row per (condition, domain), in that order, with seed
    "mean": each score and diagnostic is the mean over the seeds that define
    it (None if none does), and each count is summed."""
    groups: dict[tuple[str, str], list[EvalReport]] = {}
    for r in rows:
        groups.setdefault((r.model_id, r.domain), []).append(r)

    def mean_of(vals):
        vals = [v for v in vals if v is not None]
        return float(np.mean(vals)) if vals else None

    return [EvalReport(grp[0].dataset_id, condition, seed="mean", domain=domain,
                       **{f: mean_of([getattr(g, f) for g in grp]) for f in _MEANS},
                       **{f: sum(getattr(g, f) for g in grp) for f in _COUNTS})
            for (condition, domain), grp in sorted(groups.items())]


def write_rows(kind: str, rows: list[EvalReport], outdir: Path) -> Path:
    """Write `<outdir>/<kind>.csv`; returns its path."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return write_csv(outdir / f"{kind}.csv", CSV_HEADER, [
        (kind, r.model_id, r.seed, r.domain, r.ctr_auc, r.ctcvr_auc, r.encoder_mi, r.score_label_kl) for r in rows])
