"""Experiment harness: the sweeps and comparisons reported by the evaluation
suite, each emitting one deterministic CSV.

Kinds:
    window_sweep     fine-tune on the last {1,3,5,7,...} days, AUC per window
    de_sweep         encoder dimension grid
    beta_sweep       regularizer grid, with the encoder MI diagnostic
    overlap          isolated vs weighted cross-domain fine-tuning
    baseline_compare zero-shot vs adapted AUC for each model kind, with the
                     score-label KL diagnostic

The three sweeps share one runner, driven by their rows in `SWEEPS`: each
grid value replaces one fine-tuning setting and becomes one condition.
Every row is (condition, seed, domain); summary rows carry seed="mean".
Pretrained backbones are cached on disk keyed by a config digest plus seed,
so repeated runs and different sweeps over the same base setup reuse them.
Each backbone scores the test split once, for every grid value and condition.
"""

from __future__ import annotations

import csv
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig
from .datagen import (
    InteractionRecord,
    domain_datasets,
    domain_key,
    domain_topic,
    generate,
    parse_domain_key,
    split_chronological,
)
from .evals import SplitPass, encoder_mi, report_from_scores, score_label_decile_kl
from .models import FeatureSpace, MultiTaskModel, build_model, encode_records
from .trainer import finetune_all, pretrain

CSV_HEADER = ("experiment", "condition", "seed", "domain", "ctr_auc", "ctcvr_auc", "encoder_mi", "score_label_kl")

# config sections whose keys shape the pretrained backbone
_BACKBONE_PREFIXES = ("datagen.", "model.", "train.batch_size", "train.epochs", "train.lr", "train.adagrad")


class ExperimentError(ValueError):
    pass


@dataclass
class Row:
    condition: str
    seed: str
    domain: str
    ctr_auc: float | None
    ctcvr_auc: float | None
    encoder_mi: float | None = None
    score_label_kl: float | None = None


@dataclass
class ExperimentContext:
    cfg: RunConfig
    workdir: Path

    @property
    def cache_dir(self) -> Path:
        d = self.workdir / "cache"
        d.mkdir(parents=True, exist_ok=True)
        return d

    def dataset(self) -> tuple[list[InteractionRecord], list[InteractionRecord]]:
        data = generate(self.cfg.generator_config())
        return split_chronological(data, self.cfg.get_ratio("datagen.split_ratio"))

    def space(self) -> FeatureSpace:
        return self.cfg.feature_space()

    def pretrained(self, kind: str, seed: int, train_records) -> MultiTaskModel:
        """Backbone for (kind, seed), pretrained once and cached on disk."""
        digest = self.cfg.digest(_BACKBONE_PREFIXES)
        path = self.cache_dir / f"backbone-{kind}-{digest[:12]}-s{seed}.ckpt"
        model_cfg = replace(self.cfg.model_config(), kind=kind)
        model = build_model(model_cfg, self.space(), seed=seed)
        if path.exists():
            model.restore(load_checkpoint(path)[0])
        else:
            pretrain(model, train_records, replace(self.cfg.train_config(), seed=seed))
            save_checkpoint(path, model.named_parameters(), digest)
        model.set_trainable(False)
        return model


def expand_domain_selectors(spec: list[str], records: list[InteractionRecord]) -> dict[str, dict[str, int]]:
    """Expand entries like `period=*` over the ids present in the data;
    explicit keys pass through."""
    out: dict[str, dict[str, int]] = {}
    for entry in spec:
        topic, _, value = entry.partition("=")
        if value == "*":
            topic = domain_topic(topic)
            ids = sorted({r.domain_ids[topic] for r in records})
            for i in ids:
                sel = {topic: i}
                out[domain_key(sel)] = sel
        else:
            sel = parse_domain_key(entry)
            out[domain_key(sel)] = sel
    return out


@dataclass(frozen=True)
class Sweep:
    """A grid over one fine-tuning setting."""

    grid_key: str  # eval.* key holding the grid
    read: Callable[[RunConfig, str], list]  # RunConfig list accessor for the grid
    section: str  # "train" or "iak": the config the grid value replaces a field of
    field: str
    label: str  # condition name, formatted with the grid value
    with_mi: bool = False  # add the encoder MI diagnostic


SWEEPS = {
    "window_sweep": Sweep("eval.windows", RunConfig.get_int_list, "train", "finetune_window_days", "window={}"),
    "de_sweep": Sweep("eval.de_grid", RunConfig.get_int_list, "iak", "d_e", "d_e={}"),
    "beta_sweep": Sweep("eval.betas", RunConfig.get_float_list, "iak", "beta", "beta={:g}", with_mi=True),
}


def _adapted_rows(
    ctx: ExperimentContext,
    condition: str,
    seed: int,
    split: SplitPass,
    adapters: dict,
    *,
    with_mi: bool = False,
    with_kl: bool = False,
) -> list[Row]:
    """One row per adapter whose domain has test records."""
    rows = []
    for key, idx, sub in split.slices({key: a.domain_key for key, a in adapters.items()}):
        p_ctr, p_ctcvr = split.adapted(adapters[key], idx)
        rep = report_from_scores(p_ctr, p_ctcvr, sub, "test", condition, seed)
        row = Row(condition, str(seed), key, rep.ctr_auc, rep.ctcvr_auc)
        if with_mi:
            row.encoder_mi = encoder_mi(adapters[key], split.rep[idx], bins=ctx.cfg.get_int("eval.mi_bins"), seed=seed)
        if with_kl:
            row.score_label_kl = score_label_decile_kl(p_ctr, sub.click, sub.item)
        rows.append(row)
    return rows


def _finetune(ctx, backbone, train_records, selectors, seed, *, iak=None, train=None):
    """Adapters for the selectors with training records; `iak` and `train`
    replace fields of the configured IAK and training settings."""
    iak_cfg = replace(ctx.cfg.iak_config(), **(iak or {}))
    train_cfg = replace(ctx.cfg.train_config(), seed=seed, **(train or {}))
    datasets = domain_datasets(train_records, selectors)
    return finetune_all(backbone, datasets, ctx.space(), train_cfg, iak_cfg).adapters


def _run_sweep(ctx: ExperimentContext, sweep: Sweep) -> list[Row]:
    train, test = ctx.dataset()
    enc_test = encode_records(test, ctx.space())
    selectors = expand_domain_selectors(ctx.cfg.get_list("train.finetune_domains"), train)
    kind = ctx.cfg.get("model.kind")
    rows = []
    for seed in ctx.cfg.get_int_list("eval.seeds"):
        backbone = ctx.pretrained(kind, seed, train)
        split = SplitPass(backbone, test, enc_test)
        for value in sweep.read(ctx.cfg, sweep.grid_key):
            adapters = _finetune(ctx, backbone, train, selectors, seed, **{sweep.section: {sweep.field: value}})
            rows.extend(_adapted_rows(ctx, sweep.label.format(value), seed, split, adapters, with_mi=sweep.with_mi))
    return rows


def _run_overlap(ctx: ExperimentContext) -> list[Row]:
    primary = ctx.cfg.get("eval.overlap_primary")
    weights = ctx.cfg.get_weight_map("eval.overlap_weights")
    if not primary or not weights:
        raise ExperimentError("overlap needs eval.overlap_primary and eval.overlap_weights")
    if primary not in weights:
        raise ExperimentError("overlap weights must include the primary domain")
    train, test = ctx.dataset()
    enc_test = encode_records(test, ctx.space())
    selectors = {key: parse_domain_key(key) for key in sorted(weights)}
    kind = ctx.cfg.get("model.kind")
    rows = []
    for seed in ctx.cfg.get_int_list("eval.seeds"):
        backbone = ctx.pretrained(kind, seed, train)
        split = SplitPass(backbone, test, enc_test)
        iso = _finetune(ctx, backbone, train, {primary: selectors[primary]}, seed)
        rows.extend(_adapted_rows(ctx, "isolated", seed, split, iso))
        mixed = _finetune(ctx, backbone, train, selectors, seed, train={"mixing": weights})
        rows.extend(_adapted_rows(ctx, "mixed", seed, split, {primary: mixed[primary]}))
    return rows


def _run_baseline_compare(ctx: ExperimentContext) -> list[Row]:
    train, test = ctx.dataset()
    enc_test = encode_records(test, ctx.space())
    selectors = expand_domain_selectors(ctx.cfg.get_list("train.finetune_domains"), train)
    rows = []
    for kind in ctx.cfg.get_list("eval.baseline_kinds"):
        for seed in ctx.cfg.get_int_list("eval.seeds"):
            backbone = ctx.pretrained(kind, seed, train)
            split = SplitPass(backbone, test, enc_test)
            for key, idx, sub in split.slices(selectors):
                p_ctr, p_ctcvr = split.zero_shot(idx)
                rep = report_from_scores(p_ctr, p_ctcvr, sub, "test", "zs", seed)
                kl = score_label_decile_kl(p_ctr, sub.click, sub.item)
                rows.append(
                    Row(f"kind={kind}:zero_shot", str(seed), key, rep.ctr_auc, rep.ctcvr_auc, score_label_kl=kl)
                )
            adapters = _finetune(ctx, backbone, train, selectors, seed)
            rows.extend(_adapted_rows(ctx, f"kind={kind}:iak", seed, split, adapters, with_kl=True))
    return rows


_RUNNERS = {"overlap": _run_overlap, "baseline_compare": _run_baseline_compare}
EXPERIMENT_KINDS = (*SWEEPS, *_RUNNERS)


def _mean_rows(rows: list[Row]) -> list[Row]:
    groups: dict[tuple[str, str], list[Row]] = {}
    for r in rows:
        groups.setdefault((r.condition, r.domain), []).append(r)

    def mean_of(vals):
        vals = [v for v in vals if v is not None]
        return float(np.mean(vals)) if vals else None

    out = []
    for (condition, domain), grp in sorted(groups.items()):
        out.append(
            Row(
                condition,
                "mean",
                domain,
                mean_of([g.ctr_auc for g in grp]),
                mean_of([g.ctcvr_auc for g in grp]),
                mean_of([g.encoder_mi for g in grp]),
                mean_of([g.score_label_kl for g in grp]),
            )
        )
    return out


def _fmt(v) -> str:
    if v is None:
        return ""
    return repr(float(v))


def write_rows(kind: str, rows: list[Row], path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow(
                (kind, r.condition, r.seed, r.domain, _fmt(r.ctr_auc), _fmt(r.ctcvr_auc),
                 _fmt(r.encoder_mi), _fmt(r.score_label_kl))
            )


def run_experiment(kind: str, cfg: RunConfig, outdir: Path, workdir: Path) -> Path:
    """Dispatch one experiment kind; returns the CSV path it wrote."""
    if kind not in EXPERIMENT_KINDS:
        raise ExperimentError(f"unknown experiment kind {kind!r}; choose from {EXPERIMENT_KINDS}")
    ctx = ExperimentContext(cfg, Path(workdir))
    rows = _run_sweep(ctx, SWEEPS[kind]) if kind in SWEEPS else _RUNNERS[kind](ctx)
    rows = rows + _mean_rows(rows)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{kind}.csv"
    write_rows(kind, rows, path)
    return path

