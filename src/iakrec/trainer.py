"""Two-phase training pipeline: pretrain a backbone on all domains, then
fine-tune one adapter per target domain with batch-aware dynamic learning
rates and optional weighted cross-domain mixing.

A fine-tune domain is a set of row positions in the train split. The frozen
backbone runs once over the union of every domain's rows, so a row that two
overlapping domains select (a period and a scene) is encoded and passed
through the backbone once. Jointly fine-tuned adapters train as one
`iak.AdapterBank`: each shared batch is grouped by domain and taken in one
bank step, one autodiff graph for all of its adapters, each at its own
dynamic rate."""

from __future__ import annotations

import hashlib
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .datagen import Dataset, domain_key, domain_rows, parse_domain_key, parse_domain_selectors, window_by_days
from .iak import AdapterBank, IAKAdapter, IAKConfig, adapter_step_cached, backbone_cache
from .models import MultiTaskModel, encode_records, task_bce

GRAD_NORM_FLOOR = 1e-8
SATURATION_LEVEL = 0.99  # max softmax share above this with >1 active domain


class TrainerError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """The training settings, checked when built. `finetune_domains` is the
    fine-tune selector list, checked without the data: a bad entry raises
    DatasetError, and a mixing key that no entry can select (neither an
    explicit key nor a one-topic key of a topic a `topic=*` entry expands)
    raises TrainerError naming it, as does an empty list. `finetune_all`
    takes the list expanded over the data (`datagen.expand_domain_selectors`)."""

    batch_size: int = 1024
    epochs: int = 1
    base_lr: float = 0.005
    adagrad_decay: float = 0.9999
    adagrad_epsilon: float = 1e-8
    seed: int = 0
    finetune_window_days: int = 0  # 0 = use the whole span
    finetune_domains: tuple[str, ...] = ("period=*",)
    mixing: Mapping[str, float] = field(default_factory=dict)  # kept as a read-only copy
    # "uniform" keeps adapters bit-independent of each other's labels;
    # "previous" feeds last-step gradient magnitudes into the rate softmax,
    # which couples domains through their shares
    lr_norms: str = "uniform"

    def __post_init__(self) -> None:
        # a read-only copy, so the weights checked below are the ones a fine-tune reads
        object.__setattr__(self, "mixing", MappingProxyType(dict(self.mixing)))
        if self.batch_size < 1:
            raise TrainerError("batch_size must be >= 1")
        if not 0 < self.base_lr < np.inf:
            raise TrainerError(f"base_lr must be positive and finite, got {self.base_lr}")
        if self.epochs < 1:
            raise TrainerError("epochs must be >= 1")
        if self.seed < 0:
            raise TrainerError(f"seed must be >= 0, got {self.seed}")
        if self.finetune_window_days < 0:
            raise TrainerError(f"finetune_window_days must be >= 0, got {self.finetune_window_days}")
        try:  # the optimizer's own check; its messages start with the setting's name
            ad.check_adagrad_settings(self.adagrad_decay, self.adagrad_epsilon)
        except ValueError as e:
            raise TrainerError(f"adagrad_{e}") from None
        if self.lr_norms not in ("uniform", "previous"):
            raise TrainerError(f"lr_norms must be uniform or previous, got {self.lr_norms!r}")
        if self.mixing:
            if bad := {k: w for k, w in self.mixing.items() if not 0 <= w < np.inf}:
                raise TrainerError(f"mixing weights must be finite and >= 0, got {bad}")
            total = sum(self.mixing.values())
            if abs(total - 1.0) > 1e-9:
                raise TrainerError(f"mixing weights must sum to 1, got {total}")
        if not self.finetune_domains:
            raise TrainerError("train.finetune_domains names no domain")
        selectable = {e if isinstance(e, str) else domain_key(e) for e in parse_domain_selectors(self.finetune_domains)}
        if outside := sorted(k for k in self.mixing
                             if k not in selectable and ("," in k or k.partition("=")[0] not in selectable)):
            raise TrainerError(f"mixing references domains outside train.finetune_domains: {outside}")


def model_digest(params: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name], dtype="<f8").tobytes())
    return h.hexdigest()


def _batch_indices(n: int, batch_size: int, epochs: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            yield order[start : start + batch_size]


def pretrain(
    model: MultiTaskModel,
    dataset: Dataset,
    config: TrainConfig,
) -> list[tuple[int, float, float, float]]:
    """Train the model on the full multi-domain stream. Returns the training
    curve as (step, loss, loss_ctr, loss_ctcvr) rows; ceil(N/B) steps per
    epoch. The optimizer is built before the first forward, from the model's
    trainable parameters (`pretrain_optimizer`); a frozen one never moves.
    Every step is one `ad.adagrad_decay_step`: one pass over the dense
    weights and biases, laid out as a one-row arena (each one's array is
    from then on a view of the arena's; the values are unchanged), and one
    over the rows its batch touched of the model's one embedding table,
    which keeps its array."""
    if not dataset:
        raise TrainerError("cannot pretrain on an empty dataset")
    encoded = encode_records(dataset, model.space)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x7E7]))
    opt = pretrain_optimizer(model, config)
    curve = []
    for step, idx in enumerate(_batch_indices(len(encoded), config.batch_size, config.epochs, rng), start=1):
        curve.append((step, *pretrain_step(model, encoded.take(idx), opt, config.base_lr)))
    return curve


def pretrain_optimizer(model: MultiTaskModel, config: TrainConfig) -> ad.AdagradDecay:
    """The decayed-Adagrad optimizer of the model's trainable parameters, its
    embedding table, when it trains, stepped where it is."""
    rows = model.embeddings.rows
    return ad.AdagradDecay([p for p in model.parameters() if p.requires_grad], config.adagrad_decay,
                           config.adagrad_epsilon, table=rows if rows.requires_grad else None)


def pretrain_step(model: MultiTaskModel, batch: Dataset, opt: ad.AdagradDecay, lr: float) -> tuple[float, float, float]:
    """One optimizer step of the trainable parameters on one batch. Returns
    (loss, loss_ctr, loss_ctcvr)."""
    weights = model.config.loss_weights
    ad.zero_grads(model.parameters())
    pred = model.forward_full(batch).prediction
    l_ctr = task_bce(pred.p_ctr, batch.click)
    l_ctcvr = task_bce(pred.p_ctcvr, batch.purchase)
    loss = ad.add(ad.mul(l_ctr, weights[0]), ad.mul(l_ctcvr, weights[1]))
    ad.backward(loss)
    ad.adagrad_decay_step(opt, lr)
    return float(loss.data), float(l_ctr.data), float(l_ctcvr.data)


def dynamic_lr(n_b: np.ndarray, grad_norms: np.ndarray, lam: float) -> np.ndarray:
    """Per-domain effective learning rates: softmax over active domains of
    sample count times reciprocal gradient magnitude, scaled by the base
    rate. Domains with no samples in the batch are masked to zero. A
    negative or non-finite gradient norm, or a base rate that is not finite
    and positive, raises `TrainerError`."""
    n_b = np.asarray(n_b, dtype=np.float64)
    grad_norms = np.asarray(grad_norms, dtype=np.float64)
    if not np.all(np.isfinite(grad_norms) & (grad_norms >= 0)):
        raise TrainerError("gradient norms must be finite and non-negative")
    if not 0 < lam < math.inf:  # NaN fails both
        raise TrainerError(f"base learning rate must be finite and positive, got {lam}")
    active = n_b > 0
    if not np.any(active):
        raise TrainerError("all domains empty in batch")
    w = 1.0 / np.maximum(grad_norms, GRAD_NORM_FLOOR)
    logits = n_b[active] * w[active]
    logits = logits - logits.max()
    soft = np.exp(logits)
    soft /= soft.sum()
    out = np.zeros_like(n_b)
    out[active] = soft * lam
    return out


@dataclass
class FinetuneRow:
    step: int
    domain: str
    n_batch: int
    loss: float
    grad_norm: float
    lr_effective: float
    lr_saturated: int


@dataclass
class FinetuneResult:
    adapters: dict[str, IAKAdapter]
    curve: list[FinetuneRow]


# representation, head logits, click and purchase of each cached row
Cache = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def mixing_primary(mixing: dict[str, float]) -> str | None:
    """The domain whose stream a mixing map reroutes: the highest-weighted
    key, the first listed on a tie; None for no mixing."""
    return max(mixing, key=mixing.__getitem__) if mixing else None


def mix_domains(
    positions: dict[str, np.ndarray],
    weights: dict[str, float],
    rng: np.random.Generator,
    n_slots: int,
) -> np.ndarray:
    """A stream of `n_slots` row positions: each slot is filled from domain d
    with probability weights[d], drawing d's `positions` without replacement
    until they run out, then reshuffling them for d's next epoch."""
    keys = sorted(weights)
    probs = np.array([weights[k] for k in keys])
    queues: list[list[int]] = [[] for _ in keys]
    picks = np.empty(n_slots, dtype=np.int64)
    for slot in range(n_slots):
        ki = rng.choice(len(keys), p=probs)
        if not queues[ki]:
            pool = positions[keys[ki]]
            queues[ki] = list(pool[rng.permutation(len(pool))])
        picks[slot] = queues[ki].pop()
    return picks


def finetune_all(
    backbone: MultiTaskModel,
    train: Dataset,
    selectors: dict[str, dict[str, int]],
    config: TrainConfig,
    iak_config: IAKConfig,
) -> FinetuneResult:
    """Fine-tune one adapter per domain selector on a frozen backbone.

    A domain is the set of `train` rows its selector matches, cut to the
    last `finetune_window_days` days of those rows; a selector that matches
    no row is left out, and each adapter is keyed by its selector's
    `domain_key`. Domains may overlap (a row sits in one period and one
    scene at once), but the backbone runs once over the union of the
    selected rows, and every domain reads that cache by position.

    The domains are shuffled into shared batches, and their adapters form
    one bank: each batch is one bank step, in which every adapter with rows
    in the batch steps on its own rows at its dynamic learning rate, exactly
    as it would alone; a single domain therefore trains at the base rate.
    With lr_norms="uniform" (default) the rate softmax sees only batch
    sample counts, so each adapter stays bit-independent of other domains'
    labels; "previous" feeds last-step gradient magnitudes in, which couples
    the shares (the softmax can then saturate; saturation is flagged in the
    curve rows). A mixing map, whose every key must be a selected domain,
    reroutes its primary domain's stream (`mixing_primary`: the highest
    weight, the first listed on a tie) through weighted cross-domain
    sampling; that stream is then shuffled into batches like any one-domain
    stream and trained at the base rate. The adapters come back frozen, so
    scoring with them records no graph."""
    selected = {}
    for selector in selectors.values():
        rows = domain_rows(train, selector)
        if len(rows):
            selected[domain_key(selector)] = window_by_days(train, rows, config.finetune_window_days)
    if not selected:
        raise TrainerError("no records match train.finetune_domains")
    missing = sorted(set(config.mixing) - set(selected))
    if missing:
        raise TrainerError(f"mixing references domains without rows: {missing}")
    backbone.freeze()

    union = np.unique(np.concatenate(list(selected.values())))
    encoded = encode_records(train.take(union), backbone.space)
    cache = (*backbone_cache(backbone, encoded), encoded.click, encoded.purchase)
    positions = {key: np.searchsorted(union, selected[key]) for key in sorted(selected)}

    seeds = np.random.SeedSequence([config.seed, 0xF17E]).spawn(len(positions) + 1)
    adapters = {
        key: IAKAdapter(backbone.rep_dim, backbone.n_heads, iak_config, parse_domain_key(key),
                        seed=int(s.generate_state(1)[0]))
        for (key, s) in zip(positions, seeds[:-1])
    }
    shared_rng = np.random.default_rng(seeds[-1])

    primary = mixing_primary(config.mixing)
    plain = {k: v for k, v in positions.items() if k != primary}
    curve = _finetune_joint(backbone, cache, plain, adapters, config, iak_config, shared_rng) if plain else []
    if primary is not None:
        stream = mix_domains(positions, config.mixing, shared_rng, config.epochs * len(positions[primary]))
        curve += _finetune_joint(  # the stream already spans every epoch
            backbone, cache, {primary: stream}, adapters,
            replace(config, epochs=1), iak_config, shared_rng, start_step=curve[-1].step if curve else 0,
        )
    for adapter in adapters.values():
        adapter.freeze()
    return FinetuneResult(adapters, curve)


def _finetune_joint(
    backbone: MultiTaskModel,
    cache: Cache,
    positions: dict[str, np.ndarray],
    adapters: dict[str, IAKAdapter],
    config: TrainConfig,
    iak_config: IAKConfig,
    rng: np.random.Generator,
    start_step: int = 0,
) -> list[FinetuneRow]:
    """Train `positions`' adapters on shared shuffled batches at their dynamic
    rates (exactly the base rate on one key), counting steps on from
    `start_step`. `positions[key]` are the `cache` rows of key's stream. The
    adapters form one bank; each batch is one bank step over its rows
    grouped by domain."""
    keys = sorted(positions)
    # the joint stream is every domain's positions in key order; domain_of
    # tags each entry, so a row of two domains is in the stream twice
    stream = np.concatenate([positions[k] for k in keys])
    domain_of = np.repeat(np.arange(len(keys)), [len(positions[k]) for k in keys])
    rep, base, click, purchase = cache
    bank = AdapterBank([adapters[k] for k in keys], config.adagrad_decay, config.adagrad_epsilon)
    prev_norms = np.ones(len(keys))
    rows: list[FinetuneRow] = []
    step = start_step
    for sel in _batch_indices(len(stream), config.batch_size, config.epochs, rng):
        # group the batch by domain, each domain's rows kept in batch order
        tags = domain_of[sel]
        counts = np.bincount(tags, minlength=len(keys))
        grouped = stream[sel[np.argsort(tags, kind="stable")]]
        offsets = np.concatenate(([0], np.cumsum(counts)))
        n_b = counts.astype(np.float64)
        lr_hat = dynamic_lr(n_b, prev_norms, config.base_lr)
        shares = lr_hat / config.base_lr
        saturated = int(np.sum(n_b > 0) > 1 and shares.max() > SATURATION_LEVEL)
        step += 1
        per_adapter = adapter_step_cached(
            backbone, bank, rep[grouped], base[grouped], click[grouped], purchase[grouped],
            offsets, lr_hat, iak_config.beta,
        )
        new_norms = prev_norms.copy()
        for ki, (loss, gnorm) in per_adapter.items():
            new_norms[ki] = gnorm
            rows.append(FinetuneRow(step, keys[ki], int(counts[ki]), loss, gnorm, float(lr_hat[ki]), saturated))
        if config.lr_norms == "previous":
            prev_norms = new_norms
    return rows
