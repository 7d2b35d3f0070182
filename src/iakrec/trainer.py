"""Two-phase training pipeline: pretrain a backbone on all domains, then
fine-tune one adapter per target domain with batch-aware dynamic learning
rates and optional weighted cross-domain mixing.

Jointly fine-tuned adapters train as one `iak.AdapterBank`: each shared
batch is grouped by domain and taken in one bank step, one autodiff graph
for all of its adapters, each at its own dynamic rate."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import AdagradDecayState
from .datagen import Dataset, domain_mask, parse_domain_key, window_by_days
from .iak import AdapterBank, IAKAdapter, IAKConfig, adapter_step_cached, backbone_cache
from .models import FeatureSpace, MultiTaskModel, encode_records, task_bce

GRAD_NORM_FLOOR = 1e-8
SATURATION_LEVEL = 0.99  # max softmax share above this with >1 active domain


class TrainerError(ValueError):
    pass


@dataclass
class TrainConfig:
    batch_size: int = 1024
    epochs: int = 1
    base_lr: float = 0.005
    adagrad_decay: float = 0.9999
    adagrad_epsilon: float = 1e-8
    seed: int = 0
    finetune_window_days: int = 0  # 0 = use the whole span
    mixing: dict[str, float] = field(default_factory=dict)
    # "uniform" keeps adapters bit-independent of each other's labels;
    # "previous" feeds last-step gradient magnitudes into the rate softmax,
    # which couples domains through their shares
    lr_norms: str = "uniform"

    def validate(self) -> None:
        if self.batch_size < 1:
            raise TrainerError("batch_size must be >= 1")
        if self.base_lr <= 0:
            raise TrainerError("base_lr must be positive")
        if self.epochs < 1:
            raise TrainerError("epochs must be >= 1")
        if self.lr_norms not in ("uniform", "previous"):
            raise TrainerError(f"lr_norms must be uniform or previous, got {self.lr_norms!r}")
        if self.mixing:
            total = sum(self.mixing.values())
            if abs(total - 1.0) > 1e-9:
                raise TrainerError(f"mixing weights must sum to 1, got {total}")


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
    epoch."""
    config.validate()
    if not dataset:
        raise TrainerError("cannot pretrain on an empty dataset")
    encoded = encode_records(dataset, model.space)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x7E7]))
    opt = AdagradDecayState(decay=config.adagrad_decay, epsilon=config.adagrad_epsilon)
    curve = []
    for step, idx in enumerate(_batch_indices(len(encoded), config.batch_size, config.epochs, rng), start=1):
        curve.append((step, *pretrain_step(model, encoded.take(idx), opt, config.base_lr)))
    return curve


def pretrain_step(model: MultiTaskModel, batch: Dataset, opt: AdagradDecayState, lr: float) -> tuple[float, float, float]:
    """One optimizer step of every parameter on one batch. Returns (loss,
    loss_ctr, loss_ctcvr)."""
    params = model.parameters()
    weights = model.config.loss_weights
    ad.zero_grads(params)
    pred = model.forward_full(batch).prediction
    l_ctr = task_bce(pred.p_ctr, batch.click)
    l_ctcvr = task_bce(pred.p_ctcvr, batch.purchase)
    loss = ad.add(ad.mul(l_ctr, weights[0]), ad.mul(l_ctcvr, weights[1]))
    ad.backward(loss)
    ad.adagrad_decay_step(params, opt, lr)
    return float(loss.data), float(l_ctr.data), float(l_ctcvr.data)


def dynamic_lr(n_b: np.ndarray, grad_norms: np.ndarray, lam: float) -> np.ndarray:
    """Per-domain effective learning rates: softmax over active domains of
    sample count times reciprocal gradient magnitude, scaled by the base
    rate. Domains with no samples in the batch are masked to zero."""
    n_b = np.asarray(n_b, dtype=np.float64)
    grad_norms = np.asarray(grad_norms, dtype=np.float64)
    if np.any(grad_norms < 0):
        raise TrainerError("gradient norms must be non-negative")
    if lam <= 0:
        raise TrainerError("base learning rate must be positive")
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


def mix_domains(
    primary_dataset: Dataset,
    aux_datasets: dict[str, Dataset],
    weights: dict[str, float],
    rng: np.random.Generator,
    primary_key: str,
    n_slots: int,
) -> Dataset:
    """A stream of `n_slots` rows: each slot is filled from domain d with
    probability weights[d], drawing without replacement until a domain's
    rows run out, then reshuffling that domain for its next epoch."""
    total = sum(weights.values())
    if abs(total - 1.0) > 1e-9:
        raise TrainerError(f"mixing weights must sum to 1, got {total}")
    pools = {primary_key: primary_dataset}
    pools.update(aux_datasets)
    for key in weights:
        if key not in pools:
            raise TrainerError(f"mixing weight for unknown domain {key!r}")
    keys = sorted(weights)
    probs = np.array([weights[k] for k in keys])
    offsets = np.cumsum([0] + [len(pools[k]) for k in keys])
    queues: list[list[int]] = [[] for _ in keys]
    picks = np.empty(n_slots, dtype=np.int64)
    for slot in range(n_slots):
        ki = rng.choice(len(keys), p=probs)
        if not queues[ki]:
            queues[ki] = list(rng.permutation(len(pools[keys[ki]])))
        picks[slot] = offsets[ki] + queues[ki].pop()
    return Dataset.concat([pools[k] for k in keys]).take(picks)


def finetune_all(
    backbone: MultiTaskModel,
    domain_datasets: dict[str, Dataset],
    space: FeatureSpace,
    config: TrainConfig,
    iak_config: IAKConfig,
) -> FinetuneResult:
    """Fine-tune one adapter per domain on a frozen backbone.

    Every domain dataset must hold only records of its key's domain. The
    domains are shuffled into shared batches, and their adapters form one
    bank: each batch is one bank step, in which every adapter with rows in
    the batch steps on its own rows at its dynamic learning rate, exactly
    as it would alone; a single domain therefore trains at the base rate.
    With lr_norms="uniform" (default) the rate softmax sees only batch
    sample counts, so each adapter stays bit-independent of other domains'
    labels; "previous" feeds last-step gradient magnitudes in, which couples
    the shares (the softmax can then saturate; saturation is flagged in the
    curve rows). A mixing map
    reroutes the highest-weighted (primary) domain's stream through
    weighted cross-domain sampling; that stream is then shuffled into
    batches like any one-domain dataset and trained at the base rate."""
    config.validate()
    iak_config.validate()
    if not domain_datasets:
        raise TrainerError("no domain datasets given")
    for key, rows in domain_datasets.items():
        if not rows:
            raise TrainerError(f"domain dataset {key!r} is empty")
        if not domain_mask(rows, parse_domain_key(key)).all():
            raise TrainerError(f"domain dataset {key!r} holds records of other domains; mix domains with `mixing`")
    backbone.set_trainable(False)

    windowed = {
        key: window_by_days(rows, config.finetune_window_days)
        for key, rows in sorted(domain_datasets.items())
    }
    for key, rows in windowed.items():
        if not rows:
            raise TrainerError(f"window of {config.finetune_window_days} days leaves {key!r} empty")

    seeds = np.random.SeedSequence([config.seed, 0xF17E]).spawn(len(windowed) + 1)
    adapters = {
        key: IAKAdapter(backbone.rep_dim, backbone.n_heads, iak_config, parse_domain_key(key),
                        seed=int(s.generate_state(1)[0]))
        for (key, s) in zip(windowed, seeds[:-1])
    }
    shared_rng = np.random.default_rng(seeds[-1])
    curve: list[FinetuneRow] = []

    mixing_primary = max(config.mixing, key=lambda k: config.mixing[k]) if config.mixing else None
    if mixing_primary is not None and mixing_primary not in adapters:
        raise TrainerError(f"mixing primary {mixing_primary!r} has no dataset")

    plain_keys = [k for k in windowed if k != mixing_primary]

    if plain_keys:
        curve.extend(
            _finetune_joint(backbone, {k: windowed[k] for k in plain_keys}, adapters, space, config, iak_config, shared_rng)
        )

    if mixing_primary is not None:
        aux = {k: v for k, v in windowed.items() if k != mixing_primary and k in config.mixing}
        missing = [k for k in config.mixing if k != mixing_primary and k not in windowed]
        if missing:
            raise TrainerError(f"mixing references domains without datasets: {missing}")
        stream = mix_domains(windowed[mixing_primary], aux, config.mixing, shared_rng, mixing_primary,
                             config.epochs * len(windowed[mixing_primary]))
        curve.extend(
            _finetune_joint(  # the stream already spans every epoch
                backbone, {mixing_primary: stream}, adapters, space,
                replace(config, epochs=1), iak_config, shared_rng, start_step=len(curve),
            )
        )

    return FinetuneResult(adapters, curve)


def _finetune_joint(
    backbone: MultiTaskModel,
    datasets: dict[str, Dataset],
    adapters: dict[str, IAKAdapter],
    space: FeatureSpace,
    config: TrainConfig,
    iak_config: IAKConfig,
    rng: np.random.Generator,
    start_step: int = 0,
) -> list[FinetuneRow]:
    """Train `datasets`' adapters on shared shuffled batches at their dynamic
    rates (exactly the base rate on one key), counting steps on from
    `start_step`. The adapters form one bank; each batch is one bank step
    over its rows grouped by domain."""
    keys = sorted(datasets)
    encoded = [encode_records(datasets[k], space) for k in keys]
    cached = [backbone_cache(backbone, enc) for enc in encoded]
    # the joint stream is the shuffled union of every domain's rows, held
    # concatenated in key order; domain_of tags each row
    rep = np.concatenate([r for r, _ in cached])
    base = np.concatenate([b for _, b in cached])
    click = np.concatenate([enc.click for enc in encoded])
    purchase = np.concatenate([enc.purchase for enc in encoded])
    domain_of = np.repeat(np.arange(len(keys)), [len(enc) for enc in encoded])
    bank = AdapterBank([adapters[k] for k in keys], config.adagrad_decay, config.adagrad_epsilon)
    prev_norms = np.ones(len(keys))
    rows: list[FinetuneRow] = []
    step = start_step
    weights = backbone.config.loss_weights
    for sel in _batch_indices(len(domain_of), config.batch_size, config.epochs, rng):
        # group the batch by domain, each domain's rows kept in batch order
        tags = domain_of[sel]
        counts = np.bincount(tags, minlength=len(keys))
        grouped = sel[np.argsort(tags, kind="stable")]
        offsets = np.concatenate(([0], np.cumsum(counts)))
        n_b = counts.astype(np.float64)
        lr_hat = dynamic_lr(n_b, prev_norms, config.base_lr)
        shares = lr_hat / config.base_lr
        saturated = int(np.sum(n_b > 0) > 1 and shares.max() > SATURATION_LEVEL)
        step += 1
        per_adapter = adapter_step_cached(
            backbone, bank, rep[grouped], base[grouped], click[grouped], purchase[grouped],
            offsets, lr_hat, iak_config.beta, weights=weights,
        )
        new_norms = prev_norms.copy()
        for ki, (loss, gnorm) in per_adapter.items():
            new_norms[ki] = gnorm
            rows.append(FinetuneRow(step, keys[ki], int(counts[ki]), loss, gnorm, float(lr_hat[ki]), saturated))
        if config.lr_norms == "previous":
            prev_norms = new_norms
    return rows
