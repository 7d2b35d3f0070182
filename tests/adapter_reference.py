"""Reference fine-tuning: every adapter trained by its own graph and its own
optimizer state, one adapter step at a time. The bank step must reproduce
these loops bit for bit; tests compare against them."""

from __future__ import annotations

import numpy as np

from iakrec import autodiff as ad
from iakrec.autodiff import Tensor
from iakrec.iak import adapted_prediction, backbone_cache, ib_loss
from iakrec.models import encode_records
from iakrec.trainer import SATURATION_LEVEL, FinetuneRow, _batch_indices, dynamic_lr


def reference_step(backbone, adapter, rep, base_logits, click, purchase, opt_state, lr, beta,
                   weights=(1.0, 1.0)) -> tuple[float, float]:
    """One adapter-only optimizer step from cached backbone outputs. Returns
    (loss, gradient L2 norm)."""
    params = adapter.parameters()
    ad.zero_grads(params)
    pred = adapted_prediction(backbone, adapter, Tensor(rep), Tensor(base_logits),
                              adapter.encoder.draw_noise(adapter.sample_rng))
    loss = ib_loss(pred, click, purchase, adapter, beta, weights)
    ad.backward(loss)
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad * p.grad))
    gnorm = float(np.sqrt(total))
    ad.adagrad_decay_step(params, opt_state, lr)
    return float(loss.data), gnorm


def reference_joint(backbone, datasets, adapters, space, config, iak_config, rng, start_step=0) -> list[FinetuneRow]:
    """Drop-in for `trainer._finetune_joint`: the same shuffled joint batches
    and dynamic rates, but each domain's rows are masked out of the batch and
    stepped through `reference_step` on their own."""
    keys = sorted(datasets)
    encoded = {k: encode_records(datasets[k], space) for k in keys}
    cached = {k: backbone_cache(backbone, encoded[k]) for k in keys}
    opts = {k: ad.AdagradDecayState(decay=config.adagrad_decay, epsilon=config.adagrad_epsilon) for k in keys}
    tagged = np.concatenate([
        np.stack([np.full(len(encoded[k]), ki), np.arange(len(encoded[k]))], axis=1)
        for ki, k in enumerate(keys)
    ])
    prev_norms = np.ones(len(keys))
    rows = []
    step = start_step
    weights = backbone.config.loss_weights
    for sel in _batch_indices(len(tagged), config.batch_size, config.epochs, rng):
        batch_tags = tagged[sel]
        n_b = np.array([np.sum(batch_tags[:, 0] == ki) for ki in range(len(keys))], dtype=np.float64)
        lr_hat = dynamic_lr(n_b, prev_norms, config.base_lr)
        saturated = int(np.sum(n_b > 0) > 1 and (lr_hat / config.base_lr).max() > SATURATION_LEVEL)
        step += 1
        new_norms = prev_norms.copy()
        for ki, k in enumerate(keys):
            if n_b[ki] == 0 or lr_hat[ki] == 0.0:
                continue
            idx = batch_tags[batch_tags[:, 0] == ki][:, 1]
            rep, base = cached[k]
            loss, gnorm = reference_step(
                backbone, adapters[k], rep[idx], base[idx], encoded[k].click[idx], encoded[k].purchase[idx],
                opts[k], float(lr_hat[ki]), iak_config.beta, weights=weights,
            )
            new_norms[ki] = gnorm
            rows.append(FinetuneRow(step, k, int(n_b[ki]), loss, gnorm, float(lr_hat[ki]), saturated))
        if config.lr_norms == "previous":
            prev_norms = new_norms
    return rows
