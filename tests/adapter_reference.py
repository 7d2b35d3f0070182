"""Reference fine-tuning: every adapter trained by its own graph and its own
optimizer state, one adapter step at a time, through the reference optimizer
(`optimizer_reference`), which shares no optimizer code with the bank. The
bank step must reproduce these loops bit for bit; tests compare against
them.

The package trains adapters only as a bank (`iak.AdapterBank`), and a lone
`iak.IAKAdapter` scores only with its posterior means. The one-adapter
training forms live here: the noise of a weight sample (`lone_noise`), the
correction with the weights `ad.weight_sample` draws from it
(`lone_correction`, through the shared `iak.adapter_graph`), the encoder KL
(`lone_encoder_kl`) and the information-bottleneck loss (`lone_ib_loss`)."""

from __future__ import annotations

import numpy as np

from iakrec import autodiff as ad
from iakrec.autodiff import Tensor
from iakrec.iak import adapter_graph
from iakrec.models import bce_loss
from iakrec.trainer import SATURATION_LEVEL, FinetuneRow, _batch_indices, dynamic_lr

from optimizer_reference import ReferenceState, reference_adagrad_decay_step


def lone_noise(adapter, rng):
    """The standard-normal draws of one weight sample of the adapter's
    encoder from `rng`: its weights, then its bias."""
    enc = adapter.encoder
    return rng.standard_normal(enc.mu_w.shape), rng.standard_normal(enc.mu_b.shape)


def lone_correction(adapter, representation, noise) -> Tensor:
    """(B, n_tasks) corrections of one adapter with one weight sample for the
    whole batch, drawn by `ad.weight_sample` from `noise` (weights, bias):
    `iak.adapter_graph` on `ad.linear`."""
    enc = adapter.encoder
    w, b = ad.weight_sample(enc.mu_w, enc.rho_w, noise[0]), ad.weight_sample(enc.mu_b, enc.rho_b, noise[1])
    return adapter_graph(representation, (w, b, *adapter.parameters()[4:]), enc.scale, ad.linear)


def lone_encoder_kl(adapter) -> Tensor:
    """KL of one adapter's encoder posterior to the standard-normal prior:
    the total `ad.gaussian_kl` of its weights plus that of its bias."""
    enc = adapter.encoder
    return ad.add(ad.gaussian_kl(enc.mu_w, enc.rho_w), ad.gaussian_kl(enc.mu_b, enc.rho_b))


def lone_ib_loss(prediction, click, purchase, adapter, beta, weights=(1.0, 1.0)) -> Tensor:
    """Scalar loss of one adapter: the task cross-entropy over every row plus
    beta times the per-weight average encoder KL."""
    loss = bce_loss(prediction, click, purchase, weights)
    if beta > 0:
        enc = adapter.encoder
        loss = ad.add(loss, ad.mul(lone_encoder_kl(adapter), beta / (enc.mu_w.size + enc.mu_b.size)))
    return loss


def reference_step(backbone, adapter, rep, base_logits, click, purchase, opt_state, lr, beta,
                   weights=(1.0, 1.0)) -> tuple[float, float]:
    """One adapter-only optimizer step from cached backbone outputs, with one
    weight sample from the adapter's `sample_rng`. Returns (loss, gradient L2
    norm)."""
    params = adapter.parameters()
    ad.zero_grads(params)
    corr = lone_correction(adapter, Tensor(rep), lone_noise(adapter, adapter.sample_rng))
    pred = backbone.predict_from_logits(ad.add(Tensor(base_logits), corr))
    loss = lone_ib_loss(pred, click, purchase, adapter, beta, weights)
    ad.backward(loss)
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad * p.grad))
    gnorm = float(np.sqrt(total))
    reference_adagrad_decay_step(params, opt_state, lr)
    return float(loss.data), gnorm


def reference_joint(backbone, cache, positions, adapters, config, iak_config, rng, start_step=0) -> list[FinetuneRow]:
    """Drop-in for `trainer._finetune_joint`: the same backbone cache, row
    positions, shuffled joint batches and dynamic rates, but each domain's
    rows are masked out of the batch and stepped through `reference_step` on
    their own."""
    keys = sorted(positions)
    rep, base, click, purchase = cache
    opts = {k: ReferenceState(decay=config.adagrad_decay, epsilon=config.adagrad_epsilon) for k in keys}
    # (domain, cache row) of every stream entry, domains in key order
    tagged = np.concatenate([
        np.stack([np.full(len(positions[k]), ki), positions[k]], axis=1)
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
            loss, gnorm = reference_step(
                backbone, adapters[k], rep[idx], base[idx], click[idx], purchase[idx],
                opts[k], float(lr_hat[ki]), iak_config.beta, weights=weights,
            )
            new_norms[ki] = gnorm
            rows.append(FinetuneRow(step, k, int(n_b[ki]), loss, gnorm, float(lr_hat[ki]), saturated))
        if config.lr_norms == "previous":
            prev_norms = new_norms
    return rows
