"""Per-domain variational encoder-decoder adapters over a frozen backbone.

The adapter reads the backbone's pre-logit representation, compresses it
through an encoder whose weights carry a Gaussian posterior against a
standard-normal prior, and decodes additive per-task logit corrections. A
zero decoder output reproduces the backbone exactly, which is also the
initial state.

`adapter_graph` is the one adapter forward: encoder weights (the posterior
means, or a reparameterised sample when a training step passes noise), the
scaled affine map and leaky ReLU, then the decoder layers. It runs on one of
two primitive sets. A lone `IAKAdapter` passes `ad.matmul`/`ad.add`: eval
and serving score one adapter at a time with the means
(`adapted_prediction`). An `AdapterBank` passes the segment primitives over
its stacked (K, ...) parameters: fine-tuning trains the adapters of a joint
batch through one autodiff graph, rows grouped by adapter. The segment
primitives repeat, per adapter, the numpy calls of the one-adapter graph, so
every adapter trains exactly as it would alone.

The MI diagnostic keeps its own per-record numpy copy of the encoder stage
(`evals.encoder_channel_outputs`), because it draws one weight sample per
record; `test_channel_is_the_encoder_stage_the_adapter_runs` keeps the two in
step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import AdagradDecayState, Parameter, Tensor
from .datagen import domain_key
from .models import EncodedBatch, Linear, MultiTaskModel, Prediction, bce_loss

# rho value at which softplus(rho) equals the initial posterior scale
INIT_SIGMA = 0.05
_INIT_RHO = math.log(math.expm1(INIT_SIGMA))

Noise = tuple[np.ndarray, np.ndarray]  # standard-normal draws of encoder weights, then bias


class AdapterError(ValueError):
    pass


@dataclass
class IAKConfig:
    d_e: int = 50  # encoder output width
    beta: float = 1e-3
    decoder_hidden: tuple[int, ...] = (32,)

    def validate(self) -> None:
        if self.d_e < 1:
            raise AdapterError("d_e must be >= 1")
        if self.beta < 0:
            raise AdapterError("beta must be >= 0")


class VariationalLinear:
    """The encoder's parameters: an affine map whose weights carry a
    diagonal Gaussian posterior (mu, sigma) against a standard-normal prior.
    sigma = softplus(rho) stays positive for every rho."""

    def __init__(self, in_dim: int, out_dim: int, name: str, rng: np.random.Generator):
        # keeps activations O(1) under the standard-normal prior on w
        # regardless of input width
        self.scale = 1.0 / math.sqrt(in_dim)
        self.mu_w = Parameter(rng.standard_normal((in_dim, out_dim)), name=f"{name}.mu_w")
        self.mu_b = Parameter(rng.standard_normal(out_dim), name=f"{name}.mu_b")
        self.rho_w = Parameter(np.full((in_dim, out_dim), _INIT_RHO), name=f"{name}.rho_w")
        self.rho_b = Parameter(np.full(out_dim, _INIT_RHO), name=f"{name}.rho_b")

    def parameters(self) -> list[Parameter]:
        return [self.mu_w, self.mu_b, self.rho_w, self.rho_b]

    @property
    def n_entries(self) -> int:
        return self.mu_w.size + self.mu_b.size

    def draw_noise(self, rng: np.random.Generator) -> Noise:
        """The standard-normal draws of one weight sample."""
        return rng.standard_normal(self.mu_w.shape), rng.standard_normal(self.mu_b.shape)


def adapter_graph(x: Tensor, params: Sequence[Tensor], scale: float, noise: Noise | None = None,
                  matmul: Callable[[Tensor, Tensor], Tensor] = ad.matmul,
                  add: Callable[[Tensor, Tensor], Tensor] = ad.add) -> Tensor:
    """The adapter forward: per-task logit corrections of the rows `x`.

    `params` are the encoder's mu_w, mu_b, rho_w and rho_b followed by each
    decoder layer's weight and bias. The encoder weights are the posterior
    means, or w = mu + softplus(rho) * noise when `noise` (weights, bias)
    is given, so gradients reach both mu and rho; one weight sample serves
    every row. x @ w is scaled by the encoder's `scale`. `matmul` and `add`
    are the affine primitives: plain for one adapter, segment primitives
    for a bank."""
    mu_w, mu_b, rho_w, rho_b, *decoder = params
    w, b = mu_w, mu_b
    if noise is not None:
        w, b = _reparameterize(mu_w, rho_w, noise[0]), _reparameterize(mu_b, rho_b, noise[1])
    x = ad.leaky_relu(add(ad.mul(matmul(x, w), scale), b))
    for w_l, b_l in zip(decoder[:-2:2], decoder[1:-2:2]):
        x = ad.leaky_relu(add(matmul(x, w_l), b_l))
    return add(matmul(x, decoder[-2]), decoder[-1])


def _reparameterize(mu: Tensor, rho: Tensor, eps: np.ndarray) -> Tensor:
    return ad.add(mu, ad.mul(ad.softplus(rho), Tensor(eps)))


def _gaussian_kl(mu_w: Tensor, mu_b: Tensor, rho_w: Tensor, rho_b: Tensor,
                 total: Callable[[Tensor], Tensor]) -> Tensor:
    """Closed-form KL(N(mu, sigma^2) || N(0,1)) of an encoder's entries,
    sigma = softplus(rho): `total` of 0.5*(mu^2 + sigma^2 - 1) - log sigma
    over weights plus bias. Always >= 0."""
    parts = []
    for mu, rho in ((mu_w, rho_w), (mu_b, rho_b)):
        sigma = ad.softplus(rho)
        half = ad.mul(total(ad.sub(ad.add(ad.square(mu), ad.square(sigma)), 1.0)), 0.5)
        parts.append(ad.sub(half, total(ad.log(sigma))))
    return ad.add(parts[0], parts[1])


class IAKAdapter:
    """Encoder-decoder adapter bound to one domain selector. The encoder is
    variational; the decoder is an ordinary MLP whose final layer starts at
    zero so fine-tuning begins exactly at the zero-shot backbone."""

    def __init__(
        self,
        rep_dim: int,
        n_tasks: int,
        config: IAKConfig,
        selector: dict[str, int],
        seed: int,
    ):
        config.validate()
        self.config = config
        self.rep_dim = rep_dim
        self.n_tasks = n_tasks
        self.domain_key = dict(sorted(selector.items()))
        self.seed = seed
        init_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xADA7]))
        self.sample_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5A3]))
        name = f"adapter/{domain_key(self.domain_key)}"
        self.encoder = VariationalLinear(rep_dim, config.d_e, f"{name}/enc0", init_rng)
        dims = [config.d_e, *config.decoder_hidden]
        self.decoder_hidden = [
            Linear(d_in, d_out, f"{name}/dec{i}", init_rng)
            for i, (d_in, d_out) in enumerate(zip(dims, dims[1:]))
        ]
        # scale 0 draws an all-zero layer, so fine-tuning starts at the backbone
        self.decoder_out = Linear(dims[-1], n_tasks, f"{name}/dec_out", init_rng, scale=0.0)

    def parameters(self) -> list[Parameter]:
        out = self.encoder.parameters()
        for layer in self.decoder_hidden:
            out.extend(layer.parameters())
        out.extend(self.decoder_out.parameters())
        return out

    def named_parameters(self) -> dict[str, np.ndarray]:
        return {p.name: p.data for p in self.parameters()}

    def restore(self, arrays: dict[str, np.ndarray]) -> None:
        for p in self.parameters():
            if p.name not in arrays:
                raise AdapterError(f"checkpoint missing parameter {p.name!r}")
            if arrays[p.name].shape != p.data.shape:
                raise AdapterError(f"shape mismatch for {p.name!r}")
            p.data = arrays[p.name].astype(np.float64).copy()

    @property
    def n_encoder_entries(self) -> int:
        return self.encoder.n_entries

    def correction(self, representation: Tensor, noise: Noise | None = None) -> Tensor:
        """Per-task logit corrections, (B, n_tasks): the posterior means, or
        one weight sample drawn as `noise` for the whole batch."""
        return adapter_graph(representation, self.parameters(), self.encoder.scale, noise)

    def encoder_kl(self) -> Tensor:
        return _gaussian_kl(*self.encoder.parameters(), ad.reduce_sum)


def adapted_prediction(
    backbone: MultiTaskModel,
    adapter: IAKAdapter,
    representation: Tensor,
    base_logits: Tensor,
    noise: Noise | None = None,
) -> Prediction:
    """Prediction from a backbone output corrected by an adapter: the (B,
    n_heads) base logits plus the adapter's additive correction, with the
    encoder's posterior means unless `noise` gives a weight sample. Eval and
    serving score through it; a zero correction reproduces the backbone
    bit-for-bit."""
    _check_inputs(adapter, representation.shape, base_logits.shape)
    corr = adapter.correction(representation, noise)
    return backbone.predict_from_logits(ad.add(base_logits, corr))


def _check_inputs(adapter: IAKAdapter | AdapterBank, rep_shape: tuple[int, ...], logits_shape: tuple[int, ...]) -> None:
    if rep_shape[1] != adapter.rep_dim:
        raise AdapterError(f"representation width {rep_shape[1]} != adapter rep_dim {adapter.rep_dim}")
    if logits_shape[1] != adapter.n_tasks:
        raise AdapterError("adapter task count does not match backbone heads")


def ib_loss(
    prediction: Prediction,
    click: np.ndarray,
    purchase: np.ndarray,
    adapter: IAKAdapter | AdapterBank,
    beta: float,
    weights: tuple[float, float] = (1.0, 1.0),
    mean: Callable[[Tensor], Tensor] = ad.reduce_mean,
) -> Tensor:
    """Task cross-entropy plus beta times the per-weight average KL of the
    encoder posterior to its standard-normal prior. For a bank, `mean` is
    the per-adapter segment mean and the loss is one entry per adapter."""
    if beta < 0:
        raise AdapterError("beta must be >= 0")
    loss = bce_loss(prediction, click, purchase, weights, mean)
    if beta > 0:
        loss = ad.add(loss, ad.mul(adapter.encoder_kl(), beta / adapter.n_encoder_entries))
    return loss


def backbone_cache(backbone: MultiTaskModel, batch: EncodedBatch, chunk: int = 4096) -> tuple[np.ndarray, np.ndarray]:
    """Representation and pre-sigmoid head logits of a frozen backbone over a
    dataset, computed `chunk` rows at a time. This is the one backbone pass
    behind fine-tuning and scoring: fine-tuning only ever reads these, so
    computing them once per domain avoids re-running the backbone every
    epoch."""
    if not backbone.frozen:
        raise AdapterError("backbone must be frozen before caching its outputs")
    rep = np.empty((len(batch), backbone.rep_dim))
    base = np.empty((len(batch), backbone.n_heads))
    for start in range(0, len(batch), chunk):
        idx = np.arange(start, min(start + chunk, len(batch)))
        out = backbone.forward_full(batch.take(idx))
        rep[idx] = out.representation.data
        base[idx] = out.logits.data
    return rep, base


class AdapterBank:
    """The adapters of one joint fine-tune, stacked for one autodiff graph
    per step. Parameter j of adapter k is slab k of the bank's (K, ...)
    parameter j, and the adapter's own parameter is a view of that slab, so
    a bank step trains the adapters in place and checkpoints keep their
    `adapter/<key>/...` names. Every stacked parameter has its Adagrad
    accumulator beside it; an adapter's slab of it moves only when that
    adapter steps."""

    def __init__(self, adapters: Sequence[IAKAdapter], decay: float, epsilon: float):
        if not adapters:
            raise AdapterError("an adapter bank needs at least one adapter")
        first = adapters[0]
        shape = (first.config, first.rep_dim, first.n_tasks)
        if any((a.config, a.rep_dim, a.n_tasks) != shape for a in adapters):
            raise AdapterError("banked adapters must share their config, input width and task count")
        self.adapters = list(adapters)
        self.rep_dim = first.rep_dim
        self.n_tasks = first.n_tasks
        self.n_encoder_entries = first.n_encoder_entries
        self.scale = first.encoder.scale
        self.params: list[Parameter] = []
        for group in zip(*(a.parameters() for a in self.adapters)):
            stacked = Parameter(np.stack([p.data for p in group]), name="bank/" + group[0].name.rsplit("/", 1)[1])
            for k, p in enumerate(group):
                p.data = stacked.data[k]
            self.params.append(stacked)
        self.opt_state = AdagradDecayState(decay=decay, epsilon=epsilon)
        self.opt_state.accumulators = {p.name: np.zeros_like(p.data) for p in self.params}
        self._per_adapter = np.arange(len(self.adapters) + 1)  # one segment per slab

    def draw_noise(self, adapters: np.ndarray) -> Noise:
        """Stacked encoder noise: each listed adapter draws from its own
        `sample_rng`, in bank order, exactly the draws of its own weight
        sample; every other adapter gets zeros and draws nothing."""
        eps_w = np.zeros(self.params[0].shape)
        eps_b = np.zeros(self.params[1].shape)
        for k in adapters:
            adapter = self.adapters[k]
            eps_w[k], eps_b[k] = adapter.encoder.draw_noise(adapter.sample_rng)
        return eps_w, eps_b

    def correction(self, representation: Tensor, offsets: np.ndarray, noise: Noise) -> Tensor:
        """(B, n_tasks) corrections of rows grouped by adapter, rows
        offsets[k]:offsets[k + 1] through adapter k, with the stacked
        encoder noise of `draw_noise`."""
        return adapter_graph(representation, self.params, self.scale, noise,
                             partial(ad.segment_matmul, offsets=offsets), partial(ad.segment_add, offsets=offsets))

    def apply_gradients(self, stepped: np.ndarray, lr: np.ndarray) -> np.ndarray:
        """Step the listed adapters on the recorded gradients, adapter k at
        rate lr[k], by the dense decayed-Adagrad rule each would follow
        alone (`ad.adagrad_update`); every other slab and its accumulator
        stay as they are. Returns the listed adapters' gradient L2 norms,
        each the root of its parameters' squared sums added in order."""
        state = self.opt_state
        rows = stepped if len(stepped) < len(self.adapters) else slice(None)
        rate = lr[stepped]
        sq = np.zeros(len(stepped))
        for j, p in enumerate(self.params):
            g = p.grad[rows]
            finite = np.isfinite(g).reshape(len(stepped), -1).all(axis=1)
            if not finite.all():
                bad = self.adapters[stepped[np.flatnonzero(~finite)[0]]]
                raise ad.NonFiniteError(f"non-finite gradient for {bad.parameters()[j].name}")
            sq += (g * g).reshape(len(stepped), -1).sum(axis=1)
            ad.adagrad_update(p.data, state.accumulators[p.name], rows, g, state.decay,
                              rate.reshape((-1,) + (1,) * (g.ndim - 1)), state.epsilon)
        return np.sqrt(sq)

    def encoder_kl(self) -> Tensor:
        """(K,) encoder KL of every adapter."""
        return _gaussian_kl(*self.params[:4], partial(ad.segment_sum, offsets=self._per_adapter))


def adapter_step_cached(
    backbone: MultiTaskModel,
    bank: AdapterBank,
    rep: np.ndarray,
    base_logits: np.ndarray,
    click: np.ndarray,
    purchase: np.ndarray,
    offsets: np.ndarray,
    lr: np.ndarray,
    beta: float,
    weights: tuple[float, float] = (1.0, 1.0),
) -> dict[int, tuple[float, float]]:
    """One optimizer step of a bank's adapters from cached backbone outputs,
    through one autodiff graph. The rows are grouped by adapter: rows
    offsets[k]:offsets[k + 1] are adapter k's, and adapter k steps at rate
    lr[k]. An adapter with no rows or a zero rate draws no noise, does not
    step, and its Adagrad state does not decay. Returns (loss, gradient L2
    norm) by bank index for the adapters that stepped, in bank order."""
    _check_inputs(bank, rep.shape, base_logits.shape)
    if np.any(lr < 0):
        raise AdapterError("learning rates must be >= 0")
    stepped = np.flatnonzero((np.diff(offsets) > 0) & (lr > 0))
    noise = bank.draw_noise(stepped)
    ad.zero_grads(bank.params)
    corr = bank.correction(Tensor(rep), offsets, noise)
    pred = backbone.predict_from_logits(ad.add(Tensor(base_logits), corr))
    loss = ib_loss(pred, click, purchase, bank, beta, weights, partial(ad.segment_mean, offsets=offsets))
    ad.backward(ad.reduce_sum(loss))
    gnorms = bank.apply_gradients(stepped, lr)
    return {int(k): (float(loss.data[k]), float(gnorm)) for k, gnorm in zip(stepped, gnorms)}
