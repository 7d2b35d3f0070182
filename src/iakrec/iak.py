"""Per-domain variational encoder-decoder adapters over a frozen backbone.

The adapter reads the backbone's pre-logit representation, compresses it
through an encoder whose weights carry a Gaussian posterior against a
standard-normal prior, and decodes additive per-task logit corrections. A
zero decoder output reproduces the backbone exactly, which is also the
initial state.

`adapter_graph` is the one adapter forward, shared by fine-tuning, eval
and serving. It reads its rows and the weights it is given: the encoder's
weight and bias (`encoder_stage`, the scaled affine map and leaky ReLU),
then each decoder layer's. Every layer is one dense-layer primitive, in one
of two forms. A lone `IAKAdapter` is a `models.Part`, like the backbone:
its `freeze` runs its layer `check` once, before it freezes anything, and
it scores only frozen whole: eval and serving correct a frozen backbone's
bare arrays with one adapter at a time (`adapted_prediction`) on the op's
kernel, `ad.linear_kernel`, with no op run, and build the prediction only
when it is read. An `AdapterBank` passes
`ad.segment_linear` over its stacked (K, ...) parameters: fine-tuning
trains the adapters of a joint batch through one autodiff graph, rows
grouped by adapter. Both repeat the numpy calls of the one-adapter graph on
`ad.linear` (the tests' reference), so every adapter trains and scores
exactly as it would there.

The bank alone owns the training stage, the knowledge compression that the
variational information bottleneck approximates: `AdapterBank.sample` draws
each stepped adapter's encoder weight sample, `AdapterBank.encoder_kl`
builds the encoder KL from the same softplus of rho, and
`adapter_step_cached` writes the loss. `encoder_stage` is also the channel
of the MI diagnostic (`evals.encoder_channel_outputs`), which runs it on
`ad.segment_linear` with one weight sample per record.

An `AdapterBank` lays its K adapters out as the K rows of one
`ad.AdagradDecay` arena, naming the stacked encoder and decoder where it
stacks them. A bank step is one `ad.adagrad_decay_step`, the step
pretraining takes: one decayed-Adagrad pass over the rows of the adapters
that stepped, each at its own rate. The bits are those of each adapter
stepping alone.

`backbone_cache` runs the frozen backbone over a fitted `datagen.Dataset`
(see `models.encode_records`), the one row type the model reads, in chunks
of `FROZEN_CHUNK` rows, as does adapted scoring (`evals.SplitPass`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .datagen import Dataset, domain_key
from .models import (LEAKY_SLOPE, Linear, ModelOutput, MultiTaskModel, Part, Value, bce_loss, check_dense,
                     init_generator, restore_parameters)

# rho value at which softplus(rho) equals the initial posterior scale
INIT_SIGMA = 0.05
_INIT_RHO = math.log(math.expm1(INIT_SIGMA))

# rows per chunk of a batched frozen pass (`backbone_cache` and adapted
# scoring): its (chunk, width) temporaries then stay inside a 2 MB L2 cache
FROZEN_CHUNK = 1024

# `ad.softplus_parts` of the encoder's rho_w, then of its rho_b
Softplus = tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


class AdapterError(ValueError):
    pass


@dataclass(frozen=True)
class IAKConfig:
    d_e: int = 50  # encoder output width
    beta: float = 1e-3
    decoder_hidden: tuple[int, ...] = (32,)

    def __post_init__(self) -> None:
        if self.d_e < 1:
            raise AdapterError("d_e must be >= 1")
        if not 0 <= self.beta < math.inf:
            raise AdapterError(f"beta must be finite and >= 0, got {self.beta}")
        if any(h < 1 for h in self.decoder_hidden):
            raise AdapterError(f"decoder_hidden widths must be >= 1, got {self.decoder_hidden}")


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


def encoder_stage(x: Value, w: Value, b: Value, scale: float, linear: Callable[..., Value]) -> Value:
    """The encoder's output for the rows `x`: leaky ReLU of (x @ w) * `scale`
    + b, with the encoder weight `w` and bias `b` as given (posterior means,
    or a weight sample). `linear` is the dense-layer primitive, kernel or
    segment op (see `adapter_graph`)."""
    return linear(x, w, b, slope=LEAKY_SLOPE, scale=scale)


def adapter_graph(x: Value, params: Sequence[Value], scale: float, linear: Callable[..., Value]) -> Value:
    """The adapter forward: per-task logit corrections of the rows `x`.

    `params` are the encoder's weight and bias (see `encoder_stage`)
    followed by each decoder layer's weight and bias. `linear` is the
    dense-layer primitive: the kernel `ad.linear_kernel` over the bare
    arrays of a lone adapter frozen whole (`IAKAdapter.correction`), or
    `ad.segment_linear` bound to its offsets for a bank. The tests'
    one-adapter reference passes `ad.linear`, whose values the kernel
    computes."""
    x = encoder_stage(x, params[0], params[1], scale, linear)
    decoder = params[2:]
    for w_l, b_l in zip(decoder[:-2:2], decoder[1:-2:2]):
        x = linear(x, w_l, b_l, slope=LEAKY_SLOPE)
    return linear(x, decoder[-2], decoder[-1])


class IAKAdapter(Part):
    """Encoder-decoder adapter bound to one domain selector. The encoder is
    variational; the decoder is an ordinary MLP whose final layer starts at
    zero so fine-tuning begins exactly at the zero-shot backbone."""

    def __init__(
        self,
        rep_dim: int,
        n_tasks: int,
        config: IAKConfig,
        selector: dict[str, int],
        seed: int | None,
    ):
        self.config = config
        self.rep_dim = rep_dim
        self.n_tasks = n_tasks
        self.domain_key = dict(sorted(selector.items()))
        self.seed = seed
        # seed=None builds an adapter for `restore` to fill: it draws no init
        # and, scoring with its posterior means only, has no sample stream
        init_rng = init_generator(seed, 0xADA7)
        self.sample_rng = None if seed is None else np.random.default_rng(np.random.SeedSequence([seed, 0x5A3]))
        name = f"adapter/{domain_key(self.domain_key)}"
        self.encoder = VariationalLinear(rep_dim, config.d_e, f"{name}/enc0", init_rng)
        dims = [config.d_e, *config.decoder_hidden]
        self.decoder_hidden = [
            Linear(d_in, d_out, f"{name}/dec{i}", init_rng, slope=LEAKY_SLOPE)
            for i, (d_in, d_out) in enumerate(zip(dims, dims[1:]))
        ]
        # scale 0 draws an all-zero layer, so fine-tuning starts at the backbone
        self.decoder_out = Linear(dims[-1], n_tasks, f"{name}/dec_out", init_rng, scale=0.0)
        # the parameters, built once: a bank or a restore replaces their
        # arrays, never the parameters themselves. The `adapter_graph`
        # weights are the encoder's posterior means, then the decoder.
        enc = self.encoder
        decoder = [p for layer in (*self.decoder_hidden, self.decoder_out) for p in (layer.w, layer.b)]
        self._params = (enc.mu_w, enc.mu_b, enc.rho_w, enc.rho_b, *decoder)
        self._means = (enc.mu_w, enc.mu_b, *decoder)

    def check(self) -> None:
        """The adapter's freeze check, of each layer `correction` runs: its
        weight and bias conform and its slope is in range
        (`models.check_dense`). The adapter scores (`adapted_prediction`)
        while it stays frozen."""
        check_dense(self.encoder.mu_w, self.encoder.mu_b, (self.rep_dim, self.config.d_e), LEAKY_SLOPE)
        for layer in (*self.decoder_hidden, self.decoder_out):
            layer.check()

    def restore(self, arrays: dict[str, np.ndarray]) -> None:
        """Set every parameter from `arrays`, one copy per array; a bad array
        is an `AdapterError` (see `models.restore_parameters`)."""
        restore_parameters(self._params, arrays, AdapterError)

    def correction(self, representation: np.ndarray) -> np.ndarray:
        """Per-task logit corrections, (B, n_tasks), of a bare (B, rep_dim)
        array: `adapter_graph` on `ad.linear_kernel` with the encoder's
        posterior means, unchecked (see `adapted_prediction`)."""
        return adapter_graph(representation, [p.data for p in self._means], self.encoder.scale, ad.linear_kernel)


def adapted_prediction(
    backbone: MultiTaskModel,
    adapter: IAKAdapter,
    representation: np.ndarray,
    base_logits: np.ndarray,
) -> ModelOutput:
    """A frozen backbone's output corrected by an adapter frozen whole: the
    (B, n_heads) base logits plus the adapter's correction, all bare arrays,
    with no op run. Its prediction is built from those logits when it is
    read (`models.ModelOutput`), so an eager router that corrects with every
    deployed adapter builds only the served one. Eval and serving score
    through it; a zero correction reproduces the backbone bit-for-bit.

    It is a lone adapter's one scorer and its one check: an adapter not
    frozen whole, an input not a bare array, or inputs not 2-d with one row
    count and the adapter's widths raise `AdapterError`. The logits are
    checked when the prediction is built (`predict_from_logits`)."""
    if not adapter.frozen or type(representation) is not np.ndarray or type(base_logits) is not np.ndarray:
        raise AdapterError("an adapter scores frozen whole (IAKAdapter.freeze), on a frozen backbone's bare arrays")
    _check_inputs(adapter, representation.shape, base_logits.shape)
    return ModelOutput(base_logits + adapter.correction(representation), representation, backbone.predict_from_logits)


def _check_inputs(adapter: IAKAdapter | AdapterBank, rep_shape: tuple[int, ...], logits_shape: tuple[int, ...]) -> None:
    # 2-d, with one row count: numpy would broadcast one row of logits over every row
    if len(rep_shape) != 2 or len(logits_shape) != 2 or rep_shape[0] != logits_shape[0]:
        raise AdapterError(f"representation {rep_shape} and logits {logits_shape} must be 2-d, with one row count")
    if rep_shape[1] != adapter.rep_dim:
        raise AdapterError(f"representation width {rep_shape[1]} != adapter rep_dim {adapter.rep_dim}")
    if logits_shape[1] != adapter.n_tasks:
        raise AdapterError("adapter task count does not match backbone heads")


def backbone_cache(backbone: MultiTaskModel, batch: Dataset,
                   chunk: int = FROZEN_CHUNK) -> tuple[np.ndarray, np.ndarray]:
    """Representation and pre-sigmoid head logits of a frozen backbone over a
    fitted dataset, computed `chunk` rows at a time. This is the one
    backbone pass behind fine-tuning and scoring: fine-tuning only ever reads
    these, so computing them once per train row, over the union of every
    domain's rows, avoids re-running the backbone every epoch or for a row
    that two domains share. The backbone is frozen whole, so the pass runs
    on bare arrays and no op checks its outputs: each chunk's `.prediction`
    is read, and building it (`predict_from_logits`) checks that chunk's
    logits, which a non-finite representation reaches, before they are
    cached."""
    if not backbone.frozen:
        raise AdapterError("backbone must be frozen before caching its outputs")
    rep = np.empty((len(batch), backbone.rep_dim))
    base = np.empty((len(batch), backbone.n_heads))
    for start in range(0, len(batch), chunk):
        rows = slice(start, start + chunk)
        out = backbone.forward_full(batch[rows])
        out.prediction  # the chunk's check: raises NonFiniteError on a NaN or Inf logit
        rep[rows] = out.representation
        base[rows] = out.logits
    return rep, base


class AdapterBank:
    """The adapters of one joint fine-tune, laid out for one autodiff graph
    and one optimizer step per batch.

    The bank's stacked (K, ...) parameters are the members of a K-row
    `ad.AdagradDecay` arena, built with the bank: row k holds adapter k's
    parameters, each stacked parameter is a view of its column range, and
    adapter k's own parameter a view of row k of that. A bank step therefore
    trains the adapters in place, and checkpoints keep their
    `adapter/<key>/...` names. Each stacked parameter takes its first
    gradient in its columns of the arena's gradient block, and
    `opt.accumulators` reads its columns of the accumulator block by its
    name. A step (`apply_gradients`) is one `ad.adagrad_decay_step` over the
    rows of the adapters that step, each at its own rate; every other row
    and its accumulator stay as they are."""

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
        self.n_encoder_entries = first.encoder.mu_w.size + first.encoder.mu_b.size
        self.scale = first.encoder.scale
        groups = list(zip(*(a.parameters() for a in self.adapters)))
        self.params = [Parameter(np.stack([p.data for p in group]), name="bank/" + group[0].name.rsplit("/", 1)[1])
                       for group in groups]
        self.opt = ad.AdagradDecay(self.params, decay, epsilon, n_rows=len(self.adapters),
                                   names=[[p.name for p in group] for group in groups])
        for group, stacked in zip(groups, self.params):
            for p, data in zip(group, stacked.data):
                p.data = data
        # the stacked encoder, then each decoder layer's stacked weight and bias
        self.mu_w, self.mu_b, self.rho_w, self.rho_b, *self.decoder = self.params
        self._per_adapter = ad.Segments(np.arange(len(self.adapters) + 1), len(self.adapters))  # one per slab

    def sample(self, stepped: np.ndarray) -> tuple[Tensor, Tensor, Softplus]:
        """A step's encoder weight sample, mu + softplus(rho) * noise: one
        `ad.weight_sample` node over the stacked weights and one over the
        biases. Each listed adapter, in bank order, draws its noise from its
        own `sample_rng`, weights then bias, straight into its slab; every
        other adapter gets zero noise and draws nothing. Also returns the
        `ad.softplus_parts` of rho_w and rho_b, which `encoder_kl` shares."""
        eps_w = np.zeros(self.mu_w.shape)
        eps_b = np.zeros(self.mu_b.shape)
        for k in stepped:
            rng = self.adapters[k].sample_rng
            rng.standard_normal(out=eps_w[k])
            rng.standard_normal(out=eps_b[k])
        sp_w, sp_b = ad.softplus_parts(self.rho_w.data), ad.softplus_parts(self.rho_b.data)
        w = ad.weight_sample(self.mu_w, self.rho_w, eps_w, sp_w)
        return w, ad.weight_sample(self.mu_b, self.rho_b, eps_b, sp_b), (sp_w, sp_b)

    def apply_gradients(self, stepped: np.ndarray, lr: np.ndarray) -> np.ndarray:
        """Step the listed adapters on the recorded gradients, adapter k at
        rate lr[k], in one `ad.adagrad_decay_step` over their rows (a
        non-finite gradient raises there, naming the adapter's parameter,
        and nothing moves). Returns the listed adapters' gradient L2 norms,
        each the root of its parameters' squared sums added in order."""
        rows = stepped if len(stepped) < len(self.adapters) else ...
        g_sq = ad.adagrad_decay_step(self.opt, lr[stepped, None], rows)
        sq = np.zeros(len(stepped))
        for start, end in self.opt.columns:
            sq += g_sq[:, start:end].sum(axis=1)
        return np.sqrt(sq)

    def encoder_kl(self, softplus: Softplus) -> Tensor:
        """(K,) KL(N(mu, sigma^2) || N(0,1)) of each adapter's encoder entries,
        sigma = softplus(rho): one `ad.gaussian_kl` node over the weights plus
        one over the bias, reading the `softplus` parts of the step's weight
        sample (`sample`). Always >= 0."""
        return ad.add(ad.gaussian_kl(self.mu_w, self.rho_w, self._per_adapter, softplus[0]),
                      ad.gaussian_kl(self.mu_b, self.rho_b, self._per_adapter, softplus[1]))


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
) -> dict[int, tuple[float, float]]:
    """One optimizer step of a bank's adapters from cached backbone outputs,
    through one autodiff graph, on the information-bottleneck loss: each
    adapter's task cross-entropy over its rows, weighted by the backbone's
    `loss_weights`, plus beta times the per-weight average KL of its encoder
    posterior (`encoder_kl`, built only when beta > 0), the encoder weights
    a sample (`AdapterBank.sample`). The rows are grouped by adapter: rows
    offsets[k]:offsets[k + 1] are adapter k's, and adapter k steps at rate
    lr[k]. An adapter with no rows or a zero rate draws no noise, does not
    step, and its Adagrad state does not decay. Returns (loss, gradient L2
    norm) by bank index for the adapters that stepped, in bank order."""
    _check_inputs(bank, rep.shape, base_logits.shape)
    if np.any(lr < 0):
        raise AdapterError("learning rates must be >= 0")
    segs = ad.Segments(offsets, len(rep))  # parsed once for every segment op of the step
    stepped = np.flatnonzero((segs.counts > 0) & (lr > 0))
    w, b, softplus = bank.sample(stepped)
    ad.zero_grads(bank.params)
    corr = adapter_graph(Tensor(rep), (w, b, *bank.decoder), bank.scale, partial(ad.segment_linear, offsets=segs))
    pred = backbone.predict_from_logits(ad.add(Tensor(base_logits), corr))
    loss = bce_loss(pred, click, purchase, backbone.config.loss_weights, segs)
    if beta > 0:
        loss = ad.add(loss, ad.mul(bank.encoder_kl(softplus), beta / bank.n_encoder_entries))
    ad.backward(ad.reduce_sum(loss))
    gnorms = bank.apply_gradients(stepped, lr)
    return {int(k): (float(loss.data[k]), float(gnorm)) for k, gnorm in zip(stepped, gnorms)}
