"""Per-domain variational encoder-decoder adapters over a frozen backbone.

The adapter reads the backbone's pre-logit representation, compresses it
through an encoder whose weights carry a Gaussian posterior against a
standard-normal prior, and decodes additive per-task logit corrections. A
zero decoder output reproduces the backbone exactly, which is also the
initial state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import AdagradDecayState, Parameter, Tensor
from .datagen import domain_key
from .models import EncodedBatch, Linear, ModelOutput, MultiTaskModel, Prediction, bce_loss

# rho value at which softplus(rho) equals the initial posterior scale
INIT_SIGMA = 0.05
_INIT_RHO = math.log(math.expm1(INIT_SIGMA))


class AdapterError(ValueError):
    pass


@dataclass
class IAKConfig:
    d_e: int = 50  # encoder output width
    beta: float = 1e-3
    decoder_hidden: tuple[int, ...] = (32,)
    sample_mode: str = "stochastic"

    def validate(self) -> None:
        if self.d_e < 1:
            raise AdapterError("d_e must be >= 1")
        if self.beta < 0:
            raise AdapterError("beta must be >= 0")
        if self.sample_mode not in ("stochastic", "mean"):
            raise AdapterError(f"unknown sample_mode {self.sample_mode!r}")


class VariationalLinear:
    """Affine map whose weights carry a diagonal Gaussian posterior (mu,
    sigma) against a standard-normal prior. sigma = softplus(rho) stays
    positive for every rho."""

    def __init__(self, in_dim: int, out_dim: int, name: str, rng: np.random.Generator):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.mu_w = Parameter(rng.standard_normal((in_dim, out_dim)), name=f"{name}.mu_w")
        self.mu_b = Parameter(rng.standard_normal(out_dim), name=f"{name}.mu_b")
        self.rho_w = Parameter(np.full((in_dim, out_dim), _INIT_RHO), name=f"{name}.rho_w")
        self.rho_b = Parameter(np.full(out_dim, _INIT_RHO), name=f"{name}.rho_b")

    def parameters(self) -> list[Parameter]:
        return [self.mu_w, self.mu_b, self.rho_w, self.rho_b]

    @property
    def n_entries(self) -> int:
        return self.mu_w.size + self.mu_b.size

    def sample_weights(self, rng: np.random.Generator | None, mode: str) -> tuple[Tensor, Tensor]:
        """Realize (w, b). Stochastic mode reparameterizes w = mu + sigma*eps
        so gradients reach both mu and rho; mean mode returns mu exactly."""
        if mode == "mean":
            return self.mu_w, self.mu_b
        if mode != "stochastic":
            raise AdapterError(f"unknown sample mode {mode!r}")
        if rng is None:
            raise AdapterError("stochastic sampling needs an rng")
        eps_w = Tensor(rng.standard_normal(self.mu_w.shape))
        eps_b = Tensor(rng.standard_normal(self.mu_b.shape))
        w = ad.add(self.mu_w, ad.mul(ad.softplus(self.rho_w), eps_w))
        b = ad.add(self.mu_b, ad.mul(ad.softplus(self.rho_b), eps_b))
        return w, b

    def apply(self, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
        """Affine map scaled by 1/sqrt(in_dim): keeps activations O(1) under
        the standard-normal prior on w regardless of input width."""
        return ad.add(ad.mul(ad.matmul(x, w), 1.0 / math.sqrt(self.in_dim)), b)


def kl_to_standard_normal(vl: VariationalLinear) -> Tensor:
    """Closed-form KL(N(mu, sigma^2) || N(0,1)) summed over all entries of a
    layer: sum 0.5*(mu^2 + sigma^2 - 1) - log sigma. Always >= 0."""
    parts = []
    for mu, rho in ((vl.mu_w, vl.rho_w), (vl.mu_b, vl.rho_b)):
        sigma = ad.softplus(rho)
        half = ad.mul(ad.reduce_sum(ad.sub(ad.add(ad.square(mu), ad.square(sigma)), 1.0)), 0.5)
        parts.append(ad.sub(half, ad.reduce_sum(ad.log(sigma))))
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
        self.encoder = [VariationalLinear(rep_dim, config.d_e, f"{name}/enc0", init_rng)]
        dims = [config.d_e, *config.decoder_hidden]
        self.decoder_hidden = [
            Linear(d_in, d_out, f"{name}/dec{i}", init_rng)
            for i, (d_in, d_out) in enumerate(zip(dims, dims[1:]))
        ]
        # scale 0 draws an all-zero layer, so fine-tuning starts at the backbone
        self.decoder_out = Linear(dims[-1], n_tasks, f"{name}/dec_out", init_rng, scale=0.0)

    def parameters(self) -> list[Parameter]:
        out = [p for vl in self.encoder for p in vl.parameters()]
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
        return sum(vl.n_entries for vl in self.encoder)

    def encode(self, representation: Tensor, mode: str, rng: np.random.Generator | None = None) -> Tensor:
        """Compressed representation, (B, d_e). One weight sample serves the
        whole batch in stochastic mode."""
        x = representation
        for vl in self.encoder:
            w, b = vl.sample_weights(rng if mode == "stochastic" else None, mode)
            x = ad.leaky_relu(vl.apply(x, w, b))
        return x

    def correction(self, representation: Tensor, mode: str, rng: np.random.Generator | None = None) -> Tensor:
        """Per-task logit corrections, (B, n_tasks)."""
        x = self.encode(representation, mode, rng)
        for layer in self.decoder_hidden:
            x = ad.leaky_relu(layer(x))
        return self.decoder_out(x)

    def encoder_kl(self) -> Tensor:
        total = kl_to_standard_normal(self.encoder[0])
        for vl in self.encoder[1:]:
            total = ad.add(total, kl_to_standard_normal(vl))
        return total


def iak_forward(
    representation: Tensor,
    base_logits: list[Tensor],
    adapter: IAKAdapter,
    mode: str,
    rng: np.random.Generator | None = None,
) -> list[Tensor]:
    """Corrected logits: base plus the adapter's additive correction. A zero
    correction reproduces the backbone bit-for-bit."""
    if representation.shape[1] != adapter.rep_dim:
        raise AdapterError(
            f"representation width {representation.shape[1]} != adapter rep_dim {adapter.rep_dim}"
        )
    if len(base_logits) != adapter.n_tasks:
        raise AdapterError("adapter task count does not match backbone heads")
    corr = adapter.correction(representation, mode, rng)
    return [ad.add(l, ad.slice_cols(corr, i, i + 1)) for i, l in enumerate(base_logits)]


def adapted_prediction(
    backbone: MultiTaskModel,
    adapter: IAKAdapter,
    batch: EncodedBatch,
    mode: str,
    rng: np.random.Generator | None = None,
) -> tuple[Prediction, ModelOutput]:
    out = backbone.forward_full(batch)
    logits = iak_forward(out.representation, out.logits, adapter, mode, rng)
    return backbone.predict_from_logits(logits), out


def ib_loss(
    prediction: Prediction,
    click: np.ndarray,
    purchase: np.ndarray,
    adapter: IAKAdapter,
    beta: float,
    weights: tuple[float, float] = (1.0, 1.0),
) -> Tensor:
    """Task cross-entropy plus beta times the per-weight average KL of the
    encoder posterior to its standard-normal prior."""
    if beta < 0:
        raise AdapterError("beta must be >= 0")
    loss = bce_loss(prediction, click, purchase, weights)
    if beta > 0:
        loss = ad.add(loss, ad.mul(adapter.encoder_kl(), beta / adapter.n_encoder_entries))
    return loss


def head_logits(logits: np.ndarray) -> list[Tensor]:
    """(B, n_heads) logits as the per-head (B, 1) tensors the heads emit."""
    return [Tensor(logits[:, i : i + 1]) for i in range(logits.shape[1])]


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
        base[idx] = np.concatenate([l.data for l in out.logits], axis=1)
    return rep, base


def adapter_step_cached(
    backbone: MultiTaskModel,
    adapter: IAKAdapter,
    rep: np.ndarray,
    base_logits: np.ndarray,
    click: np.ndarray,
    purchase: np.ndarray,
    opt_state: AdagradDecayState,
    lr: float,
    beta: float,
    weights: tuple[float, float] = (1.0, 1.0),
) -> tuple[float, float]:
    """One adapter-only optimizer step from cached backbone outputs. Returns
    (loss, gradient L2 norm)."""
    params = adapter.parameters()
    ad.zero_grads(params)
    corrected = iak_forward(Tensor(rep), head_logits(base_logits), adapter, adapter.config.sample_mode, adapter.sample_rng)
    pred = backbone.predict_from_logits(corrected)
    loss = ib_loss(pred, click, purchase, adapter, beta, weights)
    ad.backward(loss)
    gnorm = ad.grad_l2_norm(params)
    ad.adagrad_decay_step(params, opt_state, lr)
    return float(loss.data), gnorm
