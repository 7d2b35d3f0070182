"""Multi-task recommendation models: Shared Bottom, ESMM, MMoE, and the
composite BaseRecommender used as the pretraining target.

All model kinds share the identical embedding assembly (id embeddings plus a
mean-pooled recent-item history vector), so comparisons isolate the head
architecture. Every kind exposes one (B, n_heads) logits tensor plus a
representation vector (the concatenated task-tower penultimate activations)
that downstream adapters consume; only `predict_from_logits` splits heads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .datagen import InteractionRecord

PROB_CLAMP = 1e-12


class ModelError(ValueError):
    pass


@dataclass
class FeatureSpace:
    """Vocabulary sizes for the id universe a model is built against."""

    n_users: int
    n_items: int
    n_scenes: int
    n_regions: int
    n_periods: int
    n_feature_buckets: int = 8
    n_feature_cols: int = 4
    history_len: int = 5


@dataclass
class EncodedBatch:
    """Raw id arrays for a slice of records; embedding lookups offset them."""

    user: np.ndarray
    item: np.ndarray
    scene: np.ndarray
    region: np.ndarray
    period: np.ndarray
    features: np.ndarray  # (B, n_feature_cols)
    history: np.ndarray  # (B, history_len), -1 = empty slot
    click: np.ndarray
    purchase: np.ndarray

    def __len__(self) -> int:
        return self.user.shape[0]

    def take(self, idx: np.ndarray) -> "EncodedBatch":
        return EncodedBatch(
            user=self.user[idx],
            item=self.item[idx],
            scene=self.scene[idx],
            region=self.region[idx],
            period=self.period[idx],
            features=self.features[idx],
            history=self.history[idx],
            click=self.click[idx],
            purchase=self.purchase[idx],
        )


def encode_records(records: list[InteractionRecord], space: FeatureSpace) -> EncodedBatch:
    """Vectorize records in order. The history column holds each user's most
    recent clicked item ids *before* the current record (no label leakage);
    records must already be in chronological order."""
    n = len(records)
    f_cols = space.n_feature_cols
    h_len = space.history_len
    user = np.empty(n, dtype=np.int64)
    item = np.empty(n, dtype=np.int64)
    scene = np.empty(n, dtype=np.int64)
    region = np.empty(n, dtype=np.int64)
    period = np.empty(n, dtype=np.int64)
    features = np.full((n, f_cols), -1, dtype=np.int64)
    history = np.full((n, h_len), -1, dtype=np.int64)
    click = np.empty(n, dtype=np.float64)
    purchase = np.empty(n, dtype=np.float64)

    recent: dict[int, list[int]] = {}
    for j, r in enumerate(records):
        user[j] = r.user_id
        item[j] = r.item_id
        scene[j] = r.domain_ids.get("scene", -1)
        region[j] = r.domain_ids.get("region", -1)
        period[j] = r.domain_ids.get("period", -1)
        for c, fid in enumerate(r.feature_ids[:f_cols]):
            features[j, c] = fid
        past = recent.get(r.user_id)
        if past:
            history[j, : len(past)] = past[::-1]
        click[j] = r.click
        purchase[j] = r.purchase
        if r.click:
            past = recent.setdefault(r.user_id, [])
            past.append(r.item_id)
            if len(past) > h_len:
                del past[0]
    return EncodedBatch(user, item, scene, region, period, features, history, click, purchase)


def _safe_rows(raw: np.ndarray, vocab: int) -> np.ndarray:
    """Map raw ids into table rows: row 0 is the shared out-of-vocab slot."""
    return np.where((raw >= 0) & (raw < vocab), raw + 1, 0)


class EmbeddingTable:
    """Dense embedding matrix with a dedicated out-of-vocab row 0."""

    def __init__(self, vocab_size: int, dim: int, name: str, rng: np.random.Generator):
        self.vocab_size = vocab_size
        self.dim = dim
        self.rows = Parameter(rng.normal(0.0, 0.1, size=(vocab_size + 1, dim)), name=f"{name}.rows")

    def lookup(self, raw_ids: np.ndarray) -> Tensor:
        """Rows of 1-d ids; the mean row of each example's ids when 2-d."""
        return ad.gather_rows(self.rows, _safe_rows(raw_ids, self.vocab_size))


class Linear:
    def __init__(self, in_dim: int, out_dim: int, name: str, rng: np.random.Generator, scale: float | None = None):
        std = scale if scale is not None else np.sqrt(2.0 / in_dim)
        self.w = Parameter(rng.normal(0.0, std, size=(in_dim, out_dim)), name=f"{name}.w")
        self.b = Parameter(np.zeros(out_dim), name=f"{name}.b")

    def __call__(self, x: Tensor) -> Tensor:
        return ad.add(ad.matmul(x, self.w), self.b)

    def parameters(self) -> list[Parameter]:
        return [self.w, self.b]


class MLP:
    """Stack of Linear + LeakyReLU; the final layer is linear when
    final_activation is off (logit heads)."""

    def __init__(self, dims: list[int], name: str, rng: np.random.Generator, final_activation: bool = True, slope: float = 0.01):
        self.slope = slope
        self.final_activation = final_activation
        self.layers = []
        for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
            last = i == len(dims) - 2
            scale = None if (final_activation or not last) else np.sqrt(1.0 / d_in)
            self.layers.append(Linear(d_in, d_out, f"{name}.l{i}", rng, scale=scale))

    def __call__(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if self.final_activation or i < len(self.layers) - 1:
                x = ad.leaky_relu(x, self.slope)
        return x

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]


@dataclass
class ModelConfig:
    kind: str = "base"
    hidden_sizes: tuple[int, ...] = (64, 32, 16)
    n_experts: int = 2
    task_names: tuple[str, str] = ("ctr", "ctcvr")
    loss_weights: tuple[float, float] = (1.0, 1.0)
    embed_dim: int = 8

    def validate(self) -> None:
        if self.kind not in ("shared_bottom", "esmm", "mmoe", "base"):
            raise ModelError(f"unknown model kind {self.kind!r}")
        if self.n_experts < 1:
            raise ModelError("n_experts must be >= 1")
        if not self.hidden_sizes or any(h <= 0 for h in self.hidden_sizes):
            raise ModelError("hidden sizes must be positive")
        if len(self.task_names) != 2 or len(self.loss_weights) != 2:
            raise ModelError("exactly two tasks are supported (ctr, ctcvr)")


@dataclass
class Prediction:
    """Per-task probabilities; for ESMM the chain p_ctcvr = p_ctr * p_cvr
    holds exactly by construction."""

    p_ctr: Tensor
    p_ctcvr: Tensor
    p_cvr: Tensor | None = None


@dataclass
class ModelOutput:
    logits: Tensor  # (B, n_heads) pre-sigmoid, one column per head
    representation: Tensor  # (B, rep_dim)
    prediction: Prediction


class EmbeddingBundle:
    """The shared embedding assembly every model kind is built on."""

    def __init__(self, space: FeatureSpace, dim: int, rng: np.random.Generator):
        self.space = space
        self.dim = dim
        self.user = EmbeddingTable(space.n_users, dim, "user_emb", rng)
        self.item = EmbeddingTable(space.n_items, dim, "item_emb", rng)
        self.scene = EmbeddingTable(space.n_scenes, dim, "scene_emb", rng)
        self.region = EmbeddingTable(space.n_regions, dim, "region_emb", rng)
        self.period = EmbeddingTable(space.n_periods, dim, "period_emb", rng)
        self.features = [
            EmbeddingTable(space.n_feature_buckets, dim, f"feat{c}_emb", rng)
            for c in range(space.n_feature_cols)
        ]

    @property
    def out_dim(self) -> int:
        return (5 + self.space.n_feature_cols + 1) * self.dim

    def assemble(self, batch: EncodedBatch) -> Tensor:
        parts = [
            self.user.lookup(batch.user),
            self.item.lookup(batch.item),
            self.scene.lookup(batch.scene),
            self.region.lookup(batch.region),
            self.period.lookup(batch.period),
        ]
        for c, table in enumerate(self.features):
            parts.append(table.lookup(batch.features[:, c]))
        # recent clicked items mean-pool through the item table in one lookup;
        # empty slots hit the out-of-vocab row
        parts.append(self.item.lookup(batch.history))
        return ad.concat(parts, axis=1)

    def parameters(self) -> list[Parameter]:
        tables = [self.user, self.item, self.scene, self.region, self.period, *self.features]
        return [t.rows for t in tables]


class MultiTaskModel:
    """Common scaffolding: embeddings in, two task heads out."""

    kind = "abstract"

    def __init__(self, config: ModelConfig, space: FeatureSpace, seed: int):
        config.validate()
        self.config = config
        self.space = space
        self.seed = seed
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB0DE]))
        self.embeddings = EmbeddingBundle(space, config.embed_dim, self.rng)
        self._params: list[Parameter] = list(self.embeddings.parameters())

    def _register(self, *components) -> None:
        for c in components:
            self._params.extend(c.parameters())

    def parameters(self) -> list[Parameter]:
        return list(self._params)

    def named_parameters(self) -> dict[str, np.ndarray]:
        return {p.name: p.data for p in self._params}

    def set_trainable(self, trainable: bool) -> None:
        for p in self._params:
            p.set_trainable(trainable)

    @property
    def frozen(self) -> bool:
        return all(not p.trainable for p in self._params)

    @property
    def rep_dim(self) -> int:
        return 2 * self.config.hidden_sizes[-1]

    @property
    def n_heads(self) -> int:
        return 2

    def restore(self, arrays: dict[str, np.ndarray]) -> None:
        for p in self._params:
            if p.name not in arrays:
                raise ModelError(f"checkpoint missing parameter {p.name!r}")
            if arrays[p.name].shape != p.data.shape:
                raise ModelError(
                    f"shape mismatch for {p.name!r}: checkpoint {arrays[p.name].shape}, model {p.data.shape}"
                )
            p.data = arrays[p.name].astype(np.float64).copy()

    def forward_full(self, batch: EncodedBatch) -> ModelOutput:
        raise NotImplementedError

    def predict_from_logits(self, logits: Tensor) -> Prediction:
        """Probabilities of (B, n_heads) logits. Heads are (ctr, ctcvr) for
        every kind except ESMM, whose second head is CVR and whose ctcvr is
        the exact product."""
        p0 = ad.sigmoid(ad.slice_cols(logits, 0, 1))
        p1 = ad.sigmoid(ad.slice_cols(logits, 1, 2))
        if self.kind == "esmm":
            return Prediction(p_ctr=p0, p_cvr=p1, p_ctcvr=ad.mul(p0, p1))
        return Prediction(p_ctr=p0, p_ctcvr=p1)

    def predict(self, batch: EncodedBatch) -> Prediction:
        return self.forward_full(batch).prediction


class SharedBottom(MultiTaskModel):
    kind = "shared_bottom"

    def __init__(self, config: ModelConfig, space: FeatureSpace, seed: int):
        super().__init__(config, space, seed)
        hs = list(config.hidden_sizes)
        self.trunk = MLP([self.embeddings.out_dim, *hs], "trunk", self.rng)
        self.towers = [
            MLP([hs[-1], hs[-1]], f"tower_{t}", self.rng) for t in config.task_names
        ]
        self.heads = [
            MLP([hs[-1], 1], f"head_{t}", self.rng, final_activation=False)
            for t in config.task_names
        ]
        self._register(self.trunk, *self.towers, *self.heads)

    def forward_full(self, batch: EncodedBatch) -> ModelOutput:
        x = self.trunk(self.embeddings.assemble(batch))
        penults = [tower(x) for tower in self.towers]
        logits = ad.concat([head(p) for head, p in zip(self.heads, penults)], axis=1)
        rep = ad.concat(penults, axis=1)
        return ModelOutput(logits, rep, self.predict_from_logits(logits))


class ESMM(MultiTaskModel):
    """Entire-space model: towers estimate CTR and CVR over all impressions,
    and CTCVR is their product; the CVR tower trains only through the CTCVR
    objective."""

    kind = "esmm"

    def __init__(self, config: ModelConfig, space: FeatureSpace, seed: int):
        super().__init__(config, space, seed)
        hs = list(config.hidden_sizes)
        self.towers = [
            MLP([self.embeddings.out_dim, *hs], f"tower_{t}", self.rng)
            for t in ("ctr", "cvr")
        ]
        self.heads = [
            MLP([hs[-1], 1], f"head_{t}", self.rng, final_activation=False)
            for t in ("ctr", "cvr")
        ]
        self._register(*self.towers, *self.heads)

    def forward_full(self, batch: EncodedBatch) -> ModelOutput:
        x = self.embeddings.assemble(batch)
        penults = [tower(x) for tower in self.towers]
        logits = ad.concat([head(p) for head, p in zip(self.heads, penults)], axis=1)
        rep = ad.concat(penults, axis=1)
        return ModelOutput(logits, rep, self.predict_from_logits(logits))


class _MoECore:
    """Experts plus one softmax gate per task; shared by MMoE and the
    BaseRecommender."""

    def __init__(self, in_dim: int, config: ModelConfig, rng: np.random.Generator):
        hs = list(config.hidden_sizes)
        self.experts = [MLP([in_dim, *hs], f"expert{e}", rng) for e in range(config.n_experts)]
        self.gates = [Linear(in_dim, config.n_experts, f"gate_{t}", rng) for t in config.task_names]

    def __call__(self, x: Tensor) -> list[Tensor]:
        expert_outs = [e(x) for e in self.experts]
        mixed = []
        for gate in self.gates:
            weights = ad.softmax(gate(x), axis=-1)
            acc = ad.mul(ad.slice_cols(weights, 0, 1), expert_outs[0])
            for e in range(1, len(self.experts)):
                acc = ad.add(acc, ad.mul(ad.slice_cols(weights, e, e + 1), expert_outs[e]))
            mixed.append(acc)
        return mixed

    def gate_weights(self, x: Tensor) -> list[Tensor]:
        return [ad.softmax(g(x), axis=-1) for g in self.gates]

    def parameters(self) -> list[Parameter]:
        out = [p for e in self.experts for p in e.parameters()]
        out += [p for g in self.gates for p in g.parameters()]
        return out


class MMoE(MultiTaskModel):
    kind = "mmoe"

    def __init__(self, config: ModelConfig, space: FeatureSpace, seed: int):
        super().__init__(config, space, seed)
        hs = list(config.hidden_sizes)
        self.core = _MoECore(self.embeddings.out_dim, config, self.rng)
        self.towers = [MLP([hs[-1], hs[-1]], f"tower_{t}", self.rng) for t in config.task_names]
        self.heads = [
            MLP([hs[-1], 1], f"head_{t}", self.rng, final_activation=False)
            for t in config.task_names
        ]
        self._register(self.core, *self.towers, *self.heads)

    def forward_full(self, batch: EncodedBatch) -> ModelOutput:
        x = self.embeddings.assemble(batch)
        mixed = self.core(x)
        penults = [tower(m) for tower, m in zip(self.towers, mixed)]
        logits = ad.concat([head(p) for head, p in zip(self.heads, penults)], axis=1)
        rep = ad.concat(penults, axis=1)
        return ModelOutput(logits, rep, self.predict_from_logits(logits))


class BaseRecommender(MultiTaskModel):
    """The pretraining target: shared embeddings, MMoE main net, task towers,
    and a stacked logits layer that scores every task from the concatenated
    tower activations. That concatenation is also the representation handed
    to adapters."""

    kind = "base"

    def __init__(self, config: ModelConfig, space: FeatureSpace, seed: int):
        super().__init__(config, space, seed)
        hs = list(config.hidden_sizes)
        self.core = _MoECore(self.embeddings.out_dim, config, self.rng)
        self.towers = [MLP([hs[-1], hs[-1]], f"tower_{t}", self.rng) for t in config.task_names]
        self.stacked = Linear(2 * hs[-1], self.n_heads, "stacked_logits", self.rng, scale=np.sqrt(1.0 / (2 * hs[-1])))
        self._register(self.core, *self.towers, self.stacked)

    def forward_full(self, batch: EncodedBatch) -> ModelOutput:
        x = self.embeddings.assemble(batch)
        mixed = self.core(x)
        penults = [tower(m) for tower, m in zip(self.towers, mixed)]
        rep = ad.concat(penults, axis=1)
        logits = self.stacked(rep)
        return ModelOutput(logits, rep, self.predict_from_logits(logits))


MODEL_KINDS = {
    "shared_bottom": SharedBottom,
    "esmm": ESMM,
    "mmoe": MMoE,
    "base": BaseRecommender,
}


def build_model(config: ModelConfig, space: FeatureSpace, seed: int) -> MultiTaskModel:
    config.validate()
    return MODEL_KINDS[config.kind](config, space, seed)


def task_bce(p: Tensor, labels: np.ndarray, mean: Callable[[Tensor], Tensor] = ad.reduce_mean) -> Tensor:
    """Mean binary cross-entropy of one task over a batch; probabilities are
    clamped away from 0 and 1 before the log. `mean` reduces the (B, 1)
    per-row terms: the batch mean, or a per-segment mean (`ad.segment_mean`)
    that gives one loss per segment."""
    if not np.all((labels == 0) | (labels == 1)):
        raise ModelError("labels must be 0 or 1")
    y = Tensor(labels.reshape(-1, 1))
    p = ad.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    ll = ad.add(ad.mul(y, ad.log(p)), ad.mul(ad.sub(1.0, y), ad.log(ad.sub(1.0, p))))
    return ad.mul(mean(ll), -1.0)


def bce_loss(
    prediction: Prediction,
    click: np.ndarray,
    purchase: np.ndarray,
    weights: tuple[float, float] = (1.0, 1.0),
    mean: Callable[[Tensor], Tensor] = ad.reduce_mean,
) -> Tensor:
    """Weighted sum of per-task binary cross-entropies, mean over the batch
    (or per segment, see `task_bce`). CTR trains against click, CTCVR
    against purchase."""
    loss = ad.mul(task_bce(prediction.p_ctr, click, mean), weights[0])
    return ad.add(loss, ad.mul(task_bce(prediction.p_ctcvr, purchase, mean), weights[1]))
