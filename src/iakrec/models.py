"""Multi-task recommendation models: Shared Bottom, ESMM, MMoE, and the
composite BaseRecommender used as the pretraining target.

All model kinds share one scaffold, so comparisons isolate the core between
the embeddings and the two task towers: the same embedding assembly in (one
embedding per id column of a row: user, item, scene, region, period and the
feature columns, all kept in one stacked table and looked up as one node)
and the same output tail out (`MultiTaskModel._output`), which turns the
towers' activations into the representation that adapters consume and one
(B, n_heads) logits tensor; only `predict_from_logits` splits heads, after
one sigmoid over all of them. MMoE and the BaseRecommender mix their
experts with one `ad.gate_mix` node per task. The model reads one row type,
a `datagen.Dataset` fitted by `encode_records`: batches, scored splits and
a served request alike.

A forward is `EmbeddingBundle.assemble`, then `MultiTaskModel.forward_from`
on the assembled row: one body for every kind, each giving only its towers'
inputs. It runs one of two ways, through the same layer objects. In a
graph, every layer is an `ad` op. The model, like each adapter, is a
`Part`: its parameters are listed once, from its one layer list, and its
`freeze` checks the table and every dense layer once, before it freezes
anything. A model frozen whole then assembles a bare array, and each layer
passes a bare array on through its op's kernel (`ad.linear_kernel`,
`ad.gate_mix_kernel`, `ad.sigmoid_kernel`): the same arithmetic, so the
same bits, with no op run. `forward_from` chooses the way once, by its row:
a bare row runs the kernels on a model frozen whole, which checks its
width, and records a graph on any other; a `Tensor` row runs the graph.
Scoring (eval, serving, `iak.backbone_cache`) runs only a model frozen
whole, so it reads bare arrays: besides this module and `autodiff`, only
`iak.adapted_prediction` tells a bare array from a `Tensor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .datagen import Dataset

PROB_CLAMP = 1e-12
# the two objectives every kind trains on; ESMM's second logits column is CVR
TASKS = ("ctr", "ctcvr")
# negative-side slope of every leaky ReLU, in the backbone and the adapters
LEAKY_SLOPE = 0.01


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class FeatureSpace:
    """Vocabulary sizes for the id universe a model is built against. A size
    of 0 makes every id of its column out of vocabulary; a negative size is
    a `ModelError`."""

    n_users: int
    n_items: int
    n_scenes: int
    n_regions: int
    n_periods: int
    n_feature_buckets: int = 8
    n_feature_cols: int = 4

    def __post_init__(self) -> None:
        for name, size in vars(self).items():
            if size < 0:
                raise ModelError(f"{name} must be >= 0, got {size}")


def encode_records(dataset: Dataset, space: FeatureSpace) -> Dataset:
    """The dataset fitted to a model of `space`: the same rows and columns,
    with the features block cut or padded with -1 to `n_feature_cols`. The
    model reads only fitted datasets."""
    width = min(space.n_feature_cols, dataset.features.shape[1])
    features = np.full((len(dataset), space.n_feature_cols), -1, dtype=np.int64)
    features[:, :width] = dataset.features[:, :width]
    # a Dataset instance holds its columns and nothing else
    return Dataset(**{**vars(dataset), "features": features})


class ZeroInit:
    """The init generator of a model or adapter that `restore` will fill:
    every draw is a read-only zero view (`np.broadcast_to` of one scalar),
    so building one draws no random numbers and allocates no table. A
    parameter built from it is read-only until `restore` sets it: a dense
    weight to its own copy, the embedding table to the checkpoint's block
    itself, which stays read-only."""

    @staticmethod
    def normal(loc: float, scale: float, size) -> np.ndarray:
        return np.broadcast_to(0.0, size)

    @staticmethod
    def standard_normal(size) -> np.ndarray:
        return np.broadcast_to(0.0, size)


def init_generator(seed: int | None, salt: int) -> np.random.Generator | ZeroInit:
    """The parameter-init generator of `seed`, or `ZeroInit` when seed is None
    (a build that a checkpoint restore fills; its drawn parameters are
    read-only zeros until then)."""
    if seed is None:
        return ZeroInit()
    if seed < 0:
        raise ModelError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


def checkpoint_array(arrays: dict[str, np.ndarray], name: str, shape: tuple, error: type[Exception],
                     locate: Callable[[np.ndarray], str] | None = None) -> np.ndarray:
    """The checkpoint array stored as `name`, checked against the model's
    `shape`. A missing name, a block that is not float64 (an `<i8` one, say),
    a wrong shape or a NaN or Inf entry raises `error` naming it (the check a
    `Parameter` makes when it is built). The finiteness check is one sum
    that allocates nothing, since a NaN or Inf never sums back to a finite
    value; only a sum that is not finite (a bad entry, or finite entries
    that overflow) is checked entry by entry. On a bad entry `locate(arr)`
    says where it is, in parentheses after the name."""
    arr = arrays.get(name)
    if arr is None:
        raise error(f"checkpoint missing parameter {name!r}")
    if arr.dtype != np.float64:
        raise error(f"checkpoint parameter {name!r} is stored as {arr.dtype.str}, not <f8")
    if arr.shape != shape:
        raise error(f"shape mismatch for {name!r}: checkpoint {arr.shape}, model {shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(arr.sum()) or np.isfinite(arr).all()
    if not finite:
        where = "" if locate is None else f" ({locate(arr)})"
        raise error(f"checkpoint parameter {name!r} holds NaN or Inf{where}")
    return arr


def restore_parameters(params: list[Parameter], arrays: dict[str, np.ndarray], error: type[Exception]) -> None:
    """Set each parameter to its `checkpoint_array`, copied once."""
    for p in params:
        p.data = np.array(checkpoint_array(arrays, p.name, p.data.shape, error))


def _safe_rows(raw: np.ndarray, vocab: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Map each column's raw ids into its range of the stacked table: an id in
    [0, vocab) is row raw + first + 1, any other the out-of-vocab row first."""
    return np.where((raw >= 0) & (raw < vocab), raw + (first + 1), first)


# what a layer passes on: a graph's tensor, or a frozen forward's bare array
Value = Tensor | np.ndarray


def check_dense(w: Parameter, b: Parameter, shape: tuple[int, int], slope: float | None) -> None:
    """A dense layer's freeze check, what `ad.linear` checks on every call:
    the weight is `shape` and the bias its last axis (else `ad.ShapeError`),
    and the slope is in range (else `ValueError`)."""
    if w.shape != shape or b.shape != shape[1:]:
        raise ad.ShapeError(f"{w.name} and {b.name} are {w.shape} and {b.shape}; their layer needs {shape} and "
                            f"{shape[1:]}")
    if slope is not None:
        ad.check_slope(slope)


class Part:
    """What is frozen and scored whole: the backbone (`MultiTaskModel`) or an
    adapter (`iak.IAKAdapter`). Its parameters are `_params`, listed once in
    the checkpoint's block order; each part gives that list, its own
    `check` and its own `restore`."""

    _params: tuple[Parameter, ...]

    def parameters(self) -> list[Parameter]:
        return list(self._params)

    def named_parameters(self) -> dict[str, np.ndarray]:
        """Every array by its checkpoint name, in block order."""
        return {p.name: p.data for p in self._params}

    def check(self) -> None:
        """Check, once, what the ops check on every call: raise if any layer
        the part's forward runs does not conform."""
        raise NotImplementedError

    def freeze(self) -> None:
        """Freeze the part whole after its `check`; a failed check raises
        and freezes nothing. The forward then runs on bare arrays until any
        parameter is set trainable again (`ad.Freeze`)."""
        self.check()
        ad.Freeze(self._params)

    @property
    def frozen(self) -> bool:
        """Frozen whole, and no parameter set trainable since."""
        return self._params[0].freeze.held


class Linear:
    """x @ w + b, through a leaky ReLU of `slope` when it has one."""

    def __init__(self, in_dim: int, out_dim: int, name: str, rng: np.random.Generator, scale: float | None = None,
                 slope: float | None = None):
        std = scale if scale is not None else np.sqrt(2.0 / in_dim)
        self.shape = (in_dim, out_dim)
        self.w = Parameter(rng.normal(0.0, std, size=self.shape), name=f"{name}.w")
        self.b = Parameter(np.zeros(out_dim), name=f"{name}.b")
        self.slope = slope

    def __call__(self, x: Value) -> Value:
        if type(x) is np.ndarray:  # a frozen forward
            return ad.linear_kernel(x, self.w.data, self.b.data, self.slope)
        return ad.linear(x, self.w, self.b, self.slope)

    def check(self) -> None:
        """The layer's freeze check (`check_dense`), against its built shape."""
        check_dense(self.w, self.b, self.shape, self.slope)

    def dense_layers(self) -> list[Linear]:
        return [self]


class MLP:
    """Stack of Linear + LeakyReLU, every layer activated."""

    def __init__(self, dims: list[int], name: str, rng: np.random.Generator):
        self.layers = [Linear(d_in, d_out, f"{name}.l{i}", rng, slope=LEAKY_SLOPE)
                       for i, (d_in, d_out) in enumerate(zip(dims, dims[1:]))]

    def __call__(self, x: Value) -> Value:
        for layer in self.layers:
            x = layer(x)
        return x

    def dense_layers(self) -> list[Linear]:
        return self.layers


@dataclass(frozen=True)
class ModelConfig:
    kind: str = "base"
    hidden_sizes: tuple[int, ...] = (64, 32, 16)
    n_experts: int = 2
    loss_weights: tuple[float, float] = (1.0, 1.0)
    embed_dim: int = 8

    def __post_init__(self) -> None:
        if self.kind not in ("shared_bottom", "esmm", "mmoe", "base"):
            raise ModelError(f"unknown model kind {self.kind!r}")
        if self.n_experts < 1:
            raise ModelError("n_experts must be >= 1")
        if not self.hidden_sizes or any(h <= 0 for h in self.hidden_sizes):
            raise ModelError("hidden sizes must be positive")
        if len(self.loss_weights) != 2:
            raise ModelError("exactly two tasks are supported (ctr, ctcvr)")
        if not all(0 <= w < np.inf for w in self.loss_weights):
            raise ModelError(f"loss_weights must be finite and >= 0, got {self.loss_weights}")
        if self.embed_dim < 1:
            raise ModelError(f"embed_dim must be >= 1, got {self.embed_dim}")


@dataclass
class Prediction:
    """Per-task (B, 1) probabilities, bare arrays from a frozen forward; for
    ESMM the chain p_ctcvr = p_ctr * p_cvr holds exactly by construction."""

    p_ctr: Value
    p_ctcvr: Value
    p_cvr: Value | None = None


@dataclass
class ModelOutput:
    """A forward's outputs, bare arrays from a frozen forward. `prediction`
    is built from the logits by `predict` the first time it is read, then
    kept: a request an adapter serves never builds the zero-shot
    prediction."""

    logits: Value  # (B, n_heads) pre-sigmoid, one column per head
    representation: Value  # (B, rep_dim)
    predict: Callable[[Value], Prediction]

    @cached_property
    def prediction(self) -> Prediction:
        return self.predict(self.logits)


class EmbeddingBundle:
    """The shared embedding assembly every model kind is built on: one table,
    `embeddings.rows`, in which each id column (user, item, scene, region,
    period, then each feature column) owns a range of rows, its out-of-vocab
    row first. A checkpoint stores the table as one block of that name; each
    range keeps its column's name (`user_emb.rows`), by which errors place a
    row."""

    def __init__(self, space: FeatureSpace, dim: int, rng: np.random.Generator):
        self.space = space
        self.dim = dim
        names = ["user", "item", "scene", "region", "period", *(f"feat{c}" for c in range(space.n_feature_cols))]
        vocab = [space.n_users, space.n_items, space.n_scenes, space.n_regions, space.n_periods]
        vocab += [space.n_feature_buckets] * space.n_feature_cols
        bounds = np.cumsum([0] + [v + 1 for v in vocab]).tolist()
        self.shape = (bounds[-1], dim)
        # one draw gives each range the numbers a draw per range in column order would
        self.rows = Parameter(rng.normal(0.0, 0.1, size=self.shape), "embeddings.rows")
        self.ranges = {f"{n}_emb.rows": (start, end) for n, start, end in zip(names, bounds, bounds[1:])}
        self._vocab = np.array(vocab)
        self._first = np.array(bounds[:-1])

    @property
    def out_dim(self) -> int:
        return len(self.ranges) * self.dim

    def assemble(self, batch: Dataset) -> Value:
        """The embeddings of every id column of the rows, side by side: all
        ids mapped into their ranges of the table at once (`_safe_rows`),
        then one `ad.gather_rows` node, or its kernel's bare array when the
        model is frozen whole. This is the forward's one check of its batch:
        a batch not fitted to the model (`encode_records`) raises
        `ModelError`."""
        if batch.features.shape[1] != self.space.n_feature_cols:
            raise ModelError(f"batch has {batch.features.shape[1]} feature columns, the model "
                             f"{self.space.n_feature_cols}: fit it with encode_records")
        ids = np.column_stack((batch.user, batch.item, batch.scene, batch.region, batch.period, batch.features))
        rows = _safe_rows(ids, self._vocab, self._first)
        if self.rows.freeze.held:  # a frozen forward
            return ad.gather_rows_kernel(self.rows.data, rows)
        return ad.gather_rows(self.rows, rows)

    def check(self) -> None:
        """The table's freeze check: it has the rows its ranges need."""
        if self.rows.shape != self.shape:
            raise ad.ShapeError(f"{self.rows.name} is {self.rows.shape}; its ranges need {self.shape}")

    def locate(self, table: np.ndarray) -> str:
        """The row of `table`'s first NaN or Inf and the column range it lies in."""
        row = int(np.argmin(np.isfinite(table).all(axis=1)))
        name = next(name for name, (_, end) in self.ranges.items() if row < end)
        return f"row {row}, in {name!r}"


class MultiTaskModel(Part):
    """The scaffold of every kind: embeddings in, `_output` of its towers out."""

    kind = "abstract"

    def __init__(self, config: ModelConfig, space: FeatureSpace, seed: int | None):
        self.config = config
        self.space = space
        self.seed = seed
        self.rng = init_generator(seed, 0xB0DE)
        self.embeddings = EmbeddingBundle(space, config.embed_dim, self.rng)

    def _register(self, *components) -> None:
        """The kind's dense layers, its components' in order, and from them
        its parameters: the table, then each layer's weight and bias."""
        self._layers = [layer for c in components for layer in c.dense_layers()]
        self._params = (self.embeddings.rows, *(p for layer in self._layers for p in (layer.w, layer.b)))

    def check(self) -> None:
        """The model's freeze check: the table's shape, and each dense
        layer's weight, bias and slope (`check_dense`)."""
        self.embeddings.check()
        for layer in self._layers:
            layer.check()

    @property
    def rep_dim(self) -> int:
        return 2 * self.config.hidden_sizes[-1]

    @property
    def n_heads(self) -> int:
        return len(TASKS)

    def restore(self, arrays: dict[str, np.ndarray]) -> None:
        """Set every parameter from `arrays` (extra names are ignored). The
        table becomes the checked `embeddings.rows` array itself, read-only
        (a writable one through a read-only view): nothing is allocated or
        copied, and a table from a mapped checkpoint holds the file's mapping
        as long as the model lives. It is only ever gathered with `take`, so
        where its bytes live changes no bit. Every other parameter gets its
        own copy: they are small and feed BLAS, whose code path may depend on
        alignment. A bad array is a `ModelError` (see `checkpoint_array`); a
        NaN or Inf in the table is placed by its row and column range. A
        model built with seed=None drew no init for this to overwrite.

        A restored table cannot be trained: a pretraining that starts from a
        checkpoint must first give the table a writable copy."""
        rows = self.embeddings.rows
        rows.data = checkpoint_array(arrays, rows.name, rows.data.shape, ModelError, self.embeddings.locate)
        if rows.data.flags.writeable:  # an in-memory array, not a loaded one
            rows.data = rows.data.view()
            rows.data.flags.writeable = False
        restore_parameters(self._params[1:], arrays, ModelError)

    def _heads(self, tasks: tuple[str, ...]) -> list[Linear]:
        # one logit layer per task, named `.l0` as when each head was a
        # one-layer MLP, so checkpoints and backbone caches written then load
        d = self.config.hidden_sizes[-1]
        return [Linear(d, 1, f"head_{t}.l0", self.rng, scale=np.sqrt(1.0 / d)) for t in tasks]

    def forward_full(self, batch: Dataset) -> ModelOutput:
        """The forward of a fitted batch: its assembled row, then `forward_from`."""
        return self.forward_from(self.embeddings.assemble(batch))

    def forward_from(self, x: Value) -> ModelOutput:
        """The forward from an assembled (B, `embeddings.out_dim`) row, the
        one body of every kind: a tower on each of the kind's
        `_tower_inputs`, then `_output`. A bare row on a model frozen whole
        runs the kernels; no op checks it, so a row that is not 2-d and
        `out_dim` wide raises `ModelError`. A bare row on any other model is
        a constant `Tensor`, so the forward records a graph."""
        if type(x) is np.ndarray:
            if not self.frozen:
                x = Tensor(x)
            elif x.ndim != 2 or x.shape[1] != self.embeddings.out_dim:
                raise ModelError(f"an assembled row is (B, {self.embeddings.out_dim}), got {x.shape}")
        return self._output([tower(h) for tower, h in zip(self.towers, self._tower_inputs(x))])

    def _output(self, penults: list[Value]) -> ModelOutput:
        """The output tail every kind shares: the tower activations side by
        side are the representation, and `_logits` scores them; the
        prediction is built on read (see `ModelOutput`)."""
        rep = _concat(penults)
        return ModelOutput(self._logits(penults, rep), rep, self.predict_from_logits)

    def _logits(self, penults: list[Value], rep: Value) -> Value:
        """(B, n_heads) logits, each task's head on its own tower."""
        return _concat([head(p) for head, p in zip(self.heads, penults)])

    def predict_from_logits(self, logits: Value) -> Prediction:
        """Probabilities of (B, n_heads) logits: one sigmoid over every head,
        then a (B, 1) column per head. Heads are (ctr, ctcvr) for every kind
        except ESMM, whose second head is CVR and whose ctcvr is the exact
        product.

        Bare logits (a frozen forward: scoring, eval, `backbone_cache`) give
        bare probabilities, the columns views of one sigmoid. No op checked
        them, so this is their check, once per prediction: logits that are
        not (B, n_heads) raise `ad.ShapeError`, and a NaN or Inf in them
        `NonFiniteError`, as it does in logits that record no graph."""
        bare = type(logits) is np.ndarray
        data = logits if bare else logits.data
        if bare and data.shape[1:] != (self.n_heads,):
            raise ad.ShapeError(f"logits of shape {data.shape} for {self.n_heads} heads")
        if (bare or not logits.requires_grad) and not np.isfinite(data).all():
            raise ad.NonFiniteError("non-finite logits of a frozen forward")
        if bare:
            p = ad.sigmoid_kernel(logits)
            p0, p1, mul = p[:, 0:1], p[:, 1:2], np.multiply
        else:
            p = ad.sigmoid(logits)
            p0, p1, mul = ad.slice_cols(p, 0, 1), ad.slice_cols(p, 1, 2), ad.mul
        if self.kind == "esmm":
            return Prediction(p_ctr=p0, p_cvr=p1, p_ctcvr=mul(p0, p1))
        return Prediction(p_ctr=p0, p_ctcvr=p1)


class SharedBottom(MultiTaskModel):
    kind = "shared_bottom"

    def __init__(self, config: ModelConfig, space: FeatureSpace, seed: int | None):
        super().__init__(config, space, seed)
        hs = list(config.hidden_sizes)
        self.trunk = MLP([self.embeddings.out_dim, *hs], "trunk", self.rng)
        self.towers = [MLP([hs[-1], hs[-1]], f"tower_{t}", self.rng) for t in TASKS]
        self.heads = self._heads(TASKS)
        self._register(self.trunk, *self.towers, *self.heads)

    forward_full = MultiTaskModel.forward_full  # bound per kind: perfbench.layers.trace_targets patches it

    def _tower_inputs(self, x: Value) -> list[Value]:
        h = self.trunk(x)
        return [h, h]


class ESMM(MultiTaskModel):
    """Entire-space model: towers estimate CTR and CVR over all impressions,
    and CTCVR is their product; the CVR tower trains only through the CTCVR
    objective."""

    kind = "esmm"

    def __init__(self, config: ModelConfig, space: FeatureSpace, seed: int | None):
        super().__init__(config, space, seed)
        dims = [self.embeddings.out_dim, *config.hidden_sizes]
        self.towers = [MLP(dims, f"tower_{t}", self.rng) for t in ("ctr", "cvr")]
        self.heads = self._heads(("ctr", "cvr"))
        self._register(*self.towers, *self.heads)

    forward_full = MultiTaskModel.forward_full  # bound per kind: perfbench.layers.trace_targets patches it

    def _tower_inputs(self, x: Value) -> list[Value]:
        return [x, x]


class _MoECore:
    """The mixture core shared by MMoE and the BaseRecommender: experts (each
    an MLP), one gate layer per task scoring the experts, and per task one
    `ad.gate_mix` node that softmaxes the gate's scores and mixes the
    experts' outputs by them."""

    def __init__(self, in_dim: int, config: ModelConfig, rng: np.random.Generator):
        hs = list(config.hidden_sizes)
        self.experts = [MLP([in_dim, *hs], f"expert{e}", rng) for e in range(config.n_experts)]
        self.gates = [Linear(in_dim, config.n_experts, f"gate_{t}", rng) for t in TASKS]

    def __call__(self, x: Value) -> list[Value]:
        expert_outs = [e(x) for e in self.experts]
        if type(x) is np.ndarray:  # a frozen forward
            return [ad.gate_mix_kernel(g(x), expert_outs)[1] for g in self.gates]
        return [ad.gate_mix(g(x), expert_outs) for g in self.gates]

    def dense_layers(self) -> list[Linear]:
        return [layer for e in self.experts for layer in e.layers] + self.gates


class MMoE(MultiTaskModel):
    kind = "mmoe"

    def __init__(self, config: ModelConfig, space: FeatureSpace, seed: int | None):
        super().__init__(config, space, seed)
        hs = list(config.hidden_sizes)
        self.core = _MoECore(self.embeddings.out_dim, config, self.rng)
        self.towers = [MLP([hs[-1], hs[-1]], f"tower_{t}", self.rng) for t in TASKS]
        self.heads = self._heads(TASKS)
        self._register(self.core, *self.towers, *self.heads)

    forward_full = MultiTaskModel.forward_full  # bound per kind: perfbench.layers.trace_targets patches it

    def _tower_inputs(self, x: Value) -> list[Value]:
        return self.core(x)


class BaseRecommender(MultiTaskModel):
    """The pretraining target: shared embeddings, MMoE main net, task towers,
    and a stacked logits layer that scores every task from the concatenated
    tower activations. That concatenation is also the representation handed
    to adapters."""

    kind = "base"

    def __init__(self, config: ModelConfig, space: FeatureSpace, seed: int | None):
        super().__init__(config, space, seed)
        hs = list(config.hidden_sizes)
        self.core = _MoECore(self.embeddings.out_dim, config, self.rng)
        self.towers = [MLP([hs[-1], hs[-1]], f"tower_{t}", self.rng) for t in TASKS]
        self.stacked = Linear(2 * hs[-1], self.n_heads, "stacked_logits", self.rng, scale=np.sqrt(1.0 / (2 * hs[-1])))
        self._register(self.core, *self.towers, self.stacked)

    forward_full = MultiTaskModel.forward_full  # bound per kind: perfbench.layers.trace_targets patches it

    def _tower_inputs(self, x: Value) -> list[Value]:
        return self.core(x)

    def _logits(self, penults: list[Value], rep: Value) -> Value:
        """The stacked layer scores every task from the whole representation."""
        return self.stacked(rep)


def _concat(parts: list[Value]) -> Value:
    """The (B, ·) parts side by side: one `ad.concat` node, or on a frozen
    forward's bare arrays their concatenation."""
    return np.concatenate(parts, axis=1) if type(parts[0]) is np.ndarray else ad.concat(parts, axis=1)


MODEL_KINDS = {
    "shared_bottom": SharedBottom,
    "esmm": ESMM,
    "mmoe": MMoE,
    "base": BaseRecommender,
}


def build_model(config: ModelConfig, space: FeatureSpace, seed: int | None) -> MultiTaskModel:
    """A model of `config.kind` over `space`. A seed draws its init (the same
    draws for the same seed); seed=None draws nothing and leaves every
    parameter zero for `restore` to fill, so a restored model does not depend
    on any seed. Until that restore, its drawn parameters (the table and every
    weight; biases are plain zeros) are read-only views that allocate
    nothing; after it, the table is the checkpoint's read-only block."""
    return MODEL_KINDS[config.kind](config, space, seed)


def task_bce(p: Tensor, labels: np.ndarray, offsets: np.ndarray | ad.Segments | None = None) -> Tensor:
    """Mean binary cross-entropy of one task over a batch, one
    `ad.clipped_bce` node: probabilities are clamped away from 0 and 1
    before the log. With `offsets` (K + 1 row offsets that cut the batch
    into K segments, or those parsed, `ad.Segments`) the mean is per
    segment, one loss per segment."""
    if not np.all((labels == 0) | (labels == 1)):
        raise ModelError("labels must be 0 or 1")
    return ad.clipped_bce(p, labels, PROB_CLAMP, 1.0 - PROB_CLAMP, offsets)


def bce_loss(
    prediction: Prediction,
    click: np.ndarray,
    purchase: np.ndarray,
    weights: tuple[float, float] = (1.0, 1.0),
    offsets: np.ndarray | ad.Segments | None = None,
) -> Tensor:
    """Weighted sum of per-task binary cross-entropies, mean over the batch
    (or per segment, see `task_bce`). CTR trains against click, CTCVR
    against purchase."""
    loss = ad.mul(task_bce(prediction.p_ctr, click, offsets), weights[0])
    return ad.add(loss, ad.mul(task_bce(prediction.p_ctcvr, purchase, offsets), weights[1]))
