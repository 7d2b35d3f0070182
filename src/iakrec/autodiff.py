"""Minimal reverse-mode autodiff engine over float64 numpy arrays.

Define-by-run: every op computes its value eagerly and links the output to
its inputs, so a single reverse sweep over the recorded graph yields exact
gradients. float64 throughout. An op whose output records a graph (some
input requires a gradient) raises on a NaN/Inf in that output. An op over
inputs that need no gradient records nothing: its output has no parents
and no backward. In a graph, a dense layer whose bias is frozen computes no
bias gradient.

A frozen forward runs no op at all. A model or adapter is checked once, when
it is frozen whole (`Freeze`), and its forward then runs the bare kernels
(`linear_kernel`, `gate_mix_kernel`, `sigmoid_kernel`,
`gather_rows_kernel`) on bare arrays. The ops compute their values with the
same kernels, so the two paths give equal bits by construction; only the
ops check their inputs on every call.

The ops are the ones the models and adapters run, and each is as coarse as
its caller allows: a dense layer is one `linear` (or `segment_linear`)
node, the lookups of a row's ids into the one embedding table are one
`gather_rows` node, a mixture-of-experts gate (its softmax and the weighted
sum of the experts) is one `gate_mix` node, and each loss term is one node:
the clipped cross-entropy `clipped_bce`, the Gaussian KL `gaussian_kl` and
the reparameterised weight draw `weight_sample`. A fused op equals the
chain of finer nodes it replaces bit for bit; those chains live with the
tests as references.

Gradients are dense arrays, except where `gather_rows` looks up rows of a
`Parameter` (an embedding table): there backward records one pair, the
looked-up rows and a view of their gradient rows, and the optimizer
updates only those rows. A step therefore costs the rows a batch touches,
not the size of the table. `Parameter.grad` still reads as a dense array,
built on read. A dense gradient is written once: an intermediate keeps the
product its op made, and a parameter that an optimizer has laid out takes
its first gradient in its slot of that layout's gradient block.

The optimizer is decayed Adagrad (`AdagradDecay`), and its owner lays it out
once, before the first forward: the trainable dense parameters as the rows
of one arena, a gradient block and an accumulator block beside them, and at
most one embedding table, which stays where it is. Pretraining's arena is
one row beside the model's one table; an `iak.AdapterBank`'s is one row per
adapter, each at its own rate, with no table. `adagrad_decay_step` is the
one step for both: one pass over the arena rows that step, and one segment
sum and one lazy row update of the table. Either way the bits are those of a
step per parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operands do not conform for the requested primitive."""


class NonFiniteError(FloatingPointError):
    """An op produced NaN or Inf, or was fed a non-finite gradient."""


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    # a broadcast scalar (every stride 0, as `models.ZeroInit` draws) is one
    # value, checked as such rather than through a table-sized bool array
    if not np.isfinite(arr.flat[0] if arr.size and not any(arr.strides) else arr).all():
        raise NonFiniteError("tensor data contains NaN or Inf")
    return arr


class Tensor:
    """Dense float64 array plus the bookkeeping needed for backward."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self._bind(_as_array(data), requires_grad)

    def _bind(self, data: np.ndarray, requires_grad: bool) -> None:
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def _grad_unset(self) -> bool:
        return self.grad is None

    def _grad_buffer(self) -> np.ndarray:
        """The array a first gradient is written into."""
        return np.empty_like(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Named tensor that trains while it `requires_grad` (`set_trainable`).
    Frozen parameters keep an all-zero gradient.

    The gradient is held as an optional dense array plus the `(rows, values)`
    pairs that `gather_rows` records, so a lookup into a large table never
    allocates a table-sized array."""

    __slots__ = ("name", "freeze", "_dense_grad", "_row_grads", "_grad_slot")

    def __init__(self, data, name: str, trainable: bool = True):
        super().__init__(data, requires_grad=trainable)
        self.name = name
        self.freeze = _THAWED
        # where the first dense gradient is written once an optimizer has laid
        # the parameter out (see `AdagradDecay`)
        self._grad_slot: np.ndarray | None = None

    @property
    def grad(self) -> np.ndarray:
        """Dense gradient, built on read: the recorded row gradients are
        folded into it (zeros when nothing was recorded). Once read, the
        gradient is dense, so `adagrad_decay_step` refuses to step an
        embedding table read this way."""
        if self._dense_grad is None:
            self._dense_grad = np.zeros_like(self.data)
        for rows, values in self._row_grads:
            np.add.at(self._dense_grad, rows, values)
        self._row_grads = []
        return self._dense_grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._dense_grad = value
        self._row_grads = []

    def _grad_unset(self) -> bool:
        """Nothing recorded yet, so `grad` would read as fresh zeros."""
        return self._dense_grad is None and not self._row_grads

    def add_row_grad(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Accumulate `values[i]` into the gradient of row `rows[i]`."""
        self._row_grads.append((rows, values))

    def _grad_buffer(self) -> np.ndarray:
        return np.empty_like(self.data) if self._grad_slot is None else self._grad_slot

    def _fill_grad_slot(self) -> None:
        """Put the gradient in its slot, where an arena update reads it: one
        written elsewhere is copied in, and a parameter with nothing
        recorded fills it with zeros."""
        g = self.grad
        if g is not self._grad_slot:
            self._grad_slot[...] = g

    def set_trainable(self, trainable: bool) -> None:
        """Set whether the parameter trains. Setting it trainable also ends
        the `Freeze` it was frozen under, for every parameter of that."""
        self.requires_grad = trainable
        self.grad = None
        if trainable:
            self.freeze.held = False

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape}, trainable={self.requires_grad})"


class Freeze:
    """The parameters of one model or adapter, frozen whole after the check
    its owner makes of them (`models.Part.freeze`, the one freeze of the
    backbone and of each adapter). Each parameter holds it as `freeze`.
    It holds until any of them is set trainable again; while it holds, the
    owner's forward reads them as bare arrays through the kernels."""

    __slots__ = ("held",)

    def __init__(self, params: Iterable[Parameter]):
        self.held = True
        for p in params:
            p.set_trainable(False)
            p.freeze = self


# the `Freeze` of a parameter never frozen whole
_THAWED = Freeze(())
_THAWED.held = False


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward: Callable[[Tensor], None], op: str) -> Tensor:
    """Build an op output node; prunes the graph when no parent needs grad.
    An output that records a graph is checked for NaN/Inf here, the only
    check it gets (the array method skips the Python-level dispatch of
    `np.all`); an output that records none is returned unchecked."""
    out = Tensor.__new__(Tensor)
    out._bind(data, False)
    for p in parents:
        if p.requires_grad:
            if not np.isfinite(data).all():
                raise NonFiniteError(f"non-finite values in output of {op}")
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = lambda: backward(out)
            break
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add `g` into t's gradient. The first one is written in one pass, equal
    bit for bit to zeros + g: it broadcasts like +=, never aliases g, and
    turns -0.0 into +0.0. It goes into a fresh array, or into the parameter's
    slot of its optimizer's gradient arena once one has laid it out.

    An intermediate whose first gradient is a fresh product keeps that
    product uncopied (`_accum_fresh`), -0.0 and all. A zero's sign there
    never reaches a stored gradient: a Parameter still takes the + 0.0, and
    no op divides by a gradient (see the note on signed zeros above the loss
    terms), so the sign changes no other bit on the way."""
    if not t.requires_grad:
        return
    if t._grad_unset():
        t.grad = np.add(g, 0.0, out=t._grad_buffer())
    else:
        t.grad += g


def _accum_fresh(t: Tensor, g: np.ndarray) -> None:
    """`_accum` of a product of t's shape that nothing else holds."""
    if t.requires_grad and t._grad_unset() and not isinstance(t, Parameter) and g.shape == t.data.shape:
        t.grad = g
    else:
        _accum(t, g)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting introduced."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

# A kernel is the arithmetic of an op on bare arrays, unchecked. The op
# computes its value with its kernel after checking its inputs; a frozen
# forward calls the kernel itself, on inputs checked once, when the model or
# adapter was frozen whole (`Freeze`).


def sigmoid_kernel(a: np.ndarray) -> np.ndarray:
    """The logistic function in its tanh form, overflow-free and exact:
    0.5 * (1 + tanh(a / 2)), the last two steps in place."""
    y = np.tanh(0.5 * a)
    y += 1.0
    y *= 0.5
    return y


def linear_kernel(x: np.ndarray, w: np.ndarray, b: np.ndarray, slope: float | None = None,
                  scale: float | None = None) -> np.ndarray:
    """A dense layer's value: leaky ReLU of (x @ w) * scale + b, no `scale`
    skipping the product and no `slope` the activation. The activation is
    `_leaky`'s, unchecked and in place over the pre-activation, so `linear`
    asks for the pre-activation alone (no slope), which its backward keeps,
    and activates a copy."""
    z = x @ w
    if scale is not None:
        z *= scale
    z += b
    return z if slope is None else np.maximum(z, slope * z, out=z)


def gate_mix_kernel(a: np.ndarray, experts: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The softmax weights of the (B, E) gate logits `a`, and the mix
    sum_e w[:, e:e+1] * experts[e] of the E (B, H) expert outputs."""
    # the row max as a fold over the columns: exact for any E, and far
    # cheaper than numpy's reduction over a short axis
    row_max = a[:, 0:1]
    for k in range(1, a.shape[1]):
        row_max = np.maximum(row_max, a[:, k : k + 1])
    e = np.exp(a - row_max)
    w = e / e.sum(axis=1, keepdims=True)
    mixed = w[:, 0:1] * experts[0]
    for k in range(1, len(experts)):
        mixed = mixed + w[:, k : k + 1] * experts[k]
    return w, mixed


def gather_rows_kernel(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The rows `idx` (1-d, or (B, T)) of a 2-d table, each row's T side by
    side: a (B, T * width) array. A row past the end raises `IndexError`
    and a negative one wraps, so every index must be in range."""
    return table.take(idx, axis=0).reshape(len(idx), math.prod(idx.shape[1:]) * table.shape[1])


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data + b.data

    def backward(out: Tensor) -> None:
        _accum(a, _unbroadcast(out.grad, a.shape))
        _accum(b, _unbroadcast(out.grad, b.shape))

    return _make(data, (a, b), backward, "add")


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data * b.data

    def backward(out: Tensor) -> None:
        _accum(a, _unbroadcast(out.grad * b.data, a.shape))
        _accum(b, _unbroadcast(out.grad * a.data, b.shape))

    return _make(data, (a, b), backward, "mul")


def sigmoid(a) -> Tensor:
    a = _wrap(a)

    def backward(out: Tensor) -> None:
        _accum(a, out.grad * out.data * (1.0 - out.data))

    return _make(sigmoid_kernel(a.data), (a,), backward, "sigmoid")


def check_slope(slope: float) -> None:
    """Raise `ValueError` unless `slope` is a leaky ReLU slope: in [0, 1],
    and not -0.0 (which would flip a zero's sign)."""
    if not 0.0 <= slope <= 1.0 or math.copysign(1.0, slope) < 0.0:
        raise ValueError(f"leaky ReLU slope must be in [0, 1], got {slope}")


def _leaky(z: np.ndarray, slope: float) -> np.ndarray:
    """Leaky ReLU, branch-free: bit for bit `np.where(z >= 0, z, slope * z)`
    for a slope that `check_slope` passes; any other raises."""
    check_slope(slope)
    return np.maximum(z, slope * z)


def _leaky_grad(g: np.ndarray, z: np.ndarray, slope: float) -> np.ndarray:
    """The gradient `g` at leaky ReLU's output carried to its input `z`, g *
    `np.where(z >= 0, 1.0, slope)` with the factor built branch-free."""
    return g * np.maximum((z >= 0.0).astype(np.float64), slope)


def _dense_grads(g: np.ndarray, z: np.ndarray, slope: float | None, scale: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Gradients at the pre-activation `z` and at x @ w of a dense layer,
    given the gradient `g` at its output. A zero's sign may differ from the
    composed chain's, which stores none: see the note on signed zeros above
    the loss terms."""
    gz = g if slope is None else _leaky_grad(g, z, slope)
    return gz, gz if scale is None else gz * scale


def linear(x, w, b, slope: float | None = None, scale: float | None = None) -> Tensor:
    """A dense layer as one node: leaky ReLU of (x @ w) * scale + b, with
    the (m, n) `w` and (n,) `b`. No `scale` skips the product and no `slope`
    the activation. Values and gradients equal those of the composed
    matmul, mul, add and leaky_relu bit for bit."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    xd, wd, bd = x.data, w.data, b.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0] or bd.shape != wd.shape[1:]:
        raise ShapeError(f"linear needs (B,m), (m,n) and (n,), got {xd.shape}, {wd.shape} and {bd.shape}")
    z = linear_kernel(xd, wd, bd, scale=scale)

    def backward(out: Tensor) -> None:
        gz, gh = _dense_grads(out.grad, z, slope, scale)
        if x.requires_grad:
            _accum_fresh(x, gh @ w.data.T)
        if w.requires_grad:
            _accum(w, x.data.T @ gh)
        if b.requires_grad:
            _accum(b, gz.sum(axis=0))

    return _make(z if slope is None else _leaky(z, slope), (x, w, b), backward, "linear")


def gate_mix(gate_logits, experts: Sequence) -> Tensor:
    """A mixture-of-experts gate as one node: the softmax over the (B, E)
    `gate_logits`, then sum_e w[:, e:e+1] * experts[e] over the E (B, H)
    expert outputs. Values and gradients equal those of the composed
    softmax, slice_cols, mul and add bit for bit (a zero's sign may differ
    inside, as in the loss terms below). The parents are the experts with
    the gate logits before the last one, the order in which the composed
    chain reaches them, so a reverse sweep adds the gradients of a shared
    input in the chain's order."""
    gate, parts = _wrap(gate_logits), [_wrap(e) for e in experts]
    a = gate.data
    if a.ndim != 2 or a.shape[1] != len(parts) or any(p.data.shape[0] != a.shape[0] for p in parts):
        raise ShapeError(f"gate_mix needs (B, {len(parts)}) gate logits and (B, H) experts, got {gate.shape}")
    w, mixed = gate_mix_kernel(a, [p.data for p in parts])

    def backward(out: Tensor) -> None:
        g = out.grad
        g_w = np.empty_like(w)
        for k, p in enumerate(parts):
            g_w[:, k : k + 1] = _unbroadcast(g * p.data, (g.shape[0], 1))
            _accum_fresh(p, g * w[:, k : k + 1])
        if gate.requires_grad:
            _accum_fresh(gate, w * (g_w - (g_w * w).sum(axis=1, keepdims=True)))

    return _make(mixed, (*parts[:-1], gate, parts[-1]), backward, "gate_mix")


def concat(tensors: Sequence, axis: int = 1) -> Tensor:
    parts = [_wrap(t) for t in tensors]
    if not parts:
        raise ShapeError("concat of zero tensors")
    data = np.concatenate([p.data for p in parts], axis=axis)
    widths = [p.shape[axis] for p in parts]

    def backward(out: Tensor) -> None:
        offset = 0
        for p, w in zip(parts, widths):
            sl = [slice(None)] * out.grad.ndim
            sl[axis] = slice(offset, offset + w)
            _accum(p, out.grad[tuple(sl)])
            offset += w

    return _make(data, parts, backward, "concat")


def slice_cols(a, start: int, stop: int) -> Tensor:
    """Columns start:stop of a 2-d tensor, copied."""
    a = _wrap(a)
    if a.data.ndim != 2:
        raise ShapeError(f"slice_cols needs a 2-d tensor, got shape {a.shape}")

    def backward(out: Tensor) -> None:
        g = np.zeros_like(a.data)
        g[:, start:stop] = out.grad
        _accum(a, g)

    return _make(a.data[:, start:stop].copy(), (a,), backward, "slice_cols")


def reduce_sum(a) -> Tensor:
    a = _wrap(a)

    def backward(out: Tensor) -> None:
        _accum(a, np.full_like(a.data, out.grad))

    return _make(np.asarray(a.data.sum()), (a,), backward, "sum")


# Segment primitives: `offsets` (K + 1 row offsets, 0 first and B last, never
# decreasing) cut the leading axis into K segments, segment k being rows
# offsets[k]:offsets[k + 1]. Each loops over the segments and makes, per
# segment, the numpy calls its plain counterpart makes on that segment alone
# (an elementwise step may run once over all rows: same bits), so a
# segment's values and gradients equal the plain op's bit for bit. An op
# parses its offsets into `Segments`, or takes them parsed: a caller that
# cuts the rows of several ops alike parses them once.


class Segments:
    """Parsed segment offsets over `n_rows` rows: iterates the (start, end)
    of each segment; `counts` holds their row counts, and `unit` says every
    segment is one row."""

    __slots__ = ("bounds", "counts", "n_rows", "unit")

    def __init__(self, offsets, n_rows: int | None):
        off = np.asarray(offsets, dtype=np.int64)
        if n_rows is None or off.ndim != 1 or off.size < 2:
            raise ShapeError(f"segments need a tensor with rows and K + 1 >= 2 offsets, got {off.tolist()}")
        self.counts = np.diff(off)
        if off[0] != 0 or off[-1] != n_rows or (self.counts < 0).any():
            raise ShapeError(f"segment offsets must rise from 0 to {n_rows}, got {off.tolist()}")
        self.bounds = list(zip(off[:-1].tolist(), off[1:].tolist()))
        self.n_rows = n_rows
        self.unit = bool((self.counts == 1).all())

    def __iter__(self):
        return iter(self.bounds)

    def __len__(self) -> int:
        return len(self.bounds)


def _segments(offsets, n_rows: int | None) -> Segments:
    if isinstance(offsets, Segments):
        if offsets.n_rows != n_rows:
            raise ShapeError(f"segments of {offsets.n_rows} rows for a tensor of {n_rows}")
        return offsets
    return Segments(offsets, n_rows)


def segment_linear(x, w, b, offsets, slope: float | None = None, scale: float | None = None) -> Tensor:
    """`linear` per segment: segment k of the (B, m) `x` through matrix k of
    the (K, m, n) `w` and row k of the (K, n) `b`. Each segment's products
    are written into its rows of one array."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if x.data.ndim != 2 or w.data.ndim != 3 or x.shape[1] != w.shape[1] or b.shape != (w.shape[0], w.shape[2]):
        raise ShapeError(f"segment_linear needs (B,m), (K,m,n) and (K,n), got {x.shape}, {w.shape} and {b.shape}")
    segs = _segments(offsets, x.shape[0])
    if len(segs) != w.shape[0]:
        raise ShapeError(f"{len(segs)} segments for {w.shape[0]} matrices")
    z = np.empty((x.shape[0], w.shape[2]))
    for k, (s, e) in enumerate(segs):
        np.matmul(x.data[s:e], w.data[k], out=z[s:e])
    if scale is not None:
        z *= scale
    z += np.repeat(b.data, segs.counts, axis=0)

    def backward(out: Tensor) -> None:
        gz, gh = _dense_grads(out.grad, z, slope, scale)
        if x.requires_grad:
            gx = np.empty_like(x.data)
            for k, (s, e) in enumerate(segs):
                np.matmul(gh[s:e], w.data[k].T, out=gx[s:e])
            _accum_fresh(x, gx)
        if w.requires_grad:
            gw = np.empty(w.shape)
            for k, (s, e) in enumerate(segs):
                np.matmul(x.data[s:e].T, gh[s:e], out=gw[k])
            _accum_fresh(w, gw)
        if b.requires_grad:
            gb = np.empty(b.shape)
            for k, (s, e) in enumerate(segs):
                gz[s:e].sum(axis=0, out=gb[k])
            _accum_fresh(b, gb)

    return _make(z if slope is None else _leaky(z, slope), (x, w, b), backward, "segment_linear")


def gather_rows(table, rows) -> Tensor:
    """Row lookup into one 2-d table, as one node: with 1-d `rows`,
    `table[rows]`; with (B, T) rows, the T rows of each of the B side by
    side, a (B, T * width) output. Backward records the looked-up rows and
    their gradient rows, a view of the output's gradient, on the table,
    which must then be a `Parameter`."""
    table, idx = _wrap(table), np.asarray(rows, dtype=np.int64)
    if table.data.ndim != 2 or idx.ndim not in (1, 2):
        raise ShapeError(f"gather_rows needs a 2-d table and 1-d or 2-d rows, got {table.shape} and {idx.shape}")
    if table.requires_grad and not isinstance(table, Parameter):
        raise ShapeError("gather_rows records row gradients, so a table that needs one must be a Parameter")
    if idx.size and idx.min() < 0:  # `take` would wrap a negative row
        raise ShapeError("gather_rows index out of range")
    width = table.data.shape[1]
    try:
        looked_up = gather_rows_kernel(table.data, idx)
    except IndexError:  # a row past the table's end
        raise ShapeError("gather_rows index out of range") from None

    def backward(out: Tensor) -> None:
        table.add_row_grad(idx.ravel(), out.grad.reshape(-1, width))

    return _make(looked_up, (table,), backward, "gather_rows")


# ---------------------------------------------------------------------------
# loss terms
# ---------------------------------------------------------------------------

# Each loss term is one node in place of a chain of nodes. It makes the
# chain's numpy calls in order, leaving out the chain's exact copies of a
# gradient (through an add or a sum) and the `+ 0.0` with which `_accum`
# normalises each chain node's first gradient. Signed zeros: leaving that
# out (here and in the dense layers) only flips the sign of a zero, no op
# divides by a gradient, and `_accum` normalises what it stores, so the
# stored gradients are the chain's bit for bit. With `offsets` (see
# `_segments`) a reduction is per segment of the leading axis.


def _spread(g: np.ndarray, segs: Segments | None, ndim: int) -> np.ndarray:
    """The gradient of a (per-segment) total at each entry it sums: `g`
    itself, or segment k's g[k] on each of its rows, shaped to broadcast."""
    if segs is None:
        return g
    return np.repeat(g, segs.counts).reshape((-1,) + (1,) * (ndim - 1))


def clipped_bce(p, labels, lo: float, hi: float, offsets=None) -> Tensor:
    """Binary cross-entropy of probabilities `p` against 0/1 `labels` (one
    per entry of p), p clamped to [lo, hi] first: -mean(y log p + (1 - y)
    log(1 - p)), or with `offsets` the (K,) per-segment means, an empty
    segment reading 0. The gradient reaches p only inside [lo, hi]. Equals
    the composed clip, log, mul, sub, add, mean and mul by -1."""
    p = _wrap(p)
    y = np.asarray(labels, dtype=np.float64).reshape(p.shape)
    segs = None if offsets is None else _segments(offsets, p.shape[0] if p.data.ndim else None)
    pc = np.clip(p.data, lo, hi)
    not_y, not_p = 1.0 - y, 1.0 - pc
    ll = y * np.log(pc) + not_y * np.log(not_p)
    if segs is None:
        mean = np.asarray(ll.mean())
    else:
        # sum / size is what `mean` computes, without its Python overhead
        mean = np.array([ll[s:e].sum() / ll[s:e].size if e > s else 0.0 for s, e in segs])

    def backward(out: Tensor) -> None:
        g = out.grad * -1.0
        if segs is None:
            g_ll = np.full_like(ll, g / ll.size)
        else:
            g_ll = np.empty_like(ll)
            for k, (s, e) in enumerate(segs):
                if e > s:
                    g_ll[s:e] = g[k] / ll[s:e].size
        g_q = g_ll * not_y / not_p
        # the clamped p's gradient: log p's share first, then 1 - p's
        # (x - y is x + (-y) exactly)
        g_pc = g_ll * y / pc
        g_pc -= g_q
        _accum(p, g_pc * ((p.data >= lo) & (p.data <= hi)))

    return _make(mean * -1.0, (p,), backward, "clipped_bce")


def softplus_parts(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """softplus(rho) and 1 + tanh(rho / 2), twice softplus's derivative: what
    `gaussian_kl` and `weight_sample` compute of their `rho`, computed once
    when both nodes read the same one."""
    return np.logaddexp(0.0, rho), 1.0 + np.tanh(0.5 * rho)


def gaussian_kl(mu, rho, offsets=None, parts: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
    """KL(N(mu, sigma^2) || N(0, 1)) of independent Gaussian entries, sigma
    = softplus(rho): the total of 0.5 * (mu^2 + sigma^2 - 1) - log sigma,
    or with `offsets` the (K,) per-segment totals. Always >= 0. Equals the
    composed softplus, square, add, sub, sum, mul, log and sub; a sigma that
    underflows to 0 gives an infinite KL, which the output check rejects.
    `parts` is `softplus_parts(rho)` when the caller already has it."""
    mu, rho = _wrap(mu), _wrap(rho)
    if mu.shape != rho.shape:
        raise ShapeError(f"gaussian_kl needs mu and rho of one shape, got {mu.shape} and {rho.shape}")
    segs = None if offsets is None else _segments(offsets, mu.shape[0] if mu.data.ndim else None)

    def total(a: np.ndarray) -> np.ndarray:
        if segs is None:
            return np.asarray(a.sum())
        if segs.unit:  # one slab per segment: each row's sum is that slab's
            return a.reshape(len(a), -1).sum(axis=1)
        return np.array([a[s:e].sum() for s, e in segs])

    sigma, lift = softplus_parts(rho.data) if parts is None else parts
    with np.errstate(divide="ignore"):
        log_sigma = np.log(sigma)
    kl = total(mu.data * mu.data + sigma * sigma - 1.0) * 0.5 - total(log_sigma)

    def backward(out: Tensor) -> None:
        g_sq = _spread(out.grad * 0.5, segs, mu.data.ndim)
        g_log = _spread(-out.grad, segs, mu.data.ndim)
        _accum(mu, g_sq * 2.0 * mu.data)
        # sigma's gradient: the square's share first, then the log's
        g_sigma = g_sq * 2.0 * sigma
        g_sigma += g_log / sigma
        _accum(rho, g_sigma * 0.5 * lift)

    return _make(kl, (mu, rho), backward, "gaussian_kl")


def weight_sample(mu, rho, eps, parts: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
    """A reparameterised draw mu + softplus(rho) * eps of Gaussian weights,
    `eps` the standard-normal noise, which may broadcast mu and rho to
    several draws; gradients reach mu and rho. Equals the composed softplus,
    mul and add. `parts` is `softplus_parts(rho)` when the caller already
    has it."""
    mu, rho = _wrap(mu), _wrap(rho)
    if mu.shape != rho.shape:
        raise ShapeError(f"weight_sample needs mu and rho of one shape, got {mu.shape} and {rho.shape}")
    eps = np.asarray(eps, dtype=np.float64)
    sigma, lift = softplus_parts(rho.data) if parts is None else parts

    def backward(out: Tensor) -> None:
        _accum(mu, _unbroadcast(out.grad, mu.shape))
        g_sigma = _unbroadcast(out.grad * eps, rho.shape)
        _accum(rho, g_sigma * 0.5 * lift)

    return _make(mu.data + sigma * eps, (mu, rho), backward, "weight_sample")


# ---------------------------------------------------------------------------
# reverse sweep
# ---------------------------------------------------------------------------


@dataclass
class ComputationRecord:
    """Topologically ordered op outputs reachable from a root (inputs first)."""

    nodes: list[Tensor] = field(default_factory=list)


def computation_record(root: Tensor) -> ComputationRecord:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    return ComputationRecord(order)


def backward(loss: Tensor) -> ComputationRecord:
    """Reverse sweep from a scalar loss; accumulates into .grad of all
    reachable tensors that require grad. Returns the record that was swept."""
    if loss.data.size != 1:
        raise ShapeError(f"backward root must be scalar, got shape {loss.shape}")
    record = computation_record(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(record.nodes):
        if node._backward is not None:
            node._backward()
    return record


def zero_grads(params: Iterable[Parameter]) -> None:
    """Clear every gradient; nothing is allocated until one is recorded."""
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

# Decayed Adagrad is elementwise per row, so it runs over laid-out blocks
# rather than parameter by parameter, as table-batched embeddings with a fused
# optimizer do (Mudigere et al., ISCA 2022): an arena of dense parameters,
# stepped in one pass over the rows that step, and at most one embedding
# table, stepped where it is in one pass over the rows a batch touches.


def check_adagrad_settings(decay: float, epsilon: float) -> None:
    """Raise `ValueError` unless `decay` is in (0, 1] and `epsilon` is finite
    and positive. Each message starts with the setting's name."""
    if not 0.0 < decay <= 1.0:
        raise ValueError(f"decay must be in (0, 1], got {decay}")
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")


class AdagradDecay:
    """Decayed Adagrad, laid out once by the owner of its parameters before
    their first forward, and stepped by `adagrad_decay_step`.

    `params` are the parameters that train. `table`, if given, must be one of
    them: the embedding table. It keeps its own array, and its accumulator
    and the step at which each row was last updated (`last_step`) sit beside
    it. Every other parameter is a member of an arena of `n_rows` rows by P
    columns. A member takes a column range of every row. Its array becomes a
    view of its columns of `data` in its own shape (for more rows than one,
    its leading axis runs over the rows), and it takes its first gradient in
    the same columns of `grad` (`Parameter._grad_slot`). The accumulator
    block `acc` sits beside them. Pretraining lays its dense weights and
    biases out as a one-row arena beside its table; an `iak.AdapterBank` lays
    its K adapters out as the K rows, with no table.

    `accumulators` reads each parameter's accumulator by its name.
    `names[j][k]` is the name of the parameter that row k of member j holds
    (by default the member's own, for every row), and a non-finite gradient
    there is reported under it."""

    def __init__(self, params: Sequence[Parameter], decay: float, epsilon: float, n_rows: int = 1,
                 table: Parameter | None = None, names: Sequence[Sequence[str]] | None = None):
        check_adagrad_settings(decay, epsilon)
        self.decay, self.epsilon, self.step = decay, epsilon, 0
        if table is not None and not any(p is table for p in params):
            raise ValueError(f"table {table.name} is not one of the parameters")
        self.table = table
        self.params = [p for p in params if p is not table]
        self.names = names or [[p.name] * n_rows for p in self.params]
        bounds = list(accumulate((p.size // n_rows for p in self.params), initial=0))
        self.columns = list(zip(bounds, bounds[1:]))  # each member's (first, end) column
        self.data = np.empty((n_rows, bounds[-1]))
        self.grad = np.empty_like(self.data)
        self.acc = np.zeros_like(self.data)
        self.accumulators: dict[str, np.ndarray] = {}
        for p, (start, end) in zip(self.params, self.columns):
            data = self.data[:, start:end].reshape(p.data.shape)
            data[...] = p.data
            p.data = data
            p._grad_slot = self.grad[:, start:end].reshape(data.shape)
            self.accumulators[p.name] = self.acc[:, start:end].reshape(data.shape)
        self.last_step: np.ndarray | None = None
        if self.table is not None:
            self.accumulators[table.name] = np.zeros_like(table.data)
            self.last_step = np.zeros(len(table.data), dtype=np.int64)


def _segment_sum(table: Parameter) -> tuple[np.ndarray, np.ndarray]:
    """The unique, sorted rows of `table` that its recorded (rows, values)
    pairs touch, and the sum of the values rows recorded for each, added in
    recording order. A single pair (one lookup) is binned as it is."""
    pairs, n_rows = table._row_grads, len(table.data)
    rows, values = pairs[0] if len(pairs) == 1 else map(np.concatenate, zip(*pairs))
    width = values.shape[1]
    if n_rows <= rows.size:
        # a table no longer than the lookup: bin by row id over the whole
        # table instead of sorting; same bins, same order, same sums
        touched = np.flatnonzero(np.bincount(rows, minlength=n_rows))
        bin_of, n_bins = rows, n_rows
    else:
        touched, bin_of = np.unique(rows, return_inverse=True)
        n_bins = touched.size
    # one bincount per column: each bin adds its entries in recording order
    summed = np.empty((n_bins, width))
    for j in range(width):
        summed[:, j] = np.bincount(bin_of, weights=values[:, j], minlength=n_bins)
    return touched, summed if n_bins == touched.size else summed[touched]


def adagrad_decay_step(opt: AdagradDecay, lr, rows=...) -> np.ndarray:
    """One step of decayed Adagrad on the parameters `opt` laid out. The
    dense rule updates every entry at every step:

        acc <- decay * acc + g^2
        p   <- p - lr * g / (sqrt(acc) + eps)

    The arena takes it on `rows` (an index on its leading axis, `...` for
    every row), at rate `lr`: a scalar, or one rate per stepped row that
    broadcasts against their gradient. A rate that is not finite and
    positive, NaN included, raises `ValueError`. Every other row and its
    accumulator stay as they are. A member with nothing recorded steps on
    zeros: it stays where it is, and its accumulator decays.

    The table takes the rule lazily, on the rows a batch touches. A row left
    untouched has g = 0, so the dense rule only decays its accumulator and
    leaves the row where it is; at step t a touched row r takes

        acc[r] <- decay**(t - last[r]) * acc[r] + g[r]^2;   last[r] <- t

    which catches those decays up (decayed per-coordinate Adagrad, Duchi et
    al., JMLR 2011). A step therefore costs the rows a batch touches, not the
    size of the table.

    A step puts every member's gradient in its slot and sums the table's row
    gradients; a table holding a dense gradient raises `ValueError`. A
    non-finite gradient raises `NonFiniteError` naming the first bad
    parameter: the table first, then, in the first stepped row with a bad
    entry, its first bad member (see `AdagradDecay.names`). Either way
    nothing has moved. Otherwise it makes one `adagrad_update` of the arena
    rows and one of the touched table rows. The bits equal those of the same
    rules stepped one parameter at a time. Returns the squared gradient of
    the stepped arena rows."""
    if not np.all(np.greater(lr, 0.0) & np.less(lr, math.inf)):  # NaN fails both
        raise ValueError(f"learning rate must be finite and positive, got {lr}")
    table = opt.table
    if table is not None and table._dense_grad is not None:
        raise ValueError(f"{table.name} holds a dense gradient; a table records only row gradients")
    for p in opt.params:
        p._fill_grad_slot()
    g = opt.grad[rows]
    touched = _segment_sum(table) if table is not None and table._row_grads else None
    if touched is not None and not np.isfinite(touched[1]).all():
        raise NonFiniteError(f"non-finite gradient for {table.name}")
    if not np.isfinite(g).all():
        bad = ~np.isfinite(g)
        i = np.flatnonzero(bad.any(axis=1))[0]
        col = np.flatnonzero(bad[i])[0]
        j = next(j for j, (start, end) in enumerate(opt.columns) if start <= col < end)
        k = np.arange(len(opt.data))[rows][i]  # the arena row of stepped row i
        raise NonFiniteError(f"non-finite gradient for {opt.names[j][k]}")
    opt.step += 1
    g_sq = g * g
    adagrad_update(opt.data, opt.acc, rows, g, opt.decay, lr, opt.epsilon, g_sq)
    if touched is not None:
        t_rows, t_g = touched
        decay = opt.decay ** (opt.step - opt.last_step[t_rows])
        opt.last_step[t_rows] = opt.step
        adagrad_update(table.data, opt.accumulators[table.name], t_rows, t_g, decay[:, None], lr, opt.epsilon)
    return g_sq


def adagrad_update(data: np.ndarray, acc: np.ndarray, rows, g: np.ndarray, decay, lr, epsilon: float,
                   g_sq: np.ndarray | None = None) -> None:
    """The update rule itself, in place on `rows` (an index on the leading
    axis) of `data` and its accumulator `acc`:

        acc[rows] <- decay * acc[rows] + g^2
        data[rows] <- data[rows] - lr * g / (sqrt(acc[rows]) + epsilon)

    `decay` and `lr` are scalars or per-row arrays that broadcast against g;
    `g_sq` is g * g when the caller already has it. Every row (`...`) is
    updated in place; otherwise the new accumulator rows are gathered once
    and reused for the root. Either way the operations and their order are
    those of the two lines above."""
    if g_sq is None:
        g_sq = g * g
    if rows is ...:
        acc *= decay
        acc += g_sq
        data -= lr * g / (np.sqrt(acc) + epsilon)
        return
    a = decay * acc[rows]
    a += g_sq
    acc[rows] = a
    np.sqrt(a, out=a)
    a += epsilon
    data[rows] = data[rows] - lr * g / a
