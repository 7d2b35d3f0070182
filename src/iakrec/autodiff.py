"""Minimal reverse-mode autodiff engine over float64 numpy arrays.

Define-by-run: every op computes its value eagerly and links the output to
its inputs, so a single reverse sweep over the recorded graph yields exact
gradients. float64 throughout; any NaN/Inf produced by an op is an error.

Gradients are dense arrays, except where `gather_rows` looks up rows of a
`Parameter` (an embedding table): there backward records the touched rows
and their gradient rows, and the optimizer updates only those rows. A step
therefore costs the rows a batch touches, not the size of the table.
`Parameter.grad` still reads as a dense array, built on read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import EllipsisType
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operands do not conform for the requested primitive."""


class NonFiniteError(FloatingPointError):
    """An op produced NaN or Inf, or was fed a non-finite gradient."""


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if not np.isfinite(arr).all():
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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Named trainable tensor. Frozen parameters keep an all-zero gradient.

    The gradient is held as an optional dense array plus the `(rows, values)`
    pairs that `gather_rows` records, so a lookup into a large table never
    allocates a table-sized array."""

    __slots__ = ("name", "trainable", "_dense_grad", "_row_grads")

    def __init__(self, data, name: str, trainable: bool = True):
        super().__init__(data, requires_grad=trainable)
        self.name = name
        self.trainable = trainable

    @property
    def grad(self) -> np.ndarray:
        """Dense gradient, built on read: the recorded row gradients are
        folded into it (zeros when nothing was recorded). Once read, the
        gradient is dense, and the optimizer touches every row this step."""
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

    def touched_grad(self) -> tuple[np.ndarray | EllipsisType, np.ndarray] | None:
        """(rows, their gradient) for the optimizer, or None when no gradient
        was recorded. A dense gradient touches every row (`...`); row
        gradients alone are summed over their unique, sorted rows."""
        if self._dense_grad is not None:
            return ..., self.grad
        if not self._row_grads:
            return None
        rows = np.concatenate([r for r, _ in self._row_grads])
        values = np.concatenate([v for _, v in self._row_grads])
        width = values.shape[1]
        n_rows = self.data.shape[0]
        if n_rows <= rows.size:
            # a table no longer than the lookup: bin by row id over the whole
            # table instead of sorting; same bins, same order, same sums
            touched = np.flatnonzero(np.bincount(rows, minlength=n_rows))
            bin_of, n_bins = rows, n_rows
        else:
            touched, bin_of = np.unique(rows, return_inverse=True)
            n_bins = touched.size
        # segment sum as one flat bincount: entry (i, j) lands in bin
        # bin_of[i] * width + j, summed in recording order
        bins = (bin_of[:, None] * width + np.arange(width)).reshape(-1)
        summed = np.bincount(bins, weights=values.reshape(-1), minlength=n_bins * width).reshape(n_bins, width)
        return touched, summed if n_bins == touched.size else summed[touched]

    def set_trainable(self, trainable: bool) -> None:
        self.trainable = trainable
        self.requires_grad = trainable
        self.grad = None

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape}, trainable={self.trainable})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward: Callable[[Tensor], None], op: str) -> Tensor:
    """Build an op output node; prunes the graph when no parent needs grad.
    The finiteness check here is the only one an op output gets; the array
    method skips the Python-level dispatch of `np.all`."""
    if not np.isfinite(data).all():
        raise NonFiniteError(f"non-finite values in output of {op}")
    out = Tensor.__new__(Tensor)
    out._bind(data, False)
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = lambda: backward(out)
            break
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t._grad_unset():
        # one pass into a fresh buffer, equal bit for bit to zeros + g: it
        # broadcasts like +=, never aliases g, and turns -0.0 into +0.0
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting introduced."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def backward(out: Tensor) -> None:
        _accum(a, _unbroadcast(out.grad, a.shape))
        _accum(b, _unbroadcast(out.grad, b.shape))

    return _make(a.data + b.data, (a, b), backward, "add")


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def backward(out: Tensor) -> None:
        _accum(a, _unbroadcast(out.grad, a.shape))
        _accum(b, _unbroadcast(-out.grad, b.shape))

    return _make(a.data - b.data, (a, b), backward, "sub")


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def backward(out: Tensor) -> None:
        _accum(a, _unbroadcast(out.grad * b.data, a.shape))
        _accum(b, _unbroadcast(out.grad * a.data, b.shape))

    return _make(a.data * b.data, (a, b), backward, "mul")


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul needs (m,k)@(k,n), got {a.shape} @ {b.shape}")

    def backward(out: Tensor) -> None:
        _accum(a, out.grad @ b.data.T)
        _accum(b, a.data.T @ out.grad)

    return _make(a.data @ b.data, (a, b), backward, "matmul")


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    # tanh form is overflow-free and exactly the logistic function
    y = 0.5 * (1.0 + np.tanh(0.5 * a.data))

    def backward(out: Tensor) -> None:
        _accum(a, out.grad * out.data * (1.0 - out.data))

    return _make(y, (a,), backward, "sigmoid")


def _leaky(z: np.ndarray, slope: float) -> np.ndarray:
    """Leaky ReLU, branch-free: bit for bit `np.where(z >= 0, z, slope * z)`,
    which holds for a slope in [0, 1] (a -0.0 slope would flip a zero's
    sign)."""
    if not 0.0 <= slope <= 1.0 or np.signbit(slope):
        raise ValueError(f"leaky ReLU slope must be in [0, 1], got {slope}")
    return np.maximum(z, slope * z)


def _leaky_grad(g: np.ndarray, z: np.ndarray, slope: float) -> np.ndarray:
    """The gradient `g` at leaky ReLU's output carried to its input `z`, g *
    `np.where(z >= 0, 1.0, slope)` with the factor built branch-free, and
    normalised (+ 0.0) as `_accum` normalises the input's gradient."""
    gz = g * np.maximum((z >= 0.0).astype(np.float64), slope)
    gz += 0.0
    return gz


def leaky_relu(a, slope: float = 0.01) -> Tensor:
    a = _wrap(a)

    def backward(out: Tensor) -> None:
        _accum(a, _leaky_grad(out.grad, a.data, slope))

    return _make(_leaky(a.data, slope), (a,), backward, "leaky_relu")


def _dense_grads(g: np.ndarray, z: np.ndarray, slope: float | None, scale: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Gradients at the pre-activation `z` and at x @ w of a dense layer,
    given the gradient `g` at its output. Each is normalised where `_accum`
    normalises the node it stands for in the composed chain, so both equal
    that chain's bit for bit."""
    gz = g if slope is None else _leaky_grad(g, z, slope)
    if scale is None:
        return gz, gz
    gh = gz * scale
    gh += 0.0
    return gz, gh


def linear(x, w, b, slope: float | None = None, scale: float | None = None) -> Tensor:
    """A dense layer as one node: leaky ReLU of (x @ w) * scale + b, with
    the (m, n) `w` and (n,) `b`. No `scale` skips the product and no `slope`
    the activation. Values and gradients equal those of the composed
    matmul, mul, add and leaky_relu bit for bit."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear needs (B,m), (m,n) and (n,), got {x.shape}, {w.shape} and {b.shape}")
    z = x.data @ w.data
    if scale is not None:
        z *= scale
    z += b.data

    def backward(out: Tensor) -> None:
        gz, gh = _dense_grads(out.grad, z, slope, scale)
        if x.requires_grad:
            _accum(x, gh @ w.data.T)
        if w.requires_grad:
            _accum(w, x.data.T @ gh)
        _accum(b, gz.sum(axis=0))

    return _make(z if slope is None else _leaky(z, slope), (x, w, b), backward, "linear")


def softmax(a, axis: int = -1) -> Tensor:
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(out: Tensor) -> None:
        dot = (out.grad * out.data).sum(axis=axis, keepdims=True)
        _accum(a, out.data * (out.grad - dot))

    return _make(y, (a,), backward, "softmax")


def log(a) -> Tensor:
    a = _wrap(a)
    if np.any(a.data <= 0.0):
        raise NonFiniteError("log of non-positive value")

    def backward(out: Tensor) -> None:
        _accum(a, out.grad / a.data)

    return _make(np.log(a.data), (a,), backward, "log")


def softplus(a) -> Tensor:
    """log(1 + e^x), computed without overflow; derivative is sigmoid(x)."""
    a = _wrap(a)

    def backward(out: Tensor) -> None:
        _accum(a, out.grad * 0.5 * (1.0 + np.tanh(0.5 * a.data)))

    return _make(np.logaddexp(0.0, a.data), (a,), backward, "softplus")


def square(a) -> Tensor:
    a = _wrap(a)

    def backward(out: Tensor) -> None:
        _accum(a, out.grad * 2.0 * a.data)

    return _make(a.data * a.data, (a,), backward, "square")


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only inside the interval."""
    a = _wrap(a)

    def backward(out: Tensor) -> None:
        mask = (a.data >= lo) & (a.data <= hi)
        _accum(a, out.grad * mask)

    return _make(np.clip(a.data, lo, hi), (a,), backward, "clip")


def concat(tensors: Sequence, axis: int = 1) -> Tensor:
    parts = [_wrap(t) for t in tensors]
    if not parts:
        raise ShapeError("concat of zero tensors")
    widths = [p.shape[axis] for p in parts]

    def backward(out: Tensor) -> None:
        offset = 0
        for p, w in zip(parts, widths):
            sl = [slice(None)] * out.grad.ndim
            sl[axis] = slice(offset, offset + w)
            _accum(p, out.grad[tuple(sl)])
            offset += w

    return _make(np.concatenate([p.data for p in parts], axis=axis), parts, backward, "concat")


def slice_cols(a, start: int, stop: int) -> Tensor:
    a = _wrap(a)
    if a.data.ndim != 2:
        raise ShapeError(f"slice_cols needs a 2-d tensor, got shape {a.shape}")

    def backward(out: Tensor) -> None:
        if a.requires_grad:
            g = np.zeros_like(a.data)
            g[:, start:stop] = out.grad
            _accum(a, g)

    return _make(a.data[:, start:stop].copy(), (a,), backward, "slice_cols")


def reduce_sum(a) -> Tensor:
    a = _wrap(a)

    def backward(out: Tensor) -> None:
        _accum(a, np.full_like(a.data, out.grad))

    return _make(np.asarray(a.data.sum()), (a,), backward, "sum")


def reduce_mean(a) -> Tensor:
    a = _wrap(a)
    n = a.data.size

    def backward(out: Tensor) -> None:
        _accum(a, np.full_like(a.data, out.grad / n))

    return _make(np.asarray(a.data.mean()), (a,), backward, "mean")


# Segment primitives: `offsets` (K + 1 row offsets, 0 first and B last, never
# decreasing) cut the leading axis into K segments, segment k being rows
# offsets[k]:offsets[k + 1]. Each loops over the segments and makes, per
# segment, the numpy calls its plain counterpart makes on that segment alone
# (an elementwise step may run once over all rows: same bits), so a
# segment's values and gradients equal the plain op's bit for bit.


def _segments(offsets, n_rows: int | None) -> list[tuple[int, int]]:
    off = np.asarray(offsets, dtype=np.int64)
    if n_rows is None or off.ndim != 1 or off.size < 2:
        raise ShapeError(f"segments need a tensor with rows and K + 1 >= 2 offsets, got {off.tolist()}")
    segs = list(zip(off[:-1].tolist(), off[1:].tolist()))
    if off[0] != 0 or off[-1] != n_rows or any(s > e for s, e in segs):
        raise ShapeError(f"segment offsets must rise from 0 to {n_rows}, got {off.tolist()}")
    return segs


def segment_linear(x, w, b, offsets, slope: float | None = None, scale: float | None = None) -> Tensor:
    """`linear` per segment: segment k of the (B, m) `x` through matrix k of
    the (K, m, n) `w` and row k of the (K, n) `b`."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if x.data.ndim != 2 or w.data.ndim != 3 or x.shape[1] != w.shape[1] or b.shape != (w.shape[0], w.shape[2]):
        raise ShapeError(f"segment_linear needs (B,m), (K,m,n) and (K,n), got {x.shape}, {w.shape} and {b.shape}")
    segs = _segments(offsets, x.shape[0])
    if len(segs) != w.shape[0]:
        raise ShapeError(f"{len(segs)} segments for {w.shape[0]} matrices")
    z = np.empty((x.shape[0], w.shape[2]))
    for k, (s, e) in enumerate(segs):
        z[s:e] = x.data[s:e] @ w.data[k]
    if scale is not None:
        z *= scale
    for k, (s, e) in enumerate(segs):
        z[s:e] += b.data[k]

    def backward(out: Tensor) -> None:
        gz, gh = _dense_grads(out.grad, z, slope, scale)
        if x.requires_grad:
            gx = np.empty_like(x.data)
            for k, (s, e) in enumerate(segs):
                gx[s:e] = gh[s:e] @ w.data[k].T
            _accum(x, gx)
        if w.requires_grad:
            _accum(w, np.stack([x.data[s:e].T @ gh[s:e] for s, e in segs]))
        _accum(b, np.stack([gz[s:e].sum(axis=0) for s, e in segs]))

    return _make(z if slope is None else _leaky(z, slope), (x, w, b), backward, "segment_linear")


def segment_sum(a, offsets) -> Tensor:
    """(K,) sums over every entry of each segment."""
    a = _wrap(a)
    segs = _segments(offsets, a.shape[0] if a.data.ndim else None)

    def backward(out: Tensor) -> None:
        g = np.empty_like(a.data)
        for k, (s, e) in enumerate(segs):
            g[s:e] = out.grad[k]
        _accum(a, g)

    return _make(np.array([a.data[s:e].sum() for s, e in segs]), (a,), backward, "segment_sum")


def segment_mean(a, offsets) -> Tensor:
    """(K,) means over the entries of each segment; an empty segment's mean
    is 0."""
    a = _wrap(a)
    segs = _segments(offsets, a.shape[0] if a.data.ndim else None)

    def backward(out: Tensor) -> None:
        g = np.empty_like(a.data)
        for k, (s, e) in enumerate(segs):
            if e > s:
                g[s:e] = out.grad[k] / a.data[s:e].size
        _accum(a, g)

    data = np.array([a.data[s:e].mean() if e > s else 0.0 for s, e in segs])
    return _make(data, (a,), backward, "segment_mean")


def gather_rows(table, indices) -> Tensor:
    """Row lookup into a 2-d table: 1-d indices give `table[idx]`. Backward
    into a Parameter records the touched rows and their gradient rows; into
    any other tensor it scatter-adds a dense gradient."""
    table = _wrap(table)
    idx = np.asarray(indices, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError("gather_rows table must be 2-d")
    if idx.ndim != 1:
        raise ShapeError("gather_rows indices must be 1-d")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError("gather_rows index out of range")

    def backward(out: Tensor) -> None:
        if not table.requires_grad:
            return
        if isinstance(table, Parameter):
            table.add_row_grad(idx, out.grad)
        else:
            dense = np.zeros_like(table.data)
            np.add.at(dense, idx, out.grad)
            _accum(table, dense)

    return _make(table.data[idx], (table,), backward, "gather_rows")


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


@dataclass
class AdagradDecayState:
    """Per-parameter squared-gradient accumulators with exponential decay,
    each parameter's step count, and the step at which each row (index on
    the leading axis) was last updated."""

    decay: float = 0.9999
    epsilon: float = 1e-8
    accumulators: dict[str, np.ndarray] = field(default_factory=dict)
    steps: dict[str, int] = field(default_factory=dict)
    last_step: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")


def adagrad_decay_step(params: Iterable[Parameter], state: AdagradDecayState, lr: float) -> None:
    """Decayed Adagrad over the rows a gradient touches. At a parameter's
    step t, for every touched row r:

        acc[r] <- decay**(t - last[r]) * acc[r] + g[r]^2
        p[r]   <- p[r] - lr * g[r] / (sqrt(acc[r]) + eps);   last[r] <- t

    A row left untouched has g = 0, so the dense rule (acc <- decay*acc + g^2
    on every row, every step) only decays its accumulator and leaves the row
    where it is; the power catches those k = t - last[r] decays up on the
    row's next touch (decayed per-coordinate Adagrad, Duchi et al., JMLR
    2011). A dense gradient touches every row at every step, so k = 1, and
    decay**1 == decay exactly: dense parameters follow the dense rule bit
    for bit. Rows are updated in place. Frozen parameters are left
    untouched."""
    if lr <= 0.0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    for p in params:
        if not p.trainable:
            continue
        touched = p.touched_grad()
        t = state.steps.get(p.name, 0) + 1
        state.steps[p.name] = t
        if touched is None:
            continue
        rows, g = touched
        if not np.isfinite(g).all():
            raise NonFiniteError(f"non-finite gradient for {p.name}")
        acc = state.accumulators.get(p.name)
        if acc is None:
            acc = state.accumulators[p.name] = np.zeros_like(p.data)
            state.last_step[p.name] = np.zeros(p.data.shape[:1], dtype=np.int64)
        last = state.last_step[p.name]
        decay = state.decay ** (t - last[rows])
        last[rows] = t
        adagrad_update(p.data, acc, rows, g, decay.reshape(decay.shape + (1,) * (acc.ndim - 1)), lr, state.epsilon)


def adagrad_update(data: np.ndarray, acc: np.ndarray, rows, g: np.ndarray, decay, lr, epsilon: float) -> None:
    """The update rule itself, in place on `rows` (an index on the leading
    axis) of `data` and its accumulator `acc`:

        acc[rows] <- decay * acc[rows] + g^2
        data[rows] <- data[rows] - lr * g / (sqrt(acc[rows]) + epsilon)

    `decay` and `lr` are scalars or per-row arrays that broadcast against g."""
    acc[rows] = decay * acc[rows] + g * g
    data[rows] = data[rows] - lr * g / (np.sqrt(acc[rows]) + epsilon)
