"""Reference dense layers, embedding lookups and gates: the chains of nodes
`ad.linear`, `ad.segment_linear`, the (B, T)-row `ad.gather_rows` and
`ad.gate_mix` fuse into one. A dense layer is matmul, then mul by the
scale, then the bias add, then leaky_relu, each its own autodiff node; a
segment layer does the matmul and the bias add per segment; a lookup of T
id columns is one 1-d lookup per column into its range of the table, then
concat; a gate is a softmax, then per expert a slice of its weights and a
mul, summed by adds. The fused primitives must equal these bit for bit,
values and gradients; tests compare against them and patch them in for the
fused ones."""

from __future__ import annotations

import numpy as np

from iakrec import autodiff as ad

_gather_rows = ad.gather_rows  # the 1-d lookup, kept when a test patches the fused one


def matmul(a, b) -> ad.Tensor:
    a, b = ad._wrap(a), ad._wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ad.ShapeError(f"matmul needs (m,k)@(k,n), got {a.shape} @ {b.shape}")

    def backward(out):
        ad._accum(a, out.grad @ b.data.T)
        ad._accum(b, a.data.T @ out.grad)

    return ad._make(a.data @ b.data, (a, b), backward, "matmul")


def leaky_relu(a, slope: float = 0.01) -> ad.Tensor:
    a = ad._wrap(a)

    def backward(out):
        ad._accum(a, ad._leaky_grad(out.grad, a.data, slope))

    return ad._make(ad._leaky(a.data, slope), (a,), backward, "leaky_relu")


def segment_matmul(x, w, offsets) -> ad.Tensor:
    x, w = ad._wrap(x), ad._wrap(w)
    segs = ad._segments(offsets, x.shape[0])
    data = np.empty((x.shape[0], w.shape[2]))
    for k, (s, e) in enumerate(segs):
        data[s:e] = x.data[s:e] @ w.data[k]

    def backward(out):
        gx = np.empty_like(x.data)
        for k, (s, e) in enumerate(segs):
            gx[s:e] = out.grad[s:e] @ w.data[k].T
        ad._accum(x, gx)
        ad._accum(w, np.stack([x.data[s:e].T @ out.grad[s:e] for s, e in segs]))

    return ad._make(data, (x, w), backward, "reference_segment_matmul")


def segment_add(x, b, offsets) -> ad.Tensor:
    x, b = ad._wrap(x), ad._wrap(b)
    segs = ad._segments(offsets, x.shape[0])
    data = np.empty_like(x.data)
    for k, (s, e) in enumerate(segs):
        data[s:e] = x.data[s:e] + b.data[k]

    def backward(out):
        ad._accum(x, out.grad)
        ad._accum(b, np.stack([out.grad[s:e].sum(axis=0) for s, e in segs]))

    return ad._make(data, (x, b), backward, "reference_segment_add")


def _chain(x, w, b, slope, scale, matmul, add) -> ad.Tensor:
    h = matmul(x, w)
    if scale is not None:
        h = ad.mul(h, scale)
    h = add(h, b)
    return h if slope is None else leaky_relu(h, slope)


def composed_linear(x, w, b, slope=None, scale=None) -> ad.Tensor:
    return _chain(x, w, b, slope, scale, matmul, ad.add)


def composed_segment_linear(x, w, b, offsets, slope=None, scale=None) -> ad.Tensor:
    return _chain(x, w, b, slope, scale, lambda x, w: segment_matmul(x, w, offsets),
                  lambda x, b: segment_add(x, b, offsets))


def composed_gather_rows(table, rows) -> ad.Tensor:
    """Each column of the (B, T) `rows`, which lie in that column's range of
    the table, looked up on its own, one node and one recorded row-gradient
    pair per column, then concatenated."""
    rows = np.asarray(rows)
    return ad.concat([_gather_rows(table, rows[:, c]) for c in range(rows.shape[1])], axis=1)


def softmax(a, axis: int = -1) -> ad.Tensor:
    a = ad._wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(out):
        dot = (out.grad * out.data).sum(axis=axis, keepdims=True)
        ad._accum(a, out.data * (out.grad - dot))

    return ad._make(y, (a,), backward, "softmax")


def composed_gate_mix(gate_logits, experts) -> ad.Tensor:
    """The softmax of the gate logits, then sum_e of weight column e times
    expert e: a slice_cols and a mul per expert, added left to right."""
    weights = softmax(gate_logits, axis=-1)
    acc = ad.mul(ad.slice_cols(weights, 0, 1), experts[0])
    for e in range(1, len(experts)):
        acc = ad.add(acc, ad.mul(ad.slice_cols(weights, e, e + 1), experts[e]))
    return acc


def gate_weights(core, x) -> list[ad.Tensor]:
    """Each task's gate weights over the experts of a `models._MoECore` for
    the rows `x`: the softmax of its gate layer."""
    return [softmax(g(x), axis=-1) for g in core.gates]
