"""Reference loss terms: the elementwise and reduction nodes that the fused
`ad.clipped_bce`, `ad.gaussian_kl` and `ad.weight_sample` replace, and the
chains each fused node stands for. Every node here is built on the engine's
own `_make` and `_accum`, so a chain of them records and sweeps as the
engine's graph does. The fused nodes must equal these chains bit for bit,
values and gradients; tests compare against them and patch them in for the
fused ones."""

from __future__ import annotations

from functools import partial

import numpy as np

from iakrec import autodiff as ad
from iakrec.autodiff import NonFiniteError, Tensor, _accum, _make, _segments, _unbroadcast, _wrap


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def backward(out: Tensor) -> None:
        _accum(a, _unbroadcast(out.grad, a.shape))
        _accum(b, _unbroadcast(-out.grad, b.shape))

    return _make(a.data - b.data, (a, b), backward, "sub")


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


def reduce_mean(a) -> Tensor:
    a = _wrap(a)
    n = a.data.size

    def backward(out: Tensor) -> None:
        _accum(a, np.full_like(a.data, out.grad / n))

    return _make(np.asarray(a.data.mean()), (a,), backward, "mean")


def segment_sum(a, offsets) -> Tensor:
    """(K,) sums over every entry of each segment (see `ad._segments`)."""
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


def composed_clipped_bce(p, labels, lo, hi, offsets=None) -> Tensor:
    """`ad.clipped_bce` as nine nodes: clip, log, mul, sub, log, mul, add,
    mean and mul by -1."""
    p = _wrap(p)
    y = Tensor(np.asarray(labels).reshape(p.shape))
    p = clip(p, lo, hi)
    ll = ad.add(ad.mul(y, log(p)), ad.mul(sub(1.0, y), log(sub(1.0, p))))
    return ad.mul(reduce_mean(ll) if offsets is None else segment_mean(ll, offsets), -1.0)


def composed_gaussian_kl(mu, rho, offsets=None, parts=None) -> Tensor:
    """`ad.gaussian_kl` as ten nodes: softplus, two squares, add, sub, total,
    mul, log, total and sub. The chain computes its own softplus, so shared
    `parts` are not read."""
    total = ad.reduce_sum if offsets is None else partial(segment_sum, offsets=offsets)
    sigma = softplus(rho)
    half = ad.mul(total(sub(ad.add(square(mu), square(sigma)), 1.0)), 0.5)
    return sub(half, total(log(sigma)))


def composed_weight_sample(mu, rho, eps, parts=None) -> Tensor:
    """`ad.weight_sample` as three nodes: softplus, mul and add. The chain
    computes its own softplus, so shared `parts` are not read."""
    return ad.add(mu, ad.mul(softplus(rho), Tensor(eps)))
