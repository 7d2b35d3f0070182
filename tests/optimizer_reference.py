"""Reference optimizer: decayed Adagrad stepped one parameter at a time,
each parameter reading its own touched rows, with the rule and its state
written out here rather than taken from `iakrec.autodiff`.
`ad.adagrad_decay_step` runs the same rule over the two layouts the package
builds, pretraining's one-row arena beside its one table and an adapter
bank's K-row arena, and must leave every parameter and every state array
where this loop leaves them, bit for bit; tests compare against it."""

from __future__ import annotations

from dataclasses import dataclass, field
from types import EllipsisType

import numpy as np

from iakrec import autodiff as ad


def touched_grad(p: ad.Parameter) -> tuple[np.ndarray | EllipsisType, np.ndarray] | None:
    """(rows, their gradient) of `p` for the optimizer, or None when no
    gradient was recorded. A dense gradient touches every row (`...`); row
    gradients alone are summed over their unique, sorted rows."""
    if p._dense_grad is not None:
        return ..., p.grad
    if not p._row_grads:
        return None
    rows = np.concatenate([r for r, _ in p._row_grads])
    values = np.concatenate([v for _, v in p._row_grads])
    width = values.shape[1]
    n_rows = p.data.shape[0]
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


@dataclass
class ReferenceState:
    """The reference's settings and state: the count of steps taken, and
    each parameter's squared-gradient accumulator and the step at which each
    of its rows (index on the leading axis) was last updated, by name."""

    decay: float = 0.9999
    epsilon: float = 1e-8
    step: int = 0
    accumulators: dict[str, np.ndarray] = field(default_factory=dict)
    last_step: dict[str, np.ndarray] = field(default_factory=dict)


def reference_adagrad_decay_step(params, state: ReferenceState, lr: float) -> None:
    """The rule of `ad.adagrad_decay_step`, one parameter at a time in list
    order, frozen ones left out: the same rule, accumulators and last-step rows allocated per
    parameter at its first touch. A parameter with nothing recorded does not
    move, and its accumulator does not decay."""
    if lr <= 0.0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    state.step += 1
    t = state.step
    for p in params:
        touched = touched_grad(p) if p.requires_grad else None
        if touched is None:
            continue
        rows, g = touched
        if not np.isfinite(g).all():
            raise ad.NonFiniteError(f"non-finite gradient for {p.name}")
        acc = state.accumulators.get(p.name)
        if acc is None:
            acc = state.accumulators[p.name] = np.zeros_like(p.data)
            state.last_step[p.name] = np.zeros(p.data.shape[:1], dtype=np.int64)
        last = state.last_step[p.name]
        decay = state.decay ** (t - last[rows])
        last[rows] = t
        acc[rows] = decay.reshape(decay.shape + (1,) * (acc.ndim - 1)) * acc[rows] + g * g
        p.data[rows] = p.data[rows] - lr * g / (np.sqrt(acc[rows]) + state.epsilon)
