"""Ranking metrics, information-theoretic diagnostics, and model scoring.

AUC uses the rank statistic with average ranks for ties. Mutual information
and KL are plug-in estimators over binned samples: crude, but sufficient for
the directional comparisons they back, which always compare matched seeds
rather than absolute values.

A scored split runs the frozen backbone once (`SplitPass`): its zero-shot
slices, every adapter's rows and the encoder MI diagnostic read that pass,
however many adapters or grid values are scored against it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .datagen import Dataset, domain_rows
from .iak import IAKAdapter, adapted_prediction, backbone_cache
from .models import EncodedBatch, MultiTaskModel

DEFAULT_BINS = 10
KL_SMOOTH = 1e-9


class MetricError(ValueError):
    pass


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged."""
    order = np.argsort(values, kind="mergesort")
    sv = values[order]
    n = len(values)
    starts = np.flatnonzero(np.concatenate(([True], sv[1:] != sv[:-1])))
    ends = np.concatenate((starts[1:], [n]))
    avg = (starts + 1 + ends) / 2.0
    ranks = np.empty(n)
    ranks[order] = np.repeat(avg, ends - starts)
    return ranks


def auc(scores, labels) -> float | None:
    """P(score_pos > score_neg) + 0.5 * P(tie) via the Mann-Whitney rank
    statistic. Returns None when only one class is present (undefined)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise MetricError("scores and labels must be equal-length 1-d arrays")
    if not np.all((labels == 0) | (labels == 1)):
        raise MetricError("labels must be 0 or 1")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _average_ranks(scores)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _equal_freq_edges(v: np.ndarray, bins: int) -> np.ndarray:
    """Interior quantile edges; duplicates collapse so heavy ties simply
    yield fewer occupied bins."""
    qs = np.quantile(v, np.linspace(0.0, 1.0, bins + 1))
    return np.unique(qs[1:-1])


def histogram2d(x: np.ndarray, y: np.ndarray, bins: int = DEFAULT_BINS) -> np.ndarray:
    """Joint counts of (x, y) over the product of their equal-frequency bins."""
    ex = _equal_freq_edges(x, bins)
    ey = _equal_freq_edges(y, bins)
    bx = np.digitize(x, ex)
    by = np.digitize(y, ey)
    joint = np.zeros((len(ex) + 1, len(ey) + 1))
    np.add.at(joint, (bx, by), 1.0)
    return joint


def _mi_from_joint(joint: np.ndarray) -> float:
    p = joint / joint.sum()
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / (px @ py)[mask])))


def binned_mi(samples_x, samples_y, bins: int = DEFAULT_BINS) -> float:
    """Plug-in mutual information in nats over equal-frequency bins.

    Multivariate x is projected to its per-row mean; multivariate y averages
    the per-dimension estimates against that projection."""
    x = np.asarray(samples_x, dtype=np.float64)
    y = np.asarray(samples_y, dtype=np.float64)
    if x.size == 0 or y.size == 0:
        raise MetricError("empty input")
    if bins < 2:
        raise MetricError("bins must be >= 2")
    if len(x) != len(y):
        raise MetricError("sample vectors must have equal length")
    xs = x if x.ndim == 1 else x.mean(axis=1)
    if y.ndim == 1:
        return _mi_from_joint(histogram2d(xs, y, bins))
    return float(np.mean([_mi_from_joint(histogram2d(xs, y[:, j], bins)) for j in range(y.shape[1])]))


def kl_empirical(p_hist, q_hist, smooth: float = KL_SMOOTH) -> float:
    """sum p*ln(p/q) over aligned histograms; q gets `smooth` added per bin
    (then renormalized) so empty q bins cannot blow up. Non-negative, and
    zero up to the smoothing constant when p == q."""
    p = np.asarray(p_hist, dtype=np.float64)
    q = np.asarray(q_hist, dtype=np.float64)
    if p.shape != q.shape:
        raise MetricError(f"mismatched bins: {p.shape} vs {q.shape}")
    if np.any(p < 0) or np.any(q < 0):
        raise MetricError("histograms must be non-negative")
    if p.sum() == 0:
        raise MetricError("p histogram is empty")
    p = p / p.sum()
    q = q + smooth
    q = q / q.sum()
    mask = p > 0
    val = float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
    # Gibbs guarantees >= 0; clamp the float cancellation noise
    return max(val, 0.0)


# ---------------------------------------------------------------------------
# model scoring
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    dataset_id: str
    model_id: str
    ctr_auc: float | None
    ctcvr_auc: float | None
    n_pos_ctr: int
    n_neg_ctr: int
    n_pos_ctcvr: int
    n_neg_ctcvr: int
    seed: int


def _probabilities(model: MultiTaskModel, logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pred = model.predict_from_logits(Tensor(logits))
    return pred.p_ctr.data[:, 0], pred.p_ctcvr.data[:, 0]


def adapted_scores(backbone: MultiTaskModel, adapter: IAKAdapter, rep: np.ndarray, logits: np.ndarray,
                   batch_size: int = 4096) -> tuple[np.ndarray, np.ndarray]:
    """Adapted probabilities, with the encoder's posterior means, from
    `backbone_cache` rows. The correction runs `batch_size` rows at a time,
    so every row equals a single adapted forward over its chunk bit for bit."""
    p_ctr, p_ctcvr = np.empty(len(rep)), np.empty(len(rep))
    for start in range(0, len(rep), batch_size):
        rows = slice(start, start + batch_size)
        pred = adapted_prediction(backbone, adapter, Tensor(rep[rows]), Tensor(logits[rows]))
        p_ctr[rows], p_ctcvr[rows] = pred.p_ctr.data[:, 0], pred.p_ctcvr.data[:, 0]
    return p_ctr, p_ctcvr


def score_backbone(model: MultiTaskModel, encoded: EncodedBatch, batch_size: int = 4096) -> tuple[np.ndarray, np.ndarray]:
    """Zero-shot probabilities of a frozen backbone over a dataset,
    (p_ctr, p_ctcvr)."""
    return _probabilities(model, backbone_cache(model, encoded, batch_size)[1])


def score_adapted(
    backbone: MultiTaskModel,
    adapter: IAKAdapter,
    encoded: EncodedBatch,
    batch_size: int = 4096,
) -> tuple[np.ndarray, np.ndarray]:
    """Frozen backbone + adapter probabilities over a dataset: one
    `backbone_cache` pass, corrected over the same `batch_size` chunks."""
    return adapted_scores(backbone, adapter, *backbone_cache(backbone, encoded, batch_size), batch_size)


class SplitPass:
    """One frozen-backbone pass over a scored split: the representation and
    head logits of every row, which each zero-shot or adapted slice reads."""

    def __init__(self, backbone: MultiTaskModel, dataset: Dataset, encoded: EncodedBatch):
        self.backbone, self.dataset, self.encoded = backbone, dataset, encoded
        self.rep, self.logits = backbone_cache(backbone, encoded)

    def zero_shot(self, idx=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        return _probabilities(self.backbone, self.logits[idx])

    def adapted(self, adapter: IAKAdapter, idx) -> tuple[np.ndarray, np.ndarray]:
        return adapted_scores(self.backbone, adapter, self.rep[idx], self.logits[idx])

    def slices(self, selectors: dict[str, dict[str, int]]) -> Iterator[tuple[str, np.ndarray, EncodedBatch]]:
        """(key, row positions, encoded rows) of each selector in key order,
        skipping selectors that match no row of the split."""
        for key in sorted(selectors):
            idx = domain_rows(self.dataset, selectors[key])
            if idx.size:
                yield key, idx, self.encoded.take(idx)


def report_from_scores(
    p_ctr: np.ndarray,
    p_ctcvr: np.ndarray,
    encoded: EncodedBatch,
    dataset_id: str,
    model_id: str,
    seed: int,
) -> EvalReport:
    click = encoded.click.astype(np.int64)
    purchase = encoded.purchase.astype(np.int64)
    return EvalReport(
        dataset_id=dataset_id,
        model_id=model_id,
        ctr_auc=auc(p_ctr, click),
        ctcvr_auc=auc(p_ctcvr, purchase),
        n_pos_ctr=int(click.sum()),
        n_neg_ctr=int((1 - click).sum()),
        n_pos_ctcvr=int(purchase.sum()),
        n_neg_ctcvr=int((1 - purchase).sum()),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# information diagnostics
# ---------------------------------------------------------------------------


def encoder_channel_outputs(adapter: IAKAdapter, rep: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Encoder outputs with a fresh weight sample per record: the stochastic
    channel whose input-output mutual information the compression diagnostic
    tracks: the encoder stage of `iak.adapter_graph`, scale included. Pure
    numpy; no gradients involved."""
    vl = adapter.encoder
    sigma_w = np.logaddexp(0.0, vl.rho_w.data)
    sigma_b = np.logaddexp(0.0, vl.rho_b.data)
    b = len(rep)
    w = vl.mu_w.data + sigma_w * rng.standard_normal((b, *vl.mu_w.shape))
    bias = vl.mu_b.data + sigma_b * rng.standard_normal((b, *vl.mu_b.shape))
    pre = np.einsum("bi,bio->bo", rep, w) * vl.scale + bias
    return np.where(pre >= 0.0, pre, 0.01 * pre)


def encoder_mi(
    adapter: IAKAdapter,
    rep: np.ndarray,
    bins: int = DEFAULT_BINS,
    seed: int = 0,
    max_records: int = 4096,
) -> float:
    """Binned MI between the encoder's input (scalar projection of the
    backbone representation rows `rep`, the first `max_records` of them) and
    its stochastic output."""
    rep = rep[:max_records]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x317]))
    enc = encoder_channel_outputs(adapter, rep, rng)
    return binned_mi(rep, enc, bins)


def score_label_decile_kl(
    scores: np.ndarray, labels: np.ndarray, item_ids: np.ndarray, n_deciles: int = 10
) -> float:
    """Diagnostic only: KL from the model's score mass to the label mass over
    item-popularity deciles. This is a stated interpretation of the
    knowledge-compression/matching objectives, not a quantity the method
    optimizes directly."""
    item_ids = np.asarray(item_ids)
    n_items = int(item_ids.max()) + 1
    impressions = np.bincount(item_ids, minlength=n_items)
    order = np.argsort(impressions, kind="mergesort")
    decile_of = np.empty(n_items, dtype=np.int64)
    for d, chunk in enumerate(np.array_split(order, n_deciles)):
        decile_of[chunk] = d
    dec = decile_of[item_ids]
    score_mass = np.bincount(dec, weights=scores, minlength=n_deciles)
    label_mass = np.bincount(dec, weights=labels, minlength=n_deciles)
    if label_mass.sum() == 0:
        raise MetricError("no positive labels in evaluation slice")
    return kl_empirical(score_mass, label_mass)
