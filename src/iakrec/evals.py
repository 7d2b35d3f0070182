"""Ranking metrics, information-theoretic diagnostics, model scoring, and
the one CSV writer of every report and curve.

AUC uses the rank statistic with average ranks for ties. Mutual information
and KL are plug-in estimators over binned samples: crude, but sufficient for
the directional comparisons they back, which always compare matched seeds
rather than absolute values.

A scored split is one `datagen.Dataset` fitted by `models.encode_records`,
the row type the model reads; its label columns are the ones the reports
count. `SplitPass` is its one scorer: the frozen backbone runs over it once,
and its zero-shot slices, every adapter's rows and the encoder MI diagnostic
read that pass, however many adapters or grid values are scored against it.
`score_backbone` and `score_adapted` are one `SplitPass` each.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .datagen import Dataset, domain_rows
from .iak import FROZEN_CHUNK, IAKAdapter, adapted_prediction, backbone_cache, encoder_stage
from .models import MultiTaskModel

DEFAULT_BINS = 10
KL_SMOOTH = 1e-9


class MetricError(ValueError):
    pass


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged. Every entry of a tie group takes
    the group's average, so the order a sort leaves ties in changes no rank:
    numpy's default sort gives the ranks a stable one does, bit for bit."""
    order = np.argsort(values)
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


def check_bins(bins: int) -> int:
    """`bins` if a binned estimate can use it, else MetricError."""
    if bins < 2:
        raise MetricError("bins must be >= 2")
    return bins


def binned_mi(samples_x, samples_y, bins: int = DEFAULT_BINS) -> float:
    """Plug-in mutual information in nats over equal-frequency bins.

    Multivariate x is projected to its per-row mean; multivariate y averages
    the per-dimension estimates against that projection."""
    x = np.asarray(samples_x, dtype=np.float64)
    y = np.asarray(samples_y, dtype=np.float64)
    if x.size == 0 or y.size == 0:
        raise MetricError("empty input")
    check_bins(bins)
    if len(x) != len(y):
        raise MetricError("sample vectors must have equal length")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise MetricError("non-finite samples")
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
    """One scored slice: a row of `report.csv` and of every experiment CSV.
    An AUC is None where the slice holds one class, and a diagnostic where
    it was not computed; either is an empty cell."""
    dataset_id: str
    model_id: str
    ctr_auc: float | None
    ctcvr_auc: float | None
    n_pos_ctr: int
    n_neg_ctr: int
    n_pos_ctcvr: int
    n_neg_ctcvr: int
    seed: int | str  # "mean" on a summary row
    domain: str = ""
    encoder_mi: float | None = None
    score_label_kl: float | None = None


def write_csv(path: str | Path, header: tuple[str, ...], rows: Iterable[tuple]) -> Path:
    """Write `header` and then `rows` as one CSV, the one writer of every
    report and curve: None is an empty cell, a float the `repr` of a Python
    float, and any other cell is written as it is. Returns the path."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(["" if v is None else repr(float(v)) if isinstance(v, float) else v for v in row]
                         for row in rows)
    return Path(path)


def score_backbone(model: MultiTaskModel, dataset: Dataset,
                   batch_size: int = FROZEN_CHUNK) -> tuple[np.ndarray, np.ndarray]:
    """Zero-shot probabilities of a frozen backbone over a fitted dataset,
    (p_ctr, p_ctcvr)."""
    return SplitPass(model, dataset, batch_size).zero_shot()


def score_adapted(
    backbone: MultiTaskModel,
    adapter: IAKAdapter,
    dataset: Dataset,
    batch_size: int = FROZEN_CHUNK,
) -> tuple[np.ndarray, np.ndarray]:
    """Frozen backbone + adapter probabilities over a fitted dataset: one
    backbone pass, corrected over the same `batch_size` chunks."""
    return SplitPass(backbone, dataset, batch_size).adapted(adapter)


class SplitPass:
    """The one scorer of a split, a fitted dataset: one frozen-backbone pass
    (`backbone_cache`, `chunk` rows at a time) gives the representation and
    head logits of every row, which each zero-shot or adapted slice reads.
    The zero-shot prediction is built from the cached logits; an adapter's
    correction runs `chunk` rows of its slice at a time, with the encoder's
    posterior means, so every row equals a single adapted forward over its
    chunk bit for bit."""

    def __init__(self, backbone: MultiTaskModel, dataset: Dataset, chunk: int = FROZEN_CHUNK):
        self.backbone, self.dataset, self.chunk = backbone, dataset, chunk
        self.rep, self.logits = backbone_cache(backbone, dataset, chunk)

    def zero_shot(self, idx=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        pred = self.backbone.predict_from_logits(self.logits[idx])
        return pred.p_ctr[:, 0], pred.p_ctcvr[:, 0]

    def adapted(self, adapter: IAKAdapter, idx=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """The probabilities of an adapter frozen whole (see
        `iak.adapted_prediction`) over the rows `idx`, read as bare arrays."""
        rep, logits = self.rep[idx], self.logits[idx]
        p_ctr, p_ctcvr = np.empty(len(rep)), np.empty(len(rep))
        for start in range(0, len(rep), self.chunk):
            rows = slice(start, start + self.chunk)
            pred = adapted_prediction(self.backbone, adapter, rep[rows], logits[rows]).prediction
            p_ctr[rows], p_ctcvr[rows] = pred.p_ctr[:, 0], pred.p_ctcvr[:, 0]
        return p_ctr, p_ctcvr

    def slices(self, selectors: dict[str, dict[str, int]]) -> Iterator[tuple[str, np.ndarray, Dataset]]:
        """(key, row positions, rows) of each selector in key order, skipping
        selectors that match no row of the split."""
        for key in sorted(selectors):
            idx = domain_rows(self.dataset, selectors[key])
            if idx.size:
                yield key, idx, self.dataset.take(idx)


def report_from_scores(
    p_ctr: np.ndarray,
    p_ctcvr: np.ndarray,
    rows: Dataset,
    dataset_id: str,
    model_id: str,
    seed: int,
) -> EvalReport:
    click, purchase = rows.click, rows.purchase
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
    tracks. Each record's sample is one `ad.weight_sample` draw (every
    weight sample from `rng`, then every bias sample), and the channel is
    `iak.encoder_stage` on `ad.segment_linear`, one segment and one weight
    sample per record."""
    vl = adapter.encoder
    b = len(rep)
    w = ad.weight_sample(vl.mu_w, vl.rho_w, rng.standard_normal((b, *vl.mu_w.shape)))
    bias = ad.weight_sample(vl.mu_b, vl.rho_b, rng.standard_normal((b, *vl.mu_b.shape)))
    per_record = np.arange(b + 1)
    return encoder_stage(Tensor(rep), w, bias, vl.scale, partial(ad.segment_linear, offsets=per_record)).data


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
    order = np.argsort(impressions, kind="mergesort")  # stable: the tie order assigns the deciles
    decile_of = np.empty(n_items, dtype=np.int64)
    for d, chunk in enumerate(np.array_split(order, n_deciles)):
        decile_of[chunk] = d
    dec = decile_of[item_ids]
    score_mass = np.bincount(dec, weights=scores, minlength=n_deciles)
    label_mass = np.bincount(dec, weights=labels, minlength=n_deciles)
    if label_mass.sum() == 0:
        raise MetricError("no positive labels in evaluation slice")
    return kl_empirical(score_mass, label_mass)
