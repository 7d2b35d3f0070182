"""Reference dataset operations over lists of `InteractionRecord`s, one
Python object per record: the record-list code that the column operations
of `iakrec.datagen`, `iakrec.models.encode_records` and
`iakrec.trainer.mix_domains` replaced. Tests compare the column versions
against these."""

from __future__ import annotations

import numpy as np

from iakrec.datagen import SECONDS_PER_DAY, DatasetError, InteractionRecord, in_domain
from iakrec.models import EncodedBatch, FeatureSpace


def split_chronological(
    dataset: list[InteractionRecord], ratio: tuple[int, int]
) -> tuple[list[InteractionRecord], list[InteractionRecord]]:
    if not dataset:
        raise DatasetError("cannot split an empty dataset")
    a, b = ratio
    if a < 0 or b < 0 or a + b == 0:
        raise DatasetError(f"invalid split ratio {a}:{b}")
    stamps = [r.timestamp for r in dataset]
    if any(s > t for s, t in zip(stamps, stamps[1:])):
        raise DatasetError("dataset must be sorted by timestamp before splitting")
    cut = stamps[0] + (stamps[-1] - stamps[0]) * a / (a + b)
    train = [r for r in dataset if r.timestamp <= cut]
    test = dataset[len(train):]
    return train, test


def filter_by_domain(dataset: list[InteractionRecord], selector: dict[str, int]) -> list[InteractionRecord]:
    return [r for r in dataset if in_domain(r.domain_ids, selector)]


def domain_rows(dataset: list[InteractionRecord], selector: dict[str, int]) -> np.ndarray:
    return np.array([j for j, r in enumerate(dataset) if in_domain(r.domain_ids, selector)], dtype=np.int64)


def window_by_days(dataset: list[InteractionRecord], window_days: int) -> list[InteractionRecord]:
    if window_days <= 0 or not dataset:
        return list(dataset)
    last_day = max(r.timestamp for r in dataset) // SECONDS_PER_DAY
    first_kept = last_day - window_days + 1
    return [r for r in dataset if r.timestamp // SECONDS_PER_DAY >= first_kept]


def encode_records(records: list[InteractionRecord], space: FeatureSpace) -> EncodedBatch:
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


def mix_domains(primary_dataset, aux_datasets, weights, rng, primary_key):
    """An endless generator of records drawn as `trainer.mix_domains` draws
    its rows, without the weight checks."""
    pools = {primary_key: primary_dataset}
    pools.update(aux_datasets)
    keys = sorted(weights)
    probs = np.array([weights[k] for k in keys])
    queues: dict[str, list[int]] = {k: [] for k in keys}
    while True:
        k = keys[rng.choice(len(keys), p=probs)]
        if not queues[k]:
            queues[k] = list(rng.permutation(len(pools[k])))
        yield pools[k][queues[k].pop()]
