"""Reference dataset operations over lists of `InteractionRecord`s, one
Python object per record: the record-list code that the column operations
of `iakrec.datagen`, `iakrec.models.encode_records` and
`iakrec.trainer.mix_domains` replaced, and the one-row-at-a-time JSONL
formatter that `iakrec.datagen.write_jsonl` replaced. Tests compare the
column versions against these.

`from_records`, once `Dataset.from_records`, builds a dataset from a record
list. The package has no use for it since the JSONL parser writes rows of
ints straight into a `Dataset.from_rows` table; the tests use it to build
small datasets by hand.

`in_domain`, once `datagen.in_domain`, matches one record's (or one score
request's) `domain_ids` against a selector. It is the oracle for
`datagen.domain_mask` over records and for the adapter a router picks."""

from __future__ import annotations

import numpy as np

from iakrec.datagen import SECONDS_PER_DAY, Dataset, DatasetError, InteractionRecord
from iakrec.models import FeatureSpace


def jsonl_bytes(dataset: Dataset) -> bytes:
    """The JSONL of a dataset, one f-string and one `join` per row."""
    feature_text = [",".join(map(str, row)) for row in dataset.features.tolist()]
    cols = [a.tolist() for a in (dataset.timestamp, dataset.user, dataset.item, dataset.scene, dataset.region,
                                 dataset.period)]
    return "".join(
        f'{{"timestamp":{t},"user_id":{u},"item_id":{i},"domain_ids":{{"scene":{s},"region":{r},"period":{p}}},'
        f'"feature_ids":[{f}],"click":{c},"purchase":{b}}}\n'
        for t, u, i, s, r, p, f, c, b in zip(*cols, feature_text, dataset.click.tolist(), dataset.purchase.tolist())
    ).encode("utf-8")


def from_records(records: list[InteractionRecord]) -> Dataset:
    """The dataset of a record list, one column at a time, feature rows
    padded with -1 to the longest."""
    width = max((len(r.feature_ids) for r in records), default=0)
    features = np.full((len(records), width), -1, dtype=np.int64)
    for j, r in enumerate(records):
        features[j, : len(r.feature_ids)] = r.feature_ids

    def col(values):
        return np.array(values, dtype=np.int64)

    return Dataset(
        timestamp=col([r.timestamp for r in records]),
        user=col([r.user_id for r in records]),
        item=col([r.item_id for r in records]),
        scene=col([r.domain_ids["scene"] for r in records]),
        region=col([r.domain_ids["region"] for r in records]),
        period=col([r.domain_ids["period"] for r in records]),
        features=features,
        click=col([r.click for r in records]),
        purchase=col([r.purchase for r in records]),
    )


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


def in_domain(domain_ids: dict[str, int], selector: dict[str, int]) -> bool:
    """True when every topic of the selector carries the selector's id in
    `domain_ids`: the per-record matcher that `iakrec.datagen.domain_mask`
    replaced, for records and for score requests alike."""
    return all(domain_ids.get(topic) == i for topic, i in selector.items())


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


def encode_records(records: list[InteractionRecord], space: FeatureSpace) -> Dataset:
    n = len(records)
    f_cols = space.n_feature_cols
    timestamp = np.empty(n, dtype=np.int64)
    user = np.empty(n, dtype=np.int64)
    item = np.empty(n, dtype=np.int64)
    scene = np.empty(n, dtype=np.int64)
    region = np.empty(n, dtype=np.int64)
    period = np.empty(n, dtype=np.int64)
    features = np.full((n, f_cols), -1, dtype=np.int64)
    click = np.empty(n, dtype=np.int64)
    purchase = np.empty(n, dtype=np.int64)

    for j, r in enumerate(records):
        timestamp[j] = r.timestamp
        user[j] = r.user_id
        item[j] = r.item_id
        scene[j] = r.domain_ids.get("scene", -1)
        region[j] = r.domain_ids.get("region", -1)
        period[j] = r.domain_ids.get("period", -1)
        for c, fid in enumerate(r.feature_ids[:f_cols]):
            features[j, c] = fid
        click[j] = r.click
        purchase[j] = r.purchase
    return Dataset(timestamp, user, item, scene, region, period, features, click, purchase)


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
