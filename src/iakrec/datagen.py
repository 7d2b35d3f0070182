"""Seeded synthetic multi-domain interaction generator and dataset I/O.

Interactions follow a latent-factor click model: each user and item carries a
latent vector, and a record's click probability is a sigmoid of their inner
product after the record's domains modulate the user side and tilt the item
side. Purchases happen only on clicked impressions. Domain assignment: scene
and period are drawn per record, region is fixed per user. A domain's id is
its row in its topic's shift and tilt tables (`GeneratorConfig.domains`).

A `Dataset` holds records as int64 numpy columns (timestamp, user, item,
scene, region, period, an (N, F) features block padded with -1, click and
purchase), in file order. Splits, windows and domain selections are row
masks or positions over it. Domain selectors live here alone; `domain_mask`
matches records and a request's fitted row alike. A parsed JSONL line and a
score request are one flat row of ints each, and `Dataset.from_rows` splits
a table of such rows into columns. `InteractionRecord` is only the row view
that indexing or iterating a `Dataset` yields, for code that reads a row's
fields by name (the benchmark's request traffic does). `read_dataset` parses
a JSONL file at most once per content, keeping its columns in a
digest-checked sidecar beside it; the columns of a sidecar hit are read-only
views of its mapped bytes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint

TOPICS = ("scene", "region", "period")
SECONDS_PER_DAY = 86400
COLUMNS = ("timestamp", "user", "item", "scene", "region", "period", "features", "click", "purchase")
SIDECAR_VERSION = 2
_JSONL_CHUNK = 8192  # rows formatted per `%` of `write_jsonl`

# octile edges of the standard normal, used to bucket latent values into
# categorical feature ids
_OCTILE_EDGES = np.array([-1.15035, -0.67449, -0.31864, 0.0, 0.31864, 0.67449, 1.15035])
# plain ints: reading np.iinfo's bounds costs more than the conversion they check
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


class DatasetError(ValueError):
    """Malformed records, violated invariants, or degenerate configs."""


@dataclass
class InteractionRecord:
    """One impression: who saw what, where, and what happened. The row view
    of a `Dataset` (`dataset[i]`, iteration); the package builds datasets
    from columns or rows of ints, never from these."""

    timestamp: int
    user_id: int
    item_id: int
    domain_ids: dict[str, int]
    feature_ids: list[int]
    click: int
    purchase: int


@dataclass(eq=False)
class Dataset:
    """Records as int64 columns, one row per record. `features` is (N, F)
    with F the longest `feature_ids` of the source; shorter rows are padded
    with -1, the empty slot of the encoding. `from_rows` splits a table of
    parsed lines into these columns. Indexing with an integer gives an
    `InteractionRecord` of plain ints, with a slice a `Dataset`."""

    timestamp: np.ndarray
    user: np.ndarray
    item: np.ndarray
    scene: np.ndarray
    region: np.ndarray
    period: np.ndarray
    features: np.ndarray
    click: np.ndarray
    purchase: np.ndarray

    @classmethod
    def from_rows(cls, table: np.ndarray) -> Dataset:
        """The dataset of an (N, 8 + F) int64 table, one row per record laid
        out as `[timestamp, user, item, scene, region, period, click,
        purchase, *features]`. Each column is a view of the table; indexing
        the transpose makes them faster than unpacking it does."""
        col = table.T
        return cls(col[0], col[1], col[2], col[3], col[4], col[5], table[:, 8:], col[6], col[7])

    def columns(self) -> dict[str, np.ndarray]:
        return {c: getattr(self, c) for c in COLUMNS}

    def take(self, idx) -> Dataset:
        """The rows at `idx`: positions, a boolean mask or a slice."""
        return Dataset(**{c: a[idx] for c, a in self.columns().items()})

    def domain(self, topic: str) -> np.ndarray:
        """The id column of a topic in TOPICS."""
        return getattr(self, domain_topic(topic))

    def __len__(self) -> int:
        return len(self.timestamp)

    def __getitem__(self, key) -> InteractionRecord | Dataset:
        if isinstance(key, slice):
            return self.take(key)
        j = operator.index(key)
        return _record(*(a[j].tolist() for a in self.columns().values()))

    def __iter__(self) -> Iterator[InteractionRecord]:
        return map(_record, *(a.tolist() for a in self.columns().values()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return all(np.array_equal(a, getattr(other, c)) for c, a in self.columns().items())


def _record(timestamp, user, item, scene, region, period, features, click, purchase) -> InteractionRecord:
    return InteractionRecord(timestamp, user, item, {"scene": scene, "region": region, "period": period},
                             features, click, purchase)


def _check_draw_settings(latent_dim: int, seed: int) -> None:
    if latent_dim < 1:
        raise DatasetError(f"latent_dim must be >= 1, got {latent_dim}")
    if seed < 0:
        raise DatasetError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class GeneratorConfig:
    """What `generate` draws from. `domains` maps each topic in TOPICS to its
    (shifts, tilts): two (n, latent_dim) float arrays whose row i is the
    preference shift and item popularity tilt of domain i, whose id is i.
    The config keeps a read-only mapping of read-only float64 copies of
    those tables, the ones its check read."""

    n_users: int
    n_items: int
    n_days: int
    latent_dim: int = 16
    target_click_rate: float = 0.06
    target_purchase_rate_given_click: float = 0.15
    domains: Mapping[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    seed: int = 0
    records_per_day: int = 0  # 0 means one impression per user per day on average

    def __post_init__(self) -> None:
        if self.n_users <= 0 or self.n_items <= 0:
            raise DatasetError("degenerate config: need at least one user and one item")
        if self.n_days < 2:
            raise DatasetError("n_days must be >= 2 so a chronological split is possible")
        if self.records_per_day < 0:
            raise DatasetError(f"records_per_day must be >= 0, got {self.records_per_day}")
        _check_draw_settings(self.latent_dim, self.seed)
        for rate in (self.target_click_rate, self.target_purchase_rate_given_click):
            if not 0.0 < rate < 1.0:
                raise DatasetError(f"rates must lie in (0,1), got {rate}")
        domains = {}
        for topic in TOPICS:
            shifts, tilts = self.domains.get(topic, ((), ()))
            if not len(shifts):
                raise DatasetError(f"at least one domain required for topic {topic!r}")
            for name, table in (("preference_shift", shifts), ("item_popularity_tilt", tilts)):
                if np.shape(table) != (len(shifts), self.latent_dim):
                    raise DatasetError(f"{name} of {topic} must have shape ({len(shifts)}, {self.latent_dim})")
                finite = np.isfinite(table).all(axis=1)
                if not finite.all():
                    raise DatasetError(f"{name} of {topic}={int(np.argmin(finite))} contains non-finite values")
            domains[topic] = tuple(np.array(t, dtype=np.float64) for t in (shifts, tilts))
            for table in domains[topic]:
                table.flags.writeable = False
        object.__setattr__(self, "domains", MappingProxyType(domains))


def make_domains(magnitudes: dict[str, tuple[list[float], list[float]]], latent_dim: int,
                 seed: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The `GeneratorConfig.domains` tables of per-domain signed magnitudes,
    `{topic: (shift magnitudes, tilt magnitudes)}` for every topic in TOPICS.

    Each topic draws one shared direction per vector kind; a domain's vector
    is its magnitude times a mix of that shared direction and a private
    per-domain one. Same-sign magnitudes therefore make domains within a
    topic correlated, opposite signs make the shared component cancel in
    the pooled distribution, and |magnitude| sets how far a domain sits
    from it; the private component keeps each domain's shift full-rank.
    Draws: a topic's two shared directions, then each domain's two own."""
    _check_draw_settings(latent_dim, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD0]))
    shared_frac = 0.75  # weight of the shared within-topic direction

    def unit():
        v = rng.normal(size=latent_dim)
        return v / np.linalg.norm(v)

    tables = {}
    for topic in TOPICS:
        shifts, tilts = magnitudes[topic]
        if len(tilts) != len(shifts):
            raise DatasetError(f"{topic}: shift and tilt lists must have equal length")
        shared = unit(), unit()
        table = np.empty((2, len(shifts), latent_dim))  # shifts, tilts
        for i, mags in enumerate(zip(shifts, tilts)):
            for kind in (0, 1):
                table[kind, i] = mags[kind] * (np.sqrt(shared_frac) * shared[kind] + np.sqrt(1 - shared_frac) * unit())
        tables[topic] = (table[0], table[1])
    return tables


def _calibrate_bias(z: np.ndarray, target: float) -> float:
    """Bisect the intercept so mean(sigmoid(b + z)) hits the target rate.
    Each step computes 1 / (1 + exp(-(mid + z))) in one buffer, the same
    operations on each element as that expression, so the same bits."""
    lo, hi = -30.0, 30.0
    buf = np.empty_like(z)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        np.add(mid, z, out=buf)
        np.negative(buf, out=buf)
        np.exp(buf, out=buf)
        np.add(1.0, buf, out=buf)
        np.divide(1.0, buf, out=buf)
        if _mean(buf) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _calibrate_scale(raw: np.ndarray, target: float) -> float:
    """Bisect a multiplier so mean(clip(s*raw, 0, 1)) hits the target, each
    step in one buffer as `_calibrate_bias` does."""
    if raw.size == 0:
        return 1.0
    buf = np.empty_like(raw)

    def clipped_mean(s: float) -> float:
        np.multiply(s, raw, out=buf)
        np.clip(buf, 0.0, 1.0, out=buf)
        return _mean(buf)

    lo, hi = 0.0, 1.0
    while clipped_mean(hi) < target and hi < 1e6:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if clipped_mean(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _mean(x: np.ndarray) -> float:
    """`np.mean` of a non-empty 1-d float64 array, bit for bit: the same
    pairwise sum divided by the count, without the wrapper's checks."""
    return np.add.reduce(x) / x.size


def _bucket(values: np.ndarray, scale: float) -> np.ndarray:
    return np.digitize(values / scale, _OCTILE_EDGES)


def generate(config: GeneratorConfig) -> Dataset:
    """Deterministic for a fixed seed; per-domain-cell intercepts are
    calibrated so every cell's expected click rate equals the target."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5EED]))
    k = config.latent_dim
    latent_scale = (4.0 / k) ** 0.25  # inner products get variance ~4
    users = rng.normal(0.0, latent_scale, size=(config.n_users, k))
    items = rng.normal(0.0, latent_scale, size=(config.n_items, k))

    per_day = config.records_per_day if config.records_per_day > 0 else config.n_users
    n = per_day * config.n_days
    day = np.repeat(np.arange(config.n_days), per_day)
    offsets = rng.integers(0, SECONDS_PER_DAY, size=n)
    offsets = np.concatenate([np.sort(offsets[day == d]) for d in range(config.n_days)])
    ts = day * SECONDS_PER_DAY + offsets

    u_idx = rng.integers(0, config.n_users, size=n)
    i_idx = rng.integers(0, config.n_items, size=n)
    shift, tilt = ({t: config.domains[t][j] for t in TOPICS} for j in (0, 1))
    n_regions, n_periods = len(shift["region"]), len(shift["period"])
    home_region = rng.integers(0, n_regions, size=config.n_users)
    scene = rng.integers(0, len(shift["scene"]), size=n)
    period = rng.integers(0, n_periods, size=n)
    region = home_region[u_idx]

    modulation = 1.0 + shift["scene"][scene] + shift["region"][region] + shift["period"][period]
    tilt_vec = tilt["scene"][scene] + tilt["region"][region] + tilt["period"][period]
    z = np.einsum("nk,nk->n", users[u_idx] * modulation, items[i_idx])
    z += np.einsum("nk,nk->n", tilt_vec, items[i_idx])

    # per (scene, region, period) cell calibration keeps base click rates
    # equal across domains, so shifts change rankings rather than volumes
    cell = (scene * n_regions + region) * n_periods + period
    p_click = np.empty(n)
    for c in np.unique(cell):
        m = cell == c
        b = _calibrate_bias(z[m], config.target_click_rate)
        p_click[m] = 1.0 / (1.0 + np.exp(-(b + z[m])))

    click = (rng.random(n) < p_click).astype(np.int64)
    # conversion probability proportional to the record's click probability,
    # rescaled so the realized purchase-given-click rate matches its target
    # (clicks select for high p_click, so the raw ratio alone overshoots)
    p_conv_raw = p_click / config.target_click_rate
    clicked = click == 1
    scale = _calibrate_scale(p_conv_raw[clicked], config.target_purchase_rate_given_click)
    p_conv = np.clip(scale * p_conv_raw, 0.0, 1.0)
    purchase = (click & (rng.random(n) < p_conv)).astype(np.int64)

    feat0 = _bucket(users[u_idx, 0], latent_scale)
    feat1 = _bucket(items[i_idx, 0], latent_scale)
    feat2 = _bucket(items[i_idx, 1 % k], latent_scale)
    feat3 = (ts % SECONDS_PER_DAY) // (SECONDS_PER_DAY // 8)  # hour-of-day octant

    return Dataset(
        timestamp=ts,
        user=u_idx,
        item=i_idx,
        scene=scene,
        region=region,
        period=period,
        features=np.stack([feat0, feat1, feat2, feat3], axis=1),
        click=click,
        purchase=purchase,
    )


def check_split_ratio(ratio: tuple[int, int]) -> tuple[int, int]:
    """`ratio` if it is a train:test ratio a:b that can cut a timeline: both
    parts >= 0 and not both 0."""
    a, b = ratio
    if a < 0 or b < 0 or a + b == 0:
        raise DatasetError(f"invalid split ratio {a}:{b}")
    return ratio


def split_chronological(dataset: Dataset, ratio: tuple[int, int]) -> tuple[Dataset, Dataset]:
    """Cut the timeline at the ratio point: first a/(a+b) of the time span is
    train, the rest test. Records exactly at the cut go to train."""
    if not dataset:
        raise DatasetError("cannot split an empty dataset")
    a, b = check_split_ratio(ratio)
    ts = dataset.timestamp
    if np.any(ts[1:] < ts[:-1]):
        raise DatasetError("dataset must be sorted by timestamp before splitting")
    first, last = int(ts[0]), int(ts[-1])
    cut = first + (last - first) * a / (a + b)
    # an integer timestamp t is <= cut exactly when t <= floor(cut), and
    # comparing the int64 stamps with that Python int is exact
    n_train = int(np.searchsorted(ts, math.floor(cut), side="right"))
    return dataset[:n_train], dataset[n_train:]


def write_jsonl(dataset: Dataset, path: str | Path) -> None:
    """One JSON object per row, plus the column sidecar of the bytes written
    (see `read_dataset`). Rows are formatted `_JSONL_CHUNK` at a time by one
    `%d` template for the dataset's feature width, applied to the flat list
    of the chunk's ints: the bytes of writing each int with `str`."""
    row = (b'{"timestamp":%d,"user_id":%d,"item_id":%d,"domain_ids":{"scene":%d,"region":%d,"period":%d},'
           b'"feature_ids":[' + b",".join([b"%d"] * dataset.features.shape[1]) + b'],"click":%d,"purchase":%d}\n')
    table = np.column_stack([dataset.timestamp, dataset.user, dataset.item, dataset.scene, dataset.region,
                             dataset.period, dataset.features, dataset.click, dataset.purchase])
    sha = hashlib.sha256()
    with open(path, "wb") as f:
        for start in range(0, len(table), _JSONL_CHUNK):
            chunk = table[start : start + _JSONL_CHUNK]
            text = (row * len(chunk)) % tuple(chunk.ravel().tolist())
            f.write(text)
            sha.update(text)
    _store_columns(dataset, path, sha.hexdigest())


def int64_id(value) -> int:
    """An id (or a timestamp or label) that fits the int64 columns it is
    encoded into. Only a JSON integer or a float with a zero fraction is one:
    bools, text, null and non-integral or non-finite numbers raise TypeError,
    and values outside int64 raise OverflowError."""
    if type(value) is not int:  # bool is an int subclass, not an int
        if type(value) is not float or not value.is_integer():
            raise TypeError(f"expected an integer, got {type(value).__name__} {value!r:.40}")
        value = int(value)
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise OverflowError("value does not fit in int64")
    return value


def id_fields(obj: dict) -> tuple[int, int, dict[str, int], list[int]]:
    """(user_id, item_id, domain_ids, feature_ids) of a record or request
    object, each checked by `int64_id`; `domain_ids` must be an object and
    `feature_ids` an array. Raises KeyError, TypeError or OverflowError."""
    domain_ids, feature_ids = obj["domain_ids"], obj["feature_ids"]
    if not isinstance(domain_ids, dict):
        raise TypeError("domain_ids must be an object")
    if not isinstance(feature_ids, list):
        raise TypeError("feature_ids must be an array")
    return (
        int64_id(obj["user_id"]),
        int64_id(obj["item_id"]),
        {str(k): int64_id(v) for k, v in domain_ids.items()},
        [int64_id(v) for v in feature_ids],
    )


_RECORD_KEYS = ("timestamp", "user_id", "item_id", "domain_ids", "feature_ids", "click", "purchase")


def _parse_jsonl(raw: bytes, path: str | Path) -> Dataset:
    """The dataset of a JSONL file's bytes: each line one `Dataset.from_rows`
    row, feature lists padded with -1 to the longest. A bad line, one that is
    not UTF-8 included, raises DatasetError at `path:line`; the first bad line
    is the one reported."""
    rows: list[list[int]] = []
    # bytes split only at \n, \r and \r\n, the line ends of a text-mode read
    for lineno, data in enumerate(raw.splitlines(), start=1):
        try:
            line = data.decode("utf-8").strip()
        except UnicodeDecodeError as e:
            raise DatasetError(f"{path}:{lineno}: not UTF-8 ({e.reason} at byte {e.start + 1} of the line)") from e
        if not line:
            continue
        try:
            obj = json.loads(line)
        # ValueError also covers integers too long to convert; RecursionError
        # is JSON nested too deep to decode
        except (ValueError, RecursionError) as e:
            raise DatasetError(f"{path}:{lineno}: malformed JSON ({getattr(e, 'msg', e)})") from e
        if not isinstance(obj, dict):
            raise DatasetError(f"{path}:{lineno}: a record must be a JSON object")
        missing = [key for key in _RECORD_KEYS if key not in obj]
        if missing:
            raise DatasetError(f"{path}:{lineno}: missing keys {missing}")
        # the ids, then the timestamp and labels, are int64s; then the labels
        # are 0 or 1, with no purchase without a click, and every topic is set
        try:
            user, item, domain_ids, feature_ids = id_fields(obj)
            timestamp, click, purchase = int64_id(obj["timestamp"]), int64_id(obj["click"]), int64_id(obj["purchase"])
            if click not in (0, 1) or purchase not in (0, 1):
                raise DatasetError("click and purchase must be 0 or 1")
            if purchase > click:
                raise DatasetError("purchase without click violates the impression->click->conversion path")
            if missing := [t for t in TOPICS if t not in domain_ids]:
                raise DatasetError(f"domain_ids missing topics: {missing}")
        # DatasetError is a ValueError too
        except (TypeError, ValueError, OverflowError) as e:
            raise DatasetError(f"{path}:{lineno}: {e}") from e
        rows.append([timestamp, user, item, domain_ids["scene"], domain_ids["region"], domain_ids["period"], click,
                     purchase, *feature_ids])
    width = max(map(len, rows), default=8)
    for row in rows:
        row += [-1] * (width - len(row))
    return Dataset.from_rows(np.array(rows, dtype=np.int64).reshape(len(rows), width))


def read_jsonl(path: str | Path) -> Dataset:
    """Parse a JSONL dataset, ignoring any sidecar: each line is checked and
    becomes one `Dataset.from_rows` row, with no record object made. A bad
    line raises DatasetError at `path:line`."""
    return _parse_jsonl(Path(path).read_bytes(), path)


def sidecar_path(path: str | Path) -> Path:
    """Where the columns of the JSONL file `path` are kept: `<path>.cols`, a
    version-2 checkpoint container (see `iakrec.checkpoint`) of one `<i8`
    block per column. A `<path>.cols.npz` left by sidecar version 1 is never
    read."""
    return Path(f"{path}.cols")


def _sidecar_key(digest: str, columns) -> str:
    """The digest field of a sidecar: its format version, the sha256 of its
    JSONL and the wrapping uint64 sum of every word of its columns. The sum
    makes any one damaged payload byte a mismatch; a sum costs about a tenth
    of a `zlib.crc32` over the same bytes."""
    total = sum(int(np.add.reduce(a.view(np.uint64), axis=None)) for a in columns)
    return f"{SIDECAR_VERSION}:{digest}:{total % 2**64:016x}"


def _store_columns(dataset: Dataset, path: str | Path, digest: str) -> None:
    """Write the sidecar of `path` (atomically) if the directory allows it."""
    columns = {c: np.asarray(a, dtype="<i8") for c, a in dataset.columns().items()}
    try:
        save_checkpoint(sidecar_path(path), columns, _sidecar_key(digest, columns.values()))
    except OSError:
        pass  # the sidecar is only a cache


def _load_columns(side: Path, digest: str) -> Dataset | None:
    """The sidecar's dataset if it holds this format version, this digest, a
    full set of equal-length `<i8` columns and the payload its key sums;
    None for anything else. The columns are read-only views of the mapped
    file."""
    try:
        arrays, key = load_checkpoint(side)
    # the sidecar is only a cache: whatever makes it unreadable (missing, a
    # directory, truncated, damaged) sends the reader to the JSONL
    except (OSError, CheckpointError):
        return None
    if sorted(arrays) != sorted(COLUMNS) or any(
        a.dtype != np.int64 or a.ndim != (2 if c == "features" else 1) for c, a in arrays.items()
    ):
        return None
    if len({len(a) for a in arrays.values()}) != 1 or key != _sidecar_key(digest, arrays.values()):
        return None
    return Dataset(**arrays)


def read_dataset(path: str | Path) -> Dataset:
    """The dataset of a JSONL file, parsed at most once per content.

    The file's sha256 keys its sidecar (`sidecar_path`): when the sidecar
    holds that digest, the current format version, every column and the
    payload its key sums, the columns are mapped from it, as read-only views,
    and no line is parsed. Otherwise the JSONL is parsed with every check of
    `read_jsonl` and the sidecar is rewritten where the directory allows it.
    A sidecar that cannot be read or does not match is a miss, never an
    error, so deleting it is always safe.

    The check hashes the file as a stream; only a miss reads its bytes
    whole. The sidecar written then is keyed by the sha256 of the bytes
    parsed, so a file rewritten between the two reads never gets a sidecar
    keyed to other bytes."""
    with open(path, "rb") as f:
        digest = hashlib.file_digest(f, "sha256").hexdigest()
    dataset = _load_columns(sidecar_path(path), digest)
    if dataset is None:
        raw = Path(path).read_bytes()
        dataset = _parse_jsonl(raw, path)
        _store_columns(dataset, path, hashlib.sha256(raw).hexdigest())
    return dataset


def domain_key(selector: dict[str, int]) -> str:
    """Canonical text form of a domain selector: `topic=id` parts sorted by
    topic and joined by commas, e.g. `period=2,scene=1`."""
    return ",".join(f"{t}={i}" for t, i in sorted(selector.items()))


def domain_topic(name: str) -> str:
    """A selector topic: one of TOPICS, else DatasetError."""
    topic = name.strip()
    if topic not in TOPICS:
        raise DatasetError(f"unknown domain topic {name!r}; topics are {', '.join(TOPICS)}")
    return topic


def parse_domain_key(key: str) -> dict[str, int]:
    """Selector of a `topic=id` key; a part without an integer id or with a
    topic outside TOPICS raises DatasetError."""
    out: dict[str, int] = {}
    for part in key.split(","):
        topic, _, value = part.partition("=")
        try:
            i = int(value)
        except ValueError:
            raise DatasetError(f"bad domain key part {part!r}: the id must be an integer") from None
        out[domain_topic(topic)] = i
    return out


def domain_mask(dataset: Dataset, selector: dict[str, int]) -> np.ndarray:
    """Boolean mask of the rows a selector matches, begun from the first
    topic's match: on a request's one row an all-True start costs more."""
    masks = [dataset.domain(topic) == i for topic, i in selector.items()]
    return functools.reduce(operator.and_, masks) if masks else np.ones(len(dataset), dtype=bool)


def parse_domain_selectors(spec: list[str]) -> list[str | dict[str, int]]:
    """Each entry of a selector list, read without the data: the topic of a
    `topic=*` entry, else the selector of an explicit key. A bad entry raises
    DatasetError, so a command checks its list before it opens any input."""
    out: list[str | dict[str, int]] = []
    for entry in spec:
        topic, _, value = entry.partition("=")
        out.append(domain_topic(topic) if value == "*" else parse_domain_key(entry))
    return out


def expand_domain_selectors(spec: list[str], dataset: Dataset) -> dict[str, dict[str, int]]:
    """Selectors by canonical key: an entry like `period=*` expands over the
    ids present in the data, and explicit keys pass through."""
    out: dict[str, dict[str, int]] = {}
    for entry in parse_domain_selectors(spec):
        sels = [{entry: i} for i in np.unique(dataset.domain(entry)).tolist()] if isinstance(entry, str) else [entry]
        out.update((domain_key(sel), sel) for sel in sels)
    return out


def filter_by_domain(dataset: Dataset, selector: dict[str, int]) -> Dataset:
    return dataset.take(domain_mask(dataset, selector))


def domain_rows(dataset: Dataset, selector: dict[str, int]) -> np.ndarray:
    """Positions of the rows a selector matches."""
    return np.flatnonzero(domain_mask(dataset, selector))


def window_by_days(dataset: Dataset, rows: np.ndarray, window_days: int) -> np.ndarray:
    """The positions among `rows` that fall in the last `window_days` whole
    days of those rows; all of them for a window of 0 or less."""
    if window_days <= 0 or not len(rows):
        return rows
    day = dataset.timestamp[rows] // SECONDS_PER_DAY
    return rows[day >= int(day.max()) - window_days + 1]
