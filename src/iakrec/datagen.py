"""Seeded synthetic multi-domain interaction generator and dataset I/O.

Interactions follow a latent-factor click model: each user and item carries a
latent vector, and a record's click probability is a sigmoid of their inner
product after the record's domains modulate the user side and tilt the item
side. Purchases happen only on clicked impressions. Domain assignment: scene
and period are drawn per record, region is fixed per user.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TOPICS = ("scene", "region", "period")
SECONDS_PER_DAY = 86400

# octile edges of the standard normal, used to bucket latent values into
# categorical feature ids
_OCTILE_EDGES = np.array([-1.15035, -0.67449, -0.31864, 0.0, 0.31864, 0.67449, 1.15035])
# plain ints: reading np.iinfo's bounds costs more than the conversion they check
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


class DatasetError(ValueError):
    """Malformed records, violated invariants, or degenerate configs."""


@dataclass
class InteractionRecord:
    """One impression: who saw what, where, and what happened."""

    timestamp: int
    user_id: int
    item_id: int
    domain_ids: dict[str, int]
    feature_ids: list[int]
    click: int
    purchase: int

    def validate(self) -> None:
        if self.click not in (0, 1) or self.purchase not in (0, 1):
            raise DatasetError("click and purchase must be 0 or 1")
        if self.purchase == 1 and self.click == 0:
            raise DatasetError("purchase without click violates the impression->click->conversion path")
        missing = [t for t in TOPICS if t not in self.domain_ids]
        if missing:
            raise DatasetError(f"domain_ids missing topics: {missing}")


@dataclass
class DomainSpec:
    topic: str
    id: int
    preference_shift: np.ndarray
    item_popularity_tilt: np.ndarray

    def validate(self, latent_dim: int) -> None:
        if self.topic not in TOPICS:
            raise DatasetError(f"unknown topic {self.topic!r}")
        for name, vec in (("preference_shift", self.preference_shift), ("item_popularity_tilt", self.item_popularity_tilt)):
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (latent_dim,):
                raise DatasetError(f"{name} of {self.topic}={self.id} must have shape ({latent_dim},)")
            if not np.all(np.isfinite(arr)):
                raise DatasetError(f"{name} of {self.topic}={self.id} contains non-finite values")


@dataclass
class GeneratorConfig:
    n_users: int
    n_items: int
    n_days: int
    latent_dim: int = 16
    target_click_rate: float = 0.06
    target_purchase_rate_given_click: float = 0.15
    domains: list[DomainSpec] = field(default_factory=list)
    seed: int = 0
    records_per_day: int = 0  # 0 means one impression per user per day on average

    def validate(self) -> None:
        if self.n_users <= 0 or self.n_items <= 0:
            raise DatasetError("degenerate config: need at least one user and one item")
        if self.n_days < 2:
            raise DatasetError("n_days must be >= 2 so a chronological split is possible")
        for rate in (self.target_click_rate, self.target_purchase_rate_given_click):
            if not 0.0 < rate < 1.0:
                raise DatasetError(f"rates must lie in (0,1), got {rate}")
        for topic in TOPICS:
            if not any(d.topic == topic for d in self.domains):
                raise DatasetError(f"at least one domain required for topic {topic!r}")
        for d in self.domains:
            d.validate(self.latent_dim)

    def topic_ids(self, topic: str) -> list[int]:
        return sorted(d.id for d in self.domains if d.topic == topic)


def make_domains(
    shift_magnitudes: dict[str, list[float]],
    tilt_magnitudes: dict[str, list[float]],
    latent_dim: int,
    seed: int,
) -> list[DomainSpec]:
    """Build DomainSpecs from per-domain signed magnitudes.

    Each topic draws one shared direction per vector kind; a domain's vector
    is its magnitude times a mix of that shared direction and a private
    per-domain one. Same-sign magnitudes therefore make domains within a
    topic correlated, opposite signs make the shared component cancel in
    the pooled distribution, and |magnitude| sets how far a domain sits
    from it; the private component keeps each domain's shift full-rank."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD0]))
    shared_frac = 0.75  # weight of the shared within-topic direction

    def unit():
        v = rng.normal(size=latent_dim)
        return v / np.linalg.norm(v)

    specs: list[DomainSpec] = []
    for topic in TOPICS:
        shifts = shift_magnitudes.get(topic, [0.0])
        tilts = tilt_magnitudes.get(topic, [0.0] * len(shifts))
        if len(tilts) != len(shifts):
            raise DatasetError(f"{topic}: shift and tilt lists must have equal length")
        s_shared, t_shared = unit(), unit()
        for i, (s_mag, t_mag) in enumerate(zip(shifts, tilts)):
            s_dir = np.sqrt(shared_frac) * s_shared + np.sqrt(1 - shared_frac) * unit()
            t_dir = np.sqrt(shared_frac) * t_shared + np.sqrt(1 - shared_frac) * unit()
            specs.append(
                DomainSpec(
                    topic=topic,
                    id=i,
                    preference_shift=s_mag * s_dir,
                    item_popularity_tilt=t_mag * t_dir,
                )
            )
    return specs


def _calibrate_bias(z: np.ndarray, target: float) -> float:
    """Bisect the intercept so mean(sigmoid(b + z)) hits the target rate."""
    lo, hi = -30.0, 30.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.mean(1.0 / (1.0 + np.exp(-(mid + z)))) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _calibrate_scale(raw: np.ndarray, target: float) -> float:
    """Bisect a multiplier so mean(clip(s*raw, 0, 1)) hits the target."""
    if raw.size == 0:
        return 1.0
    lo, hi = 0.0, 1.0
    while np.mean(np.clip(hi * raw, 0.0, 1.0)) < target and hi < 1e6:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.mean(np.clip(mid * raw, 0.0, 1.0)) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bucket(values: np.ndarray, scale: float) -> np.ndarray:
    return np.digitize(values / scale, _OCTILE_EDGES)


def generate(config: GeneratorConfig) -> list[InteractionRecord]:
    """Deterministic for a fixed seed; per-domain-cell intercepts are
    calibrated so every cell's expected click rate equals the target."""
    config.validate()
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5EED]))
    k = config.latent_dim
    latent_scale = (4.0 / k) ** 0.25  # inner products get variance ~4
    users = rng.normal(0.0, latent_scale, size=(config.n_users, k))
    items = rng.normal(0.0, latent_scale, size=(config.n_items, k))

    scene_ids = config.topic_ids("scene")
    region_ids = config.topic_ids("region")
    period_ids = config.topic_ids("period")
    by_topic = {(d.topic, d.id): d for d in config.domains}
    shift = {
        t: np.stack([by_topic[(t, i)].preference_shift for i in ids])
        for t, ids in (("scene", scene_ids), ("region", region_ids), ("period", period_ids))
    }
    tilt = {
        t: np.stack([by_topic[(t, i)].item_popularity_tilt for i in ids])
        for t, ids in (("scene", scene_ids), ("region", region_ids), ("period", period_ids))
    }

    per_day = config.records_per_day if config.records_per_day > 0 else config.n_users
    n = per_day * config.n_days
    day = np.repeat(np.arange(config.n_days), per_day)
    offsets = rng.integers(0, SECONDS_PER_DAY, size=n)
    offsets = np.concatenate([np.sort(offsets[day == d]) for d in range(config.n_days)])
    ts = day * SECONDS_PER_DAY + offsets

    u_idx = rng.integers(0, config.n_users, size=n)
    i_idx = rng.integers(0, config.n_items, size=n)
    home_region = rng.integers(0, len(region_ids), size=config.n_users)
    scene_pos = rng.integers(0, len(scene_ids), size=n)
    period_pos = rng.integers(0, len(period_ids), size=n)
    region_pos = home_region[u_idx]

    modulation = 1.0 + shift["scene"][scene_pos] + shift["region"][region_pos] + shift["period"][period_pos]
    tilt_vec = tilt["scene"][scene_pos] + tilt["region"][region_pos] + tilt["period"][period_pos]
    z = np.einsum("nk,nk->n", users[u_idx] * modulation, items[i_idx])
    z += np.einsum("nk,nk->n", tilt_vec, items[i_idx])

    # per (scene, region, period) cell calibration keeps base click rates
    # equal across domains, so shifts change rankings rather than volumes
    cell = (scene_pos * len(region_ids) + region_pos) * len(period_ids) + period_pos
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

    scene_arr = np.asarray(scene_ids)[scene_pos]
    region_arr = np.asarray(region_ids)[region_pos]
    period_arr = np.asarray(period_ids)[period_pos]

    records = [
        InteractionRecord(
            timestamp=int(ts[j]),
            user_id=int(u_idx[j]),
            item_id=int(i_idx[j]),
            domain_ids={"scene": int(scene_arr[j]), "region": int(region_arr[j]), "period": int(period_arr[j])},
            feature_ids=[int(feat0[j]), int(feat1[j]), int(feat2[j]), int(feat3[j])],
            click=int(click[j]),
            purchase=int(purchase[j]),
        )
        for j in range(n)
    ]
    return records


def split_chronological(
    dataset: list[InteractionRecord], ratio: tuple[int, int]
) -> tuple[list[InteractionRecord], list[InteractionRecord]]:
    """Cut the timeline at the ratio point: first a/(a+b) of the time span is
    train, the rest test. Records exactly at the cut go to train."""
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


_RECORD_KEYS = ("timestamp", "user_id", "item_id", "domain_ids", "feature_ids", "click", "purchase")


def write_jsonl(dataset: list[InteractionRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for r in dataset:
            f.write(
                json.dumps(
                    {
                        "timestamp": r.timestamp,
                        "user_id": r.user_id,
                        "item_id": r.item_id,
                        "domain_ids": r.domain_ids,
                        "feature_ids": r.feature_ids,
                        "click": r.click,
                        "purchase": r.purchase,
                    },
                    separators=(",", ":"),
                )
            )
            f.write("\n")


def int64_id(value) -> int:
    """An id that fits the int64 columns it is encoded into. int() raises
    OverflowError for infinity, ValueError for NaN or text, TypeError for null."""
    out = int(value)
    if not _INT64_MIN <= out <= _INT64_MAX:
        raise OverflowError("id does not fit in int64")
    return out


def read_jsonl(path: str | Path) -> list[InteractionRecord]:
    """Records of a JSONL dataset; a bad line raises DatasetError at `path:line`."""
    records: list[InteractionRecord] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
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
            try:
                rec = InteractionRecord(
                    timestamp=int(obj["timestamp"]),
                    user_id=int64_id(obj["user_id"]),
                    item_id=int64_id(obj["item_id"]),
                    domain_ids={str(k): int64_id(v) for k, v in obj["domain_ids"].items()},
                    feature_ids=[int64_id(v) for v in obj["feature_ids"]],
                    click=int(obj["click"]),
                    purchase=int(obj["purchase"]),
                )
                rec.validate()
            # DatasetError from validate() is a ValueError too
            except (TypeError, ValueError, AttributeError, OverflowError) as e:
                raise DatasetError(f"{path}:{lineno}: {e}") from e
            records.append(rec)
    return records


def domain_key(selector: dict[str, int]) -> str:
    """Canonical text form of a domain selector: `topic=id` parts sorted by
    topic and joined by commas, e.g. `period=2,scene=1`."""
    return ",".join(f"{t}={i}" for t, i in sorted(selector.items()))


def parse_domain_key(key: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for part in key.split(","):
        topic, _, value = part.partition("=")
        if not value:
            raise DatasetError(f"bad domain key part {part!r}")
        out[topic.strip()] = int(value)
    return out


def in_domain(domain_ids: dict[str, int], selector: dict[str, int]) -> bool:
    """True when every topic of the selector carries the selector's id. A
    plain loop: it runs once per record per selector, and all() over a
    generator costs twice as much."""
    for topic, i in selector.items():
        if domain_ids.get(topic) != i:
            return False
    return True


def filter_by_domain(dataset: list[InteractionRecord], selector: dict[str, int]) -> list[InteractionRecord]:
    return [r for r in dataset if in_domain(r.domain_ids, selector)]


def domain_rows(dataset: list[InteractionRecord], selector: dict[str, int]) -> np.ndarray:
    """Positions of the records a selector matches."""
    return np.array([j for j, r in enumerate(dataset) if in_domain(r.domain_ids, selector)], dtype=np.int64)


def domain_datasets(
    dataset: list[InteractionRecord], selectors: dict[str, dict[str, int]]
) -> dict[str, list[InteractionRecord]]:
    """Each selector's records, keyed like `selectors`; selectors that match
    no record are left out."""
    out = {}
    for key, selector in selectors.items():
        records = filter_by_domain(dataset, selector)
        if records:
            out[key] = records
    return out


def window_by_days(dataset: list[InteractionRecord], window_days: int) -> list[InteractionRecord]:
    """Keep only records from the last `window_days` whole days of the set."""
    if window_days <= 0 or not dataset:
        return list(dataset)
    last_day = max(r.timestamp for r in dataset) // SECONDS_PER_DAY
    first_kept = last_day - window_days + 1
    return [r for r in dataset if r.timestamp // SECONDS_PER_DAY >= first_kept]
