import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from iakrec import datagen
from iakrec.checkpoint import load_checkpoint
from iakrec.datagen import (
    Dataset,
    DatasetError,
    DomainSpec,
    GeneratorConfig,
    InteractionRecord,
    SECONDS_PER_DAY,
    domain_rows,
    filter_by_domain,
    generate,
    make_domains,
    read_dataset,
    read_jsonl,
    sidecar_path,
    split_chronological,
    window_by_days,
    write_jsonl,
)
from iakrec.evals import kl_empirical
from iakrec.models import FeatureSpace, encode_records

import records_reference
from checkpoint_reference import checkpoint_bytes


def _config(seed=0, period_shifts=(0.0, 0.0), period_tilts=None, **kw):
    period_tilts = list(period_tilts) if period_tilts is not None else [0.0] * len(period_shifts)
    domains = make_domains(
        {"scene": [0.0], "region": [0.0], "period": list(period_shifts)},
        {"scene": [0.0], "region": [0.0], "period": period_tilts},
        latent_dim=kw.pop("latent_dim", 16),
        seed=seed,
    )
    defaults = dict(n_users=150, n_items=80, n_days=4, domains=domains, seed=seed, records_per_day=1500)
    defaults.update(kw)
    return GeneratorConfig(**defaults)


def test_same_seed_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(generate(_config(seed=3)), a)
    write_jsonl(generate(_config(seed=3)), b)
    assert a.read_bytes() == b.read_bytes()
    write_jsonl(generate(_config(seed=4)), a)
    assert a.read_bytes() != b.read_bytes()


@settings(max_examples=40, deadline=None)
@given(z=hnp.arrays(np.float64, st.integers(1, 300), elements=st.floats(-40, 40)),
       target=st.floats(0.001, 0.999))
def test_in_place_bisection_gives_the_bits_of_the_plain_expressions(z, target):
    """`_calibrate_bias` and `_calibrate_scale` step through one buffer; each
    gives the float of the bisection written as plain numpy expressions."""

    def bias(z, target):
        lo, hi = -30.0, 30.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if np.mean(1.0 / (1.0 + np.exp(-(mid + z)))) < target else (lo, mid)
        return 0.5 * (lo + hi)

    def scale(raw, target):
        lo, hi = 0.0, 1.0
        while np.mean(np.clip(hi * raw, 0.0, 1.0)) < target and hi < 1e6:
            hi *= 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if np.mean(np.clip(mid * raw, 0.0, 1.0)) < target else (lo, mid)
        return 0.5 * (lo + hi)

    assert datagen._calibrate_bias(z, target) == bias(z, target)
    raw = np.abs(z) / 40.0
    assert datagen._calibrate_scale(raw, target) == scale(raw, target)


def test_click_rate_hits_target():
    data = generate(_config(seed=1, target_click_rate=0.06))
    rate = np.mean([r.click for r in data])
    assert 0.048 <= rate <= 0.072


def test_purchase_only_after_click():
    """The generator keeps the invariants the parser checks: labels of 0 or
    1, and no purchase without a click."""
    data = generate(_config(seed=2))
    assert set(np.unique(data.click)) <= {0, 1} and set(np.unique(data.purchase)) <= {0, 1}
    assert not np.any((data.purchase == 1) & (data.click == 0))
    assert data.purchase.any()


def test_purchase_rate_given_click_near_target():
    data = generate(_config(seed=5, n_days=6, records_per_day=4000))
    clicks = np.array([r.click for r in data])
    purchases = np.array([r.purchase for r in data])
    pgc = purchases[clicks == 1].mean()
    assert abs(pgc - 0.15) < 0.03


def test_zero_shift_gives_equal_domain_click_rates():
    data = generate(_config(seed=6, period_shifts=(0.0, 0.0, 0.0), n_days=6, records_per_day=4000))
    rates, ns = [], []
    for pid in range(3):
        sub = filter_by_domain(data, {"period": pid})
        rates.append(np.mean([r.click for r in sub]))
        ns.append(len(sub))
    pooled = np.mean([r.click for r in data])
    for rate, n in zip(rates, ns):
        sigma = np.sqrt(pooled * (1 - pooled) / n)
        assert abs(rate - pooled) < 3 * sigma + 1e-12


def test_records_sorted_by_timestamp():
    data = generate(_config(seed=7))
    stamps = [r.timestamp for r in data]
    assert stamps == sorted(stamps)


def test_degenerate_config_rejected():
    with pytest.raises(DatasetError):
        _config(n_users=0).validate()
    with pytest.raises(DatasetError):
        _config(n_days=1).validate()
    with pytest.raises(DatasetError):
        _config(target_click_rate=1.5).validate()
    with pytest.raises(DatasetError):
        GeneratorConfig(n_users=5, n_items=5, n_days=3, domains=[]).validate()


def test_shift_vectors_must_be_finite():
    spec = DomainSpec("scene", 0, np.array([np.inf] * 16), np.zeros(16))
    with pytest.raises(DatasetError):
        spec.validate(16)


def _decile_click_distribution(item_ids, clicks, decile_of=None, n_deciles=10):
    """Clicks over item deciles, items ranked by their click counts (or by
    the reference ranking `decile_of`): (distribution, decile_of)."""
    if decile_of is None:
        counts = np.bincount(item_ids, weights=clicks, minlength=int(item_ids.max()) + 1)
        decile_of = np.empty(len(counts), dtype=np.int64)
        for d, chunk in enumerate(np.array_split(np.argsort(counts, kind="mergesort"), n_deciles)):
            decile_of[chunk] = d
    dist = np.bincount(decile_of[item_ids], weights=clicks, minlength=n_deciles)
    return dist / dist.sum(), decile_of


class TestDomainShiftMonotonicity:
    def test_symmetric_kl_grows_with_shift_magnitude(self):
        kls = []
        for mag in (0.5, 1.5, 3.0):
            data = generate(
                _config(seed=11, period_shifts=(0.0, mag), period_tilts=(0.0, mag / 2),
                        n_days=6, records_per_day=6000)
            )
            items = np.array([r.item_id for r in data])
            clicks = np.array([r.click for r in data])
            global_dist, deciles = _decile_click_distribution(items, clicks)
            sub = filter_by_domain(data, {"period": 1})
            sub_items = np.array([r.item_id for r in sub])
            sub_clicks = np.array([r.click for r in sub])
            shifted_dist, _ = _decile_click_distribution(sub_items, sub_clicks, decile_of=deciles)
            kls.append(kl_empirical(shifted_dist, global_dist) + kl_empirical(global_dist, shifted_dist))
        assert kls[0] < kls[1] < kls[2]


class TestSplit:
    def _uniform_days(self, n_days, per_day=24, repeat=1):
        recs = []
        for d in range(n_days):
            for h in range(per_day):
                recs.append(
                    InteractionRecord(
                        timestamp=d * SECONDS_PER_DAY + h * (SECONDS_PER_DAY // per_day),
                        user_id=0, item_id=0,
                        domain_ids={"scene": 0, "region": 0, "period": 0},
                        feature_ids=[0], click=0, purchase=0,
                    )
                )
        return records_reference.from_records(recs * repeat)

    def test_six_to_one_puts_last_day_in_test(self):
        recs = self._uniform_days(7)
        train, test = split_chronological(recs, (6, 1))
        assert all(r.timestamp < 6 * SECONDS_PER_DAY for r in train)
        assert all(r.timestamp >= 6 * SECONDS_PER_DAY for r in test)
        assert len(train) + len(test) == len(recs)

    def test_ratio_one_to_zero_gives_empty_test(self):
        train, test = split_chronological(self._uniform_days(3), (1, 0))
        assert len(test) == 0
        assert len(train) == 3 * 24

    def test_all_same_timestamp_goes_to_train(self):
        recs = self._uniform_days(1, per_day=1, repeat=5)
        train, test = split_chronological(recs, (6, 1))
        assert len(train) == 5 and len(test) == 0

    def test_partitions_are_disjoint_exhaustive_ordered(self):
        recs = self._uniform_days(5)
        train, test = split_chronological(recs, (3, 2))
        assert train == recs[:len(train)] and test == recs[len(train):]

    def test_empty_dataset_rejected(self):
        with pytest.raises(DatasetError):
            split_chronological(records_reference.from_records([]), (6, 1))

    def test_unsorted_rejected(self):
        recs = self._uniform_days(2)[::-1]
        with pytest.raises(DatasetError):
            split_chronological(recs, (1, 1))

    def test_bad_ratio_rejected(self):
        with pytest.raises(DatasetError):
            split_chronological(self._uniform_days(2), (0, 0))


record_strategy = st.builds(
    InteractionRecord,
    timestamp=st.integers(min_value=0, max_value=10**9),
    user_id=st.integers(min_value=0, max_value=10**6),
    item_id=st.integers(min_value=0, max_value=10**6),
    domain_ids=st.fixed_dictionaries(
        {t: st.integers(min_value=0, max_value=50) for t in ("scene", "region", "period")}
    ),
    feature_ids=st.lists(st.integers(min_value=0, max_value=100), max_size=6),
    click=st.integers(min_value=0, max_value=1),
    purchase=st.just(0),
)


_INT64 = np.iinfo(np.int64)


class TestJsonl:
    def test_empty_file_reads_as_empty_dataset(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        assert len(read_jsonl(p)) == 0

    def test_conversion_invariant_enforced_with_line_number(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        good = {"timestamp": 1, "user_id": 1, "item_id": 1,
                "domain_ids": {"scene": 0, "region": 0, "period": 0},
                "feature_ids": [1], "click": 1, "purchase": 0}
        bad = dict(good, click=0, purchase=1)
        p.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(DatasetError, match=":2:"):
            read_jsonl(p)

    GOOD = {"timestamp": 1, "user_id": 1, "item_id": 1,
            "domain_ids": {"scene": 0, "region": 0, "period": 0},
            "feature_ids": [1], "click": 1, "purchase": 0}

    @pytest.mark.parametrize("line", [
        "5",
        json.dumps(dict(GOOD, domain_ids=3)),
        json.dumps(dict(GOOD, feature_ids=5)),
        json.dumps(GOOD).replace('"timestamp": 1', '"timestamp": 1e400'),
        json.dumps(dict(GOOD, user_id="x")),
        json.dumps(dict(GOOD, user_id=2**70)),
        json.dumps(dict(GOOD, item_id=None)),
        json.dumps(dict(GOOD, feature_ids=[1, 2**63])),
        json.dumps(GOOD).replace('"user_id": 1', '"user_id": ' + "9" * 5000),
        "[" * 100_000 + "]" * 100_000,
        json.dumps(dict(GOOD, user_id=1.5)),
        json.dumps(dict(GOOD, user_id=True)),
        json.dumps(dict(GOOD, item_id="7")),
        json.dumps(dict(GOOD, feature_ids="37")),
        json.dumps(dict(GOOD, feature_ids={"1": 2})),
        json.dumps(dict(GOOD, feature_ids=[1, 2.5])),
        json.dumps(dict(GOOD, domain_ids={"scene": "0", "region": 0, "period": 0})),
        json.dumps(dict(GOOD, domain_ids={"scene": False, "region": 0, "period": 0})),
    ], ids=["not_object", "domain_ids_int", "feature_ids_int", "timestamp_inf", "user_id_str",
            "user_id_past_int64", "item_id_null", "feature_id_past_int64", "user_id_too_long", "nested_too_deep",
            "user_id_fraction", "user_id_bool", "item_id_digit_str", "feature_ids_str", "feature_ids_object",
            "feature_id_fraction", "domain_id_digit_str", "domain_id_bool"])
    def test_bad_field_types_report_line(self, tmp_path, line):
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps(self.GOOD) + "\n" + line + "\n")
        with pytest.raises(DatasetError, match=":2:"):
            read_jsonl(p)

    @pytest.mark.parametrize("field, value", [
        ("purchase", 0.9), ("purchase", False), ("click", True), ("click", "1"), ("click", 0.5),
        ("timestamp", 13.7), ("timestamp", "12"),
    ])
    def test_non_integer_timestamp_or_label_reports_line(self, tmp_path, field, value):
        """Timestamps and labels follow the id rule: no truncated fractions,
        bools or digit strings."""
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps(self.GOOD) + "\n" + json.dumps(dict(self.GOOD, **{field: value})) + "\n")
        with pytest.raises(DatasetError, match=":2:"):
            read_jsonl(p)

    def test_integral_float_timestamp_and_labels_are_read_as_ints(self, tmp_path):
        p = tmp_path / "floats.jsonl"
        p.write_text(json.dumps(dict(self.GOOD, timestamp=5.0, click=1.0, purchase=0.0)) + "\n")
        (rec,) = read_jsonl(p)
        assert (rec.timestamp, rec.click, rec.purchase) == (5, 1, 0)
        assert all(type(v) is int for v in (rec.timestamp, rec.click, rec.purchase))

    def test_integral_float_ids_are_read_as_ints(self, tmp_path):
        p = tmp_path / "floats.jsonl"
        p.write_text(json.dumps(dict(self.GOOD, user_id=3.0, feature_ids=[2.0, -1])) + "\n")
        (rec,) = read_jsonl(p)
        assert rec.user_id == 3 and type(rec.user_id) is int
        assert rec.feature_ids == [2, -1] and all(type(f) is int for f in rec.feature_ids)

    def test_the_first_bad_line_is_the_one_reported(self, tmp_path):
        """Lines are checked one at a time: a label error on line 2 is
        reported before the malformed JSON of line 3."""
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps(self.GOOD) + "\n" + json.dumps(dict(self.GOOD, click=2)) + "\n"
                     + '{"timestamp": 1,\n')
        with pytest.raises(DatasetError, match=r":2: click and purchase must be 0 or 1"):
            read_jsonl(p)

    @pytest.mark.parametrize("change, message", [
        ({"purchase": 2}, "click and purchase must be 0 or 1"),
        ({"click": 2, "domain_ids": {"scene": 0, "region": 0}}, "click and purchase must be 0 or 1"),
        ({"click": 0, "purchase": 1}, "purchase without click violates the impression->click->conversion path"),
        ({"click": 0, "purchase": 1, "domain_ids": {"region": 0}},
         "purchase without click violates the impression->click->conversion path"),
        ({"domain_ids": {"region": 0, "device": 3}}, "domain_ids missing topics: ['scene', 'period']"),
        ({"domain_ids": {"scene": 0, "region": 0, "period": 0, "device": "x"}}, "expected an integer, got str 'x'"),
    ], ids=["purchase_label", "click_label_and_missing_topic", "purchase_without_click", "purchase_without_click_and_topic", "missing_topics",
            "bad_extra_topic"])
    def test_each_check_keeps_its_message(self, tmp_path, change, message):
        """Each check's message, and on a line that fails two checks, the
        message of the first: labels, then purchase after click, then
        topics."""
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps(dict(self.GOOD, **change)) + "\n")
        with pytest.raises(DatasetError) as e:
            read_jsonl(p)
        assert str(e.value) == f"{p}:1: {message}"

    def test_malformed_json_reports_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"timestamp": 1,\n')
        with pytest.raises(DatasetError, match=":1:"):
            read_jsonl(p)

    def test_missing_keys_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"timestamp": 1}\n')
        with pytest.raises(DatasetError, match="missing keys"):
            read_jsonl(p)

    @settings(max_examples=25, deadline=None)
    @given(records=st.lists(record_strategy, max_size=40))
    def test_round_trip_preserves_content(self, records, tmp_path_factory):
        p = tmp_path_factory.mktemp("jsonl") / "data.jsonl"
        dataset = records_reference.from_records(records)
        write_jsonl(dataset, p)
        assert read_jsonl(p) == dataset

    def test_large_random_round_trip(self, tmp_path):
        data = generate(_config(seed=13))[:1000]
        p = tmp_path / "data.jsonl"
        write_jsonl(data, p)
        assert read_jsonl(p) == data

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_written_bytes_are_the_reference_formatter(self, data, tmp_path_factory):
        """`write_jsonl` writes what one f-string per row writes, at feature
        widths 0-6 with rows padded by -1, ids up to the int64 bounds, and
        no rows at all."""
        n, width = data.draw(st.integers(0, 30), "rows"), data.draw(st.integers(0, 6), "width")
        ids = st.integers(_INT64.min, _INT64.max) | st.sampled_from([_INT64.min, _INT64.max, -1, 0])
        cols = {c: data.draw(hnp.arrays(np.int64, (n, width) if c == "features" else n, elements=ids), c)
                for c in datagen.COLUMNS}
        for row, used in enumerate(data.draw(st.lists(st.integers(0, width), min_size=n, max_size=n), "used")):
            cols["features"][row, used:] = -1
        dataset = Dataset(**cols)
        p = tmp_path_factory.mktemp("oracle") / "data.jsonl"
        write_jsonl(dataset, p)
        assert p.read_bytes() == records_reference.jsonl_bytes(dataset)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_written_bytes_at_a_chunk_boundary(self, tmp_path, extra):
        """A dataset of exactly one chunk and one of a chunk and one row, with
        the int64 bounds on either side of the boundary."""
        n = datagen._JSONL_CHUNK + extra
        base = generate(_config(seed=15, n_days=2, records_per_day=100))
        dataset = Dataset(**{c: np.resize(a, (n, *a.shape[1:])) for c, a in base.columns().items()})
        dataset.user[n - 2 : n] = [_INT64.min, _INT64.max]
        dataset.features[n - 1] = [_INT64.max, -1, -1, -1]
        write_jsonl(dataset, tmp_path / "data.jsonl")
        assert (tmp_path / "data.jsonl").read_bytes() == records_reference.jsonl_bytes(dataset)

    def test_empty_dataset_writes_an_empty_file_and_a_hit(self, tmp_path, monkeypatch):
        empty = records_reference.from_records([])
        path = tmp_path / "empty.jsonl"
        write_jsonl(empty, path)
        assert path.read_bytes() == b"" == records_reference.jsonl_bytes(empty)
        monkeypatch.setattr(datagen, "_parse_jsonl", None)  # a hit parses nothing
        assert read_dataset(path) == empty


def test_window_by_days():
    data = generate(_config(seed=14, n_days=6))
    rows = np.arange(len(data))
    win = data.take(window_by_days(data, rows, 2))
    days = {r.timestamp // SECONDS_PER_DAY for r in win}
    assert days == {4, 5}
    assert np.array_equal(window_by_days(data, rows, 0), rows)
    # a selection is windowed on its own last days
    early = rows[data.timestamp < 3 * SECONDS_PER_DAY]
    assert set(data.timestamp[window_by_days(data, early, 1)] // SECONDS_PER_DAY) == {2}


class TestSidecar:
    """`read_dataset` must give what a fresh parse gives, whatever state the
    sidecar is in; only a matching sidecar saves the parse."""

    @pytest.fixture
    def data(self, tmp_path, monkeypatch):
        path = tmp_path / "data.jsonl"
        write_jsonl(generate(_config(seed=21, n_days=2, records_per_day=300)), path)
        parses = []
        parse = datagen._parse_jsonl

        def counted(lines, p):
            parses.append(p)
            return parse(lines, p)

        monkeypatch.setattr(datagen, "_parse_jsonl", counted)
        return path, parses

    def test_written_sidecar_is_a_hit(self, data):
        path, parses = data
        assert read_dataset(path) == read_jsonl(path)
        assert len(parses) == 1  # read_jsonl's own parse

    def test_edited_label_is_read_and_sidecar_rewritten(self, data):
        path, parses = data
        lines = path.read_text(encoding="utf-8").splitlines()
        row = next(j for j, line in enumerate(lines) if '"click":0' in line)
        lines[row] = lines[row].replace('"click":0', '"click":1')
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = read_dataset(path)
        assert got.click[row] == 1 and got == read_jsonl(path)
        assert len(parses) == 2
        assert read_dataset(path) == got and len(parses) == 2

    def _tamper(self, path, how=None):
        """Rewrite the sidecar of `path` by hand, with the key the `datagen`
        docstrings give it (version, JSONL sha256, wrapping uint64 sum of the
        column words) and one part wrong; `how=None` gets every part right."""
        side = sidecar_path(path)
        cols = {c: np.array(a) for c, a in load_checkpoint(side)[0].items()}
        version, digest = datagen.SIDECAR_VERSION, hashlib.sha256(path.read_bytes()).hexdigest()
        if how == "version":
            version += 1
        elif how == "missing_column":
            del cols["purchase"]
        elif how == "wrong_dtype":
            cols["click"] = cols["click"].astype(np.float64)
        elif how == "short_column":
            cols["item"] = cols["item"][:-1]
        elif how == "digest":
            digest = "0" * 64
        words = sum(int(a.view(np.uint64).sum(dtype=np.uint64)) for a in cols.values()) % 2**64
        if how == "payload":  # an id changed under the key of the original columns
            cols["user"][len(cols["user"]) // 2] += 1
        side.write_bytes(checkpoint_bytes(list(cols.items()), f"{version}:{digest}:{words:016x}"))

    def test_hand_written_sidecar_is_a_hit(self, data):
        """The hand-written key is the real one, so each tampered case of
        the next test misses for its one wrong part."""
        path, parses = data
        self._tamper(path)
        assert read_dataset(path) == read_jsonl(path)
        assert len(parses) == 1  # read_jsonl's own parse

    @pytest.mark.parametrize("how", ["truncated", "zero_bytes", "garbage", "directory", "version", "missing_column",
                                     "wrong_dtype", "short_column", "digest", "payload"])
    def test_bad_sidecar_is_a_miss(self, data, how):
        path, parses = data
        side = sidecar_path(path)
        if how == "truncated":
            side.write_bytes(side.read_bytes()[: side.stat().st_size // 2])
        elif how == "zero_bytes":
            side.write_bytes(b"")
        elif how == "garbage":
            side.write_bytes(b"PK\x03\x04" + bytes(range(256)) * 4)
        elif how == "directory":
            side.unlink()
            side.mkdir()
        else:
            self._tamper(path, how)
        got = read_dataset(path)
        assert len(parses) == 1
        assert got == read_jsonl(path)
        if how != "directory":  # a directory in the way cannot be replaced
            assert read_dataset(path) == got and len(parses) == 2

    def test_hit_columns_are_read_only_views(self, data):
        path, parses = data
        got = read_dataset(path)
        assert parses == []
        for c, a in got.columns().items():
            assert not a.flags.writeable and not a.flags.owndata, c
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_a_leftover_npz_sidecar_is_never_read(self, data):
        """A version-1 `.cols.npz` beside the JSONL, one that version 1 would
        take for a hit, is ignored: without the current sidecar the file is
        parsed."""
        path, parses = data
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        with open(path.with_name(path.name + ".cols.npz"), "wb") as f:
            np.savez(f, version=np.int64(1), sha256=np.array(digest), **read_jsonl(path).columns())
        sidecar_path(path).unlink()
        assert read_dataset(path) == read_jsonl(path) and len(parses) == 3

    @settings(max_examples=40, deadline=None)
    @given(cut=st.none() | st.integers(min_value=0), flip=st.integers(min_value=0))
    def test_any_damaged_sidecar_is_a_miss(self, tmp_path_factory, cut, flip):
        """One byte flipped, then, unless `cut` is None, the file cut short.
        A flip alone keeps the length, so a flip in the payload is caught by
        the word sum of the key alone."""
        path = tmp_path_factory.mktemp("side") / "data.jsonl"
        dataset = generate(_config(seed=22, n_days=2, records_per_day=50))
        write_jsonl(dataset, path)
        side = sidecar_path(path)
        raw = bytearray(side.read_bytes())
        raw[flip % len(raw)] ^= 0x5A
        side.write_bytes(bytes(raw if cut is None else raw[: cut % (len(raw) + 1)]))
        assert read_dataset(path) == dataset

    def test_bad_line_writes_no_sidecar(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"timestamp": 1}\n')
        with pytest.raises(DatasetError, match=":1:"):
            read_dataset(path)
        assert not sidecar_path(path).exists()

    def test_unwritable_directory_reads_without_sidecar(self, data, monkeypatch):
        path, parses = data
        sidecar_path(path).unlink()

        def unwritable(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(os, "open", unwritable)
        assert read_dataset(path) == read_jsonl(path)
        assert not sidecar_path(path).exists()
        assert not [p for p in path.parent.iterdir() if p.name.endswith(".tmp")]

    def test_failed_rename_leaves_no_temporary_file(self, data, monkeypatch):
        path, _ = data
        sidecar_path(path).unlink()

        def refuse(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(os, "replace", refuse)
        assert read_dataset(path) == read_jsonl(path)
        assert sorted(p.name for p in path.parent.iterdir()) == ["data.jsonl"]


class TestDatasetRows:
    def test_rows_are_plain_int_records(self):
        data = generate(_config(seed=23, n_days=2, records_per_day=50))
        rec = data[np.int64(3)]
        assert rec == list(data)[3] == data[3 - len(data)]
        assert rec.domain_ids == {"scene": int(data.scene[3]), "region": int(data.region[3]),
                                  "period": int(data.period[3])}
        assert all(type(v) is int for v in (rec.timestamp, rec.user_id, rec.item_id, *rec.domain_ids.values(),
                                             *rec.feature_ids, rec.click, rec.purchase))
        assert list(rec.domain_ids) == ["scene", "region", "period"]
        assert json.loads(json.dumps(rec.feature_ids)) == data.features[3].tolist()
        with pytest.raises(IndexError):
            data[len(data)]

    def test_parser_pads_short_feature_rows(self, tmp_path):
        p = tmp_path / "ragged.jsonl"
        p.write_text("".join(json.dumps(dict(TestJsonl.GOOD, timestamp=t, feature_ids=feats)) + "\n"
                             for t, feats in enumerate(([5], [], [1, 2, 3]))))
        data = read_jsonl(p)
        assert data.features.tolist() == [[5, -1, -1], [-1, -1, -1], [1, 2, 3]]
        assert data.features.dtype == np.int64
        assert data.timestamp.tolist() == [0, 1, 2] and data.click.tolist() == [1, 1, 1]


# --- column operations against the record-list reference ------------------

EXTRA_TOPICS = {"device": st.integers(min_value=0, max_value=3), "city": st.integers(min_value=-2, max_value=2)}
timestamps = st.one_of(
    st.integers(min_value=0, max_value=6).map(lambda d: d * SECONDS_PER_DAY // 2),  # ties at a cut
    st.integers(min_value=-4, max_value=4),  # ties, and cuts between negative stamps
    st.integers(min_value=-SECONDS_PER_DAY, max_value=6 * SECONDS_PER_DAY),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
)
column_records = st.builds(
    InteractionRecord,
    timestamp=timestamps,
    user_id=st.integers(min_value=0, max_value=3),  # few users
    item_id=st.integers(min_value=-1, max_value=40),
    domain_ids=st.fixed_dictionaries({t: st.integers(min_value=0, max_value=2) for t in ("scene", "region", "period")},
                                     optional=EXTRA_TOPICS),
    feature_ids=st.lists(st.integers(min_value=-1, max_value=9), max_size=7),
    click=st.integers(min_value=0, max_value=1),
    purchase=st.integers(min_value=0, max_value=1),
)
selectors = st.dictionaries(st.sampled_from(("scene", "region", "period")), st.integers(min_value=0, max_value=3),
                            max_size=3)


def _rows(records, width):
    """Comparable rows: the Dataset's columns, features padded to `width`."""
    return [(r.timestamp, r.user_id, r.item_id, r.domain_ids["scene"], r.domain_ids["region"],
             r.domain_ids["period"], tuple(r.feature_ids) + (-1,) * (width - len(r.feature_ids)), r.click,
             r.purchase) for r in records]


def _assert_same(dataset, records, width):
    assert _rows(dataset, width) == _rows(records, width)


@settings(max_examples=300, deadline=None)
@given(records=st.lists(column_records, max_size=40), sort=st.booleans(),
       ratio=st.tuples(st.integers(min_value=-1, max_value=4), st.integers(min_value=-1, max_value=4)),
       window=st.integers(min_value=-1, max_value=8), selector=selectors,
       n_feature_cols=st.integers(min_value=0, max_value=6))
def test_column_ops_equal_record_reference(records, sort, ratio, window, selector, n_feature_cols):
    if sort:
        records = sorted(records, key=lambda r: r.timestamp)
    data = records_reference.from_records(records)
    width = data.features.shape[1]

    try:
        want = records_reference.split_chronological(records, ratio)
    except DatasetError:
        with pytest.raises(DatasetError):
            split_chronological(data, ratio)
    else:
        for got_part, want_part in zip(split_chronological(data, ratio), want):
            _assert_same(got_part, want_part, width)

    _assert_same(filter_by_domain(data, selector), records_reference.filter_by_domain(records, selector), width)
    got_rows, want_rows = domain_rows(data, selector), records_reference.domain_rows(records, selector)
    assert got_rows.dtype == want_rows.dtype and np.array_equal(got_rows, want_rows)
    _assert_same(data.take(window_by_days(data, np.arange(len(data)), window)),
                 records_reference.window_by_days(records, window), width)
    _assert_same(data.take(window_by_days(data, got_rows, window)),
                 records_reference.window_by_days(records_reference.filter_by_domain(records, selector), window), width)

    space = FeatureSpace(n_users=4, n_items=40, n_scenes=3, n_regions=3, n_periods=3,
                         n_feature_cols=n_feature_cols)
    got, want = encode_records(data, space), records_reference.encode_records(records, space)
    for name, g in got.columns().items():
        w = getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w), name


@pytest.mark.parametrize("stamps, ratio", [((-4, -2, 0), (1, 2)), ((-9, -7, -5, -2), (2, 3)), ((0, 5, 5, 10), (1, 1)),
                                           ((2**62 + 1, 2**62 + 2), (1, 1)), ((-(2**63), 2**63 - 1), (1, 3)),
                                           ((-(2**63), 2**63 - 1), (1, 0))])
def test_cut_matches_the_reference(stamps, ratio):
    """Stamps at or next to the cut: negative fractional cuts, ties and
    int64 extremes, where float rounding of the cut matters."""
    recs = [InteractionRecord(t, 0, 0, {"scene": 0, "region": 0, "period": 0}, [], 0, 0) for t in stamps]
    for got, want in zip(split_chronological(records_reference.from_records(recs), ratio),
                         records_reference.split_chronological(recs, ratio)):
        _assert_same(got, want, 0)


def test_unsorted_rows_rejected_like_the_reference():
    recs = [InteractionRecord(t, 0, 0, {"scene": 0, "region": 0, "period": 0}, [], 0, 0) for t in (5, 3, 9)]
    with pytest.raises(DatasetError, match="sorted"):
        records_reference.split_chronological(recs, (1, 1))
    with pytest.raises(DatasetError, match="sorted"):
        split_chronological(records_reference.from_records(recs), (1, 1))
