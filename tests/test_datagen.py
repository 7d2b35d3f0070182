import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iakrec.datagen import (
    DatasetError,
    DomainSpec,
    GeneratorConfig,
    InteractionRecord,
    SECONDS_PER_DAY,
    filter_by_domain,
    generate,
    make_domains,
    read_jsonl,
    split_chronological,
    window_by_days,
    write_jsonl,
)
from iakrec.evals import item_decile_click_distribution, sym_kl


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


def test_click_rate_hits_target():
    data = generate(_config(seed=1, target_click_rate=0.06))
    rate = np.mean([r.click for r in data])
    assert 0.048 <= rate <= 0.072


def test_purchase_only_after_click():
    for r in generate(_config(seed=2)):
        assert not (r.purchase == 1 and r.click == 0)
        r.validate()


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
            global_dist, deciles = item_decile_click_distribution(items, clicks)
            sub = filter_by_domain(data, {"period": 1})
            sub_items = np.array([r.item_id for r in sub])
            sub_clicks = np.array([r.click for r in sub])
            shifted_dist, _ = item_decile_click_distribution(sub_items, sub_clicks, decile_of=deciles)
            kls.append(sym_kl(shifted_dist, global_dist))
        assert kls[0] < kls[1] < kls[2]


class TestSplit:
    def _uniform_days(self, n_days, per_day=24):
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
        return recs

    def test_six_to_one_puts_last_day_in_test(self):
        recs = self._uniform_days(7)
        train, test = split_chronological(recs, (6, 1))
        assert all(r.timestamp < 6 * SECONDS_PER_DAY for r in train)
        assert all(r.timestamp >= 6 * SECONDS_PER_DAY for r in test)
        assert len(train) + len(test) == len(recs)

    def test_ratio_one_to_zero_gives_empty_test(self):
        train, test = split_chronological(self._uniform_days(3), (1, 0))
        assert test == []
        assert len(train) == 3 * 24

    def test_all_same_timestamp_goes_to_train(self):
        recs = self._uniform_days(1, per_day=1) * 5
        train, test = split_chronological(recs, (6, 1))
        assert len(train) == 5 and test == []

    def test_partitions_are_disjoint_exhaustive_ordered(self):
        recs = self._uniform_days(5)
        train, test = split_chronological(recs, (3, 2))
        assert train + test == recs

    def test_empty_dataset_rejected(self):
        with pytest.raises(DatasetError):
            split_chronological([], (6, 1))

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


class TestJsonl:
    def test_empty_file_reads_as_empty_dataset(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        assert read_jsonl(p) == []

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
        write_jsonl(records, p)
        assert read_jsonl(p) == records

    def test_large_random_round_trip(self, tmp_path):
        data = generate(_config(seed=13))[:1000]
        p = tmp_path / "data.jsonl"
        write_jsonl(data, p)
        assert read_jsonl(p) == data


def test_window_by_days():
    data = generate(_config(seed=14, n_days=6))
    win = window_by_days(data, 2)
    days = {r.timestamp // SECONDS_PER_DAY for r in win}
    assert days == {4, 5}
    assert window_by_days(data, 0) == data
