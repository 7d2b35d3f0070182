import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iakrec.config import RunConfig
from iakrec.datagen import generate, split_chronological
from iakrec.evals import (
    MetricError,
    SplitPass,
    auc,
    binned_mi,
    encoder_channel_outputs,
    histogram2d,
    kl_empirical,
    report_from_scores,
    score_adapted,
    score_backbone,
    score_label_decile_kl,
)
from iakrec.autodiff import Tensor
from iakrec.iak import IAKAdapter, IAKConfig
from iakrec.models import FeatureSpace, ModelConfig, build_model, encode_records
from iakrec.router import ZERO_SHOT, DomainRouter, ScoreRequest, encode_request


def brute_force_auc(scores, labels):
    """O(n^2) oracle: fraction of (pos, neg) pairs ranked correctly, ties
    counting half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        return None
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestAUC:
    def test_perfect_ranking(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_is_half(self):
        assert auc([0.3] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_hand_example(self):
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75, abs=1e-15)

    def test_single_class_reported_absent(self):
        assert auc([0.1, 0.2], [1, 1]) is None

    def test_rejects_bad_labels(self):
        with pytest.raises(MetricError):
            auc([0.1, 0.2], [0, 2])

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 400))
        # quantize so ties actually occur
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) == pytest.approx(brute_force_auc(scores, labels), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_property_matches_brute_force(self, data):
        n = data.draw(st.integers(min_value=2, max_value=60))
        scores = data.draw(
            st.lists(st.floats(min_value=0, max_value=1, width=32), min_size=n, max_size=n)
        )
        labels = data.draw(st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n))
        expected = brute_force_auc(scores, labels)
        got = auc(scores, labels)
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected, abs=1e-12)


class TestBinnedMI:
    def test_independent_uniform_is_near_zero(self):
        rng = np.random.default_rng(0)
        x = rng.random(10**5)
        y = rng.random(10**5)
        assert binned_mi(x, y, bins=10) <= 0.01

    def test_identity_mapping_is_ln_bins(self):
        rng = np.random.default_rng(1)
        x = rng.random(20000)
        assert binned_mi(x, x, bins=10) == pytest.approx(math.log(10), rel=0.01)

    def test_negation_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=5000)
        assert binned_mi(x, -x) == pytest.approx(binned_mi(x, x), rel=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=4000)
        y = x + rng.normal(size=4000)
        assert binned_mi(x, y) == pytest.approx(binned_mi(y, x), abs=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.normal(size=500)
            y = rng.normal(size=500)
            assert binned_mi(x, y) >= -1e-12

    def test_multivariate_averages_over_dims(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3000, 4))
        y = np.stack([x.mean(axis=1), rng.normal(size=3000)], axis=1)
        per_dim = [binned_mi(x, y[:, j]) for j in range(2)]
        assert binned_mi(x, y) == pytest.approx(np.mean(per_dim), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            binned_mi([], [])

    def test_constant_signal_carries_no_information(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=1000)
        assert binned_mi(x, np.zeros(1000)) == pytest.approx(0.0, abs=1e-12)


class TestHistogram2D:
    def test_marginals_consistent(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=1000), rng.normal(size=1000)
        joint = histogram2d(x, y, bins=8)
        assert joint.shape == (8, 8)
        assert joint.sum() == 1000
        # equal-frequency bins: every row and column holds an eighth of the samples
        np.testing.assert_array_equal(joint.sum(axis=1), np.full(8, 125.0))
        np.testing.assert_array_equal(joint.sum(axis=0), np.full(8, 125.0))


class TestKLEmpirical:
    def test_identical_histograms_are_zero(self):
        p = np.array([0.2, 0.5, 0.3])
        assert kl_empirical(p, p) == pytest.approx(0.0, abs=1e-6)
        assert kl_empirical(p, p) >= 0.0

    def test_point_mass_vs_uniform(self):
        assert kl_empirical([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-6)

    def test_asymmetry_witnessed(self):
        p = np.array([0.9, 0.1])
        q = np.array([0.5, 0.5])
        assert kl_empirical(p, q) != kl_empirical(q, p)

    def test_mismatched_bins_rejected(self):
        with pytest.raises(MetricError):
            kl_empirical([1.0, 0.0], [1.0, 0.0, 0.0])

    @settings(max_examples=50, deadline=None)
    @given(
        p=st.lists(st.floats(min_value=0, max_value=10), min_size=2, max_size=12),
        q=st.lists(st.floats(min_value=0, max_value=10), min_size=2, max_size=12),
    )
    def test_non_negative_for_smoothed_inputs(self, p, q):
        p, q = np.array(p), np.array(q)
        if len(p) != len(q) or p.sum() == 0:
            return
        assert kl_empirical(p, q) >= 0.0


class TestDiagnostics:
    def test_score_label_kl_drops_when_scores_match_labels(self):
        rng = np.random.default_rng(1)
        items = rng.integers(0, 40, size=4000)
        rate = (items % 7) / 14.0
        labels = (rng.random(4000) < rate).astype(float)
        matched = score_label_decile_kl(rate, labels, items)
        flat = score_label_decile_kl(np.full(4000, 0.5), labels, items)
        assert matched < flat

    def test_channel_is_the_encoder_stage_the_adapter_runs(self):
        # an identity read-out makes the adapter's correction its encoder
        # stage; fed each record's weight sample, it must give the channel's row
        adapter = IAKAdapter(32, 7, IAKConfig(d_e=7, decoder_hidden=()), {"period": 0}, seed=3)
        adapter.decoder_out.w.data[:] = np.eye(7)
        rep = np.random.default_rng(4).normal(size=(64, 32))
        channel = encoder_channel_outputs(adapter, rep, np.random.default_rng(5))
        draws = np.random.default_rng(5)  # the channel's draws: every weight sample, then every bias sample
        eps_w = draws.standard_normal((64, 32, 7))
        eps_b = draws.standard_normal((64, 7))
        ran = np.concatenate([adapter.correction(Tensor(rep[i:i + 1]), (eps_w[i], eps_b[i])).data for i in range(64)])
        np.testing.assert_allclose(channel, ran, rtol=1e-12, atol=1e-14)


def test_report_from_scores():
    from iakrec.models import EncodedBatch

    n = 10
    enc = EncodedBatch(
        user=np.zeros(n, dtype=np.int64), item=np.zeros(n, dtype=np.int64),
        scene=np.zeros(n, dtype=np.int64), region=np.zeros(n, dtype=np.int64),
        period=np.zeros(n, dtype=np.int64), features=np.zeros((n, 4), dtype=np.int64),
        click=np.array([1, 1, 0, 0, 0, 0, 0, 0, 0, 0], dtype=float),
        purchase=np.zeros(n),
    )
    rep = report_from_scores(np.linspace(0, 1, n)[::-1], np.linspace(0, 1, n), enc, "ds", "m", seed=3)
    assert rep.ctr_auc == 1.0
    assert rep.ctcvr_auc is None  # no purchase positives
    assert rep.n_pos_ctr == 2 and rep.n_neg_ctr == 8
    assert rep.seed == 3


class TestScoring:
    """The batch scorers agree bit for bit with the router on single rows."""

    SPACE = FeatureSpace(n_users=30, n_items=20, n_scenes=2, n_regions=2, n_periods=3)

    def _router(self, kind):
        backbone = build_model(ModelConfig(kind=kind, hidden_sizes=(10, 5)), self.SPACE, seed=0)
        adapters = {}
        for period, nudge in ((0, 0.05), (1, -0.08)):
            adapter = IAKAdapter(backbone.rep_dim, backbone.n_heads, IAKConfig(d_e=4, decoder_hidden=(6,)),
                                 {"period": period}, seed=period + 1)
            adapter.decoder_out.w.data[:] = nudge
            adapter.decoder_out.b.data[:] = nudge
            adapters[f"period={period}"] = adapter
        return DomainRouter(backbone, adapters)

    @staticmethod
    def _requests():
        rng = np.random.default_rng(0)
        return [
            ScoreRequest(
                user_id=int(rng.integers(-1, 35)), item_id=int(rng.integers(0, 25)),
                domain_ids={"scene": int(rng.integers(0, 2)), "region": int(rng.integers(0, 2)), "period": p},
                feature_ids=[int(x) for x in rng.integers(0, 8, size=4)],
            )
            for p in (0, 1, 2) for _ in range(8)
        ]

    @pytest.mark.parametrize("kind", ["base", "esmm", "mmoe", "shared_bottom"])
    def test_scores_match_router_on_single_rows(self, kind):
        router = self._router(kind)
        zero_shot = DomainRouter(router.backbone, {})
        served = set()
        for req in self._requests():
            enc = encode_request(req, self.SPACE)
            resp = router.score(req)
            served.add(resp.served_by)
            if resp.served_by == "zero_shot":
                p_ctr, p_ctcvr = score_backbone(router.backbone, enc, 1)
            else:
                p_ctr, p_ctcvr = score_adapted(router.backbone, router.adapters[resp.served_by], enc, 1)
            assert (p_ctr[0], p_ctcvr[0]) == (resp.p_ctr, resp.p_ctcvr)
            base = zero_shot.score(req)
            p_ctr, p_ctcvr = score_backbone(router.backbone, enc, 1)
            assert (p_ctr[0], p_ctcvr[0]) == (base.p_ctr, base.p_ctcvr)
        assert served == {"period=0", "period=1", "zero_shot"}


class TestSplitPass:
    """Slices of one full-split pass score like a backbone pass over each
    slice alone. The split is longer than the 4096-row chunk, so the two
    sides run the backbone over different chunks."""

    CFG = RunConfig({"datagen.n_users": "80", "datagen.n_items": "40", "datagen.n_days": "2",
                     "datagen.records_per_day": "3000", "datagen.period_shifts": "0.5,-0.5,0.8"})

    @pytest.mark.parametrize("kind", ["base", "esmm", "mmoe", "shared_bottom"])
    def test_slices_match_per_slice_scoring(self, kind):
        records = generate(self.CFG.generator_config())
        space = self.CFG.feature_space()
        encoded = encode_records(records, space)
        backbone = build_model(ModelConfig(kind=kind, hidden_sizes=(10, 5)), space, seed=0)
        backbone.set_trainable(False)
        adapters = {}
        for period in (0, 1, 2):
            adapter = IAKAdapter(backbone.rep_dim, backbone.n_heads, IAKConfig(d_e=4, decoder_hidden=(6,)),
                                 {"period": period}, seed=period + 1)
            adapter.decoder_out.w.data[:] = 0.1 * (period - 1)
            adapter.decoder_out.b.data[:] = 0.05 * (period + 1)
            adapters[f"period={period}"] = adapter
        split = SplitPass(backbone, records, encoded)
        assert len(encoded) > 4096
        slices = list(split.slices({key: a.domain_key for key, a in adapters.items()}))
        assert [key for key, _, _ in slices] == sorted(adapters)
        for key, idx, sub in slices:
            for got, want in ((split.adapted(adapters[key], idx), score_adapted(backbone, adapters[key], sub)),
                              (split.zero_shot(idx), score_backbone(backbone, sub))):
                for g, w, labels in zip(got, want, (sub.click, sub.purchase)):
                    np.testing.assert_allclose(g, w, rtol=0, atol=1e-15)
                    assert auc(g, labels) == auc(w, labels)


def test_served_equals_evaluated_on_recorded_test_rows():
    """A request built from a recorded test row's ids is served with the
    probabilities eval gives that row, through the path the router took:
    the split's zero-shot pass or the served adapter's slice. The only
    difference is BLAS rounding between a 1-row product and a chunked one."""
    cfg = RunConfig({"datagen.n_users": "40", "datagen.n_items": "30", "datagen.n_days": "3",
                     "datagen.records_per_day": "600", "datagen.period_shifts": "0.5,-0.5,0.8"})
    space = cfg.feature_space()
    _, test = split_chronological(generate(cfg.generator_config()), cfg.get_ratio("datagen.split_ratio"))
    backbone = build_model(ModelConfig(kind="base", hidden_sizes=(10, 5)), space, seed=0)
    adapters = {}
    for key, domain in (("period=0", {"period": 0}), ("period=1", {"period": 1}), ("period=1,scene=0",
                                                                                 {"period": 1, "scene": 0})):
        adapter = IAKAdapter(backbone.rep_dim, backbone.n_heads, IAKConfig(d_e=4, decoder_hidden=(6,)), domain,
                             seed=len(adapters) + 1)
        adapter.decoder_out.w.data[:] = 0.1 * (len(adapters) - 1)
        adapter.decoder_out.b.data[:] = 0.05 * (len(adapters) + 1)
        adapters[key] = adapter
    router = DomainRouter(backbone, adapters)
    split = SplitPass(backbone, test, encode_records(test, space))
    evaluated = {ZERO_SHOT: split.zero_shot()}
    for key, idx, _ in split.slices({key: a.domain_key for key, a in adapters.items()}):
        evaluated[key] = tuple(np.full(len(test), np.nan) for _ in range(2))
        for full, part in zip(evaluated[key], split.adapted(adapters[key], idx)):
            full[idx] = part
    served = []
    for i, row in enumerate(test):
        resp = router.score(ScoreRequest(row.user_id, row.item_id, row.domain_ids, row.feature_ids))
        p_ctr, p_ctcvr = evaluated[resp.served_by]
        assert abs(resp.p_ctr - p_ctr[i]) <= 1e-12 and abs(resp.p_ctcvr - p_ctcvr[i]) <= 1e-12, (i, resp)
        served.append(resp.served_by)
    assert len(served) > 100 and set(served) == {ZERO_SHOT, *adapters}
