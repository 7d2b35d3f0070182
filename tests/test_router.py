import functools
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iakrec.autodiff import NonFiniteError
from iakrec.checkpoint import load_checkpoint, save_checkpoint
from iakrec.config import RunConfig
from iakrec.datagen import TOPICS, domain_key, domain_mask, generate, parse_domain_key
from iakrec.evals import SplitPass
from iakrec import autodiff as ad
from iakrec.iak import IAKAdapter, IAKConfig, adapted_prediction, adapter_graph
from iakrec.models import MODEL_KINDS, FeatureSpace, ModelConfig, MultiTaskModel, build_model, encode_records
from iakrec.router import (
    DomainRouter,
    RequestError,
    ScoreRequest,
    adapters_from_arrays,
    encode_request,
    request_from_json,
    serve,
)

import records_reference

SPACE = FeatureSpace(n_users=30, n_items=20, n_scenes=2, n_regions=2, n_periods=3)


def _backbone(seed=0):
    return build_model(ModelConfig(kind="base", hidden_sizes=(10, 5)), SPACE, seed=seed)


def _adapter(backbone, period, seed, nudge=0.0):
    cfg = IAKConfig(d_e=4, decoder_hidden=(6,))
    adapter = IAKAdapter(backbone.rep_dim, backbone.n_heads, cfg, {"period": period}, seed=seed)
    if nudge:
        adapter.decoder_out.w.data[:] = nudge
        adapter.decoder_out.b.data[:] = nudge
    return adapter


@pytest.fixture
def router():
    backbone = _backbone()
    adapters = {
        "period=0": _adapter(backbone, 0, seed=1, nudge=0.05),
        "period=1": _adapter(backbone, 1, seed=2, nudge=-0.08),
    }
    return DomainRouter(backbone, adapters)


def _request(period=1, scene=0, region=1, user=3, item=4):
    return ScoreRequest(
        user_id=user, item_id=item,
        domain_ids={"scene": scene, "region": region, "period": period},
        feature_ids=[1, 2, 3, 4],
    )


@pytest.mark.parametrize("n_feature_cols", [2, 4, 6], ids=["cut", "same", "padded"])
def test_request_is_the_fitted_row_of_its_recorded_impression(n_feature_cols):
    """A request carrying a recorded row's ids reaches the model as that row
    of the fitted dataset, on every id and feature column."""
    cfg = RunConfig({"datagen.n_users": "20", "datagen.n_items": "15", "datagen.n_days": "2",
                     "datagen.records_per_day": "40"})
    data = generate(cfg.generator_config())
    space = FeatureSpace(n_users=20, n_items=15, n_scenes=2, n_regions=2, n_periods=3, n_feature_cols=n_feature_cols)
    fitted = encode_records(data, space)
    for i, row in enumerate(data):
        enc = encode_request(ScoreRequest(row.user_id, row.item_id, row.domain_ids, row.feature_ids), space)
        for name in ("user", "item", "scene", "region", "period", "features"):
            got, want = getattr(enc, name), getattr(fitted, name)[i:i + 1]
            assert got.dtype == want.dtype and np.array_equal(got, want), (i, name)
        assert (enc.timestamp.tolist(), enc.click.tolist(), enc.purchase.tolist()) == ([0], [0], [0])


class TestRouteScore:
    def test_selected_equals_standalone_adapter_bit_exact(self, router):
        req = _request(period=1)
        resp = router.score(req)
        assert resp.served_by == "period=1"
        out = router.backbone.forward_full(encode_request(req, SPACE))
        adapter = router.adapters["period=1"]
        pred = adapted_prediction(router.backbone, adapter, out.representation, out.logits).prediction
        assert resp.p_ctr == float(pred.p_ctr[0, 0])
        assert resp.p_ctcvr == float(pred.p_ctcvr[0, 0])

    def test_non_selected_adapter_perturbation_is_invisible(self, router):
        req = _request(period=0)
        before = router.score(req)
        for p in router.adapters["period=1"].parameters():
            p.data += 3.0
        after = router.score(req)
        assert (before.p_ctr, before.p_ctcvr) == (after.p_ctr, after.p_ctcvr)

    def test_unknown_domain_falls_back_to_zero_shot(self, router):
        req = _request(period=2)
        resp = router.score(req)
        assert resp.served_by == "zero_shot"
        pred = router.backbone.forward_full(encode_request(req, SPACE)).prediction
        assert resp.p_ctr == float(pred.p_ctr[0, 0])

    def test_lazy_activation_parity(self):
        backbone = _backbone(seed=3)
        adapters = {
            "period=0": _adapter(backbone, 0, seed=4, nudge=0.1),
            "period=1": _adapter(backbone, 1, seed=5, nudge=0.2),
        }
        eager = DomainRouter(backbone, dict(adapters))
        lazy = DomainRouter(backbone, dict(adapters), lazy_activation=True)
        for period in (0, 1, 2):
            a = eager.score(_request(period=period))
            b = lazy.score(_request(period=period))
            assert (a.p_ctr, a.p_ctcvr, a.served_by) == (b.p_ctr, b.p_ctcvr, b.served_by)

    def test_most_specific_key_wins(self):
        backbone = _backbone(seed=6)
        broad = _adapter(backbone, 1, seed=7, nudge=0.1)
        narrow = IAKAdapter(
            backbone.rep_dim, backbone.n_heads, IAKConfig(d_e=4, decoder_hidden=(6,)),
            {"period": 1, "scene": 0}, seed=8,
        )
        narrow.decoder_out.w.data[:] = -0.3
        router = DomainRouter(backbone, {"period=1": broad, "period=1,scene=0": narrow})
        resp = router.score(_request(period=1, scene=0))
        assert resp.served_by == "period=1,scene=0"
        resp2 = router.score(_request(period=1, scene=1))
        assert resp2.served_by == "period=1"

    def test_equally_specific_matches_break_on_the_key(self):
        backbone = _backbone(seed=6)
        keys = ["period=1,scene=0", "period=1,region=1", "period=1"]
        adapters = {k: IAKAdapter(backbone.rep_dim, backbone.n_heads, IAKConfig(d_e=4, decoder_hidden=(6,)),
                                  parse_domain_key(k), seed=i) for i, k in enumerate(keys)}
        router = DomainRouter(backbone, adapters)
        assert router.score(_request(period=1, scene=0, region=1)).served_by == "period=1,region=1"
        assert router.score(_request(period=1, scene=0, region=0)).served_by == "period=1,scene=0"

    def test_dimension_mismatch_rejected(self):
        backbone = _backbone()
        bad = IAKAdapter(backbone.rep_dim + 2, 2, IAKConfig(d_e=4), {"period": 0}, seed=0)
        with pytest.raises(RequestError):
            DomainRouter(backbone, {"period=0": bad})

    def test_a_rejected_router_freezes_nothing(self):
        """Every adapter is checked, against the backbone and then its own
        layers, before anything is frozen, so a rejected router leaves the
        backbone and every adapter trainable, as a failed freeze does: an
        adapter of the wrong task count, and, set after build, a decoder
        layer's slope out of range and an encoder mean of the wrong shape.
        The last two sort after the good adapter, which is frozen first when
        the layer checks run inside each freeze."""

        def wrong_task_count(backbone):
            return IAKAdapter(backbone.rep_dim, backbone.n_heads + 1, IAKConfig(d_e=4), {"period": 0}, seed=0)

        def slope_out_of_range(backbone):
            adapter = _adapter(backbone, 2, seed=0)
            adapter.decoder_hidden[0].slope = 1.5
            return adapter

        def encoder_mean_of_wrong_shape(backbone):
            adapter = _adapter(backbone, 2, seed=0)
            adapter.encoder.mu_w.data = np.zeros((backbone.rep_dim, 5))
            return adapter

        cases = [("period=0", wrong_task_count, RequestError, "'period=0' is not dimension-compatible"),
                 ("period=2", slope_out_of_range, ValueError, "slope must be in"),
                 ("period=2", encoder_mean_of_wrong_shape, ad.ShapeError, "enc0.mu_w")]
        for key, build_bad, error, match in cases:
            backbone = _backbone()
            good = _adapter(backbone, 1, seed=1)
            bad = build_bad(backbone)
            with pytest.raises(error, match=match):
                DomainRouter(backbone, {"period=1": good, key: bad})
            assert not backbone.frozen and not good.frozen and not bad.frozen, build_bad.__name__
            assert all(p.requires_grad for owner in (backbone, good, bad) for p in owner.parameters())

    def test_statelessness_under_permutation(self, router):
        reqs = [_request(period=p, user=u) for p in (0, 1, 2) for u in (1, 2, 3)]
        fwd = [router.score(r) for r in reqs]
        rev = [router.score(r) for r in reversed(reqs)]
        for a, b in zip(fwd, reversed(rev)):
            assert (a.p_ctr, a.p_ctcvr, a.served_by) == (b.p_ctr, b.p_ctcvr, b.served_by)


class TestOneMatcher:
    """The adapter a request reaches is picked by `datagen.domain_mask` on
    the request's fitted row, the rule that slices each adapter's train and
    eval rows: a topic the request leaves out is id -1 there."""

    def test_a_request_without_period_reaches_the_period_minus_1_adapter(self):
        backbone = _backbone(seed=6)
        adapters = {"period=-1": _adapter(backbone, -1, seed=7, nudge=0.1),
                    "period=0": _adapter(backbone, 0, seed=8, nudge=-0.2)}
        request = ScoreRequest(user_id=3, item_id=4, domain_ids={"scene": 0, "region": 1}, feature_ids=[1, 2, 3, 4])
        row = encode_request(request, SPACE)
        assert row.period.tolist() == [-1] and domain_mask(row, {"period": -1}).tolist() == [True]
        for lazy in (False, True):
            router = DomainRouter(backbone, adapters, lazy_activation=lazy)
            resp, explicit = router.score(request), router.score(_request(period=-1, scene=0, region=1))
            assert resp.served_by == explicit.served_by == "period=-1"
            assert (resp.p_ctr, resp.p_ctcvr) == (explicit.p_ctr, explicit.p_ctcvr)


@functools.lru_cache(maxsize=1)
def _matcher_backbone():
    return _backbone(seed=11)


def _oracle_pick(domain_ids: dict[str, int], keys: list[str]) -> str:
    """The most specific key (ties by key) whose selector
    `records_reference.in_domain` matches, each missing topic read as -1."""
    ids = {topic: domain_ids.get(topic, -1) for topic in TOPICS}
    matched = [k for k in keys if records_reference.in_domain(ids, parse_domain_key(k))]
    return min(matched, key=lambda k: (-len(parse_domain_key(k)), k), default="zero_shot")


_selector = st.dictionaries(st.sampled_from(TOPICS), st.integers(-1, 2), min_size=1, max_size=3)
# each topic held or left out, plus a key that is not a topic
_domain_ids = st.dictionaries(st.sampled_from([*TOPICS, "market"]), st.integers(-1, 2), max_size=4)


@settings(max_examples=150, deadline=None)
@given(selectors=st.lists(_selector, min_size=1, max_size=4, unique_by=domain_key),
       requests=st.lists(_domain_ids, min_size=1, max_size=8))
def test_the_router_serves_through_the_adapter_the_oracle_picks(selectors, requests):
    backbone = _matcher_backbone()
    adapters = {domain_key(sel): IAKAdapter(backbone.rep_dim, backbone.n_heads, IAKConfig(d_e=2, decoder_hidden=(3,)),
                                            sel, seed=i) for i, sel in enumerate(selectors)}
    for lazy in (False, True):
        router = DomainRouter(backbone, adapters, lazy_activation=lazy)
        for domain_ids in requests:
            resp = router.score(ScoreRequest(user_id=1, item_id=2, domain_ids=domain_ids, feature_ids=[1]))
            assert resp.served_by == _oracle_pick(domain_ids, list(adapters)), (lazy, domain_ids)


class TestOneBackbonePass:
    REQUESTS = {
        "adapted": _request(period=1),
        "zero_shot": _request(period=2),
        "out_of_vocab": _request(period=0, user=10**6, item=-5),
    }

    @pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
    def test_each_request_forwards_the_backbone_once_in_both_modes(self, monkeypatch, kind):
        backbone = build_model(ModelConfig(kind=kind, hidden_sizes=(10, 5)), SPACE, seed=0)
        adapters = {f"period={p}": _adapter(backbone, p, seed=p + 1, nudge=0.05 * (p + 1)) for p in (0, 1)}
        cls, calls = MODEL_KINDS[kind], []
        forward = cls.forward_full

        def counted(self, batch):
            calls.append(len(batch))
            return forward(self, batch)

        monkeypatch.setattr(cls, "forward_full", counted)
        responses = {}
        for lazy in (False, True):
            router = DomainRouter(backbone, adapters, lazy_activation=lazy)
            for name, req in self.REQUESTS.items():
                calls.clear()
                responses[lazy, name] = router.score(req)
                assert calls == [1], (lazy, name)
        for name in self.REQUESTS:
            eager, lazy = responses[False, name], responses[True, name]
            assert eager.served_by == lazy.served_by
            assert (eager.p_ctr.hex(), eager.p_ctcvr.hex()) == (lazy.p_ctr.hex(), lazy.p_ctcvr.hex())
        assert [responses[False, n].served_by for n in self.REQUESTS] == ["period=1", "zero_shot", "period=0"]

    def test_eager_corrects_with_every_adapter_and_lazy_with_the_served_one_at_most(self, monkeypatch):
        """Eager serving still runs all K deployed adapters' corrections per
        request, though it predicts only the served output; lazy runs the
        served adapter's alone, and none for a zero-shot request."""
        backbone = _backbone()
        adapters = {f"period={p}": _adapter(backbone, p, seed=p + 1, nudge=0.05 * (p + 1)) for p in (0, 1)}
        corrected = []
        correction = IAKAdapter.correction

        def counted(self, representation):
            corrected.append(self)
            return correction(self, representation)

        monkeypatch.setattr(IAKAdapter, "correction", counted)
        for lazy in (False, True):
            router = DomainRouter(backbone, adapters, lazy_activation=lazy)
            for name, req in self.REQUESTS.items():
                corrected.clear()
                resp = router.score(req)
                if not lazy:
                    want = list(adapters.values())
                else:
                    want = [] if resp.served_by == "zero_shot" else [adapters[resp.served_by]]
                assert corrected == want, (lazy, name)


class TestFrozenAdapters:
    """The router freezes the adapters it deploys, so a score records no
    autodiff graph, and it serves the values the adapter graph of a
    trainable twin gives."""

    REQUESTS = TestOneBackbonePass.REQUESTS

    def test_router_freezes_every_adapter_it_deploys(self, router):
        for adapter in router.adapters.values():
            assert adapter.frozen and all(p.requires_grad is False for p in adapter.parameters())

    @pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
    def test_scoring_records_no_graph_and_serves_a_trainable_adapters_values(self, monkeypatch, kind):
        backbone = build_model(ModelConfig(kind=kind, hidden_sizes=(10, 5)), SPACE, seed=0)
        adapters = {f"period={p}": _adapter(backbone, p, seed=p + 1, nudge=0.05 * (p + 1)) for p in (0, 1)}
        twins = {}
        for key, a in adapters.items():
            twins[key] = IAKAdapter(a.rep_dim, a.n_tasks, a.config, a.domain_key, seed=None)
            twins[key].restore(a.named_parameters())
        built = []
        predict_from_logits = MultiTaskModel.predict_from_logits

        def recorded(self, logits):
            built.append(predict_from_logits(self, logits))
            return built[-1]

        monkeypatch.setattr(MultiTaskModel, "predict_from_logits", recorded)
        for lazy in (False, True):
            router = DomainRouter(backbone, adapters, lazy_activation=lazy)
            for name, req in self.REQUESTS.items():
                built.clear()
                resp = router.score(req)
                # one prediction in either mode: the served adapter's, or the zero-shot one
                assert len(built) == 1, (lazy, name)
                assert (float(built[0].p_ctr[0, 0]), float(built[0].p_ctcvr[0, 0])) == (
                    resp.p_ctr, resp.p_ctcvr), (lazy, name)
                for pred in built:  # bare arrays, so no graph
                    for t in (pred.p_ctr, pred.p_ctcvr, pred.p_cvr):
                        assert t is None or type(t) is np.ndarray, (lazy, name)

                out = backbone.forward_full(encode_request(req, SPACE))
                want = out.prediction.p_ctr, out.prediction.p_ctcvr
                if resp.served_by != "zero_shot":
                    twin = twins[resp.served_by]
                    corr = adapter_graph(ad.Tensor(out.representation), twin._means, twin.encoder.scale, ad.linear)
                    assert corr._parents != ()  # the twin still records its graph
                    pred = backbone.predict_from_logits(ad.add(ad.Tensor(out.logits), corr))
                    want = pred.p_ctr.data, pred.p_ctcvr.data
                assert (resp.p_ctr.hex(), resp.p_ctcvr.hex()) == (
                    float(want[0][0, 0]).hex(), float(want[1][0, 0]).hex()), (lazy, name)
        assert all(p.requires_grad for twin in twins.values() for p in twin.parameters())


class TestRequestParsing:
    def test_valid_request(self):
        obj = json.loads('{"user_id": 1, "item_id": 2, "domain_ids": {"scene": 0}, "feature_ids": [1]}')
        req = request_from_json(obj)
        assert req.user_id == 1 and req.domain_ids == {"scene": 0}

    def test_integral_float_ids_are_accepted(self):
        req = request_from_json(json.loads(
            '{"user_id": 4.0, "item_id": -0.0, "domain_ids": {"period": 1.0}, "feature_ids": [2e0]}'))
        assert (req.user_id, req.item_id, req.domain_ids, req.feature_ids) == (4, 0, {"period": 1}, [2])
        assert all(type(v) is int for v in (req.user_id, req.item_id, req.domain_ids["period"], *req.feature_ids))

    @pytest.mark.parametrize(
        "payload",
        [
            '{"user_id": 1}',
            '{"user_id": "x", "item_id": 2, "domain_ids": {}, "feature_ids": []}',
            '{"user_id": 1, "item_id": 2, "domain_ids": 3, "feature_ids": []}',
            "[1,2,3]",
            '{"user_id": 2.9, "item_id": 2, "domain_ids": {}, "feature_ids": []}',
            '{"user_id": true, "item_id": 2, "domain_ids": {}, "feature_ids": []}',
            '{"user_id": 1, "item_id": "2", "domain_ids": {}, "feature_ids": []}',
            '{"user_id": 1, "item_id": 2, "domain_ids": {"period": "0"}, "feature_ids": []}',
            '{"user_id": 1, "item_id": 2, "domain_ids": {"period": 0.5}, "feature_ids": []}',
            '{"user_id": 1, "item_id": 2, "domain_ids": {}, "feature_ids": "37"}',
            '{"user_id": 1, "item_id": 2, "domain_ids": {}, "feature_ids": {"1": 2}}',
            '{"user_id": 1, "item_id": 2, "domain_ids": {}, "feature_ids": [false]}',
        ],
    )
    def test_malformed_rejected(self, payload):
        with pytest.raises(RequestError):
            request_from_json(json.loads(payload))


class TestServe:
    @pytest.mark.parametrize(
        "line",
        [
            '{"user_id": 1, "item_id": 1, "domain_ids": {"period": 0}, "feature_ids": [1e400]}',
            '{"user_id": 1, "item_id": -1e400, "domain_ids": {"period": 0}, "feature_ids": [1]}',
            '{"user_id": NaN, "item_id": 1, "domain_ids": {"period": 0}, "feature_ids": [1]}',
            '{"user_id": 12345678901234567890, "item_id": 1, "domain_ids": {"period": 0}, "feature_ids": [1]}',
            '{"user_id": 1, "item_id": 1, "domain_ids": {"period": 98765432109876543210}, "feature_ids": [1]}',
            '{"user_id": 1, "item_id": 1, "domain_ids": {"period": 0}, "feature_ids": [-9223372036854775809]}',
            '{"user_id": ' + "9" * 5000 + ', "item_id": 1, "domain_ids": {}, "feature_ids": []}',
            "[" * 100_000,
        ],
    )
    def test_unrepresentable_line_gets_an_error_and_the_loop_continues(self, router, line):
        good = json.dumps({"user_id": 1, "item_id": 1, "domain_ids": {"period": 0}, "feature_ids": [1]})
        out = io.StringIO()
        assert serve(router, io.StringIO(line + "\n" + good + "\n"), out) == 0
        first, second = (json.loads(l) for l in out.getvalue().splitlines())
        assert first["line"] == 1 and first["error"].startswith("malformed request")
        assert second["served_by"] == "period=0"

    def test_int64_bounds_are_accepted(self, router):
        for v in (2**63 - 1, -(2**63)):
            req = request_from_json({"user_id": v, "item_id": v, "domain_ids": {"period": v}, "feature_ids": [v]})
            assert router.score(req).served_by == "zero_shot"


    def test_empty_stream_clean_exit(self, router):
        out = io.StringIO()
        assert serve(router, io.StringIO(""), out) == 0
        assert out.getvalue() == ""

    def test_three_lines_three_ordered_responses(self, router):
        lines = [
            json.dumps({"user_id": u, "item_id": 1, "domain_ids": {"scene": 0, "region": 0, "period": 1},
                        "feature_ids": [1, 2, 3, 4]})
            for u in (1, 2, 3)
        ]
        out = io.StringIO()
        assert serve(router, io.StringIO("\n".join(lines) + "\n"), out) == 0
        responses = [json.loads(l) for l in out.getvalue().splitlines()]
        assert len(responses) == 3
        expected = [router.score(request_from_json(json.loads(l))) for l in lines]
        for resp, exp in zip(responses, expected):
            assert resp["p_ctr"] == exp.p_ctr
            assert resp["p_ctcvr"] == exp.p_ctcvr
            assert resp["served_by"] == exp.served_by
            assert "latency_micros" in resp

    def test_malformed_line_reports_number_and_continues(self, router):
        good = json.dumps({"user_id": 1, "item_id": 1, "domain_ids": {"period": 0}, "feature_ids": []})
        out = io.StringIO()
        serve(router, io.StringIO("{broken\n" + good + "\n"), out)
        lines = [json.loads(l) for l in out.getvalue().splitlines()]
        assert lines[0]["line"] == 1 and "error" in lines[0]
        assert "p_ctr" in lines[1]

    def test_offline_online_parity(self, router):
        rng = np.random.default_rng(0)
        reqs = []
        for _ in range(200):
            reqs.append(
                {
                    "user_id": int(rng.integers(0, 35)),
                    "item_id": int(rng.integers(0, 25)),
                    "domain_ids": {"scene": int(rng.integers(0, 2)), "region": int(rng.integers(0, 2)),
                                   "period": int(rng.integers(0, 4))},
                    "feature_ids": [int(x) for x in rng.integers(0, 8, size=4)],
                }
            )
        stream = "\n".join(json.dumps(r) for r in reqs) + "\n"
        out = io.StringIO()
        serve(router, io.StringIO(stream), out)
        responses = [json.loads(l) for l in out.getvalue().splitlines()]
        for r, resp in zip(reqs, responses):
            offline = router.score(request_from_json(r))
            assert resp["p_ctr"] == offline.p_ctr
            assert resp["p_ctcvr"] == offline.p_ctcvr
            assert resp["served_by"] == offline.served_by


class TestNonFiniteScores:
    """A frozen forward is not checked op by op but once per prediction, on
    its logits: a NaN that gets past `restore` into a deployed model raises
    there, and `serve` answers it as an error on its line."""

    NON_FINITE = "non-finite score: non-finite logits of a frozen forward"

    @staticmethod
    def _lines(*requests):
        return io.StringIO("".join(json.dumps({"user_id": u, "item_id": 1, "domain_ids": {"period": p},
                                               "feature_ids": [1]}) + "\n" for u, p in requests))

    def test_a_nan_in_a_deployed_adapter_raises_in_score_and_in_eval(self):
        backbone = _backbone()
        adapter = IAKAdapter(backbone.rep_dim, backbone.n_heads, IAKConfig(d_e=4, decoder_hidden=(6,)),
                             {"period": 1}, seed=None)
        adapter.restore(_adapter(backbone, 1, seed=2, nudge=-0.08).named_parameters())
        router = DomainRouter(backbone, {"period=1": adapter}, lazy_activation=True)
        adapter.decoder_out.b.data[0] = np.nan  # past restore's check
        with pytest.raises(NonFiniteError, match="non-finite logits"):
            router.score(_request(period=1))
        split = SplitPass(backbone, encode_request(_request(period=1), SPACE))
        with pytest.raises(NonFiniteError, match="non-finite logits"):
            split.adapted(adapter, slice(None))
        assert np.isfinite(split.zero_shot()).all()
        out = io.StringIO()
        assert serve(router, self._lines((3, 1), (3, 0)), out) == 0
        first, second = (json.loads(l) for l in out.getvalue().splitlines())
        assert first == {"error": self.NON_FINITE, "line": 1}
        assert second["served_by"] == "zero_shot"

    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_serve_writes_an_error_for_a_non_finite_score_and_answers_the_next_line(self, lazy):
        backbone = _backbone()
        router = DomainRouter(backbone, {"period=0": _adapter(backbone, 0, seed=1, nudge=0.05)}, lazy_activation=lazy)
        backbone.named_parameters()["embeddings.rows"][1 + 3] = np.nan  # user 3's row, past restore's check
        out = io.StringIO()
        assert serve(router, self._lines((3, 0), (2, 0), (3, 1)), out) == 0
        first, second, third = (json.loads(l) for l in out.getvalue().splitlines())
        assert first == {"error": self.NON_FINITE, "line": 1} and third == {"error": self.NON_FINITE, "line": 3}
        assert second["served_by"] == "period=0" and np.isfinite([second["p_ctr"], second["p_ctcvr"]]).all()

    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_an_overflowing_adapter_fails_only_the_requests_it_serves(self, lazy):
        """An adapter whose weights are finite, so they pass restore's check,
        but whose logits overflow answers the requests it serves with an
        error line, in both modes; a request another adapter serves gets
        the score it got before, although eager still runs the overflowing
        correction. `serve` runs here as the CLI runs it, with numpy's
        overflow warnings off."""
        backbone = _backbone()
        adapters = {"period=0": _adapter(backbone, 0, seed=1, nudge=0.05),
                    "period=1": _adapter(backbone, 1, seed=2, nudge=-0.08)}
        router = DomainRouter(backbone, adapters, lazy_activation=lazy)

        def answers():
            out = io.StringIO()
            with np.errstate(over="ignore", invalid="ignore"):
                assert serve(router, self._lines((3, 1), (3, 0), (3, 2)), out) == 0
            return [{k: v for k, v in json.loads(l).items() if k != "latency_micros"}
                    for l in out.getvalue().splitlines()]

        before = answers()
        adapters["period=0"].decoder_out.w.data[:] = 1e308
        served, failed, zero_shot = answers()
        assert served == before[0] and served["served_by"] == "period=1"
        assert failed == {"error": self.NON_FINITE, "line": 2}
        assert zero_shot == before[2] and zero_shot["served_by"] == "zero_shot"


class TestCheckpointRoundTrip:
    def test_router_reloads_from_shared_container(self, router, tmp_path):
        params = dict(router.backbone.named_parameters())
        for a in router.adapters.values():
            params.update(a.named_parameters())
        path = tmp_path / "deploy.ckpt"
        save_checkpoint(path, params, "digest")
        arrays, _ = load_checkpoint(path)

        fresh_backbone = _backbone(seed=99)
        fresh_backbone.restore({k: v for k, v in arrays.items() if not k.startswith("adapter/")})
        adapters = adapters_from_arrays(arrays, fresh_backbone.rep_dim, fresh_backbone.n_heads,
                                        IAKConfig(d_e=4, decoder_hidden=(6,)))
        clone = DomainRouter(fresh_backbone, adapters)
        for period in (0, 1, 2):
            a = router.score(_request(period=period))
            b = clone.score(_request(period=period))
            assert (a.p_ctr, a.p_ctcvr, a.served_by) == (b.p_ctr, b.p_ctcvr, b.served_by)


@functools.lru_cache(maxsize=1)
def _shared_router():
    backbone = _backbone()
    return DomainRouter(backbone, {"period=0": _adapter(backbone, 0, seed=1, nudge=0.05)})


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_ids = st.integers() | st.floats() | st.text(max_size=4) | _json
_request_like = st.fixed_dictionaries(
    {
        "user_id": _ids,
        "item_id": _ids,
        "domain_ids": st.dictionaries(st.sampled_from(["scene", "region", "period"]) | st.text(max_size=4), _ids,
                                      max_size=3),
        "feature_ids": st.lists(_ids, max_size=5),
    }
)
_lines = st.one_of(
    st.text(alphabet=st.characters(blacklist_characters="\n\r"), max_size=60),
    _json.map(json.dumps),
    _request_like.map(json.dumps),
)


@settings(max_examples=300, deadline=None)
@given(line=_lines)
def test_any_line_yields_exactly_one_json_line_and_the_loop_continues(line):
    router = _shared_router()
    good = json.dumps({"user_id": 1, "item_id": 1, "domain_ids": {"period": 0}, "feature_ids": [1]})
    out = io.StringIO()
    assert serve(router, io.StringIO(line + "\n" + good + "\n"), out) == 0
    responses = [json.loads(l) for l in out.getvalue().splitlines()]
    assert len(responses) == 2
    assert "p_ctr" in responses[0] or responses[0]["line"] == 1
    assert responses[1]["served_by"] == "period=0"
