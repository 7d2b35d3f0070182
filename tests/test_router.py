import functools
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iakrec.checkpoint import load_checkpoint, save_checkpoint
from iakrec.iak import IAKAdapter, IAKConfig, adapted_prediction
from iakrec.models import MODEL_KINDS, FeatureSpace, ModelConfig, build_model
from iakrec.router import (
    DomainRouter,
    RequestError,
    ScoreRequest,
    adapters_from_arrays,
    encode_request,
    request_from_json,
    serve,
)

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


class TestRouteScore:
    def test_selected_equals_standalone_adapter_bit_exact(self, router):
        req = _request(period=1)
        resp = router.score(req)
        assert resp.served_by == "period=1"
        out = router.backbone.forward_full(encode_request(req, SPACE))
        pred = adapted_prediction(router.backbone, router.adapters["period=1"], out.representation, out.logits)
        assert resp.p_ctr == float(pred.p_ctr.data[0, 0])
        assert resp.p_ctcvr == float(pred.p_ctcvr.data[0, 0])

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
        pred = router.backbone.predict(encode_request(req, SPACE))
        assert resp.p_ctr == float(pred.p_ctr.data[0, 0])

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

    def test_dimension_mismatch_rejected(self):
        backbone = _backbone()
        bad = IAKAdapter(backbone.rep_dim + 2, 2, IAKConfig(d_e=4), {"period": 0}, seed=0)
        with pytest.raises(RequestError):
            DomainRouter(backbone, {"period=0": bad})

    def test_statelessness_under_permutation(self, router):
        reqs = [_request(period=p, user=u) for p in (0, 1, 2) for u in (1, 2, 3)]
        fwd = [router.score(r) for r in reqs]
        rev = [router.score(r) for r in reversed(reqs)]
        for a, b in zip(fwd, reversed(rev)):
            assert (a.p_ctr, a.p_ctcvr, a.served_by) == (b.p_ctr, b.p_ctcvr, b.served_by)


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
