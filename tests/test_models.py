import math

import numpy as np
import pytest

from iakrec import autodiff as ad
from iakrec.models import (
    EncodedBatch,
    FeatureSpace,
    ModelConfig,
    ModelError,
    Prediction,
    bce_loss,
    build_model,
    encode_records,
    task_bce,
)
from iakrec.datagen import InteractionRecord

from gradcheck import central_differences, max_rel_err

SPACE = FeatureSpace(n_users=20, n_items=15, n_scenes=2, n_regions=3, n_periods=3)


def _record(ts=0, user=1, item=2, scene=0, region=1, period=2, feats=(1, 2, 3, 4), click=0, purchase=0):
    return InteractionRecord(
        timestamp=ts, user_id=user, item_id=item,
        domain_ids={"scene": scene, "region": region, "period": period},
        feature_ids=list(feats), click=click, purchase=purchase,
    )


def _batch(n=6, seed=0):
    rng = np.random.default_rng(seed)
    records = [
        _record(
            ts=i, user=int(rng.integers(0, 20)), item=int(rng.integers(0, 15)),
            scene=int(rng.integers(0, 2)), region=int(rng.integers(0, 3)),
            period=int(rng.integers(0, 3)),
            feats=tuple(int(x) for x in rng.integers(0, 8, size=4)),
            click=int(rng.integers(0, 2)),
        )
        for i in range(n)
    ]
    for r in records:
        if r.click:
            r.purchase = int(rng.integers(0, 2))
    return encode_records(records, SPACE)


@pytest.fixture(params=["shared_bottom", "esmm", "mmoe", "base"])
def any_model(request):
    cfg = ModelConfig(kind=request.param, hidden_sizes=(12, 6))
    return build_model(cfg, SPACE, seed=3)


class TestEncoding:
    def test_history_tracks_recent_clicked_items(self):
        records = [
            _record(ts=0, user=5, item=7, click=1),
            _record(ts=1, user=5, item=9, click=0),
            _record(ts=2, user=5, item=3, click=1),
            _record(ts=3, user=5, item=1),
        ]
        enc = encode_records(records, SPACE)
        assert list(enc.history[0]) == [-1] * 5  # nothing before the first
        assert list(enc.history[1][:1]) == [7]
        assert list(enc.history[2][:1]) == [7]  # non-click did not enter
        assert list(enc.history[3][:2]) == [3, 7]  # most recent first

    def test_extra_feature_columns_are_ignored(self, any_model):
        a = encode_records([_record(feats=(1, 2, 3, 4, 7))], SPACE)
        b = encode_records([_record(feats=(1, 2, 3, 4, 5))], SPACE)
        pa = any_model.predict(a)
        pb = any_model.predict(b)
        assert pa.p_ctr.data[0, 0] == pb.p_ctr.data[0, 0]
        assert pa.p_ctcvr.data[0, 0] == pb.p_ctcvr.data[0, 0]

    def test_out_of_vocab_ids_map_to_row_zero(self, any_model):
        oov = encode_records([_record(user=9999, item=-3)], SPACE)
        pred = any_model.predict(oov)
        assert 0.0 < pred.p_ctr.data[0, 0] < 1.0  # never errors


class TestForwardContracts:
    def test_outputs_in_unit_interval(self, any_model):
        pred = any_model.predict(_batch())
        for p in (pred.p_ctr, pred.p_ctcvr):
            assert np.all((p.data > 0) & (p.data < 1))

    def test_purity_same_input_same_output(self, any_model):
        batch = _batch()
        a = any_model.predict(batch)
        b = any_model.predict(batch)
        np.testing.assert_array_equal(a.p_ctr.data, b.p_ctr.data)
        np.testing.assert_array_equal(a.p_ctcvr.data, b.p_ctcvr.data)

    def test_representation_width_is_twice_last_hidden(self, any_model):
        out = any_model.forward_full(_batch())
        assert out.representation.shape == (6, any_model.rep_dim)
        assert any_model.rep_dim == 2 * any_model.config.hidden_sizes[-1]

    def test_zeroed_head_gives_half(self):
        model = build_model(ModelConfig(kind="shared_bottom", hidden_sizes=(12, 6)), SPACE, seed=0)
        for head in model.heads:
            for layer in head.layers:
                layer.w.data[:] = 0.0
                layer.b.data[:] = 0.0
        pred = model.predict(_batch())
        np.testing.assert_array_equal(pred.p_ctr.data, np.full((6, 1), 0.5))
        np.testing.assert_array_equal(pred.p_ctcvr.data, np.full((6, 1), 0.5))


class TestESMM:
    def test_product_identity_is_exact(self):
        model = build_model(ModelConfig(kind="esmm", hidden_sizes=(12, 6)), SPACE, seed=1)
        pred = model.predict(_batch())
        np.testing.assert_array_equal(pred.p_ctcvr.data, pred.p_ctr.data * pred.p_cvr.data)

    def test_hand_product(self):
        pred = Prediction(
            p_ctr=ad.Tensor([[0.5]]), p_cvr=ad.Tensor([[0.4]]),
            p_ctcvr=ad.mul(ad.Tensor([[0.5]]), ad.Tensor([[0.4]])),
        )
        assert pred.p_ctcvr.data[0, 0] == pytest.approx(0.2, abs=1e-15)

    def test_saturated_cvr_makes_ctcvr_equal_ctr(self):
        model = build_model(ModelConfig(kind="esmm", hidden_sizes=(12, 6)), SPACE, seed=1)
        # drive the cvr head's bias far positive so sigmoid saturates to 1.0
        model.heads[1].layers[-1].w.data[:] = 0.0
        model.heads[1].layers[-1].b.data[:] = 60.0
        pred = model.predict(_batch())
        np.testing.assert_array_equal(pred.p_ctcvr.data, pred.p_ctr.data)

    def test_ctcvr_loss_reaches_both_towers(self):
        model = build_model(ModelConfig(kind="esmm", hidden_sizes=(8, 4)), SPACE, seed=2)
        batch = _batch(4, seed=5)
        purchase = np.array([1.0, 0.0, 1.0, 0.0])
        probe = [model.towers[0].layers[0].w, model.towers[1].layers[0].w]

        def loss_fn():
            pred = model.predict(batch)
            return task_bce(pred.p_ctcvr, purchase)

        ad.zero_grads(model.parameters())
        ad.backward(loss_fn())
        analytic = [p.grad.copy() for p in probe]
        assert all(np.any(g != 0) for g in analytic)
        numeric = central_differences(loss_fn, probe)
        assert max_rel_err(analytic, numeric) < 1e-4


class TestMMoE:
    def test_single_expert_gate_is_one(self):
        model = build_model(ModelConfig(kind="mmoe", hidden_sizes=(12, 6), n_experts=1), SPACE, seed=4)
        x = model.embeddings.assemble(_batch())
        for gate in model.core.gate_weights(x):
            np.testing.assert_array_equal(gate.data, np.ones((6, 1)))

    def test_gate_rows_sum_to_one(self):
        model = build_model(ModelConfig(kind="mmoe", hidden_sizes=(12, 6), n_experts=3), SPACE, seed=4)
        x = model.embeddings.assemble(_batch())
        for gate in model.core.gate_weights(x):
            np.testing.assert_allclose(gate.data.sum(axis=1), np.ones(6), atol=1e-15)

    def test_identical_experts_make_gates_irrelevant(self):
        model = build_model(ModelConfig(kind="mmoe", hidden_sizes=(12, 6), n_experts=2), SPACE, seed=4)
        for pa, pb in zip(model.core.experts[0].parameters(), model.core.experts[1].parameters()):
            pb.data = pa.data.copy()
        batch = _batch()
        base = model.predict(batch)
        for g in model.core.gates:
            g.w.data = model.rng.normal(size=g.w.data.shape)
            g.b.data = model.rng.normal(size=g.b.data.shape)
        moved = model.predict(batch)
        np.testing.assert_allclose(base.p_ctr.data, moved.p_ctr.data, atol=1e-12)

    def test_equal_gate_logits_average_experts(self):
        model = build_model(ModelConfig(kind="mmoe", hidden_sizes=(12, 6), n_experts=2), SPACE, seed=4)
        for g in model.core.gates:
            g.w.data[:] = 0.0
            g.b.data[:] = 0.0
        x = model.embeddings.assemble(_batch())
        mixed = model.core(x)
        e0 = model.core.experts[0](x)
        e1 = model.core.experts[1](x)
        np.testing.assert_allclose(mixed[0].data, 0.5 * (e0.data + e1.data), atol=1e-15)


class TestBaseRecommender:
    def test_all_zero_ids_is_deterministic_oov_path(self):
        model = build_model(ModelConfig(kind="base", hidden_sizes=(12, 6)), SPACE, seed=5)
        enc = encode_records([_record(user=0, item=0, scene=0, region=0, period=0, feats=(0, 0, 0, 0))], SPACE)
        a = model.predict(enc)
        b = model.predict(enc)
        assert a.p_ctr.data[0, 0] == b.p_ctr.data[0, 0]

    def test_representation_feeds_stacked_logits(self):
        model = build_model(ModelConfig(kind="base", hidden_sizes=(12, 6)), SPACE, seed=5)
        out = model.forward_full(_batch())
        expected = out.representation.data @ model.stacked.w.data + model.stacked.b.data
        np.testing.assert_allclose(out.logits.data, expected, atol=1e-15)


class TestSharedEmbeddings:
    def test_all_kinds_share_identical_embedding_implementation(self):
        batches = _batch()
        outs = []
        for kind in ("shared_bottom", "esmm", "mmoe", "base"):
            model = build_model(ModelConfig(kind=kind, hidden_sizes=(12, 6)), SPACE, seed=9)
            outs.append(model.embeddings.assemble(batches).data)
        for other in outs[1:]:
            np.testing.assert_array_equal(outs[0], other)


class TestBCELoss:
    def test_perfect_prediction_is_tiny(self):
        click = np.array([1.0, 0.0, 1.0])
        purchase = np.array([1.0, 0.0, 0.0])
        pred = Prediction(
            p_ctr=ad.Tensor(click.reshape(-1, 1)),
            p_ctcvr=ad.Tensor(purchase.reshape(-1, 1)),
        )
        assert float(bce_loss(pred, click, purchase).data) <= 1e-11

    def test_half_everywhere_is_ln2_per_task(self):
        click = np.array([1.0, 0.0])
        purchase = np.array([0.0, 0.0])
        pred = Prediction(p_ctr=ad.Tensor([[0.5], [0.5]]), p_ctcvr=ad.Tensor([[0.5], [0.5]]))
        assert float(bce_loss(pred, click, purchase).data) == pytest.approx(2 * math.log(2), rel=1e-12)

    def test_hand_example_ctr_only(self):
        click = np.array([1.0, 0.0])
        purchase = np.array([0.0, 0.0])
        pred = Prediction(p_ctr=ad.Tensor([[0.9], [0.1]]), p_ctcvr=ad.Tensor([[0.5], [0.5]]))
        loss = bce_loss(pred, click, purchase, weights=(1.0, 0.0))
        assert float(loss.data) == pytest.approx(-math.log(0.9), rel=1e-12)

    def test_rejects_non_binary_labels(self):
        pred = Prediction(p_ctr=ad.Tensor([[0.5]]), p_ctcvr=ad.Tensor([[0.5]]))
        with pytest.raises(ModelError):
            bce_loss(pred, np.array([0.5]), np.array([0.0]))


def test_model_config_validation():
    with pytest.raises(ModelError):
        ModelConfig(kind="nope").validate()
    with pytest.raises(ModelError):
        ModelConfig(n_experts=0).validate()
    with pytest.raises(ModelError):
        ModelConfig(hidden_sizes=(0,)).validate()


def test_checkpoint_restore_round_trip(tmp_path):
    from iakrec.checkpoint import load_checkpoint, save_checkpoint

    model = build_model(ModelConfig(kind="base", hidden_sizes=(12, 6)), SPACE, seed=6)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model.named_parameters(), "digest")
    clone = build_model(ModelConfig(kind="base", hidden_sizes=(12, 6)), SPACE, seed=7)
    arrays, _ = load_checkpoint(path)
    clone.restore(arrays)
    batch = _batch()
    np.testing.assert_array_equal(
        model.predict(batch).p_ctr.data, clone.predict(batch).p_ctr.data
    )
