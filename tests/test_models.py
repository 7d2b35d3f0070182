import math
import re
import tracemalloc

import numpy as np
import pytest

from iakrec import autodiff as ad
from iakrec.checkpoint import load_checkpoint, save_checkpoint
from iakrec.iak import IAKAdapter, VariationalLinear
from iakrec.models import (
    MLP,
    MODEL_KINDS,
    FeatureSpace,
    Linear,
    ModelConfig,
    ModelError,
    MultiTaskModel,
    Part,
    Prediction,
    _MoECore,
    bce_loss,
    build_model,
    encode_records,
    task_bce,
)
from iakrec.datagen import InteractionRecord

from gradcheck import central_differences, max_rel_err
from linear_reference import gate_weights
from records_reference import from_records

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
    return encode_records(from_records(records), SPACE)


@pytest.fixture(params=["shared_bottom", "esmm", "mmoe", "base"])
def any_model(request):
    cfg = ModelConfig(kind=request.param, hidden_sizes=(12, 6))
    return build_model(cfg, SPACE, seed=3)


class TestEncoding:
    def test_extra_feature_columns_are_ignored(self, any_model):
        a = encode_records(from_records([_record(feats=(1, 2, 3, 4, 7))]), SPACE)
        b = encode_records(from_records([_record(feats=(1, 2, 3, 4, 5))]), SPACE)
        pa = any_model.forward_full(a).prediction
        pb = any_model.forward_full(b).prediction
        assert pa.p_ctr.data[0, 0] == pb.p_ctr.data[0, 0]
        assert pa.p_ctcvr.data[0, 0] == pb.p_ctcvr.data[0, 0]

    def test_out_of_vocab_ids_map_to_row_zero(self, any_model):
        oov = encode_records(from_records([_record(user=9999, item=-3)]), SPACE)
        pred = any_model.forward_full(oov).prediction
        assert 0.0 < pred.p_ctr.data[0, 0] < 1.0  # never errors


@pytest.mark.parametrize("field", ["n_users", "n_items", "n_scenes", "n_feature_cols"])
def test_a_negative_vocabulary_size_is_rejected_naming_it(field):
    sizes = dict(n_users=20, n_items=15, n_scenes=2, n_regions=3, n_periods=3)
    with pytest.raises(ModelError, match=f"^{field} must be >= 0, got -1$"):
        FeatureSpace(**{**sizes, field: -1})


def test_a_zero_vocabulary_reads_every_id_out_of_vocab():
    """With no users, the user range is its one out-of-vocab row, which every
    user id reads: the scores do not depend on the user."""
    space = FeatureSpace(n_users=0, n_items=15, n_scenes=2, n_regions=3, n_periods=3)
    model = build_model(ModelConfig(hidden_sizes=(6,)), space, seed=0)
    assert model.embeddings.ranges["user_emb.rows"] == (0, 1)
    scores = [model.forward_full(encode_records(from_records([_record(user=u)]), space)).prediction.p_ctr.data
              for u in (-1, 0, 7)]
    assert scores[0].tobytes() == scores[1].tobytes() == scores[2].tobytes()


class TestForwardContracts:
    def test_outputs_in_unit_interval(self, any_model):
        pred = any_model.forward_full(_batch()).prediction
        for p in (pred.p_ctr, pred.p_ctcvr):
            assert np.all((p.data > 0) & (p.data < 1))

    def test_purity_same_input_same_output(self, any_model):
        batch = _batch()
        a = any_model.forward_full(batch).prediction
        b = any_model.forward_full(batch).prediction
        np.testing.assert_array_equal(a.p_ctr.data, b.p_ctr.data)
        np.testing.assert_array_equal(a.p_ctcvr.data, b.p_ctcvr.data)

    def test_representation_width_is_twice_last_hidden(self, any_model):
        out = any_model.forward_full(_batch())
        assert out.representation.shape == (6, any_model.rep_dim)
        assert any_model.rep_dim == 2 * any_model.config.hidden_sizes[-1]

    def test_zeroed_head_gives_half(self):
        model = build_model(ModelConfig(kind="shared_bottom", hidden_sizes=(12, 6)), SPACE, seed=0)
        for head in model.heads:
            head.w.data[:] = 0.0
            head.b.data[:] = 0.0
        pred = model.forward_full(_batch()).prediction
        np.testing.assert_array_equal(pred.p_ctr.data, np.full((6, 1), 0.5))
        np.testing.assert_array_equal(pred.p_ctcvr.data, np.full((6, 1), 0.5))


class TestESMM:
    def test_product_identity_is_exact(self):
        model = build_model(ModelConfig(kind="esmm", hidden_sizes=(12, 6)), SPACE, seed=1)
        pred = model.forward_full(_batch()).prediction
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
        model.heads[1].w.data[:] = 0.0
        model.heads[1].b.data[:] = 60.0
        pred = model.forward_full(_batch()).prediction
        np.testing.assert_array_equal(pred.p_ctcvr.data, pred.p_ctr.data)

    def test_ctcvr_loss_reaches_both_towers(self):
        model = build_model(ModelConfig(kind="esmm", hidden_sizes=(8, 4)), SPACE, seed=2)
        batch = _batch(4, seed=5)
        purchase = np.array([1.0, 0.0, 1.0, 0.0])
        probe = [model.towers[0].layers[0].w, model.towers[1].layers[0].w]

        def loss_fn():
            pred = model.forward_full(batch).prediction
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
        for gate in gate_weights(model.core, x):
            np.testing.assert_array_equal(gate.data, np.ones((6, 1)))

    def test_gate_rows_sum_to_one(self):
        model = build_model(ModelConfig(kind="mmoe", hidden_sizes=(12, 6), n_experts=3), SPACE, seed=4)
        x = model.embeddings.assemble(_batch())
        for gate in gate_weights(model.core, x):
            np.testing.assert_allclose(gate.data.sum(axis=1), np.ones(6), atol=1e-15)

    def test_identical_experts_make_gates_irrelevant(self):
        model = build_model(ModelConfig(kind="mmoe", hidden_sizes=(12, 6), n_experts=2), SPACE, seed=4)
        for la, lb in zip(model.core.experts[0].layers, model.core.experts[1].layers):
            lb.w.data, lb.b.data = la.w.data.copy(), la.b.data.copy()
        batch = _batch()
        base = model.forward_full(batch).prediction
        for g in model.core.gates:
            g.w.data = model.rng.normal(size=g.w.data.shape)
            g.b.data = model.rng.normal(size=g.b.data.shape)
        moved = model.forward_full(batch).prediction
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
        rec = _record(user=0, item=0, scene=0, region=0, period=0, feats=(0, 0, 0, 0))
        enc = encode_records(from_records([rec]), SPACE)
        a = model.forward_full(enc).prediction
        b = model.forward_full(enc).prediction
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
        ModelConfig(kind="nope")
    with pytest.raises(ModelError):
        ModelConfig(n_experts=0)
    with pytest.raises(ModelError):
        ModelConfig(hidden_sizes=(0,))


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
        model.forward_full(batch).prediction.p_ctr.data, clone.forward_full(batch).prediction.p_ctr.data
    )


_EMBEDDINGS = [("embeddings.rows", (29, 3))]
# each id column's range of the table, (first row, end), its out-of-vocab row first
_RANGES = {"user_emb.rows": (0, 6), "item_emb.rows": (6, 11), "scene_emb.rows": (11, 14),
           "region_emb.rows": (14, 17), "period_emb.rows": (17, 21), "feat0_emb.rows": (21, 25),
           "feat1_emb.rows": (25, 29)}
_MOE = [("expert0.l0.w", (21, 4)), ("expert0.l0.b", (4,)), ("expert0.l1.w", (4, 2)), ("expert0.l1.b", (2,)),
        ("expert1.l0.w", (21, 4)), ("expert1.l0.b", (4,)), ("expert1.l1.w", (4, 2)), ("expert1.l1.b", (2,)),
        ("gate_ctr.w", (21, 2)), ("gate_ctr.b", (2,)), ("gate_ctcvr.w", (21, 2)), ("gate_ctcvr.b", (2,))]
_TOWERS = [("tower_ctr.l0.w", (2, 2)), ("tower_ctr.l0.b", (2,)), ("tower_ctcvr.l0.w", (2, 2)), ("tower_ctcvr.l0.b", (2,))]
_HEADS = [("head_ctr.l0.w", (2, 1)), ("head_ctr.l0.b", (1,)), ("head_ctcvr.l0.w", (2, 1)), ("head_ctcvr.l0.b", (1,))]
PARAMETER_NAMES = {
    "shared_bottom": _EMBEDDINGS + [("trunk.l0.w", (21, 4)), ("trunk.l0.b", (4,)), ("trunk.l1.w", (4, 2)),
                                    ("trunk.l1.b", (2,))] + _TOWERS + _HEADS,
    "esmm": _EMBEDDINGS + [("tower_ctr.l0.w", (21, 4)), ("tower_ctr.l0.b", (4,)), ("tower_ctr.l1.w", (4, 2)),
                           ("tower_ctr.l1.b", (2,)), ("tower_cvr.l0.w", (21, 4)), ("tower_cvr.l0.b", (4,)),
                           ("tower_cvr.l1.w", (4, 2)), ("tower_cvr.l1.b", (2,)), ("head_ctr.l0.w", (2, 1)),
                           ("head_ctr.l0.b", (1,)), ("head_cvr.l0.w", (2, 1)), ("head_cvr.l0.b", (1,))],
    "mmoe": _EMBEDDINGS + _MOE + _TOWERS + _HEADS,
    "base": _EMBEDDINGS + _MOE + _TOWERS + [("stacked_logits.w", (4, 2)), ("stacked_logits.b", (2,))],
}


@pytest.mark.parametrize("kind", sorted(PARAMETER_NAMES))
def test_parameter_names_and_order_are_pinned(kind):
    """The ordered (name, shape) list of each kind's checkpoint arrays at a
    small config. A checkpoint or an experiment's cached backbone stores its
    arrays by these names, so one written by an earlier build loads only
    while they hold. The parameters are the one stacked table, then the
    dense ones; the table's column ranges tile it in order."""
    space = FeatureSpace(n_users=5, n_items=4, n_scenes=2, n_regions=2, n_periods=3, n_feature_buckets=3,
                         n_feature_cols=2)
    model = build_model(ModelConfig(kind=kind, hidden_sizes=(4, 2), embed_dim=3), space, seed=0)
    named = model.named_parameters()
    assert [(name, a.shape) for name, a in named.items()] == PARAMETER_NAMES[kind]
    table, *dense = model.parameters()
    assert table.name == "embeddings.rows" and table is model.embeddings.rows
    assert [(p.name, p.data.shape) for p in dense] == PARAMETER_NAMES[kind][len(_EMBEDDINGS):]
    assert all(named[p.name] is p.data for p in model.parameters())
    assert model.embeddings.ranges == _RANGES


def test_the_backbone_and_the_adapter_list_their_parameters_through_one_part():
    """`parameters`, `named_parameters`, `freeze` and `frozen` are defined
    once, on `Part`, for every model kind and the adapter; each part gives
    its own `check` and `restore`. A layer or a component lists no
    parameters of its own: its part lists them from its layers."""
    for cls in (MultiTaskModel, *MODEL_KINDS.values(), IAKAdapter):
        assert issubclass(cls, Part)
        for name in ("parameters", "named_parameters", "freeze", "frozen"):
            assert getattr(cls, name) is getattr(Part, name), (cls.__name__, name)
    for cls in (MultiTaskModel, IAKAdapter):
        assert {"check", "restore"} <= vars(cls).keys(), cls.__name__
    for cls in (Linear, MLP, _MoECore, VariationalLinear):
        assert not hasattr(cls, "parameters"), cls.__name__


def test_seeded_build_draws_its_init():
    """A seed draws the init it always drew: each column's range of the
    table is the next draw of the model's own generator in column order, as
    when each was a table of its own, and the first dense weight after them
    draws what it drew after the nine tables, bit for bit."""
    model = build_model(ModelConfig(kind="base", hidden_sizes=(12, 6)), SPACE, seed=6)
    rng = np.random.default_rng(np.random.SeedSequence([6, 0xB0DE]))
    table = model.named_parameters()["embeddings.rows"]
    ranges = list(model.embeddings.ranges.values())
    assert len(ranges) == 9 and ranges[0] == (0, SPACE.n_users + 1) and ranges[-1][1] == len(table)
    for start, end in ranges:
        assert table[start:end].tobytes() == rng.normal(0.0, 0.1, size=(end - start, table.shape[1])).tobytes()
    w = model.core.experts[0].layers[0].w.data
    assert w.tobytes() == rng.normal(0.0, np.sqrt(2.0 / w.shape[0]), size=w.shape).tobytes()


def test_unseeded_build_checks_its_zero_table_through_one_value():
    """A seed=None build at 500k users and 100k items traces under 0.5 MB:
    its table is a broadcast zero, checked through its one value, not through
    a table-sized bool array (4.8 MB here). A broadcast NaN is still caught."""
    space = FeatureSpace(n_users=500_000, n_items=100_000, n_scenes=2, n_regions=6, n_periods=3)
    build_model(ModelConfig(), space, seed=None)
    tracemalloc.start()
    try:
        build_model(ModelConfig(), space, seed=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6, f"peak {peak / 1e6:.2f} MB"
    with pytest.raises(ad.NonFiniteError):
        ad.Parameter(np.broadcast_to(np.nan, (600_052, 8)), name="table")


def test_unseeded_build_is_zero_until_restored(any_model):
    """seed=None leaves every parameter zero; restoring a seeded model's
    arrays into it gives that model's predictions bit for bit."""
    blank = build_model(any_model.config, SPACE, seed=None)
    assert all(not p.data.any() for p in blank.parameters())
    blank.restore(any_model.named_parameters())
    batch = _batch()
    restored, original = blank.forward_full(batch).prediction, any_model.forward_full(batch).prediction
    assert restored.p_ctr.data.tobytes() == original.p_ctr.data.tobytes()
    assert restored.p_ctcvr.data.tobytes() == original.p_ctcvr.data.tobytes()


def test_a_restored_table_is_read_only_and_scores_as_a_writable_copy(tmp_path):
    """A table restored from a file is the loaded block, read-only, and a
    frozen forward over it equals, bit for bit, one over a writable,
    aligned copy of it. One restored from in-memory arrays is a read-only
    view of them, and the model they came from stays writable."""
    model = build_model(ModelConfig(kind="base", hidden_sizes=(12, 6)), SPACE, seed=6)
    save_checkpoint(tmp_path / "m.ckpt", model.named_parameters(), "digest")
    arrays, _ = load_checkpoint(tmp_path / "m.ckpt")
    restored, copied = (build_model(model.config, SPACE, seed=None) for _ in range(2))
    restored.restore(arrays)
    table = restored.embeddings.rows.data
    assert table is arrays["embeddings.rows"] and not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1.0
    copied.restore(arrays)
    copied.embeddings.rows.data = np.array(table)
    assert copied.embeddings.rows.data.flags.writeable and copied.embeddings.rows.data.flags.aligned
    batch = _batch(40, 3)
    for m in (restored, copied):
        m.freeze()
    outs = [m.forward_full(batch) for m in (restored, copied)]
    assert outs[0].logits.tobytes() == outs[1].logits.tobytes()
    assert outs[0].representation.tobytes() == outs[1].representation.tobytes()
    blank = build_model(model.config, SPACE, seed=None)
    blank.restore(model.named_parameters())
    assert not blank.embeddings.rows.data.flags.writeable and model.embeddings.rows.data.flags.writeable
    assert np.shares_memory(blank.embeddings.rows.data, model.embeddings.rows.data)


@pytest.mark.parametrize("row", [0, 5, 6, 20, 28])
def test_a_nan_or_inf_in_the_table_is_placed_by_its_row_and_column_range(row):
    """The restore's error for a non-finite table entry names the block,
    the row of its first bad entry and the column range that row lies in;
    a later bad entry does not move it."""
    space = FeatureSpace(n_users=5, n_items=4, n_scenes=2, n_regions=2, n_periods=3, n_feature_buckets=3,
                         n_feature_cols=2)
    cfg = ModelConfig(hidden_sizes=(4, 2), embed_dim=3)
    arrays = build_model(cfg, space, seed=0).named_parameters()
    table = arrays["embeddings.rows"] = arrays["embeddings.rows"].copy()
    table[row, 1], table[28, 2] = np.nan, -np.inf
    (name,) = (n for n, (start, end) in _RANGES.items() if start <= row < end)
    message = f"checkpoint parameter 'embeddings.rows' holds NaN or Inf (row {row}, in {name!r})"
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        build_model(cfg, space, seed=None).restore(arrays)


def test_a_table_whose_finite_entries_overflow_their_sum_restores():
    """The finiteness check sums the table; finite entries whose sum
    overflows are checked entry by entry, pass, and warn of nothing."""
    model = build_model(ModelConfig(hidden_sizes=(4, 2)), SPACE, seed=0)
    arrays = {**model.named_parameters(), "embeddings.rows": np.full(model.embeddings.rows.data.shape, 1e308)}
    arrays["embeddings.rows"][::2] *= -1.0  # partial sums of both signs overflow, to inf and to -inf
    blank = build_model(model.config, SPACE, seed=None)
    blank.restore(arrays)
    assert blank.named_parameters()["embeddings.rows"].tobytes() == arrays["embeddings.rows"].tobytes()
