"""Every dense layer of the backbone and the adapters is one `ad.linear` or
`ad.segment_linear` node, every loss term is one `ad.clipped_bce`,
`ad.gaussian_kl` or `ad.weight_sample` node, the embedding assembly is one
`ad.gather_rows` node, and each task's mixture-of-experts gate is one
`ad.gate_mix` node. A training step through them must leave every
parameter bit for bit where the composed chains of nodes leave it, and the
pretrain and bank graphs must stay fused. A frozen forward runs no op: it
runs the ops' kernels on bare arrays, with the graph's bits, its layers
checked when the model or adapter is frozen and its batch at the entry."""

from collections import Counter

import numpy as np
import pytest

from iakrec import autodiff as ad
from iakrec.iak import (FROZEN_CHUNK, AdapterBank, AdapterError, IAKAdapter, IAKConfig, adapted_prediction,
                        adapter_graph, adapter_step_cached, backbone_cache)
from iakrec.models import (MODEL_KINDS, FeatureSpace, ModelConfig, ModelError, ModelOutput, _safe_rows, build_model,
                           encode_records)
from iakrec.datagen import Dataset
from iakrec.evals import SplitPass
from iakrec.router import DomainRouter, ScoreRequest
from iakrec.trainer import TrainConfig, pretrain_optimizer, pretrain_step

from adapter_reference import lone_encoder_kl, reference_step
from gradcheck import assert_grads_match
from linear_reference import composed_gate_mix, composed_gather_rows, composed_linear, composed_segment_linear
from loss_reference import composed_clipped_bce, composed_gaussian_kl, composed_weight_sample
from optimizer_reference import ReferenceState, touched_grad

SPACE = FeatureSpace(n_users=20, n_items=15, n_scenes=2, n_regions=3, n_periods=3)


@pytest.fixture
def composed(monkeypatch):
    """Run every dense layer as its composed chain of nodes."""
    monkeypatch.setattr(ad, "linear", composed_linear)
    monkeypatch.setattr(ad, "segment_linear", composed_segment_linear)


@pytest.fixture
def composed_lookups(monkeypatch):
    """Run the embedding assembly as one lookup node per id column plus concat."""
    monkeypatch.setattr(ad, "gather_rows", composed_gather_rows)


@pytest.fixture
def composed_gate(monkeypatch):
    """Run each task's gate as its softmax, slice, mul and add nodes."""
    monkeypatch.setattr(ad, "gate_mix", composed_gate_mix)


@pytest.fixture
def composed_losses(monkeypatch):
    """Run every loss term as its composed chain of nodes."""
    monkeypatch.setattr(ad, "clipped_bce", composed_clipped_bce)
    monkeypatch.setattr(ad, "gaussian_kl", composed_gaussian_kl)
    monkeypatch.setattr(ad, "weight_sample", composed_weight_sample)


def _batch(n, seed):
    rng = np.random.default_rng(seed)
    click = rng.integers(0, 2, n)
    return encode_records(Dataset(
        timestamp=np.arange(n), user=rng.integers(-1, 22, n), item=rng.integers(0, 15, n),
        scene=rng.integers(0, 2, n), region=rng.integers(0, 3, n), period=rng.integers(0, 3, n),
        features=rng.integers(0, 8, (n, 4)), click=click, purchase=click * rng.integers(0, 2, n),
    ), SPACE)


@pytest.fixture
def graph_sizes(monkeypatch):
    """The node count of every graph a backward sweep walks, in order."""
    sizes = []
    sweep = ad.backward

    def counted(loss):
        record = sweep(loss)
        sizes.append(len(record.nodes))
        return record

    monkeypatch.setattr(ad, "backward", counted)
    return sizes


def _pretrain_step(kind="base", n_experts=2):
    """(losses, parameter bytes) after one step of a default-sized model, by
    default the BaseRecommender."""
    model = build_model(ModelConfig(kind=kind, n_experts=n_experts), SPACE, seed=1)
    losses = pretrain_step(model, _batch(64, 1), pretrain_optimizer(model, TrainConfig()), 0.05)
    return losses, {n: v.tobytes() for n, v in model.named_parameters().items()}


def test_pretrain_step_is_fused_and_equals_the_composed_layers(graph_sizes, request):
    fused = _pretrain_step()
    request.getfixturevalue("composed")
    assert _pretrain_step() == fused
    # 46 nodes fused; the composed layers add a bias node per dense layer and
    # an activation node per hidden layer
    assert graph_sizes == [46, 65]


def test_pretrain_step_equals_the_composed_losses(graph_sizes, request):
    fused = _pretrain_step()
    request.getfixturevalue("composed_losses")
    assert _pretrain_step() == fused
    # each task's cross-entropy is one node in place of nine
    assert graph_sizes == [46, 62]


def test_pretrain_step_equals_the_composed_lookups(graph_sizes, request):
    fused = _pretrain_step()
    request.getfixturevalue("composed_lookups")
    assert _pretrain_step() == fused
    # the embedding assembly is one node in place of nine lookups and a concat
    assert graph_sizes == [46, 55]


@pytest.mark.parametrize("n_experts", [2, 3])
@pytest.mark.parametrize("kind", ["base", "mmoe"])
def test_pretrain_step_equals_the_composed_gate(graph_sizes, request, kind, n_experts):
    fused = _pretrain_step(kind, n_experts)
    request.getfixturevalue("composed_gate")
    assert _pretrain_step(kind, n_experts) == fused
    # per task one node in place of a softmax and a slice and a mul per
    # expert, with an add per expert past the first
    assert graph_sizes[1] - graph_sizes[0] == 2 * (3 * n_experts - 1)


def _bank_step(beta, decoder_hidden=(6, 5), steps=2):
    """(losses and norms of each step, bank parameter bytes) of joint steps
    of four adapters: adapter 1 has no rows and adapter 2 a zero rate."""
    backbone = build_model(ModelConfig(kind="base", hidden_sizes=(10, 5)), SPACE, seed=2)
    backbone.freeze()
    config = IAKConfig(d_e=4, beta=beta, decoder_hidden=decoder_hidden)
    adapters = [IAKAdapter(backbone.rep_dim, backbone.n_heads, config, {"period": k}, seed=10 + k) for k in range(4)]
    rng = np.random.default_rng(3)
    for a in adapters:  # a non-zero read-out, so every layer gets a gradient
        a.decoder_out.w.data[:] = rng.normal(size=a.decoder_out.w.shape)
    bank = AdapterBank(adapters, decay=0.9999, epsilon=1e-8)
    outs = []
    for step in range(steps):
        batch = _batch(12, 4 + step)
        rep, base = backbone_cache(backbone, batch)
        outs.append(adapter_step_cached(backbone, bank, rep, base, batch.click, batch.purchase,
                                        np.array([0, 5, 5, 9, 12]), np.array([0.05, 0.05, 0.0, 0.02]), beta))
    return outs, {p.name: p.data.tobytes() for p in bank.params}


def test_bank_step_equals_the_composed_layers(graph_sizes, request):
    fused = _bank_step(1e-3)
    request.getfixturevalue("composed")
    assert _bank_step(1e-3) == fused
    assert graph_sizes[0] < graph_sizes[-1]


@pytest.mark.parametrize("beta", [1e-3, 0.0])
def test_bank_step_equals_the_composed_losses(graph_sizes, request, beta):
    fused = _bank_step(beta)
    assert [sorted(out) for out in fused[0]] == [[0, 3]] * 2  # the rowless and the zero-rate adapter never step
    request.getfixturevalue("composed_losses")
    assert _bank_step(beta) == fused
    # composed: 8 more nodes per cross-entropy, 2 per weight sample and, with
    # a KL term, 18 more for its two chains and their sum
    fused_nodes, composed_nodes = graph_sizes[0], graph_sizes[0] + 20 + (18 if beta else 0)
    assert graph_sizes == [fused_nodes] * 2 + [composed_nodes] * 2


def test_bank_step_graph_at_the_default_adapter_shape(graph_sizes, request):
    """A bank step at the default decoder (one hidden layer) records 28 nodes
    fused and 66 with the composed loss chains."""
    _bank_step(1e-3, IAKConfig().decoder_hidden, steps=1)
    request.getfixturevalue("composed_losses")
    _bank_step(1e-3, IAKConfig().decoder_hidden, steps=1)
    assert graph_sizes == [28, 66]


# every op a forward can run, and the kernels a frozen forward runs in their place
OPS = ("add", "mul", "sigmoid", "linear", "gate_mix", "concat", "slice_cols", "gather_rows", "reduce_sum",
       "segment_linear", "clipped_bce", "gaussian_kl", "weight_sample")
KERNELS = ("linear_kernel", "gate_mix_kernel", "sigmoid_kernel", "gather_rows_kernel")


def _count_calls(monkeypatch, names):
    """Wrap each `ad` function in `names` so that every call appends its name
    to the returned list."""
    made = []

    def counted(name, fn):
        def run(*args, **kwargs):
            made.append(name)
            return fn(*args, **kwargs)
        return run

    for name in names:
        monkeypatch.setattr(ad, name, counted(name, getattr(ad, name)))
    return made


@pytest.mark.parametrize("domain_ids, served_by", [
    ({"scene": 1, "region": 0, "period": 2}, "a2"),
    ({"scene": 5, "region": 0, "period": 7}, "zero_shot"),
], ids=["adapted", "zero_shot"])
def test_eager_score_graph_at_the_default_shapes(monkeypatch, domain_ids, served_by):
    """One eager `router.score` of the default backbone through 5 default
    adapters runs no `ad` op at all. It runs the kernels: one lookup, the
    backbone's 11 dense layers and 2 gates, 3 dense layers per adapter, and
    one sigmoid for the one prediction it serves, the served adapter's or,
    for a zero-shot request, the backbone's."""
    backbone = build_model(ModelConfig(), SPACE, seed=1)
    selectors = [{"period": k} for k in range(3)] + [{"scene": k} for k in range(2)]
    adapters = {f"a{k}": IAKAdapter(backbone.rep_dim, backbone.n_heads, IAKConfig(), sel, seed=k)
                for k, sel in enumerate(selectors)}
    router = DomainRouter(backbone, adapters)
    request = ScoreRequest(user_id=3, item_id=4, domain_ids=domain_ids, feature_ids=[1, 2, 3, 4])
    made = _count_calls(monkeypatch, OPS + KERNELS)
    assert router.score(request).served_by == served_by
    assert sorted(Counter(made).items()) == [("gate_mix_kernel", 2), ("gather_rows_kernel", 1),
                                             ("linear_kernel", 11 + 5 * 3), ("sigmoid_kernel", 1)]


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_a_frozen_forward_builds_no_graph_node(monkeypatch, kind):
    """Eager serving (an adapted and a zero-shot request) and a scored split
    (its `backbone_cache` pass, zero-shot and adapted slices) run no `ad` op
    at all: the frozen backbone and adapters run their kernels on bare
    arrays."""
    backbone = build_model(ModelConfig(kind=kind, hidden_sizes=(10, 5)), SPACE, seed=1)
    config = IAKConfig(d_e=4, decoder_hidden=(6,))
    adapters = {f"period={k}": IAKAdapter(backbone.rep_dim, backbone.n_heads, config, {"period": k}, seed=k)
                for k in range(2)}
    router = DomainRouter(backbone, adapters)
    made = _count_calls(monkeypatch, OPS + ("_make",))
    for period, served_by in ((1, "period=1"), (7, "zero_shot")):
        request = ScoreRequest(user_id=3, item_id=4, domain_ids={"scene": 1, "region": 0, "period": period},
                               feature_ids=[1, 2, 3, 4])
        assert router.score(request).served_by == served_by
    split = SplitPass(backbone, _batch(9, 3))
    split.zero_shot()
    split.adapted(adapters["period=1"], slice(None))
    assert made == []


def _twins(kind, seed=1):
    """A model frozen whole and its trainable twin: the same weights, run
    on bare arrays and through a recorded graph."""
    frozen, live = (build_model(ModelConfig(kind=kind, hidden_sizes=(10, 5)), SPACE, seed=seed) for _ in range(2))
    frozen.freeze()
    return frozen, live


def _outputs(out):
    """The bytes of a forward's logits, representation and probabilities,
    bare arrays or a graph's."""
    pred = out.prediction
    return [(v.data if isinstance(v, ad.Tensor) else v).tobytes()
            for v in (out.logits, out.representation, pred.p_ctr, pred.p_ctcvr, pred.p_cvr) if v is not None]


@pytest.mark.parametrize("rows", [1, 7, FROZEN_CHUNK + 1])
@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_the_bare_path_equals_the_graph_path_bitwise(kind, rows):
    """A frozen forward on bare arrays gives the bits of the graph forward of
    the same weights: logits, representation and every probability, on one
    row, a few, and one past a chunk, whole and through `backbone_cache`'s
    chunks. On either twin, the forward from the assembled row
    (`forward_from`) gives the bits of the forward of the batch."""
    frozen, live = _twins(kind)
    batch = _batch(rows, rows)
    bare, graph = frozen.forward_full(batch), live.forward_full(batch)
    assert type(bare.logits) is np.ndarray and graph.logits.requires_grad
    assert _outputs(bare) == _outputs(graph)
    for model, out in ((frozen, bare), (live, graph)):
        assert _outputs(model.forward_from(model.embeddings.assemble(batch))) == _outputs(out)
    rep, logits = backbone_cache(frozen, batch)
    chunks = [live.forward_full(batch[start:start + FROZEN_CHUNK]) for start in range(0, rows, FROZEN_CHUNK)]
    assert rep.tobytes() == np.concatenate([c.representation.data for c in chunks]).tobytes()
    assert logits.tobytes() == np.concatenate([c.logits.data for c in chunks]).tobytes()


@pytest.mark.parametrize("rows", [1, 7, FROZEN_CHUNK + 1])
def test_a_bare_adapted_prediction_equals_the_adapter_graph_bitwise(rows):
    """A frozen adapter over bare arrays gives the bits of `adapter_graph` on
    `ad.linear` over the same weights, recorded, plus the logits' add."""
    rng = np.random.default_rng(rows)
    backbone, _ = _twins("esmm")
    config = IAKConfig(d_e=4, decoder_hidden=(6, 5))
    adapter = IAKAdapter(backbone.rep_dim, backbone.n_heads, config, {"period": 1}, seed=3)
    adapter.decoder_out.w.data[:] = rng.normal(size=adapter.decoder_out.w.shape)
    twin = IAKAdapter(backbone.rep_dim, backbone.n_heads, config, {"period": 1}, seed=None)
    twin.restore(adapter.named_parameters())
    adapter.freeze()
    rep, logits = rng.normal(size=(rows, backbone.rep_dim)), rng.normal(size=(rows, backbone.n_heads))
    bare = adapted_prediction(backbone, adapter, rep, logits)
    corr = adapter_graph(ad.Tensor(rep), twin._means, twin.encoder.scale, ad.linear)
    assert corr.requires_grad
    graph = ModelOutput(ad.add(ad.Tensor(logits), corr), ad.Tensor(rep), backbone.predict_from_logits)
    assert type(bare.logits) is np.ndarray and _outputs(bare) == _outputs(graph)


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_the_frozen_logits_gradcheck_against_a_trainable_assembled_row(kind):
    """The gradient an input-side adapter trains on: a frozen backbone's
    logits, weighted, against its assembled row made a trainable parameter.
    The forward records a graph, only the row takes a gradient, and the
    model stays frozen whole."""
    frozen, _ = _twins(kind)
    row = ad.Parameter(frozen.embeddings.assemble(_batch(3, 4)), "row")
    upstream = np.random.default_rng(5).normal(size=(3, frozen.n_heads))
    assert_grads_match(lambda: ad.reduce_sum(ad.mul(frozen.forward_from(row).logits, upstream)), [row], ad.backward)
    assert np.any(row.grad != 0.0) and frozen.frozen
    assert all(p._grad_unset() for p in frozen.parameters())


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_a_bare_row_on_a_trainable_model_records_a_graph(kind):
    """A bare assembled row on a model not frozen whole is a constant of the
    graph: the forward records one, and every dense weight takes, bit for
    bit, the gradient the forward of the batch whose row it is gives it."""
    _, live = _twins(kind)
    batch = _batch(7, 3)
    upstream = np.random.default_rng(6).normal(size=(7, live.n_heads))
    dense = live.parameters()[1:]

    def dense_grads(out):
        ad.zero_grads(live.parameters())
        ad.backward(ad.reduce_sum(ad.mul(out.logits, upstream)))
        return [p.grad.tobytes() for p in dense]

    from_batch = dense_grads(live.forward_full(batch))
    out = live.forward_from(live.embeddings.assemble(batch).data)
    assert out.logits.requires_grad
    assert dense_grads(out) == from_batch
    assert live.embeddings.rows._grad_unset()


def test_a_frozen_prediction_reads_views_of_one_sigmoid_and_a_graph_copies():
    frozen, live = _twins("base")
    batch = _batch(5, 1)
    bare = frozen.forward_full(batch).prediction
    assert bare.p_ctr.base is bare.p_ctcvr.base is not None
    graph = live.forward_full(batch).prediction
    assert not np.shares_memory(graph.p_ctr.data, graph.p_ctcvr.data)


@pytest.mark.parametrize("group", ["embeddings.rows", "expert1.l1.w", "gate_ctcvr.b", "stacked_logits.w"])
def test_a_partly_unfrozen_backbone_records_a_graph_and_the_group_a_gradient(group):
    """A backbone frozen by a router, then one group set trainable again,
    leaves the bare path: its forward records a graph, and the group takes
    a gradient, while the router refuses to score. Freezing it whole again
    goes back to bare arrays, and the router serves the same scores."""
    frozen, _ = _twins("base")
    config = IAKConfig(d_e=4, decoder_hidden=(6,))
    router = DomainRouter(frozen, {"period=1": IAKAdapter(frozen.rep_dim, frozen.n_heads, config, {"period": 1},
                                                          seed=2)})
    (param,) = [p for p in frozen.parameters() if p.name == group]
    batch = _batch(6, 2)
    assert frozen.frozen and type(frozen.forward_full(batch).logits) is np.ndarray
    request = ScoreRequest(user_id=3, item_id=4, domain_ids={"period": 1}, feature_ids=[1, 2])
    served = router.score(request)
    param.set_trainable(True)
    with pytest.raises(AdapterError, match="no longer frozen whole"):
        router.score(request)
    assert not frozen.frozen
    out = frozen.forward_full(batch)
    assert out.logits.requires_grad and isinstance(out.representation, ad.Tensor)
    ad.backward(ad.reduce_sum(out.logits))
    assert np.any(param.grad != 0.0)
    assert all(not p.requires_grad for p in frozen.parameters() if p is not param)
    frozen.freeze()
    assert frozen.frozen and type(frozen.forward_full(batch).logits) is np.ndarray
    assert (router.score(request).p_ctr, router.score(request).p_ctcvr) == (served.p_ctr, served.p_ctcvr)


def test_an_adapter_thawed_since_its_freeze_does_not_score():
    """An adapter scores only frozen whole: one parameter set trainable
    again makes scoring raise, on bare arrays or on tensors, until it is
    frozen again."""
    backbone, _ = _twins("base")
    adapter = IAKAdapter(backbone.rep_dim, backbone.n_heads, IAKConfig(d_e=4), {"period": 1}, seed=2)
    adapter.freeze()
    rep, logits = backbone_cache(backbone, _batch(3, 1))
    bare = adapted_prediction(backbone, adapter, rep, logits)
    assert type(bare.logits) is np.ndarray
    adapter.decoder_out.b.set_trainable(True)
    assert not adapter.frozen
    for inputs in ((rep, logits), (ad.Tensor(rep), ad.Tensor(logits))):
        with pytest.raises(AdapterError, match="frozen whole"):
            adapted_prediction(backbone, adapter, *inputs)
    adapter.freeze()
    assert adapted_prediction(backbone, adapter, rep, logits).logits.tobytes() == bare.logits.tobytes()


def _small_base():
    return build_model(ModelConfig(kind="base", hidden_sizes=(10, 5)), SPACE, seed=1)


def _freeze_after(mutate):
    """Build a small BaseRecommender, `mutate` it, then freeze it."""
    def run():
        model = _small_base()
        mutate(model)
        model.freeze()
    return run


def _freeze_adapter_after(mutate):
    def run():
        adapter = IAKAdapter(6, 2, IAKConfig(d_e=4, decoder_hidden=(5,)), {"period": 1}, seed=1)
        mutate(adapter)
        adapter.freeze()
    return run


def _score(batch=None, row=None, logits=None):
    """Score a frozen small BaseRecommender: a forward over `batch` or from a
    bare assembled `row`, or a prediction of bare `logits`."""
    def run():
        model = _small_base()
        model.freeze()
        if batch is not None:
            model.forward_full(batch)
        elif row is not None:
            model.forward_from(row)
        else:
            model.predict_from_logits(logits)
    return run


def _set(param_of, value):
    return lambda owner: setattr(param_of(owner), "data", value)


_UNFITTED = Dataset(**{**vars(_batch(3, 1)), "features": np.zeros((3, 3), dtype=np.int64)})
# Each input check an op makes on every call (`test_autodiff.GRAPH_FREE_ERRORS`),
# made by a frozen forward once: when the model or adapter is frozen (a bad
# slope, weight, bias or table, set after build) or at the entry (the batch's
# fitted width, the assembled row's shape, the logits a prediction is built from)
FREEZE_ERRORS = {
    "linear_shape": (_freeze_after(_set(lambda m: m.core.experts[0].layers[0].w, np.ones((3, 10)))), ad.ShapeError,
                     r"expert0.l0.w and expert0.l0.b are \(3, 10\) and \(10,\); their layer needs \(72, 10\)"),
    "linear_bias": (_freeze_after(_set(lambda m: m.towers[1].layers[0].b, np.zeros(1))), ad.ShapeError,
                    r"tower_ctcvr.l0.b are \(5, 5\) and \(1,\)"),
    "linear_slope": (_freeze_after(lambda m: setattr(m.core.experts[1].layers[1], "slope", 1.5)), ValueError,
                     "slope must be in"),
    "gate_mix_shape": (_freeze_after(_set(lambda m: m.core.gates[0].w, np.ones((72, 3)))), ad.ShapeError,
                       r"gate_ctr.w and gate_ctr.b are \(72, 3\) and \(2,\); their layer needs \(72, 2\)"),
    "gather_rows_past_the_end": (_freeze_after(_set(lambda m: m.embeddings.rows, np.zeros((30, 8)))),
                                 ad.ShapeError, r"embeddings.rows is \(30, 8\); its ranges need \(84, 8\)"),
    "gather_rows_unfitted_batch": (_score(batch=_UNFITTED), ModelError, "batch has 3 feature columns, the model 4"),
    "row_width": (_score(row=np.zeros((3, 71))), ModelError, r"an assembled row is \(B, 72\), got \(3, 71\)"),
    "row_ndim": (_score(row=np.zeros(72)), ModelError, r"an assembled row is \(B, 72\), got \(72,\)"),
    "adapter_shape": (_freeze_adapter_after(_set(lambda a: a.decoder_hidden[0].w, np.ones((5, 5)))), ad.ShapeError,
                      r"dec0.b are \(5, 5\) and \(5,\); their layer needs \(4, 5\)"),
    "adapter_encoder_shape": (_freeze_adapter_after(_set(lambda a: a.encoder.mu_b, np.zeros(3))), ad.ShapeError,
                              r"enc0.mu_b are \(6, 4\) and \(3,\)"),
    "slice_cols_ndim": (_score(logits=np.zeros(3)), ad.ShapeError, r"logits of shape \(3,\) for 2 heads"),
    "slice_cols_width": (_score(logits=np.zeros((3, 3))), ad.ShapeError, r"logits of shape \(3, 3\) for 2 heads"),
}


@pytest.mark.parametrize("case", sorted(FREEZE_ERRORS))
def test_a_frozen_forward_checks_at_freeze_and_at_the_entry(case):
    call, error, message = FREEZE_ERRORS[case]
    with pytest.raises(error, match=message):
        call()


def test_a_failed_freeze_check_freezes_nothing():
    model = _small_base()
    model.core.gates[1].slope = -0.0
    with pytest.raises(ValueError, match="slope must be in"):
        model.freeze()
    assert not model.frozen and all(p.requires_grad for p in model.parameters())


def test_the_entry_maps_every_id_into_the_table():
    """A frozen forward's lookup is not checked per call: the entry maps a
    negative id and one past its column's vocabulary to that column's
    out-of-vocab row (the ids `gather_rows` would reject), as the graph's
    lookup does."""
    frozen, live = _twins("base")
    batch = _batch(40, 5)
    assert (batch.user < 0).any() and (batch.user >= SPACE.n_users).any()
    bare = frozen.embeddings.assemble(batch)
    graph = live.embeddings.assemble(batch)
    assert type(bare) is np.ndarray and bare.tobytes() == graph.data.tobytes()
    oov_user = frozen.embeddings.rows.data[frozen.embeddings.ranges["user_emb.rows"][0]]
    outside = (batch.user < 0) | (batch.user >= SPACE.n_users)
    assert (bare[outside, :frozen.config.embed_dim] == oov_user).all()


def _lone_steps(beta):
    """(loss and norm of each step, parameter bytes) of two steps of one
    adapter trained alone through the reference step (its one-adapter IB
    loss, `adapter_reference.lone_ib_loss`)."""
    backbone = build_model(ModelConfig(kind="base", hidden_sizes=(10, 5)), SPACE, seed=2)
    backbone.freeze()
    adapter = IAKAdapter(backbone.rep_dim, backbone.n_heads, IAKConfig(d_e=4, beta=beta, decoder_hidden=(6,)),
                         {"period": 1}, seed=5)
    adapter.decoder_out.w.data[:] = np.random.default_rng(6).normal(size=adapter.decoder_out.w.shape)
    state = ReferenceState()
    outs = []
    for step in range(2):
        batch = _batch(9, 7 + step)
        rep, base = backbone_cache(backbone, batch)
        outs.append(reference_step(backbone, adapter, rep, base, batch.click, batch.purchase, state, 0.05, beta))
    return outs, {n: v.tobytes() for n, v in adapter.named_parameters().items()}


@pytest.mark.parametrize("beta", [1e-2, 0.0])
def test_lone_adapter_step_equals_the_composed_losses(request, beta):
    fused = _lone_steps(beta)
    request.getfixturevalue("composed_losses")
    assert _lone_steps(beta) == fused


# -- the embedding lookup ----------------------------------------------------


def _lookup_step(gather):
    """The number of row-gradient pairs recorded, then the output's bytes,
    the summed gradient of the touched rows and the table's bytes after one
    Adagrad step, of a lookup through `gather` into one table of four
    column ranges. The rows come from raw ids holding an out-of-vocab id, a
    -1 pad and a repeated id."""
    rng = np.random.default_rng(8)
    vocab = np.array([6, 3, 4, 2])
    first = np.concatenate(([0], np.cumsum(vocab + 1)[:-1]))
    table = ad.Parameter(rng.normal(size=(int((vocab + 1).sum()), 3)), "table")
    raw = np.array([[0, 2, 1, -1], [6, -1, 3, 0], [2, 2, 9, 1], [5, 0, -1, -1]])
    out = gather(table, _safe_rows(raw, vocab, first))
    ad.backward(ad.reduce_sum(ad.mul(out, rng.normal(size=out.shape))))
    n_pairs = len(table._row_grads)
    rows, g = touched_grad(table)
    ad.adagrad_decay_step(ad.AdagradDecay([table], 0.9999, 1e-8, table=table), 0.05)
    return n_pairs, (out.data.tobytes(), rows.tobytes(), g.tobytes(), table.data.tobytes())


def test_gather_rows_equals_a_lookup_per_column_and_concat_bitwise():
    (fused_pairs, fused), (composed_pairs, composed) = _lookup_step(ad.gather_rows), _lookup_step(composed_gather_rows)
    assert fused == composed
    assert (fused_pairs, composed_pairs) == (1, 4)


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_a_pretrain_step_makes_one_lookup_whose_gradient_the_table_holds_uncopied(kind, monkeypatch):
    """One pretrain step of each kind calls `ad.gather_rows` once, and the
    table then holds one row-gradient pair whose values share memory with
    that lookup's output gradient."""
    lookups = []
    gather = ad.gather_rows
    monkeypatch.setattr(ad, "gather_rows", lambda *a: lookups.append(gather(*a)) or lookups[-1])
    model = build_model(ModelConfig(kind=kind), SPACE, seed=1)
    pretrain_step(model, _batch(64, 1), pretrain_optimizer(model, TrainConfig()), 0.05)
    (out,) = lookups
    ((rows, values),) = model.embeddings.rows._row_grads
    assert rows.shape == (64 * 9,) and values.shape == (64 * 9, model.config.embed_dim)
    assert np.shares_memory(values, out.grad)


def test_assemble_is_one_lookup_node_equal_to_a_lookup_per_id_column():
    space = FeatureSpace(n_users=20, n_items=15, n_scenes=2, n_regions=3, n_periods=3, n_feature_cols=6)
    model = build_model(ModelConfig(), space, seed=1)
    batch = encode_records(_batch(30, 2), space)  # user ids 20 and 21 are out of vocab; two -1 feature pads
    emb = model.embeddings
    columns = [batch.user, batch.item, batch.scene, batch.region, batch.period, *batch.features.T]
    names = ["user", "item", "scene", "region", "period", *(f"feat{c}" for c in range(space.n_feature_cols))]
    vocab = [space.n_users, space.n_items, space.n_scenes, space.n_regions, space.n_periods]
    vocab += [space.n_feature_buckets] * space.n_feature_cols
    # each column's ids looked up in its own range, a view of the table whose
    # row 0 is the out-of-vocab row
    ranges = {name: emb.rows.data[start:end] for name, (start, end) in emb.ranges.items()}
    per_column = ad.concat([ad.gather_rows(ranges[f"{n}_emb.rows"], np.where((c >= 0) & (c < v), c + 1, 0))
                            for n, c, v in zip(names, columns, vocab)])
    out = emb.assemble(batch)
    assert out.data.tobytes() == per_column.data.tobytes()
    assert out._parents == (emb.rows,)
    assert (batch.user >= 20).any() and (batch.features[:, 4:] == -1).all()


# -- the fused loss nodes, op by op -------------------------------------------

LO, HI = 0.1, 0.9
# a segment of length 1 and an empty segment among longer ones
SEGMENTS = [0, 2, 3, 3, 6]
# tiny upstream gradients underflow to -0.0 once scaled, which the chains'
# first-gradient normalisation turns into +0.0
UPSTREAMS = [1.0, -1.0, 5e-324, -5e-324, -1e-320, 0.0, 2.5e300]


def _sweep(op, arrays, upstream, *args):
    """Output and input gradients of `op` under sum(op(*arrays) * upstream),
    as bytes."""
    params = [ad.Parameter(a, f"x{i}") for i, a in enumerate(arrays)]
    out = op(*params, *args)
    ad.backward(ad.reduce_sum(ad.mul(out, upstream)))
    return [np.asarray(out.data).tobytes()] + [p.grad.tobytes() for p in params]


def _probabilities():
    """(6, 1) probabilities: both clamp bounds, values past each, a signed
    zero and two inside, with 0/1 labels."""
    p = np.array([[LO], [0.05], [-0.0], [0.3], [HI], [0.97]])
    return p, np.array([1, 0, 1, 0, 1, 1])


@pytest.mark.parametrize("offsets", [None, SEGMENTS], ids=["plain", "segmented"])
def test_clipped_bce_equals_the_composed_chain_bitwise(offsets):
    p, y = _probabilities()
    for u in UPSTREAMS:
        upstream = u if offsets is None else np.array([u, -u, 1.0, 2.0])
        fused = _sweep(ad.clipped_bce, [p], upstream, y, LO, HI, offsets)
        assert fused == _sweep(composed_clipped_bce, [p], upstream, y, LO, HI, offsets)


def _gaussian(seed, shape):
    """mu and rho of `shape`: signed zeros, a sigma that is nearly 0 and one
    that is large."""
    rng = np.random.default_rng(seed)
    mu, rho = rng.normal(size=shape), rng.normal(size=shape)
    mu.flat[:2] = 0.0, -0.0
    rho.flat[2:4] = -700.0, 40.0
    return mu, rho


@pytest.mark.parametrize("offsets", [None, [0, 1, 1, 3, 4], [0, 1, 2, 3, 4]], ids=["plain", "segmented", "per_slab"])
def test_gaussian_kl_equals_the_composed_chain_bitwise(offsets):
    mu, rho = _gaussian(1, (4, 2, 3))
    for u in UPSTREAMS[:-1]:
        upstream = u if offsets is None else np.array([u, -u, 1.0, 3.0])
        fused = _sweep(ad.gaussian_kl, [mu, rho], upstream, offsets)
        assert fused == _sweep(composed_gaussian_kl, [mu, rho], upstream, offsets)


@pytest.mark.parametrize("eps_shape", [(3, 2), (5, 3, 2)], ids=["plain", "broadcast"])
def test_weight_sample_equals_the_composed_chain_bitwise(eps_shape):
    mu, rho = _gaussian(2, (3, 2))
    eps = np.random.default_rng(3).normal(size=eps_shape)
    eps.flat[:2] = 0.0, -0.0
    for u in UPSTREAMS:
        fused = _sweep(ad.weight_sample, [mu, rho], u, eps)
        assert fused == _sweep(composed_weight_sample, [mu, rho], u, eps)


@pytest.mark.parametrize("offsets", [None, SEGMENTS], ids=["plain", "segmented"])
def test_clipped_bce_gradients_match_finite_differences(offsets):
    p_init, y = _probabilities()
    p_init[[0, 4], 0] = 0.2, 0.8  # on a bound the clamp has a kink, so move those inside
    p = ad.Parameter(p_init, "p")
    weights = ad.Tensor([0.7, -1.3, 2.0, 0.4])

    def loss_fn():
        loss = ad.clipped_bce(p, y, LO, HI, offsets)
        return loss if offsets is None else ad.reduce_sum(ad.mul(loss, weights))

    ad.zero_grads([p])
    assert_grads_match(loss_fn, [p], ad.backward)
    # past either bound the clamp holds p still: no gradient
    assert p.grad[[1, 2, 5], 0].tolist() == [0.0, 0.0, 0.0] and p.grad[[0, 3, 4], 0].all()


def test_clipped_bce_of_an_empty_segment_is_zero():
    p, y = _probabilities()
    loss = ad.clipped_bce(ad.Parameter(p, "p"), y, LO, HI, SEGMENTS)
    assert loss.data[2] == 0.0 and (loss.data[[0, 1, 3]] > 0).all()


@pytest.mark.parametrize("offsets", [None, [0, 1, 1, 3, 4]], ids=["plain", "segmented"])
def test_gaussian_kl_gradients_match_finite_differences(offsets):
    rng = np.random.default_rng(4)
    mu = ad.Parameter(rng.normal(size=(4, 2, 3)), "mu")
    rho = ad.Parameter(rng.normal(size=(4, 2, 3)), "rho")
    weights = ad.Tensor([0.5, 1.7, -0.8, 1.1])

    def loss_fn():
        kl = ad.gaussian_kl(mu, rho, offsets)
        return kl if offsets is None else ad.reduce_sum(ad.mul(kl, weights))

    ad.zero_grads([mu, rho])
    assert_grads_match(loss_fn, [mu, rho], ad.backward)


@pytest.mark.parametrize("eps_shape", [(3, 2), (5, 3, 2)], ids=["plain", "broadcast"])
def test_weight_sample_gradients_match_finite_differences(eps_shape):
    rng = np.random.default_rng(5)
    mu, rho = ad.Parameter(rng.normal(size=(3, 2)), "mu"), ad.Parameter(rng.normal(size=(3, 2)), "rho")
    eps = rng.normal(size=eps_shape)
    upstream = ad.Tensor(rng.normal(size=eps_shape))
    ad.zero_grads([mu, rho])
    assert_grads_match(lambda: ad.reduce_sum(ad.mul(ad.weight_sample(mu, rho, eps), upstream)), [mu, rho],
                       ad.backward)


# -- the gate ----------------------------------------------------------------


def _gate_case(n_experts):
    """(5, E) gate logits and E (5, 4) expert outputs: a row of tied logits,
    a row where one expert takes all the weight (the others' weights
    underflow to 0), a row whose max is its last logit, a row of mixed
    signed zeros, and signed zeros in the experts."""
    rng = np.random.default_rng(n_experts)
    logits = rng.normal(size=(5, n_experts))
    logits[0] = 0.0
    logits[1, 0] = 800.0
    logits[2, -1] = 4.0  # a row whose max is in the last column
    logits[4, ::2] = -0.0  # a row whose max ties a signed zero with zeros
    logits[4, 1::2] = 0.0
    experts = [rng.normal(size=(5, 4)) for _ in range(n_experts)]
    for e in experts:
        e[2, :2] = 0.0, -0.0
        e[3, 0] = 0.0
    return logits, experts


def _gate(mix):
    return lambda gate, *experts: mix(gate, experts)


# the gate takes its softmax's row max as a fold over the E columns, exact
# for any E: widths up to one past a power of two
GATE_WIDTHS = [1, 2, 3, 8, 9, 16]


@pytest.mark.parametrize("n_experts", GATE_WIDTHS)
def test_gate_mix_equals_the_composed_chain_bitwise(n_experts):
    logits, experts = _gate_case(n_experts)
    entrywise = np.resize(np.array(UPSTREAMS[:-1] + [-2.0]), (5, 4))
    for u in [*UPSTREAMS, entrywise]:
        fused = _sweep(_gate(ad.gate_mix), [logits, *experts], u)
        assert fused == _sweep(_gate(composed_gate_mix), [logits, *experts], u)


@pytest.mark.parametrize("n_experts", GATE_WIDTHS)
def test_a_graph_free_gate_mix_equals_the_composed_chain_bitwise(n_experts):
    logits, experts = _gate_case(n_experts)
    gate, *frozen = (ad.Parameter(a, f"x{i}", trainable=False) for i, a in enumerate([logits, *experts]))
    free = ad.gate_mix(gate, frozen)
    assert free._parents == () and not free.requires_grad
    assert free.data.tobytes() == composed_gate_mix(gate, frozen).data.tobytes()
    assert ad.gate_mix_kernel(logits, experts)[1].tobytes() == free.data.tobytes()


@pytest.mark.parametrize("n_experts", [2, 3])
def test_gate_mix_of_a_shared_input_equals_the_composed_chain_bitwise(n_experts):
    """Two gates and the experts all read one input, as in the mixture core:
    the input's gradient adds their contributions in the chain's order."""

    def grads(mix):
        rng = np.random.default_rng(10 + n_experts)
        x = ad.Parameter(rng.normal(size=(6, 3)), "x")
        layers = [(ad.Parameter(rng.normal(size=(3, 4)), f"w{e}"), ad.Parameter(rng.normal(size=4), f"b{e}"))
                  for e in range(n_experts)]
        gates = [(ad.Parameter(rng.normal(size=(3, n_experts)), f"g{t}"), ad.Parameter(np.zeros(n_experts), f"c{t}"))
                 for t in range(2)]
        experts = [ad.linear(x, w, b, slope=0.01) for w, b in layers]
        mixed = ad.concat([mix(ad.linear(x, w, b), experts) for w, b in gates], axis=1)
        ad.backward(ad.reduce_sum(ad.mul(mixed, rng.normal(size=mixed.shape))))
        params = [x, *(p for pair in layers + gates for p in pair)]
        return [mixed.data.tobytes()] + [p.grad.tobytes() for p in params]

    assert grads(ad.gate_mix) == grads(composed_gate_mix)


@pytest.mark.parametrize("n_experts", [1, 2, 3])
def test_gate_mix_gradients_match_finite_differences(n_experts):
    rng = np.random.default_rng(20 + n_experts)
    gate = ad.Parameter(rng.normal(size=(4, n_experts)), "gate")
    experts = [ad.Parameter(rng.normal(size=(4, 3)), f"e{e}") for e in range(n_experts)]
    upstream = ad.Tensor(rng.normal(size=(4, 3)))
    ad.zero_grads([gate, *experts])
    assert_grads_match(lambda: ad.reduce_sum(ad.mul(ad.gate_mix(gate, experts), upstream)), [gate, *experts],
                       ad.backward)


def test_gate_mix_shapes_are_checked():
    with pytest.raises(ad.ShapeError, match="gate_mix needs"):
        ad.gate_mix(np.ones((3, 3)), [np.ones((3, 2))] * 2)
    with pytest.raises(ad.ShapeError, match="gate_mix needs"):
        ad.gate_mix(np.ones((3, 2)), [np.ones((3, 2)), np.ones((2, 2))])
    with pytest.raises(ad.ShapeError, match="gate_mix needs"):
        ad.gate_mix(np.ones(2), [np.ones((1, 2))] * 2)


def test_fused_loss_shapes_are_checked():
    with pytest.raises(ValueError):
        ad.clipped_bce(np.full((3, 1), 0.5), np.ones(2), LO, HI)
    with pytest.raises(ad.ShapeError):
        ad.clipped_bce(np.full((3, 1), 0.5), np.ones(3), LO, HI, [0, 2])
    with pytest.raises(ad.ShapeError):
        ad.gaussian_kl(np.ones((2, 3)), np.ones((3, 2)))
    with pytest.raises(ad.ShapeError):
        ad.weight_sample(np.ones((2, 3)), np.ones(3), np.ones((2, 3)))


def test_an_underflowing_sigma_raises_in_the_lone_and_the_bank_kl():
    # softplus(-750) is 0.0 in float64: log sigma, and so the KL, is infinite
    adapters = [IAKAdapter(6, 2, IAKConfig(d_e=3), {"period": k}, seed=k) for k in range(2)]
    adapters[0].encoder.rho_b.data[1] = -750.0
    with pytest.raises(ad.NonFiniteError, match="output of gaussian_kl"):
        lone_encoder_kl(adapters[0])
    assert np.isfinite(lone_encoder_kl(adapters[1]).data)
    bank = AdapterBank(adapters[1:], decay=0.9999, epsilon=1e-8)
    bank.params[2].data[0, 2, 1] = -750.0  # adapter 1's rho_w, through the bank's stacked slab
    with pytest.raises(ad.NonFiniteError, match="output of gaussian_kl"):
        bank.encoder_kl(tuple(ad.softplus_parts(rho.data) for rho in bank.params[2:4]))
