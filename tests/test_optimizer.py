"""`ad.adagrad_decay_step` runs decayed Adagrad once per arena of its
state's layout (the dense weights flat, the embedding tables stacked), and
must leave every parameter and every piece of optimizer state exactly where
a step per parameter (`optimizer_reference`) leaves them. The contract tests
here hold for a step per parameter as well."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iakrec import autodiff as ad
from iakrec.datagen import Dataset
from iakrec.models import MODEL_KINDS, FeatureSpace, ModelConfig, build_model, encode_records
from iakrec.trainer import pretrain_step

from optimizer_reference import reference_adagrad_decay_step, touched_grad

SPACE = FeatureSpace(n_users=30, n_items=20, n_scenes=2, n_regions=3, n_periods=3)
# parameters per kind: 9 embedding tables plus the dense weights and biases
N_PARAMS = {"shared_bottom": 23, "esmm": 25, "mmoe": 33, "base": 31}


def _batch(n, seed, space=SPACE):
    rng = np.random.default_rng(seed)
    click = rng.integers(0, 2, n)
    return encode_records(Dataset(
        timestamp=np.arange(n), user=rng.integers(-1, space.n_users + 1, n), item=rng.integers(0, space.n_items, n),
        scene=rng.integers(0, space.n_scenes, n), region=rng.integers(0, space.n_regions, n),
        period=rng.integers(0, space.n_periods, n), features=rng.integers(-1, 8, (n, 4)), click=click,
        purchase=click * rng.integers(0, 2, n),
    ), space)


def _state_bytes(state, names):
    """Every piece of `state` by parameter name, as bytes."""
    return ({n: state.steps.get(n) for n in names},
            {n: a.tobytes() for n, a in state.accumulators.items()},
            {n: a.tobytes() for n, a in state.last_step.items()})


# -- the arena against the step per parameter ---------------------------------

SHAPES = {"table": lambda rng: (int(rng.integers(1, 7)), 3), "odd_table": lambda rng: (int(rng.integers(1, 5)), 2),
          "matrix": lambda rng: (int(rng.integers(1, 4)), int(rng.integers(1, 4))),
          "vector": lambda rng: (int(rng.integers(1, 5)),), "scalar": lambda rng: ()}
# what a parameter records at a step: nothing, rows, a dense gradient through
# `_accum` or set by hand, or rows and a dense gradient
MODES = ("none", "rows", "dense", "set", "mixed")


def _values(rng, shape):
    """Normal draws with exact zeros of both signs mixed in."""
    v = rng.normal(size=shape)
    v[rng.random(shape) < 0.1] = 0.0
    v[rng.random(shape) < 0.1] = -0.0
    return v


def _record(p, mode, rng):
    """Record one step's gradient of kind `mode` into `p`: row lookups are
    as long as the table or longer (the binned path) or shorter (sorted)."""
    if mode in ("dense", "mixed"):
        ad._accum(p, _values(rng, p.data.shape))
    elif mode == "set":
        p.grad = _values(rng, p.data.shape)
    if mode in ("rows", "mixed"):
        n_rows = p.data.shape[0]
        for _ in range(int(rng.integers(1, 3))):
            rows = rng.integers(0, n_rows, int(rng.integers(1, 2 * n_rows + 2)))
            p.add_row_grad(rows, _values(rng, (rows.size, p.data.shape[1])))


@settings(max_examples=150, deadline=None)
@given(kinds=st.lists(st.sampled_from(sorted(SHAPES)), min_size=1, max_size=7),
       frozen=st.lists(st.booleans(), min_size=7, max_size=7),
       plan=st.lists(st.lists(st.sampled_from(MODES), min_size=7, max_size=7), min_size=1, max_size=5),
       restored=st.lists(st.booleans(), min_size=5, max_size=5),
       toggled=st.lists(st.booleans(), min_size=5, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_arena_step_equals_a_step_per_parameter_bitwise(kinds, frozen, plan, restored, toggled, seed):
    """Random parameter lists (tables, dense weights, biases and scalars;
    frozen, idle, row, dense and mixed gradients; an array replaced between
    steps as a restore replaces it; a parameter frozen or unfrozen between
    steps, so step counts differ) leave every parameter and every state
    array where the reference leaves them."""
    rng = np.random.default_rng(seed)
    params = []
    for k, kind in enumerate(kinds):
        shape = SHAPES[kind](rng)
        rows_only = kind.endswith("table")
        params.append(ad.Parameter(_values(rng, shape), f"{kind}{k}", trainable=not frozen[k]))
        if rows_only and plan[0][k] in ("dense", "set"):
            plan[0][k] = "rows"  # lay most tables out in the table
    twins = copy.deepcopy(params)
    state, reference = ad.AdagradDecayState(decay=0.9), ad.AdagradDecayState(decay=0.9)
    names = [p.name for p in params]
    for step, modes in enumerate(plan):
        if restored[step] and step:
            k = int(rng.integers(len(params)))
            params[k].data = twins[k].data = _values(rng, params[k].data.shape)
        if toggled[step] and step:
            k = int(rng.integers(len(params)))
            params[k].set_trainable(not params[k].trainable)
            twins[k].set_trainable(params[k].trainable)
        ad.zero_grads(params)
        ad.zero_grads(twins)
        for p, q, mode in zip(params, twins, modes):
            if mode in ("rows", "mixed") and p.data.ndim != 2:
                mode = "dense"
            if p.trainable:
                draw = rng.integers(2**32)
                _record(p, mode, np.random.default_rng(draw))
                _record(q, mode, np.random.default_rng(draw))
        ad.adagrad_decay_step(params, state, 0.05)
        reference_adagrad_decay_step(twins, reference, 0.05)
        assert [p.data.tobytes() for p in params] == [q.data.tobytes() for q in twins]
        assert _state_bytes(state, names) == _state_bytes(reference, names)


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_pretrain_equals_a_step_per_parameter_bitwise(kind, monkeypatch):
    """Five pretrain steps of each model kind, through the arena and through
    the reference, leave the same bits and the same state."""
    def train(step_fn):
        model = build_model(ModelConfig(kind=kind), SPACE, seed=3)
        state = ad.AdagradDecayState(decay=0.99)
        with monkeypatch.context() as m:
            m.setattr(ad, "adagrad_decay_step", step_fn)
            for step in range(5):
                pretrain_step(model, _batch(16 + 40 * (step % 2), step), state, 0.05)
        names = [p.name for p in model.parameters()]
        return [p.data.tobytes() for p in model.parameters()], _state_bytes(state, names)

    assert train(ad.adagrad_decay_step) == train(reference_adagrad_decay_step)


# -- the contract ---------------------------------------------------------------


def _gathered(table, rows, weights):
    """Record the gradient of sum(table[rows] * weights) into `table`."""
    ad.backward(ad.reduce_sum(ad.mul(ad.gather_rows(table, np.array(rows)), ad.Tensor(weights))))


def test_state_reads_by_parameter_name():
    rng = np.random.default_rng(1)
    table = ad.Parameter(rng.normal(size=(5, 2)), "table")
    w = ad.Parameter(rng.normal(size=(3, 2)), "w")
    b = ad.Parameter(rng.normal(size=2), "b")
    idle = ad.Parameter(rng.normal(size=4), "idle")
    state = ad.AdagradDecayState()
    for _ in range(3):
        ad.zero_grads([table, w, b, idle])
        _gathered(table, [1, 3], rng.normal(size=(2, 2)))
        w.grad, b.grad = rng.normal(size=(3, 2)), rng.normal(size=2)
        ad.adagrad_decay_step([table, w, b, idle], state, lr=0.05)
    assert state.steps == {"table": 3, "w": 3, "b": 3, "idle": 3}
    assert set(state.accumulators) == set(state.last_step) == {"table", "w", "b"}
    assert [state.accumulators[n].shape for n in ("table", "w", "b")] == [(5, 2), (3, 2), (2,)]
    assert state.last_step["table"].tolist() == [0, 3, 0, 3, 0]
    assert state.last_step["w"].tolist() == [3, 3, 3] and state.last_step["b"].tolist() == [3, 3]
    assert (state.accumulators["w"] > 0).all() and not state.accumulators["table"][[0, 2, 4]].any()


def test_frozen_and_idle_parameters_neither_move_nor_decay_and_a_skipped_one_catches_up():
    decay, lr, eps = 0.5, 0.1, 1e-8
    frozen = ad.Parameter(np.array([1.0, 2.0]), "frozen", trainable=False)
    w = ad.Parameter(np.array([1.0, -1.0]), "w")
    other = ad.Parameter(np.array([3.0]), "other")
    state = ad.AdagradDecayState(decay=decay, epsilon=eps)
    g = np.array([0.5, -2.0])
    grads = [g, None, None, g]  # w records nothing at steps 2 and 3
    for step, gw in enumerate(grads, start=1):
        ad.zero_grads([frozen, w, other])
        frozen.grad = np.array([9.0, 9.0])
        other.grad = np.array([0.25])
        if gw is not None:
            w.grad = gw.copy()
        before = w.data.tobytes(), state.accumulators.get("w", np.zeros(2)).tobytes()
        ad.adagrad_decay_step([frozen, w, other], state, lr=lr)
        if gw is None:
            assert (w.data.tobytes(), state.accumulators["w"].tobytes()) == before
    assert frozen.data.tolist() == [1.0, 2.0] and "frozen" not in state.steps
    assert state.steps == {"w": 4, "other": 4} and state.last_step["w"].tolist() == [4, 4]
    # step 4 decays the accumulator for the three steps since step 1
    acc = decay ** 3 * (g * g) + g * g
    np.testing.assert_allclose(state.accumulators["w"], acc, rtol=1e-15)


def test_a_parameter_with_row_and_dense_gradients_takes_the_dense_rule_in_a_list():
    rng = np.random.default_rng(5)
    table = ad.Parameter(rng.normal(size=(6, 2)), "table")
    mixed = ad.Parameter(rng.normal(size=(4, 2)), "mixed")
    state = ad.AdagradDecayState(decay=0.9)
    for step in range(4):
        ad.zero_grads([table, mixed])
        _gathered(table, [0, 5, 5], rng.normal(size=(3, 2)))
        _gathered(mixed, [2, 2], rng.normal(size=(2, 2)))
        if step == 0:  # rows only: `mixed` is laid out in the table
            ad.adagrad_decay_step([table, mixed], state, lr=0.05)
            continue
        ad._accum(mixed, rng.normal(size=(4, 2)))
        g = mixed.grad.copy()
        acc = 0.9 * state.accumulators["mixed"] + g * g
        want = mixed.data - 0.05 * g / (np.sqrt(acc) + state.epsilon)
        ad.adagrad_decay_step([table, mixed], state, lr=0.05)
        assert mixed.data.tobytes() == want.tobytes()
        assert state.last_step["mixed"].tolist() == [step + 1] * 4


@pytest.mark.parametrize("bad", [0, 1, 2])
def test_a_non_finite_gradient_names_the_first_bad_parameter_in_list_order(bad):
    """Bad entries in a table (its summed rows), a weight and a bias: the
    error names the first bad one in the list."""
    table = ad.Parameter(np.ones((4, 2)), "table")
    w = ad.Parameter(np.ones((2, 2)), "w")
    b = ad.Parameter(np.ones(2), "b")
    state = ad.AdagradDecayState()
    for step in range(2):  # the second step runs on the layout
        ad.zero_grads([table, w, b])
        # two finite rows that overflow once summed
        table.add_row_grad(np.array([1, 1]), np.full((2, 2), 1e308) if bad <= 0 and step else np.ones((2, 2)))
        w.grad = np.array([[1.0, np.nan], [1.0, 1.0]]) if bad <= 1 and step else np.ones((2, 2))
        b.grad = np.array([1.0, -np.inf]) if step else np.ones(2)
        if not step:
            ad.adagrad_decay_step([table, w, b], state, lr=0.05)
    with pytest.raises(ad.NonFiniteError, match=f"non-finite gradient for {['table', 'w', 'b'][bad]}$"):
        ad.adagrad_decay_step([table, w, b], state, lr=0.05)


def test_parameters_of_one_step_need_distinct_names():
    """The state keeps its arrays by name, so two parameters may not share one."""
    a, b = ad.Parameter(np.ones(2), "w"), ad.Parameter(np.ones(3), "w")
    a.grad, b.grad = np.ones(2), np.ones(3)
    with pytest.raises(ValueError, match="distinct names"):
        ad.adagrad_decay_step([a, b], ad.AdagradDecayState(), 0.05)


def test_a_replaced_array_is_stepped_where_it_now_is():
    """A `restore` after a step gives a parameter a new array: the next step
    moves that array, from its values, never a stale copy."""
    rng = np.random.default_rng(2)
    w = ad.Parameter(rng.normal(size=(3, 2)), "w")
    b = ad.Parameter(rng.normal(size=2), "b")
    twins = copy.deepcopy([w, b])
    state, reference = ad.AdagradDecayState(), ad.AdagradDecayState()
    grads = [(rng.normal(size=(3, 2)), rng.normal(size=2)) for _ in range(2)]
    restored = rng.normal(size=(3, 2))
    for step, (gw, gb) in enumerate(grads):
        if step:
            w.data, twins[0].data = np.array(restored), np.array(restored)
        for params, st_, step_fn in (([w, b], state, ad.adagrad_decay_step),
                                     (twins, reference, reference_adagrad_decay_step)):
            params[0].grad, params[1].grad = gw.copy(), gb.copy()
            step_fn(params, st_, 0.05)
    assert w.data.tobytes() == twins[0].data.tobytes() and b.data.tobytes() == twins[1].data.tobytes()
    assert not np.array_equal(w.data, restored)
    w.data[0, 0] = 7.0  # the parameter's own array is what the step moves
    ad.zero_grads([w, b])
    w.grad, b.grad = np.ones((3, 2)), np.ones(2)
    ad.adagrad_decay_step([w, b], state, 0.05)
    assert 6.9 < w.data[0, 0] < 7.0


# -- the layout: two arenas, every parameter stepped --------------------------


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_every_parameter_receives_a_gradient_in_a_pretrain_step(kind):
    """No parameter of any kind is idle: the flat arena's one update covers
    every dense weight and bias at every step."""
    model = build_model(ModelConfig(kind=kind), SPACE, seed=1)
    pretrain_step(model, _batch(32, 1), ad.AdagradDecayState(), 0.05)
    params = model.parameters()
    assert len(params) == N_PARAMS[kind]
    assert [p.name for p in params if touched_grad(p) is None] == []


def test_a_base_pretrain_step_makes_one_update_per_arena(monkeypatch):
    model = build_model(ModelConfig(kind="base"), SPACE, seed=1)
    state = ad.AdagradDecayState()
    calls = []
    update = ad.adagrad_update
    monkeypatch.setattr(ad, "adagrad_update", lambda data, *a: calls.append(data.shape) or update(data, *a))
    tables = [p for p in model.parameters() if p.name.endswith("_emb.rows")]
    n_dense = sum(p.size for p in model.parameters()) - sum(p.size for p in tables)
    for step in range(3):
        calls.clear()
        pretrain_step(model, _batch(32, step), state, 0.05)
        assert calls == [(n_dense,), (sum(p.data.shape[0] for p in tables), model.config.embed_dim)]
