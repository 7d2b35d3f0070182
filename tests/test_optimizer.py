"""`ad.adagrad_decay_step` lays its parameters out at its first step, the
dense weights and biases as a one-row `ad.Arena` and each embedding table
(pretraining's one) where it is, and steps each in one pass. It must leave
every parameter and every piece of optimizer state exactly where a step per
parameter (`optimizer_reference`) leaves them, and fail loudly on a step the
layout does not fit."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iakrec import autodiff as ad
from iakrec.datagen import Dataset
from iakrec.iak import AdapterBank, IAKAdapter, IAKConfig, adapter_step_cached, backbone_cache
from iakrec.models import MODEL_KINDS, FeatureSpace, ModelConfig, build_model, encode_records
from iakrec.trainer import pretrain_step

from optimizer_reference import reference_adagrad_decay_step, touched_grad

SPACE = FeatureSpace(n_users=30, n_items=20, n_scenes=2, n_regions=3, n_periods=3)
# parameters per kind: the one embedding table plus the dense weights and biases
N_PARAMS = {"shared_bottom": 15, "esmm": 17, "mmoe": 25, "base": 23}


def _batch(n, seed, space=SPACE):
    rng = np.random.default_rng(seed)
    click = rng.integers(0, 2, n)
    return encode_records(Dataset(
        timestamp=np.arange(n), user=rng.integers(-1, space.n_users + 1, n), item=rng.integers(0, space.n_items, n),
        scene=rng.integers(0, space.n_scenes, n), region=rng.integers(0, space.n_regions, n),
        period=rng.integers(0, space.n_periods, n), features=rng.integers(-1, 8, (n, 4)), click=click,
        purchase=click * rng.integers(0, 2, n),
    ), space)


def _state_bytes(state, tables):
    """The step count, every accumulator and the `tables`' last-step rows, as
    bytes."""
    return (state.step, {n: a.tobytes() for n, a in state.accumulators.items()},
            {n: state.last_step[n].tobytes() for n in tables})


# -- the layout against the step per parameter --------------------------------

SHAPES = {"table": lambda rng: (int(rng.integers(1, 7)), int(rng.integers(1, 4))),
          "matrix": lambda rng: (int(rng.integers(1, 4)), int(rng.integers(1, 4))),
          "vector": lambda rng: (int(rng.integers(1, 5)),), "scalar": lambda rng: ()}
# what a parameter records at a step, by its kind: a dense one a gradient
# through `_accum`, one set by hand, or (a matrix) rows beside a gradient
# through `_accum`; a table a lookup shorter than itself, one at least as
# long, or (after the first step) nothing
DENSE_MODES = ("dense", "set", "mixed")
TABLE_MODES = ("short", "long", "idle")


def _values(rng, shape):
    """Normal draws with exact zeros of both signs mixed in."""
    v = rng.normal(size=shape)
    v[rng.random(shape) < 0.1] = 0.0
    v[rng.random(shape) < 0.1] = -0.0
    return v


def _record(p, mode, rng):
    """Record one step's gradient of kind `mode` into `p`."""
    if mode in ("dense", "mixed"):
        ad._accum(p, _values(rng, p.data.shape))
    elif mode == "set":
        p.grad = _values(rng, p.data.shape)
    n_rows = p.data.shape[0] if p.data.ndim == 2 else 0
    lengths = {"mixed": (1, 2 * n_rows + 2), "short": (1, max(n_rows, 2)), "long": (n_rows, 2 * n_rows + 2)}
    if mode in lengths and n_rows:
        for _ in range(int(rng.integers(1, 3))):
            rows = rng.integers(0, n_rows, int(rng.integers(*lengths[mode])))
            p.add_row_grad(rows, _values(rng, (rows.size, p.data.shape[1])))


@settings(max_examples=150, deadline=None)
@given(kinds=st.lists(st.sampled_from(sorted(SHAPES)), min_size=1, max_size=7),
       plan=st.lists(st.lists(st.integers(0, 2), min_size=7, max_size=7), min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_arena_step_equals_a_step_per_parameter_bitwise(kinds, plan, seed):
    """Random lists of scalars, vectors, matrices and tables of 1-3 columns,
    with values and gradients holding zeros of both signs, over 1-5 steps.
    Every dense member records a gradient at every step; a table records one
    or two lookups shorter or longer than itself, or after the first step
    none, so its untouched rows catch their decay up later. Every parameter,
    every accumulator and the tables' last-step rows end where the reference
    leaves them, bit for bit."""
    rng = np.random.default_rng(seed)
    params = [ad.Parameter(_values(rng, SHAPES[kind](rng)), f"{kind}{k}") for k, kind in enumerate(kinds)]
    twins = copy.deepcopy(params)
    tables = [p.name for p in params if p.name.startswith("table")]
    state, reference = ad.AdagradDecayState(decay=0.9), ad.AdagradDecayState(decay=0.9)
    for step, modes in enumerate(plan):
        ad.zero_grads(params)
        ad.zero_grads(twins)
        for p, q, i in zip(params, twins, modes):
            mode = TABLE_MODES[i] if p.name in tables else DENSE_MODES[i]
            if mode == "idle" and not step:
                mode = "long"  # a table is laid out from its first lookup
            draw = rng.integers(2**32)
            _record(p, mode, np.random.default_rng(draw))
            _record(q, mode, np.random.default_rng(draw))
        ad.adagrad_decay_step(params, state, 0.05)
        reference_adagrad_decay_step(twins, reference, 0.05)
        assert [p.data.tobytes() for p in params] == [q.data.tobytes() for q in twins]
        assert _state_bytes(state, tables) == _state_bytes(reference, tables)
    assert sorted(state.last_step) == sorted(tables)


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_pretrain_equals_a_step_per_parameter_bitwise(kind, monkeypatch):
    """Five pretrain steps of each model kind, through the layout and through
    the reference, leave the same bits and the same state."""
    def train(step_fn):
        model = build_model(ModelConfig(kind=kind), SPACE, seed=3)
        state = ad.AdagradDecayState(decay=0.99)
        with monkeypatch.context() as m:
            m.setattr(ad, "adagrad_decay_step", step_fn)
            for step in range(5):
                pretrain_step(model, _batch(16 + 40 * (step % 2), step), state, 0.05)
        return [p.data.tobytes() for p in model.parameters()], _state_bytes(state, ["embeddings.rows"])

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
    assert state.step == 3
    assert set(state.accumulators) == {"table", "w", "b", "idle"} and set(state.last_step) == {"table"}
    assert [state.accumulators[n].shape for n in ("table", "w", "b", "idle")] == [(5, 2), (3, 2), (2,), (4,)]
    assert state.last_step["table"].tolist() == [0, 3, 0, 3, 0]
    assert (state.accumulators["w"] > 0).all() and not state.accumulators["table"][[0, 2, 4]].any()
    assert not state.accumulators["idle"].any()


def test_a_frozen_parameter_never_moves_and_an_idle_one_steps_on_zeros():
    """A frozen parameter is left out. A dense parameter with nothing
    recorded takes the dense rule on a zero gradient: it stays where it is,
    and its accumulator decays, as it does at every step of the dense rule."""
    decay, lr, eps = 0.5, 0.1, 1e-8
    frozen = ad.Parameter(np.array([1.0, 2.0]), "frozen", trainable=False)
    w = ad.Parameter(np.array([1.0, -1.0]), "w")
    other = ad.Parameter(np.array([3.0]), "other")
    state = ad.AdagradDecayState(decay=decay, epsilon=eps)
    g = np.array([0.5, -2.0])
    acc = np.zeros(2)
    for gw in [g, None, None, g]:  # w records nothing at steps 2 and 3
        ad.zero_grads([frozen, w, other])
        frozen.grad = np.array([9.0, 9.0])
        other.grad = np.array([0.25])
        if gw is not None:
            w.grad = gw.copy()
        before = w.data.tobytes()
        ad.adagrad_decay_step([frozen, w, other], state, lr=lr)
        zero_or_g = np.zeros(2) if gw is None else gw
        acc = decay * acc + zero_or_g * zero_or_g
        if gw is None:
            assert w.data.tobytes() == before
        assert state.accumulators["w"].tobytes() == acc.tobytes()
    assert frozen.data.tolist() == [1.0, 2.0] and "frozen" not in state.accumulators
    assert state.step == 4 and state.last_step == {}


def _laid_out():
    """A weight, a table and a bias laid out by a first step, with a second
    step's gradients recorded."""
    rng = np.random.default_rng(4)
    w = ad.Parameter(rng.normal(size=(2, 2)), "w")
    table = ad.Parameter(rng.normal(size=(4, 2)), "table")
    b = ad.Parameter(rng.normal(size=2), "b")
    state = ad.AdagradDecayState()
    _gathered(table, [1, 1, 3], rng.normal(size=(3, 2)))
    w.grad, b.grad = rng.normal(size=(2, 2)), rng.normal(size=2)
    ad.adagrad_decay_step([w, table, b], state, lr=0.05)
    ad.zero_grads([w, table, b])
    _gathered(table, [0, 2], rng.normal(size=(2, 2)))
    w.grad, b.grad = rng.normal(size=(2, 2)), rng.normal(size=2)
    return [w, table, b], state


def _everything(params, state):
    """Every parameter's and state array's bytes, and the step count."""
    return ([p.data.tobytes() for p in params], _state_bytes(state, ["table"]))


def _raises_and_nothing_moves(error, match, step_params, params, state):
    """A step of `step_params` raises `error`, and no array of `params` or of
    `state` has moved."""
    before = _everything(params, state)
    with pytest.raises(error, match=match):
        ad.adagrad_decay_step(step_params, state, lr=0.05)
    assert _everything(params, state) == before


@pytest.mark.parametrize("bad", [0, 1, 2])
def test_a_non_finite_gradient_names_the_first_bad_parameter_in_list_order(bad):
    """Bad entries in a weight, a table (its summed rows) and a bias, the
    list in that order: the error names the first bad one in the list, a
    dense parameter ahead of the table or the table ahead of a dense one,
    and nothing moves."""
    params, state = _laid_out()
    w, table, b = params
    if bad <= 0:
        w.grad[1, 0] = np.nan
    if bad <= 1:  # two finite rows that overflow once summed
        table.add_row_grad(np.array([3, 3]), np.full((2, 2), 1e308))
    b.grad[1] = -np.inf
    _raises_and_nothing_moves(ad.NonFiniteError, f"non-finite gradient for {['w', 'table', 'b'][bad]}$",
                              params, params, state)


@pytest.mark.parametrize("change, name", [("dropped", "table"), ("added", "extra"), ("frozen", "b"),
                                          ("swapped", "w")])
def test_a_later_step_with_another_list_raises_naming_the_parameter(change, name):
    """The layout holds one list of trainable parameters: dropping one,
    adding one, freezing one or reordering the list raises `ValueError`
    naming the first parameter where the lists differ, and nothing moves."""
    params, state = _laid_out()
    w, table, b = params
    extra = ad.Parameter(np.ones(3), "extra")
    extra.grad = np.ones(3)
    step_params = {"dropped": [w, b], "added": [w, table, b, extra], "frozen": params,
                   "swapped": [table, w, b]}[change]
    if change == "frozen":
        b.set_trainable(False)
    _raises_and_nothing_moves(ValueError, f"differs at {name}$", step_params, params, state)


def test_an_array_replaced_since_the_layout_raises_naming_the_parameter():
    """A `restore` after the layout gives a parameter a new array, which the
    layout does not hold: the next step raises instead of stepping a stale
    copy, and nothing moves."""
    params, state = _laid_out()
    params[2].data = np.array(params[2].data)
    _raises_and_nothing_moves(ValueError, "the array of b was replaced", params, params, state)


@pytest.mark.parametrize("how", ["accum", "set", "rows and accum"])
def test_a_dense_gradient_on_a_table_raises_naming_it(how):
    """A parameter laid out as an embedding table takes row gradients only: a
    dense one, alone or beside its rows, raises `ValueError` naming it, and
    nothing moves."""
    params, state = _laid_out()
    table = params[1]
    if how == "set":
        ad.zero_grads([table])
        table.grad = np.ones((4, 2))
    else:
        if how == "accum":
            ad.zero_grads([table])
        ad._accum(table, np.ones((4, 2)))
    _raises_and_nothing_moves(ValueError, "table is laid out as an embedding table but has a dense gradient",
                              params, params, state)


def test_parameters_of_one_step_need_distinct_names():
    """The state keeps its arrays by name, so two parameters may not share one."""
    a, b = ad.Parameter(np.ones(2), "w"), ad.Parameter(np.ones(3), "w")
    a.grad, b.grad = np.ones(2), np.ones(3)
    with pytest.raises(ValueError, match="distinct names"):
        ad.adagrad_decay_step([a, b], ad.AdagradDecayState(), 0.05)


# -- the layout: one arena and the one table, every parameter stepped ---------


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_every_parameter_receives_a_gradient_in_a_pretrain_step(kind):
    """No parameter of any kind is idle: the arena's one update covers every
    dense weight and bias at every step."""
    model = build_model(ModelConfig(kind=kind), SPACE, seed=1)
    pretrain_step(model, _batch(32, 1), ad.AdagradDecayState(), 0.05)
    params = model.parameters()
    assert len(params) == N_PARAMS[kind]
    assert [p.name for p in params if touched_grad(p) is None] == []


def test_a_base_pretrain_step_makes_one_update_per_arena(monkeypatch):
    """A pretrain step makes one `adagrad_update` over its one-row arena and
    one over its table; a step of a 3-adapter bank makes one over its 3-row
    arena."""
    model = build_model(ModelConfig(kind="base"), SPACE, seed=1)
    state = ad.AdagradDecayState()
    calls = []
    update = ad.adagrad_update
    monkeypatch.setattr(ad, "adagrad_update", lambda data, *a: calls.append(data.shape) or update(data, *a))
    table, *dense = model.parameters()
    for step in range(3):
        calls.clear()
        pretrain_step(model, _batch(32, step), state, 0.05)
        assert calls == [(1, sum(p.size for p in dense)), table.data.shape]

    model.set_trainable(False)
    adapters = [IAKAdapter(model.rep_dim, model.n_heads, IAKConfig(d_e=4, decoder_hidden=(5,)), {"period": k},
                           seed=k) for k in range(3)]
    bank = AdapterBank(adapters, decay=state.decay, epsilon=state.epsilon)
    batch = _batch(12, 7)
    rep, base = backbone_cache(model, batch)
    for step in range(2):
        calls.clear()
        adapter_step_cached(model, bank, rep, base, batch.click, batch.purchase, np.array([0, 3, 7, 12]),
                            np.full(3, 0.02), 1e-3)
        assert calls == [(3, sum(p.size for p in adapters[0].parameters()))]
