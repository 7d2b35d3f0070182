"""`ad.adagrad_decay_step` is the one optimizer step, over the two layouts
the package builds before the first forward: pretraining's trainable dense
weights and biases as a one-row arena beside its one embedding table
(`trainer.pretrain_optimizer`), and an adapter bank's K adapters as a K-row
arena with no table (`iak.AdapterBank`). It must leave every parameter and
every piece of optimizer state exactly where a step per parameter
(`optimizer_reference`) leaves them, and a non-finite gradient must name the
first bad parameter with nothing moved."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iakrec import autodiff as ad
from iakrec import trainer
from iakrec.datagen import Dataset
from iakrec.iak import AdapterBank, IAKAdapter, IAKConfig, adapter_step_cached, backbone_cache
from iakrec.models import MODEL_KINDS, FeatureSpace, ModelConfig, build_model, encode_records
from iakrec.trainer import TrainConfig, pretrain, pretrain_optimizer, pretrain_step

from optimizer_reference import ReferenceState, reference_adagrad_decay_step, touched_grad

SPACE = FeatureSpace(n_users=30, n_items=20, n_scenes=2, n_regions=3, n_periods=3)
# parameters per kind: the one embedding table plus the dense weights and biases
N_PARAMS = {"shared_bottom": 15, "esmm": 17, "mmoe": 25, "base": 23}
DECAY, EPSILON = TrainConfig.adagrad_decay, TrainConfig.adagrad_epsilon


def _records(n, seed, space=SPACE):
    rng = np.random.default_rng(seed)
    click = rng.integers(0, 2, n)
    return Dataset(
        timestamp=np.arange(n), user=rng.integers(-1, space.n_users + 1, n), item=rng.integers(0, space.n_items, n),
        scene=rng.integers(0, space.n_scenes, n), region=rng.integers(0, space.n_regions, n),
        period=rng.integers(0, space.n_periods, n), features=rng.integers(-1, 8, (n, 4)), click=click,
        purchase=click * rng.integers(0, 2, n),
    )


def _batch(n, seed):
    return encode_records(_records(n, seed), SPACE)


def _state_bytes(state, names, table=None):
    """The step count, the accumulators of `names` (zeros where the reference
    has allocated none yet) and the `table`'s last-step rows, as bytes."""
    def acc(name, like):
        return state.accumulators.get(name, np.zeros_like(like)).tobytes()

    last = None
    if table is not None:
        last = (state.last_step if isinstance(state, ad.AdagradDecay)
                else state.last_step.get(table.name, np.zeros(len(table.data), dtype=np.int64)))
    return state.step, {n: acc(n, like) for n, like in names.items()}, None if last is None else last.tobytes()


def _values(rng, shape):
    """Normal draws with exact zeros of both signs mixed in."""
    v = rng.normal(size=shape)
    v[rng.random(shape) < 0.1] = 0.0
    v[rng.random(shape) < 0.1] = -0.0
    return v


# -- pretraining's layout: a one-row arena beside one table ---------------------

SHAPES = {"matrix": lambda rng: (int(rng.integers(1, 4)), int(rng.integers(1, 4))),
          "vector": lambda rng: (int(rng.integers(1, 5)),), "scalar": lambda rng: ()}
# what the table records at a step: a lookup shorter than itself, one at
# least as long, or nothing
TABLE_MODES = ("short", "long", "idle")


def _record_dense(p, how, rng):
    """Record one step's gradient into a dense `p`: through `_accum`, or set
    by hand."""
    if how == 0:
        ad._accum(p, _values(rng, p.data.shape))
    else:
        p.grad = _values(rng, p.data.shape)


def _record_table(table, mode, rng):
    """Record one or two lookups of the table's rows, shorter or longer than
    the table, or (idle) none."""
    n_rows = table.data.shape[0]
    lengths = {"short": (1, max(n_rows, 2)), "long": (n_rows, 2 * n_rows + 2)}
    if mode in lengths:
        for _ in range(int(rng.integers(1, 3))):
            rows = rng.integers(0, n_rows, int(rng.integers(*lengths[mode])))
            table.add_row_grad(rows, _values(rng, (rows.size, table.data.shape[1])))


@settings(max_examples=150, deadline=None)
@given(kinds=st.lists(st.sampled_from(sorted(SHAPES)), min_size=0, max_size=6),
       at=st.integers(0, 6),
       plan=st.lists(st.tuples(st.sampled_from(TABLE_MODES), st.lists(st.integers(0, 1), min_size=7, max_size=7)),
                     min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_one_row_arena_and_a_table_equal_a_step_per_parameter_bitwise(kinds, at, plan, seed):
    """Random lists of scalars, vectors and matrices with one table of 1-6
    rows by 1-3 columns somewhere among them, values and gradients holding
    zeros of both signs, over 1-5 steps. Every dense member records a
    gradient at every step; the table records lookups shorter or longer than
    itself, or none, so its untouched rows catch their decay up later. Every
    parameter, every accumulator and the table's last-step rows end where
    the reference leaves them, bit for bit."""
    rng = np.random.default_rng(seed)
    params = [ad.Parameter(_values(rng, SHAPES[kind](rng)), f"{kind}{k}") for k, kind in enumerate(kinds)]
    params.insert(min(at, len(params)), ad.Parameter(_values(rng, (int(rng.integers(1, 7)), int(rng.integers(1, 4)))),
                                                     "table"))
    twins = copy.deepcopy(params)
    table = next(p for p in params if p.name == "table")
    opt, reference = ad.AdagradDecay(params, 0.9, EPSILON, table=table), ReferenceState(decay=0.9)
    names = {p.name: p.data for p in twins}
    for table_mode, dense in plan:
        ad.zero_grads(params)
        ad.zero_grads(twins)
        for p, q, how in zip(params, twins, dense):
            draw = rng.integers(2**32)
            for t in (p, q):
                if p is table:
                    _record_table(t, table_mode, np.random.default_rng(draw))
                else:
                    _record_dense(t, how, np.random.default_rng(draw))
        ad.adagrad_decay_step(opt, 0.05)
        reference_adagrad_decay_step(twins, reference, 0.05)
        assert [p.data.tobytes() for p in params] == [q.data.tobytes() for q in twins]
        assert _state_bytes(opt, names, table) == _state_bytes(reference, names, table)


def _pretrain_twins(kind, freeze=None):
    """Two models of `kind` after `pretrain` over 56 rows in batches of 16
    for two epochs (8 steps, every fourth of 8 rows): one through the
    optimizer `pretrain` builds, one through the reference stepping its
    trainable parameters. `freeze` names a group frozen in both
    beforehand. Returns each model with its optimizer state."""
    def train(reference):
        model = build_model(ModelConfig(kind=kind), SPACE, seed=3)
        for p in model.parameters():
            if freeze is not None and p.name.startswith(freeze):
                p.set_trainable(False)
        config = TrainConfig(batch_size=16, epochs=2, base_lr=0.05, adagrad_decay=0.99)
        built = []
        with pytest.MonkeyPatch.context() as m:
            if reference:
                built.append(ReferenceState(decay=0.99))
                m.setattr(ad, "adagrad_decay_step",
                          lambda opt, lr: reference_adagrad_decay_step(model.parameters(), built[0], lr))
            else:
                build = trainer.pretrain_optimizer
                m.setattr(trainer, "pretrain_optimizer", lambda *a: built.append(build(*a)) or built[0])
            pretrain(model, _records(56, 0), config)
        return model, built[0]

    return train(False), train(True)


def _assert_twins_equal(got, want):
    """Same parameter bits, and the same step count, accumulators of every
    trainable parameter and, when the table trains, last-step rows of the
    table."""
    (model, opt), (twin, reference) = got, want
    assert [p.data.tobytes() for p in model.parameters()] == [p.data.tobytes() for p in twin.parameters()]
    names = {p.name: p.data for p in model.parameters() if p.requires_grad}
    assert _state_bytes(opt, names, opt.table) == _state_bytes(reference, names, opt.table)


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_pretrain_equals_a_step_per_parameter_bitwise(kind):
    """Eight pretrain steps of each model kind, through the layout and
    through the reference, leave the same bits and the same state."""
    got, want = _pretrain_twins(kind)
    assert got[1].table is got[0].embeddings.rows
    _assert_twins_equal(got, want)


@pytest.mark.parametrize("frozen", ["embeddings.rows", "stacked_logits"])
def test_a_frozen_group_survives_pretrain(frozen):
    """A group frozen before `pretrain` is left out of the optimizer: its bits
    are those of the init, and every other parameter and its state step as
    the reference stepping only the trainable ones leaves them."""
    init = build_model(ModelConfig(kind="base"), SPACE, seed=3)
    got, want = _pretrain_twins("base", freeze=frozen)
    model, opt = got
    group = [(p, q) for p, q in zip(model.parameters(), init.parameters()) if p.name.startswith(frozen)]
    assert group and all(not p.requires_grad and p.data.tobytes() == q.data.tobytes() for p, q in group)
    assert not any(name.startswith(frozen) for name in opt.accumulators)
    _assert_twins_equal(got, want)
    assert sum(p.data.tobytes() != q.data.tobytes() for p, q in zip(model.parameters(), init.parameters())) == (
        N_PARAMS["base"] - len(group))


# -- a bank's layout: a K-row arena, each row at its own rate --------------------


@settings(max_examples=100, deadline=None)
@given(n_rows=st.integers(1, 4), n_members=st.integers(1, 4),
       plan=st.lists(st.lists(st.sampled_from([0.0, 0.01, 0.05]), min_size=4, max_size=4), min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_k_row_arena_equals_each_row_stepping_alone_bitwise(n_rows, n_members, plan, seed):
    """K rows of 1-4 members, stacked (K, ...) as a bank stacks its adapters,
    values and gradients holding zeros of both signs. Each step, the rows
    with a positive rate step at their own rate; row k's members then end
    where the reference leaves row k's own parameters stepped alone, bit for
    bit, and a row that does not step neither moves nor decays."""
    rng = np.random.default_rng(seed)
    shapes = [SHAPES[kind](rng) for kind in rng.choice(sorted(SHAPES), n_members)]
    stacked = [ad.Parameter(_values(rng, (n_rows, *shape)), f"bank/m{j}") for j, shape in enumerate(shapes)]
    lone = [[ad.Parameter(p.data[k].copy(), f"row{k}/m{j}") for j, p in enumerate(stacked)] for k in range(n_rows)]
    states = [ReferenceState(decay=0.9) for _ in range(n_rows)]
    opt = ad.AdagradDecay(stacked, 0.9, EPSILON, n_rows=n_rows,
                          names=[[row[j].name for row in lone] for j in range(n_members)])
    for rates in plan:
        lr = np.array(rates[:n_rows])
        stepped = np.flatnonzero(lr > 0)
        ad.zero_grads(stacked)
        for j, p in enumerate(stacked):
            _record_dense(p, j % 2, rng)
            for k in stepped:
                lone[k][j].grad = p.grad[k].copy()
        rows = stepped if len(stepped) < n_rows else ...
        ad.adagrad_decay_step(opt, lr[stepped, None], rows)
        for k in stepped:
            reference_adagrad_decay_step(lone[k], states[k], float(lr[k]))
        for k in range(n_rows):
            for j, p in enumerate(stacked):
                assert p.data[k].tobytes() == lone[k][j].data.tobytes()
                want = states[k].accumulators.get(lone[k][j].name, np.zeros_like(lone[k][j].data))
                assert opt.accumulators[p.name][k].tobytes() == want.tobytes()


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
    opt = ad.AdagradDecay([table, w, b, idle], DECAY, EPSILON, table=table)
    for _ in range(3):
        ad.zero_grads([table, w, b, idle])
        _gathered(table, [1, 3], rng.normal(size=(2, 2)))
        w.grad, b.grad = rng.normal(size=(3, 2)), rng.normal(size=2)
        ad.adagrad_decay_step(opt, 0.05)
    assert opt.step == 3
    assert set(opt.accumulators) == {"table", "w", "b", "idle"}
    assert [opt.accumulators[n].shape for n in ("table", "w", "b", "idle")] == [(5, 2), (3, 2), (2,), (4,)]
    assert opt.last_step.tolist() == [0, 3, 0, 3, 0]
    assert (opt.accumulators["w"] > 0).all() and not opt.accumulators["table"][[0, 2, 4]].any()
    assert not opt.accumulators["idle"].any()


def test_an_idle_member_steps_on_zeros():
    """A member with nothing recorded takes the dense rule on a zero
    gradient: it stays where it is, and its accumulator decays, as it does
    at every step of the dense rule."""
    decay, lr = 0.5, 0.1
    w = ad.Parameter(np.array([1.0, -1.0]), "w")
    other = ad.Parameter(np.array([3.0]), "other")
    opt = ad.AdagradDecay([w, other], decay, EPSILON)
    g = np.array([0.5, -2.0])
    acc = np.zeros(2)
    for gw in [g, None, None, g]:  # w records nothing at steps 2 and 3
        ad.zero_grads([w, other])
        other.grad = np.array([0.25])
        if gw is not None:
            w.grad = gw.copy()
        before = w.data.tobytes()
        ad.adagrad_decay_step(opt, lr)
        zero_or_g = np.zeros(2) if gw is None else gw
        acc = decay * acc + zero_or_g * zero_or_g
        if gw is None:
            assert w.data.tobytes() == before
        assert opt.accumulators["w"].tobytes() == acc.tobytes()
    assert opt.step == 4


def _everything(opt):
    """Every laid-out array's bytes and the step count."""
    return (opt.step, opt.data.tobytes(), opt.acc.tobytes(),
            None if opt.table is None else (opt.table.data.tobytes(), opt.accumulators[opt.table.name].tobytes(),
                                            opt.last_step.tobytes()))


def _raises_and_nothing_moves(opt, name, lr=0.05, rows=...):
    before = _everything(opt)
    with pytest.raises(ad.NonFiniteError, match=f"non-finite gradient for {name}$"):
        ad.adagrad_decay_step(opt, lr, rows)
    assert _everything(opt) == before


@pytest.mark.parametrize("bad", ["table", "w", "b"])
def test_a_non_finite_gradient_names_the_table_first_then_the_first_bad_member(bad):
    """Bad entries in a bias, then also a weight, then also the table (its
    summed rows), the list laid out as w, table, b: the error names the
    table first, then the first bad member of the row, and nothing moves."""
    rng = np.random.default_rng(4)
    w = ad.Parameter(rng.normal(size=(2, 2)), "w")
    table = ad.Parameter(rng.normal(size=(4, 2)), "table")
    b = ad.Parameter(rng.normal(size=2), "b")
    opt = ad.AdagradDecay([w, table, b], DECAY, EPSILON, table=table)
    _gathered(table, [1, 1, 3], rng.normal(size=(3, 2)))
    w.grad, b.grad = rng.normal(size=(2, 2)), rng.normal(size=2)
    ad.adagrad_decay_step(opt, 0.05)
    ad.zero_grads([w, table, b])
    _gathered(table, [0, 2], rng.normal(size=(2, 2)))
    w.grad, b.grad = rng.normal(size=(2, 2)), rng.normal(size=2)
    b.grad[1] = -np.inf
    if bad in ("w", "table"):
        w.grad[1, 0] = np.nan
    if bad == "table":  # two finite rows that overflow once summed
        table.add_row_grad(np.array([3, 3]), np.full((2, 2), 1e308))
    _raises_and_nothing_moves(opt, bad)


@pytest.mark.parametrize("rows", [..., np.array([1, 2])])
def test_a_non_finite_gradient_names_the_first_bad_row_then_its_first_bad_member(rows):
    """In a 3-row arena of two members, a bad entry of member 0 in row 2 and
    one of member 1 in row 1: the first stepped row with a bad entry is row
    1, and its first bad member is member 1, named as row 1 holds it."""
    a = ad.Parameter(np.zeros((3, 2)), "bank/a")
    b = ad.Parameter(np.zeros((3, 4)), "bank/b")
    opt = ad.AdagradDecay([a, b], DECAY, EPSILON, n_rows=3,
                          names=[[f"row{k}/a" for k in range(3)], [f"row{k}/b" for k in range(3)]])
    a.grad, b.grad = np.ones((3, 2)), np.ones((3, 4))
    a.grad[2, 1] = np.nan
    b.grad[1, 3] = np.inf
    _raises_and_nothing_moves(opt, "row1/b", np.full((3 if rows is ... else 2, 1), 0.05), rows)


def test_a_k_row_arena_names_a_bad_row_by_its_member_by_default():
    """Without `names`, a bad entry in any row is reported under the
    member's own name."""
    a = ad.Parameter(np.zeros((3, 2)), "bank/a")
    opt = ad.AdagradDecay([a], DECAY, EPSILON, n_rows=3)
    a.grad = np.ones((3, 2))
    a.grad[2, 0] = np.nan
    _raises_and_nothing_moves(opt, "bank/a", np.full((3, 1), 0.05))


@pytest.mark.parametrize("how", ["read", "set"])
def test_a_dense_gradient_on_the_table_raises_naming_it(how):
    """The table steps on its row gradients alone. Once its gradient is
    dense, read (which folds the row gradients in) or set, a step raises
    `ValueError` and nothing moves."""
    rng = np.random.default_rng(5)
    table = ad.Parameter(rng.normal(size=(4, 2)), "table")
    w = ad.Parameter(rng.normal(size=3), "w")
    opt = ad.AdagradDecay([table, w], DECAY, EPSILON, table=table)
    w.grad = rng.normal(size=3)
    _gathered(table, [1, 3], rng.normal(size=(2, 2)))
    if how == "read":
        assert table.grad.any()
    else:
        table.grad = rng.normal(size=(4, 2))
    before = _everything(opt)
    with pytest.raises(ValueError, match="^table holds a dense gradient"):
        ad.adagrad_decay_step(opt, 0.05)
    assert _everything(opt) == before


def test_the_table_must_be_one_of_the_parameters():
    table = ad.Parameter(np.zeros((3, 2)), "table")
    with pytest.raises(ValueError, match="^table table is not one of the parameters$"):
        ad.AdagradDecay([ad.Parameter(np.zeros(2), "w")], DECAY, EPSILON, table=table)


# -- every parameter stepped, in one update per layout --------------------------


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_every_parameter_receives_a_gradient_in_a_pretrain_step(kind):
    """No parameter of any kind is idle: the arena's one update covers every
    dense weight and bias at every step."""
    model = build_model(ModelConfig(kind=kind), SPACE, seed=1)
    pretrain_step(model, _batch(32, 1), pretrain_optimizer(model, TrainConfig()), 0.05)
    params = model.parameters()
    assert len(params) == N_PARAMS[kind]
    assert [p.name for p in params if touched_grad(p) is None] == []


def _bank(model, n_adapters):
    adapters = [IAKAdapter(model.rep_dim, model.n_heads, IAKConfig(d_e=4, decoder_hidden=(5,)), {"period": k},
                           seed=k) for k in range(n_adapters)]
    return adapters, AdapterBank(adapters, decay=DECAY, epsilon=EPSILON)


def test_a_base_pretrain_step_makes_one_update_per_arena(monkeypatch):
    """A pretrain step makes one `adagrad_update` over its one-row arena and
    one over its table; a step of a 3-adapter bank makes one over its 3-row
    arena."""
    model = build_model(ModelConfig(kind="base"), SPACE, seed=1)
    opt = pretrain_optimizer(model, TrainConfig())
    calls = []
    update = ad.adagrad_update
    monkeypatch.setattr(ad, "adagrad_update", lambda data, *a: calls.append(data.shape) or update(data, *a))
    table, *dense = model.parameters()
    for step in range(3):
        calls.clear()
        pretrain_step(model, _batch(32, step), opt, 0.05)
        assert calls == [(1, sum(p.size for p in dense)), table.data.shape]

    model.freeze()
    adapters, bank = _bank(model, 3)
    batch = _batch(12, 7)
    rep, base = backbone_cache(model, batch)
    for step in range(2):
        calls.clear()
        adapter_step_cached(model, bank, rep, base, batch.click, batch.purchase, np.array([0, 3, 7, 12]),
                            np.full(3, 0.02), 1e-3)
        assert calls == [(3, sum(p.size for p in adapters[0].parameters()))]


def test_pretraining_and_the_bank_update_only_inside_the_one_step(monkeypatch):
    """Every `adagrad_update` of a pretrain step and of a bank step runs
    inside `ad.adagrad_decay_step`: there is no other step path."""
    inside, updates = [False], []
    step, update = ad.adagrad_decay_step, ad.adagrad_update

    def flagged_step(*args):
        inside[0] = True
        try:
            return step(*args)
        finally:
            inside[0] = False

    def checked_update(*args):
        assert inside[0], "adagrad_update ran outside adagrad_decay_step"
        updates.append(1)
        return update(*args)

    monkeypatch.setattr(ad, "adagrad_decay_step", flagged_step)
    monkeypatch.setattr(ad, "adagrad_update", checked_update)
    model = build_model(ModelConfig(kind="base"), SPACE, seed=1)
    pretrain_step(model, _batch(32, 1), pretrain_optimizer(model, TrainConfig()), 0.05)
    model.freeze()
    _, bank = _bank(model, 2)
    batch = _batch(8, 2)
    rep, base = backbone_cache(model, batch)
    adapter_step_cached(model, bank, rep, base, batch.click, batch.purchase, np.array([0, 3, 8]),
                        np.full(2, 0.02), 1e-3)
    assert len(updates) == 3
