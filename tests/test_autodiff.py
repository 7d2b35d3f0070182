import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iakrec import autodiff as ad
from iakrec.checkpoint import CheckpointError, load_checkpoint, save_checkpoint

from gradcheck import assert_grads_match


def test_sigmoid_at_zero():
    assert ad.sigmoid(ad.Tensor([0.0])).data[0] == 0.5


def test_leaky_relu_negative_slope():
    out = ad.leaky_relu(ad.Tensor([-1.0]), slope=0.01)
    assert out.data[0] == pytest.approx(-0.01, abs=0)


def test_softmax_equal_logits():
    out = ad.softmax(ad.Tensor([[3.0, 3.0]]))
    np.testing.assert_array_equal(out.data, [[0.5, 0.5]])


def test_linear_derivative():
    w = ad.Parameter(np.array([2.0]), "w")
    loss = ad.reduce_sum(ad.mul(w, 3.0))
    ad.backward(loss)
    assert w.grad[0] == 3.0


def test_sigmoid_derivative_at_zero():
    w = ad.Parameter(np.array([0.0]), "w")
    loss = ad.reduce_sum(ad.sigmoid(w))
    ad.backward(loss)
    assert w.grad[0] == pytest.approx(0.25, abs=1e-15)


def test_backward_requires_scalar_loss():
    w = ad.Parameter(np.ones((2, 2)), "w")
    with pytest.raises(ad.ShapeError):
        ad.backward(ad.mul(w, 2.0))


def test_matmul_shape_mismatch():
    with pytest.raises(ad.ShapeError):
        ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))


def test_non_finite_is_rejected():
    with pytest.raises(ad.NonFiniteError):
        ad.Tensor([np.nan])
    with pytest.raises(ad.NonFiniteError):
        ad.log(ad.Tensor([0.0]))


def test_grad_accumulates_over_reuse():
    # loss = w*x + w  ->  dloss/dw = x + 1
    w = ad.Parameter(np.array([2.0]), "w")
    loss = ad.reduce_sum(ad.add(ad.mul(w, 3.0), w))
    ad.backward(loss)
    assert w.grad[0] == 4.0


def _random_mlp_loss(rng):
    dims = [5, 4, 3, 1]
    params = []
    layers = []
    for i, (a, b) in enumerate(zip(dims, dims[1:])):
        w = ad.Parameter(rng.normal(size=(a, b)), f"w{i}")
        bias = ad.Parameter(rng.normal(size=b), f"b{i}")
        params += [w, bias]
        layers.append((w, bias))
    x = ad.Tensor(rng.normal(size=(6, dims[0])))
    y = ad.Tensor(rng.integers(0, 2, size=(6, 1)).astype(float))

    def loss_fn():
        h = x
        for i, (w, bias) in enumerate(layers):
            h = ad.add(ad.matmul(h, w), bias)
            if i < len(layers) - 1:
                h = ad.leaky_relu(h)
        p = ad.clip(ad.sigmoid(h), 1e-12, 1 - 1e-12)
        ll = ad.add(ad.mul(y, ad.log(p)), ad.mul(ad.sub(1.0, y), ad.log(ad.sub(1.0, p))))
        return ad.mul(ad.reduce_mean(ll), -1.0)

    return loss_fn, params


@pytest.mark.parametrize("seed", range(5))
def test_mlp_gradients_match_finite_differences(seed):
    loss_fn, params = _random_mlp_loss(np.random.default_rng(seed))
    ad.zero_grads(params)
    assert_grads_match(loss_fn, params, ad.backward)


@pytest.mark.parametrize(
    "op",
    ["softmax", "concat", "slice", "gather", "gather_pooled", "gather_nonleaf", "gather_and_dense",
     "softplus", "square", "mean_mul"],
)
def test_individual_op_gradients(op):
    rng = np.random.default_rng(hash(op) % 2**31)
    w = ad.Parameter(rng.normal(size=(4, 3)), "w")

    def loss_fn():
        if op == "softmax":
            return ad.reduce_sum(ad.mul(ad.softmax(w), ad.Tensor(rng2)))
        if op == "concat":
            return ad.reduce_sum(ad.square(ad.concat([w, ad.mul(w, 2.0)], axis=1)))
        if op == "slice":
            return ad.reduce_sum(ad.square(ad.slice_cols(w, 1, 3)))
        if op == "gather":
            return ad.reduce_sum(ad.square(ad.gather_rows(w, np.array([0, 2, 2, 1]))))
        if op == "gather_pooled":
            # repeated rows within and across examples; row 3 never looked up
            pooled = ad.gather_rows(w, np.array([[0, 2, 2], [1, 0, 0], [2, 2, 2]]))
            return ad.reduce_sum(ad.square(pooled))
        if op == "gather_nonleaf":
            return ad.reduce_sum(ad.square(ad.gather_rows(ad.mul(w, 2.0), np.array([[3, 1], [1, 1]]))))
        if op == "gather_and_dense":
            rows = ad.gather_rows(w, np.array([1, 1, 3]))
            return ad.add(ad.reduce_sum(ad.square(rows)), ad.reduce_sum(ad.mul(w, ad.Tensor(rng2))))
        if op == "softplus":
            return ad.reduce_sum(ad.softplus(w))
        if op == "square":
            return ad.reduce_mean(ad.square(w))
        return ad.mul(ad.reduce_mean(ad.exp(ad.mul(w, 0.3))), 2.0)

    rng2 = rng.normal(size=(4, 3))
    ad.zero_grads([w])
    assert_grads_match(loss_fn, [w], ad.backward)


# a segment of length 1 and an empty segment among longer ones
SEGMENTS = [0, 2, 3, 3, 6]


@pytest.mark.parametrize("op", ["matmul_x", "matmul_w", "add_x", "add_b", "sum", "sum_3d", "mean"])
def test_segment_op_gradients(op):
    rng = np.random.default_rng(len(op))
    x = ad.Parameter(rng.normal(size=(6, 3)), "x")
    w = ad.Parameter(rng.normal(size=(4, 3, 2)), "w")
    b = ad.Parameter(rng.normal(size=(4, 3)), "b")
    slabs = ad.Parameter(rng.normal(size=(4, 2, 3)), "slabs")
    weights = ad.Tensor(rng.normal(size=4))

    def loss_fn():
        if op.startswith("matmul"):
            return ad.reduce_sum(ad.square(ad.segment_matmul(x, w, SEGMENTS)))
        if op.startswith("add"):
            return ad.reduce_sum(ad.square(ad.segment_add(x, b, SEGMENTS)))
        if op == "sum":
            return ad.reduce_sum(ad.mul(ad.segment_sum(ad.square(x), SEGMENTS), weights))
        if op == "sum_3d":
            return ad.reduce_sum(ad.mul(ad.segment_sum(ad.square(slabs), [0, 1, 2, 3, 4]), weights))
        return ad.reduce_sum(ad.mul(ad.segment_mean(ad.square(x), SEGMENTS), weights))

    params = {"matmul_x": [x], "matmul_w": [w], "add_x": [x], "add_b": [b], "sum_3d": [slabs]}.get(op, [x])
    ad.zero_grads([x, w, b, slabs])
    assert_grads_match(loss_fn, params, ad.backward)


def test_segment_ops_equal_their_plain_ops_bitwise():
    # per segment, values and gradients are the plain op's on that segment alone
    rng = np.random.default_rng(7)
    xs, ws, bs = rng.normal(size=(6, 3)), rng.normal(size=(4, 3, 2)), rng.normal(size=(4, 2))
    x, w, b = ad.Parameter(xs, "x"), ad.Parameter(ws, "w"), ad.Parameter(bs, "b")
    h = ad.segment_add(ad.segment_matmul(x, w, SEGMENTS), b, SEGMENTS)
    total = ad.add(ad.segment_mean(ad.square(h), SEGMENTS), ad.segment_sum(h, SEGMENTS))
    ad.backward(ad.reduce_sum(total))
    for k, (s, e) in enumerate(zip(SEGMENTS, SEGMENTS[1:])):
        xk, wk, bk = ad.Parameter(xs[s:e], "xk"), ad.Parameter(ws[k], "wk"), ad.Parameter(bs[k], "bk")
        hk = ad.add(ad.matmul(xk, wk), bk)
        assert hk.data.tobytes() == h.data[s:e].tobytes()
        if e == s:
            assert total.data[k] == 0.0 and not w.grad[k].any() and not b.grad[k].any()
            continue
        tk = ad.add(ad.reduce_mean(ad.square(hk)), ad.reduce_sum(hk))
        assert tk.data.tobytes() == total.data[k].tobytes()
        ad.backward(tk)
        assert xk.grad.tobytes() == x.grad[s:e].tobytes()
        assert wk.grad.tobytes() == w.grad[k].tobytes()
        assert bk.grad.tobytes() == b.grad[k].tobytes()


@pytest.mark.parametrize("offsets", [[0, 4], [1, 6], [0, 4, 3, 6], [0, 6, 6, 7], [[0, 6]], [0]])
def test_segment_offsets_are_checked(offsets):
    with pytest.raises(ad.ShapeError):
        ad.segment_mean(np.ones((6, 1)), offsets)


def test_segment_shapes_are_checked():
    with pytest.raises(ad.ShapeError):
        ad.segment_matmul(np.ones((6, 3)), np.ones((2, 4, 2)), [0, 3, 6])
    with pytest.raises(ad.ShapeError):
        ad.segment_matmul(np.ones((6, 3)), np.ones((3, 3, 2)), [0, 3, 6])
    with pytest.raises(ad.ShapeError):
        ad.segment_add(np.ones((6, 3)), np.ones((2, 2)), [0, 3, 6])
    with pytest.raises(ad.ShapeError):
        ad.segment_sum(np.float64(1.0), [0, 1])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_touched_grad_paths_agree_bitwise(data):
    # a table no longer than the lookup bins by row id; a longer one sorts.
    # Padding the same lookups' table past their length switches the path.
    n_rows = data.draw(st.integers(1, 10), label="n_rows")
    width = data.draw(st.integers(1, 4), label="width")
    chunks = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=3), label="chunks")
    if sum(chunks) < n_rows:
        chunks.append(n_rows)
    floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    recorded = [
        (np.array(data.draw(st.lists(st.integers(0, n_rows - 1), min_size=n, max_size=n))),
         np.array(data.draw(st.lists(st.lists(floats, min_size=width, max_size=width), min_size=n, max_size=n))))
        for n in chunks
    ]
    touched = []
    for table_rows in (n_rows, sum(chunks) + 1):
        p = ad.Parameter(np.zeros((table_rows, width)), "table")
        for rows, values in recorded:
            p.add_row_grad(rows, values)
        touched.append(p.touched_grad())
    (rows_a, g_a), (rows_b, g_b) = touched
    assert rows_a.tobytes() == rows_b.tobytes()
    assert g_a.tobytes() == g_b.tobytes()
    expected = np.zeros((n_rows, width))
    for rows, values in recorded:
        np.add.at(expected, rows, values)
    np.testing.assert_array_equal(rows_a, np.unique(np.concatenate([r for r, _ in recorded])))
    np.testing.assert_allclose(g_a, expected[rows_a], rtol=1e-12, atol=1e-6)


def test_frozen_parameter_gets_zero_grad():
    w = ad.Parameter(np.ones(3), "w", trainable=False)
    v = ad.Parameter(np.ones(3), "v")
    loss = ad.reduce_sum(ad.mul(w, v))
    ad.backward(loss)
    np.testing.assert_array_equal(w.grad, np.zeros(3))
    np.testing.assert_array_equal(v.grad, np.ones(3))


def test_pooled_gather_is_the_slot_by_slot_mean():
    rng = np.random.default_rng(3)
    table = rng.normal(size=(50, 8))
    idx = rng.integers(0, 50, size=(512, 5))
    expected = table[idx[:, 0]]
    for s in range(1, 5):
        expected = expected + table[idx[:, s]]
    assert ad.gather_rows(table, idx).data.tobytes() == (expected * (1.0 / 5)).tobytes()


def test_gather_records_rows_and_reads_dense():
    w = ad.Parameter(np.ones((5, 2)), "w")
    ad.backward(ad.reduce_sum(ad.gather_rows(w, np.array([[4, 1], [4, 4]]))))
    rows, g = w.touched_grad()
    np.testing.assert_array_equal(rows, [1, 4])
    np.testing.assert_array_equal(g, [[0.5, 0.5], [1.5, 1.5]])
    np.testing.assert_array_equal(w.grad, [[0, 0], [0.5, 0.5], [0, 0], [0, 0], [1.5, 1.5]])


def _nan_tensor():
    t = ad.Tensor(np.ones((2, 2)))
    t.data[0, 1] = np.nan  # past the constructor's own check
    return t


PRIMITIVES = {
    "add": lambda x: ad.add(x, 1.0),
    "sub": lambda x: ad.sub(1.0, x),
    "mul": lambda x: ad.mul(x, 2.0),
    "matmul": lambda x: ad.matmul(x, ad.Tensor(np.ones((2, 3)))),
    "sigmoid": ad.sigmoid,
    "leaky_relu": ad.leaky_relu,
    "softmax": ad.softmax,
    "log": ad.log,
    "exp": ad.exp,
    "softplus": ad.softplus,
    "square": ad.square,
    "clip": lambda x: ad.clip(x, -1.0, 1.0),
    "concat": lambda x: ad.concat([x, x]),
    "slice_cols": lambda x: ad.slice_cols(x, 1, 2),
    "sum": ad.reduce_sum,
    "mean": ad.reduce_mean,
    "gather_rows": lambda x: ad.gather_rows(x, np.array([[0, 1], [1, 0]])),
    "segment_matmul": lambda x: ad.segment_matmul(x, np.ones((2, 2, 3)), [0, 1, 2]),
    "segment_add": lambda x: ad.segment_add(x, np.ones((1, 2)), [0, 2]),
    "segment_sum": lambda x: ad.segment_sum(x, [0, 2]),
    "segment_mean": lambda x: ad.segment_mean(x, [0, 1, 2]),
}


def test_the_primitive_table_covers_every_op():
    assert set(PRIMITIVES) == set(re.findall(r'backward, "(\w+)"\)', inspect.getsource(ad)))


@pytest.mark.parametrize("op", sorted(PRIMITIVES))
def test_every_primitive_rejects_a_non_finite_output(op):
    with np.errstate(all="ignore"), pytest.raises(ad.NonFiniteError, match=f"output of {op}$"):
        PRIMITIVES[op](_nan_tensor())


def test_computation_record_visits_each_node_once():
    w = ad.Parameter(np.ones(2), "w")
    a = ad.mul(w, 2.0)
    loss = ad.reduce_sum(ad.add(a, a))
    record = ad.backward(loss)
    assert len({id(n) for n in record.nodes}) == len(record.nodes)
    assert w.grad[0] == 4.0


class TestAdagradDecay:
    def test_zero_gradient_is_fixed_point(self):
        w = ad.Parameter(np.array([1.0, -2.0]), "w")
        state = ad.AdagradDecayState()
        before = w.data.copy()
        ad.adagrad_decay_step([w], state, lr=0.005)
        np.testing.assert_array_equal(w.data, before)

    def test_single_scalar_step_matches_hand_evaluation(self):
        # acc = 1*0 + 1 = 1; step = 0.005*1/(sqrt(1)+eps)
        w = ad.Parameter(np.array([1.0]), "w")
        w.grad = np.array([1.0])
        state = ad.AdagradDecayState(decay=1.0, epsilon=1e-300)
        ad.adagrad_decay_step([w], state, lr=0.005)
        assert w.data[0] == pytest.approx(1.0 - 0.005, abs=1e-12)

    def test_identical_params_stay_identical(self):
        a = ad.Parameter(np.array([0.5]), "a")
        b = ad.Parameter(np.array([0.5]), "b")
        state = ad.AdagradDecayState()
        for _ in range(17):
            a.grad = np.array([0.3])
            b.grad = np.array([0.3])
            ad.adagrad_decay_step([a, b], state, lr=0.01)
        np.testing.assert_array_equal(a.data, b.data)

    def test_frozen_parameter_never_moves(self):
        w = ad.Parameter(np.array([1.0]), "w", trainable=False)
        state = ad.AdagradDecayState()
        w.grad = np.array([5.0])
        before = w.data.tobytes()
        for _ in range(10):
            ad.adagrad_decay_step([w], state, lr=0.1)
        assert w.data.tobytes() == before

    def test_accumulator_non_decreasing_without_decay(self):
        w = ad.Parameter(np.array([1.0]), "w")
        state = ad.AdagradDecayState(decay=1.0)
        prev = 0.0
        for g in (0.5, 0.1, 0.9):
            w.grad = np.array([g])
            ad.adagrad_decay_step([w], state, lr=0.01)
            acc = state.accumulators["w"][0]
            assert acc >= prev
            prev = acc

    def test_rejects_non_finite_gradient(self):
        w = ad.Parameter(np.array([1.0]), "w")
        w.grad = np.array([np.inf])
        with pytest.raises(ad.NonFiniteError):
            ad.adagrad_decay_step([w], ad.AdagradDecayState(), lr=0.01)

    def test_rejects_non_positive_lr(self):
        w = ad.Parameter(np.array([1.0]), "w")
        with pytest.raises(ValueError):
            ad.adagrad_decay_step([w], ad.AdagradDecayState(), lr=0.0)


class TestLazyDecay:
    DECAY, LR, EPS = 0.9, 0.05, 1e-8

    def test_untouched_row_keeps_its_bits_and_catches_up_its_decay(self):
        rng = np.random.default_rng(11)
        table = ad.Parameter(rng.normal(size=(6, 3)), "table")
        initial = table.data.copy()
        state = ad.AdagradDecayState(decay=self.DECAY, epsilon=self.EPS)
        acc = np.zeros((6, 3))  # the dense rule's accumulator
        k = 7
        schedule = [[4, 0]] + [[0, 1, 1]] * k + [[4, 2, 4]]
        for step, rows in enumerate(schedule):
            weights = rng.normal(size=(len(rows), 3))
            g = np.zeros((6, 3))
            np.add.at(g, rows, weights)
            acc = self.DECAY * acc + g * g
            ad.zero_grads([table])
            ad.backward(ad.reduce_sum(ad.mul(ad.gather_rows(table, np.array(rows)), ad.Tensor(weights))))
            ad.adagrad_decay_step([table], state, lr=self.LR)
            if step == 0:
                row4 = table.data[4].tobytes()
            elif step <= k:
                assert table.data[4].tobytes() == row4
        for never in (3, 5):
            assert table.data[never].tobytes() == initial[never].tobytes()
            assert state.last_step["table"][never] == 0
        assert state.last_step["table"][4] == state.steps["table"] == k + 2
        np.testing.assert_allclose(state.accumulators["table"][4], acc[4], rtol=1e-15, atol=0)

    def test_mixed_row_and_dense_gradient_takes_the_dense_rule(self):
        rng = np.random.default_rng(5)
        w = ad.Parameter(rng.normal(size=(4, 2)), "w")
        state = ad.AdagradDecayState(decay=self.DECAY, epsilon=self.EPS)
        acc = np.zeros((4, 2))
        for _ in range(5):
            ad.zero_grads([w])
            rows = ad.gather_rows(w, np.array([2, 2]))
            ad.backward(ad.add(ad.reduce_sum(ad.square(rows)), ad.reduce_sum(ad.mul(w, 0.5))))
            g = w.grad.copy()
            acc = self.DECAY * acc + g * g
            expected = w.data - self.LR * g / (np.sqrt(acc) + self.EPS)
            ad.adagrad_decay_step([w], state, lr=self.LR)
            assert w.data.tobytes() == expected.tobytes()

    def test_dense_parameters_follow_the_dense_rule_bitwise(self):
        # the `_train_toy` model, 50 steps, each checked against the dense rule
        rng = np.random.default_rng(7)
        w = ad.Parameter(rng.normal(size=(3, 1)), "w")
        x = rng.normal(size=(20, 3))
        y = ad.Tensor((x @ np.array([[1.0], [-2.0], [0.5]]) > 0).astype(float))
        state = ad.AdagradDecayState()
        acc = np.zeros((3, 1))
        for _ in range(50):
            ad.zero_grads([w])
            p = ad.clip(ad.sigmoid(ad.matmul(ad.Tensor(x), w)), 1e-12, 1 - 1e-12)
            ll = ad.add(ad.mul(y, ad.log(p)), ad.mul(ad.sub(1.0, y), ad.log(ad.sub(1.0, p))))
            ad.backward(ad.mul(ad.reduce_mean(ll), -1.0))
            g = w.grad.copy()
            acc = state.decay * acc + g * g
            expected = w.data - 0.05 * g / (np.sqrt(acc) + state.epsilon)
            ad.adagrad_decay_step([w], state, lr=0.05)
            assert w.data.tobytes() == expected.tobytes()
            assert state.accumulators["w"].tobytes() == acc.tobytes()


def _train_toy(seed):
    rng = np.random.default_rng(seed)
    w = ad.Parameter(rng.normal(size=(3, 1)), "w")
    x = rng.normal(size=(20, 3))
    y = (x @ np.array([[1.0], [-2.0], [0.5]]) > 0).astype(float)
    state = ad.AdagradDecayState()
    for _ in range(25):
        ad.zero_grads([w])
        p = ad.clip(ad.sigmoid(ad.matmul(ad.Tensor(x), w)), 1e-12, 1 - 1e-12)
        yd = ad.Tensor(y)
        ll = ad.add(ad.mul(yd, ad.log(p)), ad.mul(ad.sub(1.0, yd), ad.log(ad.sub(1.0, p))))
        ad.backward(ad.mul(ad.reduce_mean(ll), -1.0))
        ad.adagrad_decay_step([w], state, lr=0.05)
    return w.data.tobytes()


def test_training_is_bit_deterministic():
    assert _train_toy(7) == _train_toy(7)
    assert _train_toy(7) != _train_toy(8)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        params = {
            "emb.rows": rng.normal(size=(11, 8)),
            "layer.w": rng.normal(size=(8, 4)),
            "layer.b": np.array(0.25),  # 0-d array round-trips too
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, config_digest="abc123")
        loaded, digest = load_checkpoint(path)
        assert digest == "abc123"
        assert set(loaded) == set(params)
        for name in params:
            assert loaded[name].shape == np.asarray(params[name]).shape
            assert loaded[name].tobytes() == np.asarray(params[name], dtype="<f8").tobytes()

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.ones(2)}, "d")
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_first_gradient_is_fresh_and_negative_zero_becomes_positive():
    """A node's first gradient is stored as g + 0.0 in its own buffer, bit
    for bit what zeros + g gave: -0.0 turns into +0.0, and two parents fed
    the same upstream gradient never share it."""
    x = ad.Tensor(np.array([2.0, -1.0]), requires_grad=True)
    ad.backward(ad.reduce_sum(ad.mul(x, -0.0)))
    assert np.array_equal(x.grad, [0.0, 0.0]) and not np.signbit(x.grad).any()
    a, b = (ad.Tensor(np.ones(3), requires_grad=True) for _ in range(2))
    ad.backward(ad.reduce_sum(ad.add(a, b)))
    assert not np.shares_memory(a.grad, b.grad)
    np.testing.assert_array_equal(a.grad, np.ones(3))
