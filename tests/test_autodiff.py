import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iakrec import autodiff as ad
from iakrec.checkpoint import CheckpointError, load_checkpoint, save_checkpoint

from gradcheck import assert_grads_match
import linear_reference
import loss_reference
from linear_reference import (composed_linear, composed_segment_linear, leaky_relu, matmul, segment_add, segment_matmul,
                              softmax)
from loss_reference import clip, log, reduce_mean, segment_mean, segment_sum, softplus, square, sub
from optimizer_reference import touched_grad


def test_sigmoid_at_zero():
    assert ad.sigmoid(ad.Tensor([0.0])).data[0] == 0.5


def test_leaky_relu_negative_slope():
    out = leaky_relu(ad.Tensor([-1.0]), slope=0.01)
    assert out.data[0] == pytest.approx(-0.01, abs=0)


def test_leaky_relu_equals_the_where_form_bitwise():
    # signed zeros, the kink, subnormals and the largest values of both signs
    tiny = np.finfo(np.float64).smallest_subnormal
    big = np.finfo(np.float64).max
    values = np.array([-0.0, 0.0, tiny, -tiny, 3 * tiny, -3 * tiny, 1e-310, -1e-310,
                       2.2e-308, -2.2e-308, 1.5, -1.5, 1e300, -1e300, big, -big])
    upstream = np.array([1.0, -1.0, 2.5, -3.0, 1e-320, -1e-320, 0.0, -tiny] * 2)
    for slope in (0.0, 0.01, 0.2, 1.0):
        x = ad.Tensor(values, requires_grad=True)
        out = leaky_relu(x, slope)
        ad.backward(ad.reduce_sum(ad.mul(out, upstream)))
        assert out.data.tobytes() == np.where(values >= 0.0, values, slope * values).tobytes()
        g = np.add(upstream * np.where(values >= 0.0, 1.0, slope), 0.0)
        assert x.grad.tobytes() == g.tobytes()


@pytest.mark.parametrize("slope", [-0.01, -0.0, 1.5, np.nan])
def test_leaky_slope_outside_unit_interval_is_rejected(slope):
    with pytest.raises(ValueError, match="slope"):
        leaky_relu(ad.Tensor([1.0]), slope)
    with pytest.raises(ValueError, match="slope"):
        ad.linear(np.ones((1, 2)), np.ones((2, 2)), np.ones(2), slope=slope)
    with pytest.raises(ValueError, match="slope"):
        ad.segment_linear(np.ones((1, 2)), np.ones((1, 2, 2)), np.ones((1, 2)), [0, 1], slope=slope)


@pytest.mark.parametrize("slope", [-0.0, 0.0, 5e-324, 0.01, 1.0, np.nextafter(1.0, 2.0), 1.5, -0.01, -np.inf,
                                   np.inf, np.nan, -np.nan, np.float64(-0.0), np.float64(1.0)])
def test_leaky_accepts_exactly_the_slopes_in_the_unit_interval_without_a_sign_bit(slope):
    if 0.0 <= slope <= 1.0 and not np.signbit(slope):
        assert ad._leaky(np.array([-2.0, 3.0]), slope).tolist() == [-2.0 * slope, 3.0]
    else:
        with pytest.raises(ValueError, match="slope"):
            ad._leaky(np.array([-2.0, 3.0]), slope)


def _linear_case(seed):
    """x, w, b and an upstream gradient for a (5, 3) -> 4 dense layer. Row 0
    of x is zero and b[0] is 0, so z[0, 0] is exactly 0 (the kink); x holds
    signed zeros, and the tiny upstream entries underflow to -0.0 once
    scaled by the slope or the scale."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(5, 3))
    x[0] = 0.0
    x[1, 0] = -0.0
    w = rng.normal(size=(3, 4))
    b = rng.normal(size=4)
    b[0] = 0.0
    upstream = rng.normal(size=(5, 4))
    upstream[2] = [-5e-324, -1e-322, 5e-324, -0.0]
    return x, w, b, upstream


def _run(layer, x, w, b, upstream, *args, **kwargs):
    """Output and (x, w, b) gradients of `layer` under the loss
    sum(layer(x, w, b) * upstream)."""
    xt, wt, bt = ad.Parameter(x, "x"), ad.Parameter(w, "w"), ad.Parameter(b, "b")
    out = layer(xt, wt, bt, *args, **kwargs)
    ad.backward(ad.reduce_sum(ad.mul(out, upstream)))
    return [out.data.tobytes()] + [t.grad.tobytes() for t in (xt, wt, bt)]


@pytest.mark.parametrize("scale", [None, 0.2])
@pytest.mark.parametrize("slope", [None, 0.01])
def test_linear_equals_the_composed_chain_bitwise(slope, scale):
    for seed in range(4):
        x, w, b, upstream = _linear_case(seed)
        fused = _run(ad.linear, x, w, b, upstream, slope=slope, scale=scale)
        assert fused == _run(composed_linear, x, w, b, upstream, slope=slope, scale=scale)


@pytest.mark.parametrize("scale", [None, 0.2])
@pytest.mark.parametrize("slope", [None, 0.01])
def test_a_graph_free_linear_equals_the_graph_path_bitwise(slope, scale):
    """A layer over frozen inputs records no graph, and the bare kernel a
    frozen forward runs applies its activation in place over its
    pre-activation; both give the recording layer's values bit for bit, at
    the kink and on signed zeros. (A bad slope raising in the op:
    `test_leaky_slope_outside_unit_interval_is_rejected`; at freeze:
    `test_fused_layers.FREEZE_ERRORS`.)"""
    for seed in range(4):
        x, w, b, _ = _linear_case(seed)
        frozen = [ad.Parameter(a, n, trainable=False) for a, n in ((x, "x"), (w, "w"), (b, "b"))]
        free = ad.linear(*frozen, slope=slope, scale=scale)
        assert free._parents == () and not free.requires_grad
        recorded = ad.linear(ad.Parameter(x, "x"), *frozen[1:], slope=slope, scale=scale)
        assert recorded.requires_grad and free.data.tobytes() == recorded.data.tobytes()
        assert ad.linear_kernel(x, w, b, slope, scale).tobytes() == recorded.data.tobytes()


@pytest.mark.parametrize("scale", [None, 0.2])
@pytest.mark.parametrize("slope", [None, 0.01])
@pytest.mark.parametrize("segmented", [False, True], ids=["linear", "segment_linear"])
def test_a_frozen_bias_takes_no_gradient_and_leaves_x_and_w_theirs(segmented, slope, scale):
    """A dense layer whose bias is frozen computes no bias gradient: the
    bias's stays unset, and x and w take the bits they take beside a
    trainable bias."""
    x, w, b, upstream = _linear_case(5)
    offsets = [0, 2, 2, 5]
    if segmented:
        w, b = np.stack([w, -w, 2 * w]), np.stack([b, -b, b])

    def grads(bias_trainable):
        xt, wt, bt = ad.Parameter(x, "x"), ad.Parameter(w, "w"), ad.Parameter(b, "b", trainable=bias_trainable)
        if segmented:
            out = ad.segment_linear(xt, wt, bt, offsets, slope=slope, scale=scale)
        else:
            out = ad.linear(xt, wt, bt, slope=slope, scale=scale)
        ad.backward(ad.reduce_sum(ad.mul(out, upstream)))
        return [out.data.tobytes(), xt.grad.tobytes(), wt.grad.tobytes()], bt

    trained, _ = grads(True)
    frozen, bias = grads(False)
    assert frozen == trained and bias._grad_unset()


@pytest.mark.parametrize("scale", [None, 0.2])
@pytest.mark.parametrize("slope", [None, 0.01])
def test_segment_linear_equals_the_composed_chain_bitwise(slope, scale):
    x, _, _, upstream = _linear_case(3)
    rng = np.random.default_rng(8)
    w, b = rng.normal(size=(3, 3, 4)), rng.normal(size=(3, 4))
    b[0, 0] = 0.0
    offsets = [0, 2, 2, 5]
    fused = _run(ad.segment_linear, x, w, b, upstream, offsets, slope=slope, scale=scale)
    assert fused == _run(composed_segment_linear, x, w, b, upstream, offsets, slope=slope, scale=scale)


@pytest.mark.parametrize("scale", [None, 0.2])
@pytest.mark.parametrize("slope", [None, 0.01])
def test_linear_gradients_match_finite_differences(slope, scale):
    rng = np.random.default_rng(4)
    x = ad.Parameter(rng.normal(size=(5, 3)), "x")
    w = ad.Parameter(rng.normal(size=(3, 4)), "w")
    b = ad.Parameter(rng.normal(size=4), "b")
    upstream = ad.Tensor(rng.normal(size=(5, 4)))
    ad.zero_grads([x, w, b])
    assert_grads_match(lambda: ad.reduce_sum(ad.mul(ad.linear(x, w, b, slope, scale), upstream)), [x, w, b],
                       ad.backward)


def test_linear_shapes_are_checked():
    for w, b in (((3, 2), (2,)), ((2, 2), (3,)), ((2, 2), (1, 2)), ((1, 2, 2), (2,))):
        with pytest.raises(ad.ShapeError, match="linear needs"):
            ad.linear(np.ones((4, 2)), np.ones(w), np.ones(b))


def test_softmax_equal_logits():
    out = softmax(ad.Tensor([[3.0, 3.0]]))
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
        matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))


def test_non_finite_is_rejected():
    with pytest.raises(ad.NonFiniteError):
        ad.Tensor([np.nan])
    with pytest.raises(ad.NonFiniteError):
        log(ad.Tensor([0.0]))


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
            h = ad.add(matmul(h, w), bias)
            if i < len(layers) - 1:
                h = leaky_relu(h)
        p = clip(ad.sigmoid(h), 1e-12, 1 - 1e-12)
        ll = ad.add(ad.mul(y, log(p)), ad.mul(sub(1.0, y), log(sub(1.0, p))))
        return ad.mul(reduce_mean(ll), -1.0)

    return loss_fn, params


@pytest.mark.parametrize("seed", range(5))
def test_mlp_gradients_match_finite_differences(seed):
    loss_fn, params = _random_mlp_loss(np.random.default_rng(seed))
    ad.zero_grads(params)
    assert_grads_match(loss_fn, params, ad.backward)


@pytest.mark.parametrize(
    "op",
    ["softmax", "concat", "slice", "gather", "gather_2d", "gather_and_dense",
     "softplus", "square", "mean_mul"],
)
def test_individual_op_gradients(op):
    rng = np.random.default_rng(hash(op) % 2**31)
    w = ad.Parameter(rng.normal(size=(4, 3)), "w")

    def loss_fn():
        if op == "softmax":
            return ad.reduce_sum(ad.mul(softmax(w), ad.Tensor(rng2)))
        if op == "concat":
            return ad.reduce_sum(square(ad.concat([w, ad.mul(w, 2.0)], axis=1)))
        if op == "slice":
            return ad.reduce_sum(square(ad.slice_cols(w, 1, 3)))
        if op == "gather":
            return ad.reduce_sum(square(ad.gather_rows(w, np.array([0, 2, 2, 1]))))
        if op == "gather_2d":
            return ad.reduce_sum(square(ad.gather_rows(w, np.array([[3, 1], [1, 1], [0, 3]]))))
        if op == "gather_and_dense":
            rows = ad.gather_rows(w, np.array([1, 1, 3]))
            return ad.add(ad.reduce_sum(square(rows)), ad.reduce_sum(ad.mul(w, ad.Tensor(rng2))))
        if op == "softplus":
            return ad.reduce_sum(softplus(w))
        if op == "square":
            return reduce_mean(square(w))
        return ad.mul(reduce_mean(ad.sigmoid(ad.mul(w, 0.3))), 2.0)

    rng2 = rng.normal(size=(4, 3))
    ad.zero_grads([w])
    assert_grads_match(loss_fn, [w], ad.backward)


# a segment of length 1 and an empty segment among longer ones
SEGMENTS = [0, 2, 3, 3, 6]


@pytest.mark.parametrize("op", ["linear_x", "linear_w", "linear_b", "sum", "sum_3d", "mean"])
def test_segment_op_gradients(op):
    rng = np.random.default_rng(len(op))
    x = ad.Parameter(rng.normal(size=(6, 3)), "x")
    w = ad.Parameter(rng.normal(size=(4, 3, 2)), "w")
    b = ad.Parameter(rng.normal(size=(4, 2)), "b")
    slabs = ad.Parameter(rng.normal(size=(4, 2, 3)), "slabs")
    weights = ad.Tensor(rng.normal(size=4))

    def loss_fn():
        if op.startswith("linear"):
            return ad.reduce_sum(square(ad.segment_linear(x, w, b, SEGMENTS, slope=0.01, scale=0.2)))
        if op == "sum":
            return ad.reduce_sum(ad.mul(segment_sum(square(x), SEGMENTS), weights))
        if op == "sum_3d":
            return ad.reduce_sum(ad.mul(segment_sum(square(slabs), [0, 1, 2, 3, 4]), weights))
        return ad.reduce_sum(ad.mul(segment_mean(square(x), SEGMENTS), weights))

    params = {"linear_x": [x], "linear_w": [w], "linear_b": [b], "sum_3d": [slabs]}.get(op, [x])
    ad.zero_grads([x, w, b, slabs])
    assert_grads_match(loss_fn, params, ad.backward)


@pytest.mark.parametrize("scale", [None, 0.2])
@pytest.mark.parametrize("slope", [None, 0.01])
def test_segment_ops_equal_their_plain_ops_bitwise(slope, scale):
    # per segment, values and gradients are the plain op's on that segment alone
    rng = np.random.default_rng(7)
    xs, ws, bs = rng.normal(size=(6, 3)), rng.normal(size=(4, 3, 2)), rng.normal(size=(4, 2))
    x, w, b = ad.Parameter(xs, "x"), ad.Parameter(ws, "w"), ad.Parameter(bs, "b")
    h = ad.segment_linear(x, w, b, SEGMENTS, slope, scale)
    total = ad.add(segment_mean(square(h), SEGMENTS), segment_sum(h, SEGMENTS))
    ad.backward(ad.reduce_sum(total))
    for k, (s, e) in enumerate(zip(SEGMENTS, SEGMENTS[1:])):
        xk, wk, bk = ad.Parameter(xs[s:e], "xk"), ad.Parameter(ws[k], "wk"), ad.Parameter(bs[k], "bk")
        hk = ad.linear(xk, wk, bk, slope, scale)
        assert hk.data.tobytes() == h.data[s:e].tobytes()
        if e == s:
            assert total.data[k] == 0.0 and not w.grad[k].any() and not b.grad[k].any()
            continue
        tk = ad.add(reduce_mean(square(hk)), ad.reduce_sum(hk))
        assert tk.data.tobytes() == total.data[k].tobytes()
        ad.backward(tk)
        assert xk.grad.tobytes() == x.grad[s:e].tobytes()
        assert wk.grad.tobytes() == w.grad[k].tobytes()
        assert bk.grad.tobytes() == b.grad[k].tobytes()


@pytest.mark.parametrize("offsets", [[0, 4], [1, 6], [0, 4, 3, 6], [0, 6, 6, 7], [[0, 6]], [0]])
def test_segment_offsets_are_checked(offsets):
    with pytest.raises(ad.ShapeError):
        segment_mean(np.ones((6, 1)), offsets)


def test_parsed_segments_stand_for_their_offsets():
    segs = ad.Segments([0, 2, 2, 5], 5)
    assert list(segs) == [(0, 2), (2, 2), (2, 5)]
    assert segs.counts.tolist() == [2, 0, 3] and not segs.unit
    assert ad.Segments(np.arange(4), 3).unit
    rng = np.random.default_rng(0)
    x, w, b = rng.normal(size=(5, 3)), rng.normal(size=(3, 3, 2)), rng.normal(size=(3, 2))
    parsed = ad.segment_linear(x, w, b, segs, slope=0.01)
    assert parsed.data.tobytes() == ad.segment_linear(x, w, b, [0, 2, 2, 5], slope=0.01).data.tobytes()
    with pytest.raises(ad.ShapeError, match="segments of 5 rows"):
        ad.segment_linear(np.ones((6, 3)), w, b, segs)


def test_segment_shapes_are_checked():
    with pytest.raises(ad.ShapeError):
        ad.segment_linear(np.ones((6, 3)), np.ones((2, 4, 2)), np.ones((2, 2)), [0, 3, 6])
    with pytest.raises(ad.ShapeError):
        ad.segment_linear(np.ones((6, 3)), np.ones((3, 3, 2)), np.ones((3, 2)), [0, 3, 6])
    with pytest.raises(ad.ShapeError):
        ad.segment_linear(np.ones((6, 3)), np.ones((2, 3, 2)), np.ones((2, 3)), [0, 3, 6])
    with pytest.raises(ad.ShapeError):
        segment_sum(np.float64(1.0), [0, 1])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_touched_grad_paths_agree_bitwise(data):
    # a table no longer than the lookup bins by row id; a longer one sorts.
    # Padding the same lookups' table past their length switches the path,
    # in the optimizer's segment sum and in the reference's alike.
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
        touched.append(touched_grad(p))
        touched.append(ad._segment_sum(p))
    rows_a, g_a = touched[0]
    for rows_b, g_b in touched[1:]:
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


def test_parameter_first_dense_gradient_is_one_pass(monkeypatch):
    """A Parameter's first dense gradient is stored as a plain tensor's is,
    fresh and in one pass, with no zeros made to add it into; -0.0 reads
    +0.0. A parameter with nothing recorded still reads zeros."""
    w = ad.Parameter(np.array([[1.0, -2.0], [0.5, 3.0]]), "w")
    x = ad.Tensor(np.array([[-0.0, 2.0], [-0.0, 4.0]]))
    loss = ad.reduce_sum(matmul(x, w))

    def no_zeros(*args, **kwargs):
        raise AssertionError("zeros_like called")

    with monkeypatch.context() as m:
        m.setattr(np, "zeros_like", no_zeros)
        ad.backward(loss)
    np.testing.assert_array_equal(w.grad, [[0.0, 0.0], [6.0, 6.0]])
    assert not np.signbit(w.grad).any()
    np.testing.assert_array_equal(ad.Parameter(np.ones(3), "idle").grad, np.zeros(3))


def test_gather_records_rows_and_reads_dense():
    w = ad.Parameter(np.ones((5, 2)), "w")
    ad.backward(ad.reduce_sum(ad.gather_rows(w, np.array([4, 1, 4, 4]))))
    rows, g = touched_grad(w)
    np.testing.assert_array_equal(rows, [1, 4])
    np.testing.assert_array_equal(g, [[1, 1], [3, 3]])
    np.testing.assert_array_equal(w.grad, [[0, 0], [1, 1], [0, 0], [0, 0], [3, 3]])


def test_gather_with_2d_rows_records_one_pair_viewing_the_output_gradient():
    """(B, T) rows give the T looked-up rows of each of the B side by side,
    and backward records one (rows, values) pair on the table: the rows in
    (b, t) order and a view of the output's gradient, not a copy."""
    w = ad.Parameter(np.arange(10.0).reshape(5, 2), "w")
    rows = np.array([[4, 0, 1], [1, 1, 3]])
    out = ad.gather_rows(w, rows)
    np.testing.assert_array_equal(out.data, [[8, 9, 0, 1, 2, 3], [2, 3, 2, 3, 6, 7]])
    ad.backward(ad.reduce_sum(ad.mul(out, np.arange(12.0).reshape(2, 6))))
    ((recorded_rows, values),) = w._row_grads
    np.testing.assert_array_equal(recorded_rows, [4, 0, 1, 1, 1, 3])
    assert values.shape == (6, 2) and np.shares_memory(values, out.grad)
    np.testing.assert_array_equal(w.grad, [[2, 3], [18, 21], [0, 0], [10, 11], [0, 1]])


@pytest.mark.parametrize("shape, out_shape", [((2, 2), (2, 4)), ((3, 1), (3, 2)), ((2, 0), (2, 0)), ((0,), (0, 2)),
                                              ((0, 3), (0, 6))])
def test_gather_takes_1d_or_2d_rows(shape, out_shape):
    assert ad.gather_rows(np.ones((4, 2)), np.zeros(shape, dtype=np.int64)).shape == out_shape


@pytest.mark.parametrize("table_shape, rows_shape", [((4, 2), ()), ((4, 2), (2, 2, 1)), ((4,), (2,)),
                                                   ((4, 2, 1), (2,))])
def test_gather_takes_a_2d_table_and_1d_or_2d_rows(table_shape, rows_shape):
    with pytest.raises(ad.ShapeError, match="needs a 2-d table and 1-d or 2-d rows"):
        ad.gather_rows(np.ones(table_shape), np.zeros(rows_shape, dtype=np.int64))


def test_gather_from_a_table_that_needs_a_gradient_but_is_no_parameter_raises():
    """Backward records row gradients, which only a `Parameter` holds: an
    intermediate that needs a gradient is rejected before anything is
    looked up. A graph-free tensor is looked up as any array."""
    w = ad.Parameter(np.ones((4, 3)), "w")
    with pytest.raises(ad.ShapeError, match="must be a Parameter"):
        ad.gather_rows(ad.mul(w, 2.0), np.array([3, 1, 1]))
    assert ad.gather_rows(ad.Tensor(np.ones((4, 3))), np.array([3, 1])).shape == (2, 3)


@pytest.mark.parametrize("row", [-1, 4, -5, 2**40])
def test_gather_rejects_a_row_outside_its_table(row):
    with pytest.raises(ad.ShapeError, match="index out of range"):
        ad.gather_rows(np.ones((4, 2)), np.array([0, row, 3]))
    with pytest.raises(ad.ShapeError, match="index out of range"):
        ad.gather_rows(np.ones((4, 2)), np.array([[3, 3], [1, row]]))


def _bad_tensor(bad, requires_grad=True):
    """A (2, 2) input holding `bad`; by default it records a graph, so every
    op's output is checked."""
    t = ad.Tensor(np.ones((2, 2)), requires_grad=requires_grad)
    t.data[0, 1] = bad  # past the constructor's own check
    return t


def _as_table(t):
    """A `Parameter` holding t's data, NaN or Inf included, trainable when t
    records a graph: `gather_rows` looks up only Parameters that need a
    gradient."""
    table = ad.Parameter(np.zeros(t.shape), "table", trainable=t.requires_grad)
    table.data = t.data
    return table


PRIMITIVES = {
    "add": lambda x: ad.add(x, 1.0),
    "sub": lambda x: sub(1.0, x),
    "mul": lambda x: ad.mul(x, 2.0),
    "matmul": lambda x: matmul(x, ad.Tensor(np.ones((2, 3)))),
    "sigmoid": ad.sigmoid,
    "leaky_relu": leaky_relu,
    "softmax": softmax,
    "gate_mix": lambda x: ad.gate_mix(x, [ad.Tensor(np.ones((2, 3))), ad.Tensor(np.full((2, 3), 2.0))]),
    "log": log,
    "softplus": softplus,
    "square": square,
    "clip": lambda x: clip(x, -1.0, 1.0),
    "concat": lambda x: ad.concat([x, x]),
    "slice_cols": lambda x: ad.slice_cols(x, 1, 2),
    "sum": ad.reduce_sum,
    "mean": reduce_mean,
    "gather_rows": lambda x: ad.gather_rows(_as_table(x), np.array([[0, 1], [1, 1]])),
    "linear": lambda x: ad.linear(x, np.ones((2, 3)), np.ones(3), slope=0.01, scale=0.5),
    "segment_linear": lambda x: ad.segment_linear(x, np.ones((2, 2, 3)), np.ones((2, 3)), [0, 1, 2], 0.01, 0.5),
    "segment_sum": lambda x: segment_sum(x, [0, 2]),
    "segment_mean": lambda x: segment_mean(x, [0, 1, 2]),
    "clipped_bce": lambda x: ad.clipped_bce(x, np.ones(4), 0.1, 0.9),
    "gaussian_kl": lambda x: ad.gaussian_kl(x, np.zeros((2, 2))),
    "weight_sample": lambda x: ad.weight_sample(x, np.zeros((2, 2)), np.ones((2, 2))),
    "reference_segment_matmul": lambda x: segment_matmul(x, np.ones((2, 2, 3)), [0, 1, 2]),
    "reference_segment_add": lambda x: segment_add(x, np.ones((2, 2)), [0, 1, 2]),
}


def test_the_primitive_table_covers_every_op():
    # the engine's ops and the reference ops the tests keep beside it
    sources = "".join(inspect.getsource(m) for m in (ad, linear_reference, loss_reference))
    assert set(PRIMITIVES) == set(re.findall(r'backward, "(\w+)"\)', sources))


# (op, input value) pairs whose output is finite: the op saturates there
SATURATES = {("sigmoid", np.inf), ("sigmoid", -np.inf), ("clip", np.inf), ("clip", -np.inf),
             ("softplus", -np.inf), ("softmax", -np.inf), ("gate_mix", -np.inf), ("clipped_bce", np.inf),
             ("clipped_bce", -np.inf)}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("op", sorted(PRIMITIVES))
def test_every_primitive_rejects_a_non_finite_output(op, bad):
    """An input holding NaN, +inf or -inf makes every op whose output then
    holds a non-finite value raise; where the op saturates, its finite
    output passes."""
    with np.errstate(all="ignore"):
        if (op, bad) in SATURATES:
            assert np.isfinite(PRIMITIVES[op](_bad_tensor(bad)).data).all()
        elif (op, bad) == ("log", -np.inf):
            with pytest.raises(ad.NonFiniteError, match="log of non-positive value"):
                PRIMITIVES[op](_bad_tensor(bad))
        else:
            with pytest.raises(ad.NonFiniteError, match=f"output of {op}$"):
                PRIMITIVES[op](_bad_tensor(bad))


@pytest.mark.parametrize("op", sorted(PRIMITIVES))
def test_a_graph_free_op_returns_a_non_finite_output_unchecked(op):
    """An op whose inputs record no graph (a frozen forward) does not check
    its output: the NaN passes through to where a score is checked."""
    with np.errstate(all="ignore"):
        out = PRIMITIVES[op](_bad_tensor(np.nan, requires_grad=False))
    assert np.isnan(out.data).any() and not out.requires_grad and out._parents == ()


# each op a frozen forward runs: its tensor inputs, then the op over them
_FROZEN_INPUTS = np.random.default_rng(12).normal(size=(6, 4, 3))
FROZEN_FORWARD = {
    "add": ((_FROZEN_INPUTS[0], _FROZEN_INPUTS[1, 0]), ad.add),
    "mul": ((_FROZEN_INPUTS[0], _FROZEN_INPUTS[1]), ad.mul),
    "sigmoid": ((_FROZEN_INPUTS[0],), ad.sigmoid),
    "linear": ((_FROZEN_INPUTS[0], _FROZEN_INPUTS[1, :3], _FROZEN_INPUTS[2, 0]),
               lambda x, w, b: ad.linear(x, w, b, slope=0.01, scale=0.5)),
    "gate_mix": ((_FROZEN_INPUTS[0, :, :2], _FROZEN_INPUTS[1], _FROZEN_INPUTS[2]),
                 lambda gate, e0, e1: ad.gate_mix(gate, [e0, e1])),
    "concat": ((_FROZEN_INPUTS[0], _FROZEN_INPUTS[1, :, :2]), lambda a, b: ad.concat([a, b])),
    "gather_rows": ((_FROZEN_INPUTS[0],), lambda table: ad.gather_rows(table, np.array([[3, 0], [1, 1]]))),
    "slice_cols": ((_FROZEN_INPUTS[0],), lambda a: ad.slice_cols(a, 1, 3)),
}


def _frozen_op(op, trainable=None):
    """The output of `op` over its inputs as Parameters, only the input at
    position `trainable` (if any) needing a gradient."""
    arrays, run = FROZEN_FORWARD[op]
    return run(*(ad.Parameter(a, f"in{i}", trainable=i == trainable) for i, a in enumerate(arrays)))


@pytest.mark.parametrize("op", sorted(FROZEN_FORWARD))
def test_a_graph_free_op_gives_the_recording_ops_bits_and_no_graph(op):
    free = _frozen_op(op)
    assert free._parents == () and free._backward is None and not free.requires_grad
    for k in range(len(FROZEN_FORWARD[op][0])):
        recorded = _frozen_op(op, trainable=k)
        assert recorded.requires_grad and recorded._backward is not None, (op, k)
        assert (free.shape, free.data.tobytes()) == (recorded.shape, recorded.data.tobytes()), (op, k)


FROZEN = ad.Tensor(np.ones((4, 2)))
# the input checks of the ops a forward runs, made over inputs that need no
# gradient as over any other; a frozen forward runs no op, and makes these
# checks once, at freeze or at its entry (`test_fused_layers.FREEZE_ERRORS`)
GRAPH_FREE_ERRORS = {
    "linear_shape": (lambda: ad.linear(FROZEN, np.ones((3, 2)), np.ones(2)), ad.ShapeError, "linear needs"),
    "linear_slope": (lambda: ad.linear(FROZEN, np.ones((2, 2)), np.ones(2), slope=1.5), ValueError,
                     "slope must be in"),
    "gate_mix_shape": (lambda: ad.gate_mix(FROZEN, [FROZEN]), ad.ShapeError, "gate_mix needs"),
    "gather_rows_negative": (lambda: ad.gather_rows(FROZEN, np.array([0, -1])), ad.ShapeError,
                             "index out of range"),
    "gather_rows_past_the_end": (lambda: ad.gather_rows(FROZEN, np.array([4])), ad.ShapeError, "index out of range"),
    "concat_of_nothing": (lambda: ad.concat([]), ad.ShapeError, "concat of zero tensors"),
    "slice_cols_ndim": (lambda: ad.slice_cols(np.ones(3), 0, 1), ad.ShapeError, "needs a 2-d tensor"),
}


@pytest.mark.parametrize("case", sorted(GRAPH_FREE_ERRORS))
def test_a_graph_free_op_still_checks_its_inputs(case):
    call, error, message = GRAPH_FREE_ERRORS[case]
    with pytest.raises(error, match=message):
        call()


def test_a_column_slice_is_a_copy_whether_or_not_it_records():
    a = ad.Parameter(np.arange(12.0).reshape(3, 4), "a", trainable=False)
    assert not np.shares_memory(ad.slice_cols(a, 1, 3).data, a.data)
    a.set_trainable(True)
    assert not np.shares_memory(ad.slice_cols(a, 1, 3).data, a.data)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_tensor_rejects_a_non_finite_scalar_and_accepts_an_empty_array(bad):
    with pytest.raises(ad.NonFiniteError, match="tensor data contains NaN or Inf"):
        ad.Tensor(bad)
    with pytest.raises(ad.NonFiniteError, match="tensor data contains NaN or Inf"):
        ad.Tensor(np.array([[1.0, bad]]))
    empty = ad.Tensor(np.empty((0, 3)))
    assert empty.shape == (0, 3)
    assert ad.add(empty, 1.0).shape == (0, 3)


def test_computation_record_visits_each_node_once():
    w = ad.Parameter(np.ones(2), "w")
    a = ad.mul(w, 2.0)
    loss = ad.reduce_sum(ad.add(a, a))
    record = ad.backward(loss)
    assert len({id(n) for n in record.nodes}) == len(record.nodes)
    assert w.grad[0] == 4.0


DECAY, EPSILON = 0.9999, 1e-8  # the default settings


class TestAdagradDecay:
    def test_zero_gradient_is_fixed_point(self):
        w = ad.Parameter(np.array([1.0, -2.0]), "w")
        opt = ad.AdagradDecay([w], DECAY, EPSILON)
        before = w.data.copy()
        ad.adagrad_decay_step(opt, 0.005)
        np.testing.assert_array_equal(w.data, before)

    def test_single_scalar_step_matches_hand_evaluation(self):
        # acc = 1*0 + 1 = 1; step = 0.005*1/(sqrt(1)+eps)
        w = ad.Parameter(np.array([1.0]), "w")
        opt = ad.AdagradDecay([w], decay=1.0, epsilon=1e-300)
        w.grad = np.array([1.0])
        ad.adagrad_decay_step(opt, 0.005)
        assert w.data[0] == pytest.approx(1.0 - 0.005, abs=1e-12)

    def test_identical_params_stay_identical(self):
        a = ad.Parameter(np.array([0.5]), "a")
        b = ad.Parameter(np.array([0.5]), "b")
        opt = ad.AdagradDecay([a, b], DECAY, EPSILON)
        for _ in range(17):
            a.grad = np.array([0.3])
            b.grad = np.array([0.3])
            ad.adagrad_decay_step(opt, 0.01)
        np.testing.assert_array_equal(a.data, b.data)

    def test_frozen_parameter_never_moves(self):
        # the owner lays out its trainable parameters only
        w = ad.Parameter(np.array([1.0]), "w", trainable=False)
        v = ad.Parameter(np.array([2.0]), "v")
        opt = ad.AdagradDecay([p for p in (w, v) if p.requires_grad], DECAY, EPSILON)
        w.grad, v.grad = np.array([5.0]), np.array([5.0])
        before = w.data.tobytes()
        for _ in range(10):
            ad.adagrad_decay_step(opt, 0.1)
        assert w.data.tobytes() == before and v.data[0] < 2.0

    def test_accumulator_non_decreasing_without_decay(self):
        w = ad.Parameter(np.array([1.0]), "w")
        opt = ad.AdagradDecay([w], decay=1.0, epsilon=EPSILON)
        prev = 0.0
        for g in (0.5, 0.1, 0.9):
            w.grad = np.array([g])
            ad.adagrad_decay_step(opt, 0.01)
            acc = opt.accumulators["w"][0]
            assert acc >= prev
            prev = acc

    def test_rejects_non_finite_gradient(self):
        w = ad.Parameter(np.array([1.0]), "w")
        opt = ad.AdagradDecay([w], DECAY, EPSILON)
        w.grad = np.array([np.inf])
        with pytest.raises(ad.NonFiniteError):
            ad.adagrad_decay_step(opt, 0.01)

    def test_rejects_non_positive_lr(self):
        w = ad.Parameter(np.array([1.0]), "w")
        with pytest.raises(ValueError):
            ad.adagrad_decay_step(ad.AdagradDecay([w], DECAY, EPSILON), 0.0)

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf, np.array([[0.01], [np.nan]]),
                                    np.array([[np.inf], [0.01]])], ids=["nan", "+inf", "-inf", "nan_row", "inf_row"])
    def test_rejects_a_non_finite_lr_and_moves_nothing(self, lr):
        w = ad.Parameter(np.array([[1.0], [2.0]]), "w")
        opt = ad.AdagradDecay([w], DECAY, EPSILON, n_rows=2)
        w.grad = np.array([[0.5], [0.25]])
        with pytest.raises(ValueError, match="learning rate must be finite and positive"):
            ad.adagrad_decay_step(opt, lr)
        assert w.data.tolist() == [[1.0], [2.0]] and opt.step == 0 and not opt.acc.any()

    @pytest.mark.parametrize("decay, epsilon, message", [
        (0.0, 1e-8, "decay must be in (0, 1], got 0.0"),
        (1.5, 1e-8, "decay must be in (0, 1], got 1.5"),
        (0.9, 0.0, "epsilon must be finite and positive, got 0.0"),
        (0.9, np.inf, "epsilon must be finite and positive, got inf"),
    ])
    def test_rejects_bad_settings(self, decay, epsilon, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ad.AdagradDecay([ad.Parameter(np.ones(1), "w")], decay, epsilon)


class TestLazyDecay:
    DECAY, LR, EPS = 0.9, 0.05, 1e-8

    def test_untouched_row_keeps_its_bits_and_catches_up_its_decay(self):
        rng = np.random.default_rng(11)
        table = ad.Parameter(rng.normal(size=(6, 3)), "table")
        initial = table.data.copy()
        opt = ad.AdagradDecay([table], self.DECAY, self.EPS, table=table)
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
            ad.adagrad_decay_step(opt, self.LR)
            if step == 0:
                row4 = table.data[4].tobytes()
            elif step <= k:
                assert table.data[4].tobytes() == row4
        for never in (3, 5):
            assert table.data[never].tobytes() == initial[never].tobytes()
            assert opt.last_step[never] == 0
        assert opt.last_step[4] == opt.step == k + 2
        np.testing.assert_allclose(opt.accumulators["table"][4], acc[4], rtol=1e-15, atol=0)

    def test_dense_parameters_follow_the_dense_rule_bitwise(self):
        # the `_train_toy` model, 50 steps, each checked against the dense rule
        rng = np.random.default_rng(7)
        w = ad.Parameter(rng.normal(size=(3, 1)), "w")
        x = rng.normal(size=(20, 3))
        y = ad.Tensor((x @ np.array([[1.0], [-2.0], [0.5]]) > 0).astype(float))
        opt = ad.AdagradDecay([w], DECAY, EPSILON)
        acc = np.zeros((3, 1))
        for _ in range(50):
            ad.zero_grads([w])
            p = clip(ad.sigmoid(matmul(ad.Tensor(x), w)), 1e-12, 1 - 1e-12)
            ll = ad.add(ad.mul(y, log(p)), ad.mul(sub(1.0, y), log(sub(1.0, p))))
            ad.backward(ad.mul(reduce_mean(ll), -1.0))
            g = w.grad.copy()
            acc = opt.decay * acc + g * g
            expected = w.data - 0.05 * g / (np.sqrt(acc) + opt.epsilon)
            ad.adagrad_decay_step(opt, 0.05)
            assert w.data.tobytes() == expected.tobytes()
            assert opt.accumulators["w"].tobytes() == acc.tobytes()


def _train_toy(seed):
    rng = np.random.default_rng(seed)
    w = ad.Parameter(rng.normal(size=(3, 1)), "w")
    x = rng.normal(size=(20, 3))
    y = (x @ np.array([[1.0], [-2.0], [0.5]]) > 0).astype(float)
    opt = ad.AdagradDecay([w], DECAY, EPSILON)
    for _ in range(25):
        ad.zero_grads([w])
        p = clip(ad.sigmoid(matmul(ad.Tensor(x), w)), 1e-12, 1 - 1e-12)
        yd = ad.Tensor(y)
        ll = ad.add(ad.mul(yd, log(p)), ad.mul(sub(1.0, yd), log(sub(1.0, p))))
        ad.backward(ad.mul(reduce_mean(ll), -1.0))
        ad.adagrad_decay_step(opt, 0.05)
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
