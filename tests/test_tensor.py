"""Engine tests: every op's forward against an independent oracle, every
backward against central finite differences, plus tape mechanics."""

import ctypes
import math
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from astpn import tensor
from astpn.tensor import Graph, ShapeError, Tensor

FD_H = 1e-6
FD_TOL = 1e-5


def fd_grad(fn, tensors, h=FD_H):
    """Central-difference gradient of a scalar fn() in each tensor element."""
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = fn()
            flat[i] = orig - h
            lo = fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


def check_op_gradients(build, tensors, rtol=FD_TOL):
    """Compare the taped gradient of sum(build(graph)) to finite differences.

    build(graph) must rerun the op on the same tensors each call; the finite
    difference probe perturbs tensor data in place.
    """
    for t in tensors:
        t.clear_grad()
    graph = Graph()
    out = build(graph)
    graph.backward(graph.sum_all(out) if out.data.shape != () else out)

    def scalar():
        g = Graph(record=False)
        o = build(g)
        return float(o.data.sum())

    numeric = fd_grad(scalar, tensors)
    for t, fd in zip(tensors, numeric):
        assert t.grad is not None
        np.testing.assert_allclose(t.grad, fd, rtol=rtol, atol=1e-7)


# ---- tensor basics ----


def test_tensor_holds_float64():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert t.shape == (2, 2)
    assert t.size == 4


def test_item_requires_single_element():
    assert Tensor(3.5).item() == 3.5
    with pytest.raises(ShapeError):
        Tensor([1.0, 2.0]).item()


def test_accumulate_grad_adds():
    t = Tensor([1.0, 2.0])
    t.accumulate_grad(np.array([1.0, 1.0]))
    t.accumulate_grad(np.array([0.5, 0.25]))
    np.testing.assert_array_equal(t.grad, [1.5, 1.25])
    t.clear_grad()
    assert t.grad is None


# ---- linear algebra ----


def test_matvec_matches_numpy(rng):
    a = Tensor(rng.standard_normal((4, 7)))
    x = Tensor(rng.standard_normal(7))
    np.testing.assert_allclose(Graph().matvec(a, x).data, a.data @ x.data, rtol=1e-12)


def test_matvec_gradient(rng):
    a = Tensor(rng.standard_normal((4, 3)))
    x = Tensor(rng.standard_normal(3))
    check_op_gradients(lambda g: g.matvec(a, x), [a, x])


@pytest.mark.parametrize("steps", [1, 4])
def test_rnn_gradient(rng, steps):
    reps = Tensor(rng.standard_normal((steps, 5)))
    u_in = Tensor(rng.standard_normal((3, 5)) / 2)
    w_rec = Tensor(rng.standard_normal((3, 3)) / 2)
    check_op_gradients(lambda g: g.rnn(reps, u_in, w_rec), [reps, u_in, w_rec])


@pytest.mark.parametrize("reps_shape,u_shape,w_shape", [
    ((2, 5), (3, 4), (3, 3)), ((2, 5), (3, 5), (4, 4)), ((2, 5), (3, 5), (3, 4)),
    ((2, 5), (5,), (3, 3)), ((0, 5), (3, 5), (3, 3)), ((5,), (3, 5), (3, 3)),
])
def test_rnn_rejects_mismatched_shapes(reps_shape, u_shape, w_shape):
    with pytest.raises(ShapeError):
        Graph().rnn(Tensor(np.zeros(reps_shape)), Tensor(np.zeros(u_shape)),
                    Tensor(np.zeros(w_shape)))


# ---- attention ----


def attend_composition(p, g, u, d_p, d_g):
    """The head as separate ops compute it, in plain numpy: outputs and
    gradients of p^T softmax(max_j A) and g^T softmax(max_i A), A = tanh(p u
    g^T), each gradient summed in the order a tape of those ops adds it. d_p
    or d_g is None for an output that gets no gradient."""
    pu = p @ u
    a = np.tanh(pu @ g.T)
    am_p, am_g = a.argmax(axis=1), a.argmax(axis=0)
    t_p = np.take_along_axis(a, am_p[:, None], 1)[:, 0]
    t_g = np.take_along_axis(a, am_g[None], 0)[0]
    w_p, w_g = (np.exp(t - t.max()) / np.exp(t - t.max()).sum() for t in (t_p, t_g))
    outs = (p.T @ w_p, g.T @ w_g)
    dp = dg = da = None
    if d_g is not None:
        dg = np.outer(d_g, w_g).T
        e = g @ d_g
        da = np.zeros(a.shape)
        np.put_along_axis(da, am_g[None], (w_g * (e - np.dot(e, w_g)))[None], 0)
    if d_p is not None:
        dp = np.outer(d_p, w_p).T
        e = p @ d_p
        da_p = np.zeros(a.shape)
        np.put_along_axis(da_p, am_p[:, None], (w_p * (e - np.dot(e, w_p)))[:, None], 1)
        da = da_p if da is None else da + da_p
    ds = a * a
    np.subtract(1.0, ds, out=ds)
    ds *= da
    dpu = ds @ g
    dg_s = ds.T @ pu
    dg = dg_s if dg is None else dg + dg_s
    dp_s = dpu @ u.T
    dp = dp_s if dp is None else dp + dp_s
    return outs, (dp, dg, p.T @ dpu)


def attend_taped(p, g, u, d_p, d_g):
    """attend's outputs and the gradients its vjp gives p, g and u."""
    tensors = [Tensor(x.copy()) for x in (p, g, u)]
    graph = Graph()
    outs = graph.attend(*tensors)
    terms = [graph.sum_all(graph.mul(out, Tensor(d, requires_grad=False)))
             for out, d in zip(outs, (d_p, d_g)) if d is not None]
    graph.backward(terms[0] if len(terms) == 1 else graph.add(*terms))
    return tuple(o.data for o in outs), tuple(t.grad for t in tensors)


def dyadic(rng, shape):
    return rng.integers(-8, 9, size=shape) / 8.0


@pytest.mark.parametrize("case", ["unequal_lengths", "tied_maxima", "zero_u",
                                  "unused_gallery", "unused_probe"])
def test_attend_matches_the_composition_bitwise(rng, case):
    p, g = rng.standard_normal((4, 6)), rng.standard_normal((7, 5))
    u = rng.standard_normal((6, 5))
    d_p, d_g = rng.standard_normal(6), rng.standard_normal(5)
    if case == "tied_maxima":
        # repeated rows and a coarse grid tie maxima along both axes
        p, g, u = dyadic(rng, (4, 6)), dyadic(rng, (7, 5)), dyadic(rng, (6, 5))
        p[2], g[3], g[5] = p[0], g[1], g[1]
    elif case == "zero_u":
        u = np.zeros((6, 5))
    elif case == "unused_gallery":
        d_g = None
    elif case == "unused_probe":
        d_p = None
    want_outs, want_grads = attend_composition(p, g, u, d_p, d_g)
    outs, grads = attend_taped(p, g, u, d_p, d_g)
    for got, want in zip(outs + grads, want_outs + want_grads):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_attend_zero_u_is_the_mean_and_leaves_a_constant_u_without_gradient(rng):
    p = Tensor(rng.standard_normal((5, 3)))
    g = Tensor(rng.standard_normal((2, 3)))
    u = Tensor(np.zeros((3, 3)), requires_grad=False)
    graph = Graph()
    v_p, v_g = graph.attend(p, g, u)
    np.testing.assert_array_equal(v_p.data, p.data.T @ np.full(5, 1.0 / 5))
    np.testing.assert_array_equal(v_g.data, g.data.T @ np.full(2, 1.0 / 2))
    graph.backward(graph.sum_all(graph.mul(v_p, v_g)))
    assert u.grad is None
    assert p.grad is not None and g.grad is not None


def test_attend_records_one_tape_node(rng):
    graph = Graph()
    x = Tensor(rng.standard_normal((3, 2)))
    graph.attend(x, x, Tensor(rng.standard_normal((2, 2))))
    assert len(graph) == 1


def test_matmul_matches_triple_loop(rng):
    # attend's products, p u g^T and the weighted sums, against loops
    p = rng.standard_normal((3, 4))
    g = rng.standard_normal((5, 2))
    u = rng.standard_normal((4, 2))
    v_p, v_g = Graph().attend(Tensor(p), Tensor(g), Tensor(u))
    a = np.zeros((3, 5))
    for i in range(3):
        for j in range(5):
            for k in range(4):
                for m in range(2):
                    a[i, j] += p[i, k] * u[k, m] * g[j, m]
    a = np.tanh(a)
    for rows, best, got in ((p, a.max(axis=1), v_p), (g, a.max(axis=0), v_g)):
        w = [math.exp(b - best.max()) for b in best]
        expected = np.zeros(rows.shape[1])
        for n in range(rows.shape[1]):
            for t in range(len(w)):
                expected[n] += rows[t, n] * w[t] / sum(w)
        np.testing.assert_allclose(got.data, expected, rtol=1e-12)


def test_matmul_rejects_bad_shapes():
    # attend's operands: u must be (N, M) for (Tp, N) and (Tg, M) rows, Tp, Tg >= 1
    for p_shape, g_shape, u_shape in [
        ((3, 4), (5, 2), (2, 4)), ((3, 4), (5, 2), (4, 3)), ((4,), (5, 2), (4, 2)),
        ((3, 4), (2,), (4, 2)), ((0, 4), (5, 2), (4, 2)), ((3, 4), (0, 2), (4, 2)),
    ]:
        with pytest.raises(ShapeError):
            Graph().attend(Tensor(np.ones(p_shape)), Tensor(np.ones(g_shape)),
                           Tensor(np.ones(u_shape)))


def test_matmul_gradient(rng):
    # finite differences of p, g and u through both outputs
    p = Tensor(rng.standard_normal((3, 4)))
    g = Tensor(rng.standard_normal((5, 2)))
    u = Tensor(rng.standard_normal((4, 2)))
    w = Tensor(rng.standard_normal(6), requires_grad=False)
    check_op_gradients(lambda graph: graph.mul(graph.concat(list(graph.attend(p, g, u))), w),
                       [p, g, u])


def test_transposed_operand_gets_a_c_ordered_gradient(rng):
    # g enters as g^T; SGD reads the gradients of g and u without striding
    p = Tensor(rng.standard_normal((3, 4)))
    g = Tensor(rng.standard_normal((5, 2)))
    u = Tensor(rng.standard_normal((4, 2)))
    graph = Graph()
    v_p, v_g = graph.attend(p, g, u)
    graph.backward(graph.add(graph.sum_all(v_p), graph.sum_all(v_g)))
    assert g.grad.flags.c_contiguous and u.grad.flags.c_contiguous


@pytest.mark.parametrize("axis", [0, 1])
def test_max_along_matches_numpy_and_gradient(rng, axis):
    # identity rows expose the weights: p = I gives v_p = a_p, and g = I v_g = a_g
    p = Tensor(np.eye(4) if axis == 1 else rng.standard_normal((4, 3)))
    g = Tensor(np.eye(3) if axis == 0 else rng.standard_normal((5, 3)))
    u = Tensor(rng.standard_normal((p.shape[1], 3)))
    a = np.tanh(p.data @ u.data @ g.data.T)
    best = a.max(axis=axis)
    weights = np.exp(best - best.max()) / np.exp(best - best.max()).sum()
    side = 0 if axis == 1 else 1
    np.testing.assert_allclose(Graph().attend(p, g, u)[side].data, weights, rtol=1e-14)
    w = Tensor(rng.standard_normal(len(weights)), requires_grad=False)
    check_op_gradients(lambda graph: graph.mul(graph.attend(p, g, u)[side], w), [p, g, u])


def test_max_along_tie_takes_first_occurrence():
    # A = tanh(u) ties across row 0; its gradient goes to (0, 0) only
    eye = np.eye(2)
    u = Tensor(np.array([[1.0, 1.0], [0.0, 2.0]]))
    graph = Graph()
    v_p, _ = graph.attend(Tensor(eye), Tensor(eye), u)
    graph.backward(graph.sum_all(graph.mul(v_p, Tensor(np.array([1.0, 0.0])))))
    assert u.grad[0, 0] != 0.0 and u.grad[1, 1] != 0.0
    assert u.grad[0, 1] == 0.0 and u.grad[1, 0] == 0.0


def test_softmax_of_log_two_and_zero():
    # p = g = I makes A = tanh(u), whose row maxima are then ln 2 and 0
    eye = np.eye(2)
    u = np.array([[math.atanh(math.log(2.0)), 0.0], [0.0, 0.0]])
    v_p, _ = Graph().attend(Tensor(eye), Tensor(eye), Tensor(u))
    np.testing.assert_allclose(v_p.data, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-15)


def test_softmax_gradient_matches_jacobian(rng):
    # p = g = I: u's gradient at each row's max is (1 - A^2) (J w), J the
    # softmax Jacobian and w the weighting of v_p
    eye = np.eye(4)
    u = Tensor(rng.standard_normal((4, 4)))
    w = rng.standard_normal(4)

    def build(graph):
        return graph.mul(graph.attend(Tensor(eye), Tensor(eye), u)[0], Tensor(w))

    graph = Graph()
    graph.backward(graph.sum_all(build(graph)))
    a = np.tanh(u.data)
    at = (np.arange(4), a.argmax(axis=1))
    y = np.exp(a[at] - a[at].max())
    y /= y.sum()
    jac = np.diag(y) - np.outer(y, y)
    np.testing.assert_allclose(u.grad[at], (1 - a[at] ** 2) * (jac @ w), rtol=1e-10,
                               atol=1e-12)
    check_op_gradients(build, [u])


def test_softmax_extreme_values_stay_finite():
    # affinities far past tanh's range saturate; the weights stay a distribution
    p = 1e100 * np.eye(3)
    u = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    v_p, v_g = Graph().attend(Tensor(p), Tensor(p), Tensor(u))
    for v in (v_p, v_g):
        weights = v.data / 1e100
        assert np.isfinite(weights).all() and (weights > 0).all()
        assert weights.sum() == pytest.approx(1.0, abs=1e-15)


# ---- convolution ----


def conv2d_reference(x, kernel, bias, pad):
    """Direct-sum cross-correlation oracle, one output element at a time."""
    cin, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    xp = np.zeros((cin, h + 2 * pad, w + 2 * pad))
    xp[:, pad:pad + h, pad:pad + w] = x
    ho, wo = h + 2 * pad - kh + 1, w + 2 * pad - kw + 1
    out = np.zeros((cout, ho, wo))
    for co in range(cout):
        for i in range(ho):
            for j in range(wo):
                patch = xp[:, i:i + kh, j:j + kw]
                out[co, i, j] = (patch * kernel[co]).sum() + bias[co]
    return out


@pytest.mark.parametrize("h,w,pad", [(6, 5, 0), (6, 5, 2)])
def test_conv2d_matches_direct_sum(rng, h, w, pad):
    x = Tensor(rng.standard_normal((1, 3, h, w)))
    kernel = Tensor(rng.standard_normal((4, 3, 3, 3)))
    bias = Tensor(rng.standard_normal(4))
    out = Graph().conv2d(x, kernel, bias, pad=pad)
    expected = conv2d_reference(x.data[0], kernel.data, bias.data, pad)[None]
    assert out.shape == expected.shape
    np.testing.assert_allclose(out.data, expected, rtol=1e-10, atol=1e-12)


def test_conv2d_batched_equals_frame_by_frame(rng):
    frames = Tensor(rng.standard_normal((4, 2, 6, 5)))
    kernel = Tensor(rng.standard_normal((3, 2, 3, 3)))
    bias = Tensor(rng.standard_normal(3))
    g = Graph()
    batched = g.conv2d(frames, kernel, bias, pad=1)
    for t in range(4):
        single = g.conv2d(Tensor(frames.data[t:t + 1]), kernel, bias, pad=1)
        np.testing.assert_array_equal(batched.data[t], single.data[0])


@pytest.mark.parametrize("extent,kernel,pad,expected", [(64, 5, 4, 68), (13, 5, 4, 17)])
def test_conv2d_output_extent(rng, extent, kernel, pad, expected):
    x = Tensor(rng.standard_normal((1, 1, extent, extent)))
    k = Tensor(rng.standard_normal((1, 1, kernel, kernel)))
    b = Tensor(np.zeros(1))
    out = Graph().conv2d(x, k, b, pad=pad)
    assert out.shape == (1, 1, expected, expected)


def test_conv2d_gradient(rng):
    x = Tensor(rng.standard_normal((1, 2, 5, 4)))
    kernel = Tensor(rng.standard_normal((3, 2, 3, 3)))
    bias = Tensor(rng.standard_normal(3))
    check_op_gradients(lambda g: g.conv2d(x, kernel, bias, pad=1),
                       [x, kernel, bias])


def test_conv2d_shape_errors(rng):
    g = Graph()
    x = Tensor(rng.standard_normal((1, 3, 5, 5)))
    k = Tensor(rng.standard_normal((4, 2, 3, 3)))  # wrong input channel count
    b = Tensor(np.zeros(4))
    with pytest.raises(ShapeError):
        g.conv2d(x, k, b, pad=0)
    with pytest.raises(ShapeError):
        g.conv2d(Tensor(x.data[0]), Tensor(np.zeros((4, 3, 3, 3))), b, pad=0)
    with pytest.raises(ShapeError):
        g.conv2d(x, Tensor(np.zeros((4, 3, 9, 9))), b, pad=0)  # kernel too big
    with pytest.raises(ShapeError):
        g.conv2d(x, Tensor(np.zeros((4, 3, 3, 3))), Tensor(np.zeros(5)), pad=0)


def conv_case(x_shape, k_shape, pad, seed):
    """A conv2d problem from its shapes and a seed: (T,Cin,H,W) input,
    kernel, bias, pad, and fixed random weights for the output."""
    rng = np.random.default_rng(seed)
    t_n, _, h, w = x_shape
    cout, _, kh, kw = k_shape
    x = rng.standard_normal(x_shape)
    kernel = rng.standard_normal(k_shape)
    bias = rng.standard_normal(cout)
    weights = rng.standard_normal((t_n, cout, h + 2 * pad - kh + 1, w + 2 * pad - kw + 1))
    return x, kernel, bias, pad, weights


@st.composite
def conv_cases(draw, max_extent=7, max_pad=2, max_frames=3):
    """A random conv2d problem, as conv_case returns it."""
    cin, cout = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pad = draw(st.integers(0, max_pad))
    h = draw(st.integers(max(1, kh - 2 * pad), max_extent))
    w = draw(st.integers(max(1, kw - 2 * pad), max_extent))
    frames = draw(st.integers(1, max_frames))
    return conv_case((frames, cin, h, w), (cout, cin, kh, kw), pad,
                     draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(conv_cases())
def test_conv2d_property_matches_direct_sum(case):
    x, kernel, bias, pad, _ = case
    out = Graph().conv2d(Tensor(x), Tensor(kernel), Tensor(bias), pad=pad)
    expected = np.stack([conv2d_reference(f, kernel, bias, pad) for f in x])
    np.testing.assert_allclose(out.data, expected, rtol=1e-10, atol=1e-12)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(conv_cases(max_extent=5))
def test_conv2d_property_gradient(case):
    x, kernel, bias, pad, weights = case
    tensors = [Tensor(x), Tensor(kernel), Tensor(bias)]
    w = Tensor(weights)
    check_op_gradients(lambda g: g.mul(g.conv2d(*tensors, pad=pad), w),
                       tensors)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(conv_cases())
def test_conv2d_property_constant_input_gets_no_gradient(case):
    x, kernel, bias, pad, weights = case
    grads = []
    for requires_grad in (True, False):
        xt, kt, bt = Tensor(x, requires_grad=requires_grad), Tensor(kernel), Tensor(bias)
        g = Graph()
        g.backward(g.sum_all(g.mul(g.conv2d(xt, kt, bt, pad=pad),
                                   Tensor(weights))))
        assert (xt.grad is not None) == requires_grad
        grads.append((kt.grad, bt.grad))
    for with_x, without_x in zip(*grads):
        np.testing.assert_array_equal(with_x, without_x)


def conv2d_dx_reference(g, kernel, x_shape, pad):
    """Input gradient by direct sum: every output position adds g times the
    kernel into the padded input window it read."""
    t_n, cin, h, w = x_shape
    _, _, kh, kw = kernel.shape
    dxp = np.zeros((t_n, cin, h + 2 * pad, w + 2 * pad))
    for t in range(t_n):
        for i in range(g.shape[2]):
            for j in range(g.shape[3]):
                window = (t, slice(None), slice(i, i + kh), slice(j, j + kw))
                dxp[window] += np.tensordot(g[t, :, i, j], kernel, axes=1)
    return dxp[:, :, pad:pad + h, pad:pad + w]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(conv_cases(max_extent=9, max_pad=5))
@example(conv_case((2, 3, 8, 6), (2, 3, 5, 5), 4, 0))  # the model's: g read unpadded
@example(conv_case((1, 2, 4, 5), (2, 2, 5, 2), 2, 1))  # g padded in height, cropped in width
@example(conv_case((1, 2, 3, 4), (2, 2, 2, 3), 3, 2))  # pad past the kernel: g cropped
def test_conv2d_dx_matches_direct_sum(case):
    x, kernel, bias, pad, weights = case
    xt = Tensor(x)
    g = Graph()
    out = g.conv2d(xt, Tensor(kernel), Tensor(bias), pad=pad)
    g.backward(g.sum_all(g.mul(out, Tensor(weights, requires_grad=False))))
    np.testing.assert_allclose(xt.grad, conv2d_dx_reference(weights, kernel, x.shape, pad),
                               rtol=0, atol=1e-12)


def conv2d_results(case):
    """Forward output and the gradients of x, kernel and bias for a case."""
    x, kernel, bias, pad, weights = case
    xt, kt, bt = Tensor(x), Tensor(kernel), Tensor(bias)
    g = Graph()
    out = g.conv2d(xt, kt, bt, pad=pad)
    g.backward(g.sum_all(g.mul(out, Tensor(weights, requires_grad=False))))
    return out.data, xt.grad, kt.grad, bt.grad


def forward_frame_bytes(case):
    """im2col bytes per frame of the forward (and dkernel)."""
    _, kernel, _, _, weights = case
    return kernel[0].size * weights.shape[2] * weights.shape[3] * 8


def dx_frame_bytes(case):
    """Bytes per frame of dx: its width-lowered output gradient, which
    spans h + kh - 1 rows, and its two accumulators."""
    x, kernel, _, _, _ = case
    cout, cin, kh, kw = kernel.shape
    _, _, h, w = x.shape
    return (cout * kw * (h + kh - 1) + 2 * cin * h) * w * 8


def frame_column_bytes(case):
    """Bytes per frame of the forward and of dx, whichever is smaller."""
    return min(forward_frame_bytes(case), dx_frame_bytes(case))


def assert_close_to_rounding(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=1e-12,
                               atol=1e-12 * max(1.0, np.abs(expected).max()))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(conv_cases(max_extent=9, max_pad=5, max_frames=5), st.integers(1, 2))
@example(conv_case((5, 2, 8, 8), (3, 2, 3, 3), 1, 3), 1)
@example(conv_case((4, 3, 9, 7), (2, 3, 2, 3), 5, 4), 2)
def test_conv2d_frame_blocks_match_one_block(case, frames_per_block):
    one_block = conv2d_results(case)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "CONV_BLOCK_BYTES", frames_per_block * frame_column_bytes(case))
        blocked = conv2d_results(case)
    # blocks are GEMMs of other widths, and BLAS may round a product's
    # column tail differently; dkernel also sums its blocks in another order
    for actual, expected in zip(blocked[:3], one_block[:3]):
        assert_close_to_rounding(actual, expected)
    np.testing.assert_array_equal(blocked[3], one_block[3])


def closure_arrays(fn):
    """Every ndarray fn's closure holds, through nested closures too."""
    found = []
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            found.append(value)
        elif callable(value) and getattr(value, "__closure__", None) and value is not fn:
            found += closure_arrays(value)
    return found


def test_conv2d_vjp_keeps_at_most_one_block_of_columns(monkeypatch):
    case = conv_case((6, 2, 9, 7), (3, 2, 3, 3), 1, 5)
    one_block = conv2d_results(case)
    x, kernel, bias, pad, weights = case
    block_bytes = 2 * frame_column_bytes(case)
    monkeypatch.setattr(tensor, "CONV_BLOCK_BYTES", block_bytes)
    xt, kt, bt = Tensor(x), Tensor(kernel), Tensor(bias)
    g = Graph()
    out = g.conv2d(xt, kt, bt, pad=pad)
    kept = closure_arrays(g._tape[-1].vjp)
    assert kept and max(a.nbytes for a in kept) <= block_bytes
    # all of the stack's columns would be three blocks
    assert 3 * block_bytes <= x.shape[0] * kernel[0].size * out.shape[2] * out.shape[3] * 8
    g.backward(g.sum_all(g.mul(out, Tensor(weights, requires_grad=False))))
    for actual, expected in zip((out.data, xt.grad, kt.grad, bt.grad), one_block):
        assert_close_to_rounding(actual, expected)


def test_conv2d_blocks_share_one_column_buffer_per_direction(monkeypatch):
    case = conv_case((7, 2, 9, 7), (3, 2, 3, 3), 1, 5)
    one_block = conv2d_results(case)
    monkeypatch.setattr(tensor, "CONV_BLOCK_BYTES",
                        2 * max(forward_frame_bytes(case), dx_frame_bytes(case)))
    lowered = {"_im2col": [], "_width_cols": []}

    def recording(name):
        lower = getattr(tensor, name)

        def record(*args):
            lowered[name].append(lower(*args))
            return lowered[name][-1]

        return record

    for name in lowered:
        monkeypatch.setattr(tensor, name, recording(name))
    blocked = conv2d_results(case)
    # forward: 4 blocks of at most 2 frames, and dkernel rebuilds the first
    # 3; dx: 4 blocks of at most 2 frames
    cols, gcols = lowered["_im2col"], lowered["_width_cols"]
    assert (len(cols), len(gcols)) == (4 + 3, 4)
    assert all(np.shares_memory(c, cols[0]) for c in cols)
    assert all(np.shares_memory(c, gcols[0]) for c in gcols)
    assert not np.shares_memory(cols[0], gcols[0])
    for actual, expected in zip(blocked, one_block):
        assert_close_to_rounding(actual, expected)


REUSE_PROBE = """
import resource, sys
import numpy as np
import astpn.tensor
n = int(sys.argv[1])
bufs = [np.empty(24 * 2**20 // 8) for _ in range(n)]
for a in bufs:
    a.fill(1.0)
del a, bufs
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
bufs = [np.empty(24 * 2**20 // 8) for _ in range(n)]
for a in bufs:
    a.fill(2.0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before,
      n * a.nbytes // resource.getpagesize())
"""


THREAD_REUSE_PROBE = """
import resource, threading
import numpy as np
import astpn.tensor

def on_worker():
    a = np.empty(24 * 2**20 // 8)
    a.fill(1.0)

worker = threading.Thread(target=on_worker)
worker.start()
worker.join()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
a = np.empty(24 * 2**20 // 8)
a.fill(2.0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before,
      a.nbytes // resource.getpagesize())
"""


def reuse_faults(probe, *args):
    """Minor faults and pages of refilling freed 24 MiB buffers, in a fresh
    interpreter that has imported astpn.tensor (so the suite's own heap
    history stays out of the count)."""
    pytest.importorskip("resource")
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        pytest.skip("the C library has no mallopt")
    env = dict(os.environ, PYTHONPATH=str(Path(tensor.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe, *map(str, args)],
                          capture_output=True, text=True, env=env, check=True)
    return map(int, proc.stdout.split())


def test_freed_buffers_are_reused_without_page_faults():
    # importing astpn.tensor pins glibc's heap thresholds, so a freed 24 MiB
    # buffer stays mapped and its reuse touches resident pages only
    faults, pages = reuse_faults(REUSE_PROBE, 1)
    assert faults < 0.01 * pages


def test_heap_freed_past_128_mib_is_kept():
    # a train step at 128x64 crops frees more than 128 MiB of heap buffers at
    # its end; the heap keeps them, so the next step refills resident pages
    faults, pages = reuse_faults(REUSE_PROBE, 7)
    assert faults < 0.01 * pages


def test_buffer_freed_on_a_worker_thread_is_reused_on_the_main_thread():
    # glibc keeps one arena, so what a Graph.branches worker frees goes back
    # to the pinned main heap, not to an arena of a thread that is gone
    faults, pages = reuse_faults(THREAD_REUSE_PROBE)
    assert faults < 0.01 * pages


# ---- pooling ----


def maxpool_reference(x, window):
    c, h, w = x.shape
    wh, ww = window
    ho, wo = h // wh, w // ww
    out = np.zeros((c, ho, wo))
    for i in range(ho):
        for j in range(wo):
            out[:, i, j] = x[:, i * wh:(i + 1) * wh, j * ww:(j + 1) * ww].max(axis=(1, 2))
    return out


@pytest.mark.parametrize("window", [(2, 2), (3, 2), (2, 3)])
def test_maxpool2d_matches_window_loop(rng, window):
    x = Tensor(rng.standard_normal((2, 3, 8, 9)))
    out = Graph().maxpool2d(x, window)
    np.testing.assert_array_equal(out.data, [maxpool_reference(f, window) for f in x.data])


def test_maxpool2d_gradient(rng):
    x = Tensor(rng.standard_normal((1, 2, 6, 6)))
    check_op_gradients(lambda g: g.maxpool2d(x, (2, 2)), [x])


def test_maxpool2d_tie_goes_to_first_window_cell():
    x = Tensor(np.ones((1, 1, 2, 2)))
    g = Graph()
    out = g.maxpool2d(x, (2, 2))
    g.backward(g.sum_all(out))
    np.testing.assert_array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])


def test_maxpool2d_gradient_mass_is_conserved(rng):
    # disjoint windows: every upstream unit lands on exactly one input cell
    x = Tensor(rng.standard_normal((2, 4, 8, 6)))
    g = Graph()
    out = g.maxpool2d(x, (2, 2))
    g.backward(g.sum_all(out))
    assert x.grad.sum() == out.data.size
    assert set(np.unique(x.grad)) <= {0.0, 1.0}


def maxpool_grad_reference(x, window, g):
    """Input gradient by a direct window loop: each output's g goes to the
    first max cell of its window in row-major scan."""
    wh, ww = window
    dx = np.zeros_like(x)
    for t, c, i, j in np.ndindex(g.shape):
        win = x[t, c, i * wh:(i + 1) * wh, j * ww:(j + 1) * ww]
        a, b = np.unravel_index(np.argmax(win), win.shape)
        dx[t, c, i * wh + a, j * ww + b] += g[t, c, i, j]
    return dx


@st.composite
def pool_cases(draw):
    """Small-integer frames, so windows tie, with integer output weights;
    extents need not be multiples of the window."""
    window = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h, w = draw(st.integers(window[0], 8)), draw(st.integers(window[1], 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(-2, 3, size=(draw(st.integers(1, 2)), draw(st.integers(1, 3)), h, w))
    g = rng.integers(1, 5, size=x.shape[:2] + (h // window[0], w // window[1]))
    return x.astype(float), window, g.astype(float)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(pool_cases())
@example((np.array([[[[0.0, 1.0, 1.0]]]]), (1, 2), np.array([[[[1.0]]]])))
@example((np.ones((1, 1, 3, 3)), (2, 2), np.full((1, 1, 1, 1), 3.0)))
@example((np.ones((1, 2, 4, 4)), (2, 2), np.arange(1.0, 9.0).reshape(1, 2, 2, 2)))
def test_maxpool2d_property_matches_window_loop(case):
    x, window, weights = case
    xt = Tensor(x)
    g = Graph()
    out = g.maxpool2d(xt, window)
    np.testing.assert_array_equal(out.data, [maxpool_reference(f, window) for f in x])
    g.backward(g.sum_all(g.mul(out, Tensor(weights, requires_grad=False))))
    np.testing.assert_array_equal(xt.grad, maxpool_grad_reference(x, window, weights))


def test_maxpool2d_window_larger_than_input(rng):
    with pytest.raises(ShapeError):
        Graph().maxpool2d(Tensor(rng.standard_normal((1, 1, 2, 2))), (3, 3))


def test_region_maxpool_matches_slicing(rng):
    x = Tensor(rng.standard_normal((1, 3, 6, 4)))
    regions = [(0, 3, 0, 2), (0, 3, 2, 4), (3, 6, 0, 4)]
    out = Graph().region_maxpool(x, regions)
    assert out.shape == (1, 9)
    expected = [[x.data[0, c, r0:r1, c0:c1].max()
                 for c in range(3) for (r0, r1, c0, c1) in regions]]
    np.testing.assert_array_equal(out.data, expected)


def test_region_maxpool_gradient(rng):
    x = Tensor(rng.standard_normal((2, 2, 5, 5)))
    regions = [(0, 2, 0, 5), (2, 5, 0, 5), (0, 5, 0, 3)]
    check_op_gradients(lambda g: g.region_maxpool(x, regions), [x])


def test_region_maxpool_batched_rows(rng):
    x = Tensor(rng.standard_normal((4, 2, 5, 5)))
    regions = [(0, 5, 0, 5), (1, 3, 1, 3)]
    out = Graph().region_maxpool(x, regions)
    assert out.shape == (4, 4)
    single = Graph().region_maxpool(Tensor(x.data[2:3]), regions)
    np.testing.assert_array_equal(out.data[2], single.data[0])


@st.composite
def region_cases(draw):
    """Small-integer maps, so regions tie, and arbitrary regions: they may
    overlap, repeat, be single cells or cover the whole map."""
    h, w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rows = st.tuples(st.integers(0, h - 1), st.integers(1, h)).map(sorted)
    cols = st.tuples(st.integers(0, w - 1), st.integers(1, w)).map(sorted)
    spans = st.tuples(rows, cols).filter(lambda rc: rc[0][0] < rc[0][1] and rc[1][0] < rc[1][1])
    regions = [(r0, r1, c0, c1) for (r0, r1), (c0, c1) in
               draw(st.lists(spans, min_size=1, max_size=6))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(-2, 3, size=(draw(st.integers(1, 3)), draw(st.integers(1, 3)), h, w))
    g = rng.integers(1, 5, size=(x.shape[0], x.shape[1] * len(regions)))
    return x.astype(float), regions, g.astype(float)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(region_cases())
@example((np.ones((1, 1, 1, 1)), [(0, 1, 0, 1)], np.ones((1, 1))))
@example((np.ones((2, 2, 3, 4)), [(0, 3, 0, 4), (1, 2, 2, 3), (0, 3, 0, 4)],
          np.arange(1.0, 13.0).reshape(2, 6)))
def test_region_maxpool_property_matches_slicing(case):
    x, regions, weights = case
    t_n, c, h, w = x.shape
    xt = Tensor(x)
    g = Graph()
    out = g.region_maxpool(xt, regions)
    expected = [[x[t, ch, r0:r1, c0:c1].max() for ch in range(c) for (r0, r1, c0, c1) in regions]
                for t in range(t_n)]
    np.testing.assert_array_equal(out.data, expected)
    g.backward(g.sum_all(g.mul(out, Tensor(weights, requires_grad=False))))
    # each region's weight lands on its first max cell in row-major scan
    dx = np.zeros_like(x)
    for t in range(t_n):
        for ch in range(c):
            for r, (r0, r1, c0, c1) in enumerate(regions):
                block = x[t, ch, r0:r1, c0:c1]
                a, b = np.unravel_index(np.argmax(block), block.shape)
                dx[t, ch, r0 + a, c0 + b] += weights[t, ch * len(regions) + r]
    np.testing.assert_array_equal(xt.grad, dx)


def test_region_maxpool_out_of_bounds(rng):
    with pytest.raises(ShapeError):
        Graph().region_maxpool(Tensor(rng.standard_normal((1, 1, 4, 4))), [(0, 5, 0, 4)])


def test_pooling_ops_need_a_4d_stack(rng):
    x = Tensor(rng.standard_normal((2, 4, 4)))
    with pytest.raises(ShapeError):
        Graph().maxpool2d(x, (2, 2))
    with pytest.raises(ShapeError):
        Graph().region_maxpool(x, [(0, 4, 0, 4)])


# ---- elementwise ----


def test_tanh_matches_math_library():
    xs = np.array([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0])
    out = Graph().tanh(Tensor(xs))
    for v, x in zip(out.data, xs):
        assert v == pytest.approx(math.tanh(x), rel=1e-15)


def test_tanh_gradient_is_one_minus_square():
    x = Tensor(np.array([0.3, -1.2, 2.0]))
    g = Graph()
    out = g.tanh(x)
    g.backward(g.sum_all(out))
    np.testing.assert_allclose(x.grad, 1.0 - np.tanh(x.data) ** 2, rtol=1e-15)


def test_relu_and_subgradient_at_zero():
    x = Tensor(np.array([-1.0, 0.0, 2.0]))
    g = Graph()
    out = g.relu(x)
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])
    g.backward(g.sum_all(out))
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_binary_elementwise_oracle_and_gradient(rng, op):
    a = Tensor(rng.standard_normal((3, 4)))
    b = Tensor(rng.standard_normal((3, 4)))
    expected = {"add": a.data + b.data, "sub": a.data - b.data, "mul": a.data * b.data}[op]
    np.testing.assert_array_equal(getattr(Graph(), op)(a, b).data, expected)
    check_op_gradients(lambda g: getattr(g, op)(a, b), [a, b])
    with pytest.raises(ShapeError):
        getattr(Graph(), op)(a, Tensor(np.zeros((4, 3))))


# ---- shape plumbing ----


def test_reshape_gradient_restores_shape(rng):
    x = Tensor(rng.standard_normal((2, 6)))
    check_op_gradients(lambda g: g.reshape(x, (3, 4)), [x])


def test_concat_splits_gradient(rng):
    a = Tensor(rng.standard_normal((2, 3)))
    b = Tensor(rng.standard_normal((4, 3)))
    g = Graph()
    out = g.concat([a, b], axis=0)
    assert out.shape == (6, 3)
    check_op_gradients(lambda g: g.concat([a, b], axis=0), [a, b])


# ---- reductions ----


def test_sum_all_gradient_is_ones(rng):
    x = Tensor(rng.standard_normal((2, 3)))
    g = Graph()
    out = g.sum_all(x)
    g.backward(out)
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


# ---- probability ----


def test_cross_entropy_uniform_logits_is_log_k():
    for k in (2, 5, 8):
        out = Graph().cross_entropy(Tensor(np.zeros(k)), 0)
        assert out.item() == pytest.approx(math.log(k), rel=1e-15)


def test_cross_entropy_gradient_is_probs_minus_onehot(rng):
    logits = Tensor(rng.standard_normal(6))
    g = Graph()
    out = g.cross_entropy(logits, 4)
    g.backward(out)
    probs = np.exp(logits.data - logits.data.max())
    probs /= probs.sum()
    probs[4] -= 1.0
    np.testing.assert_allclose(logits.grad, probs, rtol=1e-12)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError):
        Graph().cross_entropy(Tensor(np.zeros(3)), 3)
    with pytest.raises(ValueError):
        Graph().cross_entropy(Tensor(np.zeros(3)), -1)


# ---- tape mechanics ----


def test_reused_tensor_accumulates_both_paths(rng):
    x = Tensor(np.array([2.0]))
    g = Graph()
    out = g.sum_all(g.add(g.mul(x, x), x))  # x^2 + x
    g.backward(out)
    assert x.grad[0] == pytest.approx(2 * 2.0 + 1.0, rel=1e-15)


def test_diamond_graph_gradient(rng):
    x = Tensor(rng.standard_normal(4))

    def build(g):
        y = g.tanh(x)
        return g.mul(y, y)  # both operands are the same node

    check_op_gradients(build, [x])


def test_second_backward_raises_and_keeps_grads():
    x = Tensor(np.array([3.0]))
    w = Tensor(np.array([-2.0]))
    g = Graph()
    out = g.sum_all(g.mul(g.mul(x, x), w))
    g.backward(out)
    first = (x.grad.copy(), w.grad.copy())
    assert len(g) == 0
    with pytest.raises(RuntimeError):
        g.backward(out)
    np.testing.assert_array_equal(x.grad, first[0])
    np.testing.assert_array_equal(w.grad, first[1])


def test_backward_frees_what_only_the_tape_holds(rng):
    x = Tensor(rng.standard_normal(3))
    g = Graph()
    hidden = g.tanh(x)
    out = g.sum_all(g.mul(hidden, hidden))
    ref = weakref.ref(hidden)
    del hidden
    assert ref() is not None
    g.backward(out)
    assert ref() is None


def test_backward_requires_scalar_root(rng):
    x = Tensor(rng.standard_normal(3))
    g = Graph()
    out = g.tanh(x)
    with pytest.raises(ShapeError):
        g.backward(out)


def test_unrecorded_graph_keeps_no_tape(rng):
    x = Tensor(rng.standard_normal((3, 3)))
    v = Tensor(rng.standard_normal(3))
    g = Graph(record=False)
    out = g.matvec(x, v)
    assert len(g) == 0
    recorded = Graph()
    np.testing.assert_array_equal(out.data, recorded.matvec(x, v).data)
    assert len(recorded) == 1


def test_backward_ignores_unrelated_ops(rng):
    x = Tensor(rng.standard_normal(3))
    y = Tensor(rng.standard_normal(3))
    g = Graph()
    out = g.sum_all(g.tanh(x))
    g.sum_all(y)  # also on the tape, but not feeding the root
    g.backward(out)
    assert x.grad is not None
    assert y.grad is None


def test_backward_never_writes_grad_of_a_constant(rng):
    a = Tensor(rng.standard_normal((3, 4)))
    c = Tensor(rng.standard_normal(4), requires_grad=False)
    g = Graph()
    g.backward(g.sum_all(g.matvec(a, c)))
    assert c.grad is None
    np.testing.assert_allclose(a.grad, np.outer(np.ones(3), c.data), rtol=1e-15)


def test_long_composite_program_gradient(rng):
    a = Tensor(rng.standard_normal((3, 4)))
    b = Tensor(rng.standard_normal((3, 4)) / 2)
    w = Tensor(rng.standard_normal((3, 3)) / 2)
    v = Tensor(rng.standard_normal(3))

    def build(g):
        m = g.tanh(g.rnn(a, b, w))
        u = g.matvec(m, v)
        s, t = g.attend(m, m, w)
        return g.mul(g.add(s, t), g.relu(u))

    check_op_gradients(build, [a, b, w, v])


def test_identical_runs_are_bitwise_identical(rng):
    data = rng.standard_normal((4, 4))
    results = []
    for _ in range(2):
        x = Tensor(data.copy())
        g = Graph()
        out = g.sum_all(g.tanh(g.rnn(x, x, x)))
        g.backward(out)
        results.append((out.data.copy(), x.grad.copy()))
    np.testing.assert_array_equal(results[0][0], results[1][0])
    np.testing.assert_array_equal(results[0][1], results[1][1])


# ---- concurrent branches ----


def branch_program(g, x, w, b):
    """A branch that reads the shared leaves w and b: tanh(w x + b) * (w x),
    with w used twice."""
    return g.mul(g.tanh(g.add(g.matvec(w, x), b)), g.matvec(w, x))


def test_branches_match_one_tape_in_sequence(rng):
    w = Tensor(rng.standard_normal((4, 3)))
    b = Tensor(rng.standard_normal(4))
    xs = [Tensor(rng.standard_normal(3), requires_grad=False) for _ in range(2)]
    grads, outs = [], []
    for concurrent in (False, True):
        g = Graph()
        if concurrent:
            rows = g.branches(lambda sub, x: branch_program(sub, x, w, b), xs)
        else:
            rows = [branch_program(g, x, w, b) for x in xs]
        loss = g.sum_all(g.mul(rows[0], g.tanh(rows[1])))
        g.backward(loss)
        outs.append([r.data.copy() for r in rows])
        grads.append((w.grad, b.grad))
        w.clear_grad()
        b.clear_grad()
    for seq, conc in zip(outs[0], outs[1]):
        np.testing.assert_allclose(conc, seq, rtol=1e-13, atol=1e-15)
    for seq, conc in zip(grads[0], grads[1]):
        np.testing.assert_allclose(conc, seq, rtol=1e-12, atol=1e-14)


def test_branches_under_fast_thread_switching_match_one_tape(rng):
    # more branches than cores, switching threads every few microseconds: a
    # gradient lost or added twice between branches would show
    w = Tensor(rng.standard_normal((4, 3)))
    b = Tensor(rng.standard_normal(4))
    xs = [Tensor(rng.standard_normal(3), requires_grad=False) for _ in range(6)]
    g = Graph()
    g.backward(g.sum_all(g.concat([branch_program(g, x, w, b) for x in xs])))
    expected = (w.grad, b.grad)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            w.clear_grad()
            b.clear_grad()
            g = Graph()
            rows = g.branches(lambda sub, x: branch_program(sub, x, w, b), xs)
            g.backward(g.sum_all(g.concat(rows)))
            for got, want in zip((w.grad, b.grad), expected):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
    finally:
        sys.setswitchinterval(interval)


def test_branches_gradient_matches_finite_differences(rng):
    w = Tensor(rng.standard_normal((4, 3)))
    b = Tensor(rng.standard_normal(4))
    xs = [Tensor(rng.standard_normal(3), requires_grad=False) for _ in range(2)]

    def build(g):
        rows = g.branches(lambda sub, x: branch_program(sub, x, w, b), xs)
        return g.mul(rows[0], rows[1])

    check_op_gradients(build, [w, b])


def test_branches_gradient_reaches_only_through_used_outputs(rng):
    w = Tensor(rng.standard_normal((4, 3)))
    x = Tensor(rng.standard_normal(3), requires_grad=False)
    g = Graph()
    used, unused = g.branches(lambda sub, a: sub.tanh(sub.matvec(w, a)), [x, x])
    g.backward(g.sum_all(used))
    expected = np.outer(1 - np.tanh(w.data @ x.data) ** 2, x.data)
    np.testing.assert_allclose(w.grad, expected, rtol=1e-13)


def test_branches_run_at_once_with_one_blas_thread_each():
    control = tensor._openblas_threads()
    threads_before = threading.active_count()
    blas_before = control[0]() if control else None
    seen = []
    barrier = threading.Barrier(2, timeout=30)

    def branch(sub, x):
        barrier.wait()  # returns only while both branches run
        seen.append((threading.get_ident(), control[0]() if control else None))
        return sub.tanh(x)

    Graph().branches(branch, [Tensor(np.zeros(2)), Tensor(np.ones(2))])
    assert len({ident for ident, _ in seen}) == 2
    assert threading.active_count() == threads_before
    if control:
        assert [n for _, n in seen] == [1, 1]
        assert control[0]() == blas_before


def test_branches_raise_the_first_error_after_every_branch_ends():
    finished = []

    def branch(sub, x):
        if x.item() == 1.0:
            raise ShapeError("first")
        if x.item() == 2.0:
            raise ValueError("second")
        finished.append(x.item())
        return sub.tanh(x)

    threads_before = threading.active_count()
    with pytest.raises(ShapeError, match="first"):
        Graph().branches(branch, [Tensor(np.ones(())), Tensor(np.full((), 2.0)),
                                  Tensor(np.zeros(()))])
    assert finished == [0.0]
    assert threading.active_count() == threads_before
    with pytest.raises(ValueError, match="second"):
        Graph().branches(branch, [Tensor(np.zeros(())), Tensor(np.full((), 2.0))])


def test_unrecorded_branches_run_in_sequence_on_the_calling_thread():
    seen = []

    def branch(sub, x):
        seen.append(threading.get_ident())
        return sub.tanh(x)

    g = Graph(record=False)
    outs = g.branches(branch, [Tensor(np.zeros(2)), Tensor(np.ones(2))])
    assert seen == [threading.get_ident()] * 2
    assert len(g) == 0
    np.testing.assert_array_equal(outs[1].data, np.tanh(np.ones(2)))
