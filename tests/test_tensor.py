"""Engine tests: every op's forward against an independent oracle, every
backward against central finite differences, plus tape mechanics."""

import ast
import ctypes
import functools
import inspect
import itertools
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

from astpn import layers, tensor
from astpn.tensor import Graph, ShapeError, Tensor
from conftest import SeededGraph

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


def check_op_gradients(build, tensors, weights=None, rtol=FD_TOL):
    """Compare the taped gradient of sum(weights * build(graph)), weights
    ones where None, to finite differences.

    build(graph) must rerun the op on the same tensors each call; the finite
    difference probe perturbs tensor data in place.
    """
    for t in tensors:
        t.clear_grad()
    graph = SeededGraph(weights)
    graph.backward(build(graph))

    def scalar():
        o = build(Graph(record=False)).data
        return float((o if weights is None else o * weights).sum())

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
    weights = rng.standard_normal((steps, 3))
    for post_tanh in (False, True):  # post_tanh also covers tanh's 1 - s^2
        check_op_gradients(lambda g: g.rnn(reps, u_in, w_rec, post_tanh), [reps, u_in, w_rec],
                           weights)


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


def weighed(graph, outs, weights):
    """A (1,) root whose gradient [1] hands each vector in outs exactly its
    weights, each a (1, n) constant: the sum of their matvecs."""
    terms = [graph.matvec(Tensor(w[None], requires_grad=False), out)
             for out, w in zip(outs, weights)]
    return functools.reduce(graph.add, terms)


def attend_taped(p, g, u, d_p, d_g):
    """attend's outputs and the gradients its vjp gives p, g and u."""
    tensors = [Tensor(x.copy()) for x in (p, g, u)]
    graph = SeededGraph()
    outs = graph.attend(*tensors)
    used = [(out, d) for out, d in zip(outs, (d_p, d_g)) if d is not None]
    graph.backward(weighed(graph, *zip(*used)))
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
    graph = SeededGraph()
    v_p, v_g = graph.attend(p, g, u)
    np.testing.assert_array_equal(v_p.data, p.data.T @ np.full(5, 1.0 / 5))
    np.testing.assert_array_equal(v_g.data, g.data.T @ np.full(2, 1.0 / 2))
    graph.backward(graph.add(v_p, v_g))
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
    w_p, w_g = rng.standard_normal(4), rng.standard_normal(2)

    def build(graph):
        return weighed(graph, graph.attend(p, g, u), (w_p, w_g))

    check_op_gradients(build, [p, g, u])


def test_transposed_operand_gets_a_c_ordered_gradient(rng):
    # g enters as g^T; SGD reads the gradients of g and u without striding
    p = Tensor(rng.standard_normal((3, 4)))
    g = Tensor(rng.standard_normal((5, 2)))
    u = Tensor(rng.standard_normal((4, 2)))
    graph = SeededGraph()
    graph.backward(weighed(graph, graph.attend(p, g, u), (np.ones(4), np.ones(2))))
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
    check_op_gradients(lambda graph: graph.attend(p, g, u)[side], [p, g, u],
                       rng.standard_normal(len(weights)))


def test_max_along_tie_takes_first_occurrence():
    # A = tanh(u) ties across row 0; its gradient goes to (0, 0) only
    eye = np.eye(2)
    u = Tensor(np.array([[1.0, 1.0], [0.0, 2.0]]))
    graph = SeededGraph([1.0, 0.0])
    v_p, _ = graph.attend(Tensor(eye), Tensor(eye), u)
    graph.backward(v_p)
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
        return graph.attend(Tensor(eye), Tensor(eye), u)[0]

    graph = SeededGraph(w)
    graph.backward(build(graph))
    a = np.tanh(u.data)
    at = (np.arange(4), a.argmax(axis=1))
    y = np.exp(a[at] - a[at].max())
    y /= y.sum()
    jac = np.diag(y) - np.outer(y, y)
    np.testing.assert_allclose(u.grad[at], (1 - a[at] ** 2) * (jac @ w), rtol=1e-10,
                               atol=1e-12)
    check_op_gradients(build, [u], w)


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


def conv2d_reference(x, kernel, bias):
    """Direct-sum full cross-correlation oracle, one output element at a
    time: the frame padded by kernel size - 1 zeros on each side."""
    cin, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    xp = np.zeros((cin, h + 2 * (kh - 1), w + 2 * (kw - 1)))
    xp[:, kh - 1:kh - 1 + h, kw - 1:kw - 1 + w] = x
    ho, wo = h + kh - 1, w + kw - 1
    out = np.zeros((cout, ho, wo))
    for co in range(cout):
        for i in range(ho):
            for j in range(wo):
                patch = xp[:, i:i + kh, j:j + kw]
                out[co, i, j] = (patch * kernel[co]).sum() + bias[co]
    return out


def conv_layer_reference(x, kernel, bias, pool):
    """The conv layer by its definition, frame by frame: the direct sum, its
    2x2 max with pool, then tanh; and the direct sum itself."""
    pre = np.stack([conv2d_reference(f, kernel, bias) for f in x])
    pooled = np.stack([maxpool_reference(f, (2, 2)) for f in pre]) if pool else pre
    return np.tanh(pooled), pre


def conv_correlation_grad(x, kernel, bias, pool, g):
    """The gradient the layer hands its correlation for an output gradient
    g: (1 - s^2) g, with pool sent to the first max cell of each window."""
    s, pre = conv_layer_reference(x, kernel, bias, pool)
    d = (1.0 - s * s) * g
    return maxpool_grad_reference(pre, (2, 2), d) if pool else d


def small_kernel(rng, shape):
    """A normal kernel scaled by 1/sqrt(fan-in), so that tanh of the
    correlation stays off its flat tails and its gradient off zero."""
    return rng.standard_normal(shape) / math.sqrt(math.prod(shape[1:]))


@pytest.mark.parametrize("h,w,kh,kw", [(6, 5, 3, 3), (6, 5, 2, 4)])
def test_conv2d_matches_direct_sum(rng, h, w, kh, kw):
    x = Tensor(rng.standard_normal((2, 3, h, w)))
    kernel = Tensor(small_kernel(rng, (4, 3, kh, kw)))
    bias = Tensor(rng.standard_normal(4))
    for pool in (False, True):
        expected, _ = conv_layer_reference(x.data, kernel.data, bias.data, pool)
        for record in (True, False):
            out = Graph(record=record).conv2d(x, kernel, bias, pool=pool)
            assert out.shape == expected.shape
            np.testing.assert_allclose(out.data, expected, rtol=1e-10, atol=1e-12)


def test_conv2d_batched_equals_frame_by_frame(rng):
    frames = Tensor(rng.standard_normal((4, 2, 6, 5)))
    kernel = Tensor(rng.standard_normal((3, 2, 3, 3)))
    bias = Tensor(rng.standard_normal(3))
    g = Graph()
    for pool in (False, True):
        batched = g.conv2d(frames, kernel, bias, pool=pool)
        for t in range(4):
            single = g.conv2d(Tensor(frames.data[t:t + 1]), kernel, bias, pool=pool)
            np.testing.assert_array_equal(batched.data[t], single.data[0])


@pytest.mark.parametrize("extent,kernel,expected", [(64, 5, 68), (13, 5, 17)])
def test_conv2d_output_extent(rng, extent, kernel, expected):
    x = Tensor(rng.standard_normal((1, 1, extent, extent)))
    k = Tensor(rng.standard_normal((1, 1, kernel, kernel)))
    b = Tensor(np.zeros(1))
    assert Graph().conv2d(x, k, b).shape == (1, 1, expected, expected)
    # the pool halves each extent, dropping an odd last row and column
    assert Graph().conv2d(x, k, b, pool=True).shape == (1, 1) + (expected // 2,) * 2


def test_conv2d_gradient(rng):
    x = Tensor(rng.standard_normal((1, 2, 5, 4)))
    kernel = Tensor(small_kernel(rng, (3, 2, 3, 3)))
    bias = Tensor(rng.standard_normal(3))
    for pool in (False, True):
        check_op_gradients(lambda g: g.conv2d(x, kernel, bias, pool=pool),
                           [x, kernel, bias])


def test_conv2d_shape_errors(rng):
    g = Graph()
    x = Tensor(rng.standard_normal((1, 3, 5, 5)))
    k = Tensor(rng.standard_normal((4, 2, 3, 3)))  # wrong input channel count
    b = Tensor(np.zeros(4))
    with pytest.raises(ShapeError):
        g.conv2d(x, k, b)
    with pytest.raises(ShapeError):
        g.conv2d(Tensor(x.data[0]), Tensor(np.zeros((4, 3, 3, 3))), b)
    with pytest.raises(ShapeError):
        g.conv2d(x, Tensor(np.zeros((4, 3, 3, 3))), Tensor(np.zeros(5)))
    with pytest.raises(ShapeError, match="2x2 pool"):  # a 1x7 map has no 2x2 window
        g.conv2d(Tensor(x.data[:, :, :1]), Tensor(np.zeros((4, 3, 1, 3))), b, pool=True)


@pytest.mark.parametrize("record", [True, False])
def test_conv2d_rejects_a_stack_with_no_frames(record):
    kernel, bias = Tensor(np.zeros((4, 5, 3, 3))), Tensor(np.zeros(4))
    with pytest.raises(ShapeError, match="at least one frame"):
        Graph(record=record).conv2d(Tensor(np.zeros((0, 5, 12, 8))), kernel, bias)


def conv_case(x_shape, k_shape, seed, pool=False):
    """A conv2d problem from its shapes and a seed: (T,Cin,H,W) input,
    kernel (small_kernel), bias, pool, and fixed random weights for the
    output."""
    rng = np.random.default_rng(seed)
    t_n, _, h, w = x_shape
    cout, _, kh, kw = k_shape
    x = rng.standard_normal(x_shape)
    kernel = small_kernel(rng, k_shape)
    bias = rng.standard_normal(cout)
    ho, wo = h + kh - 1, w + kw - 1
    if pool:
        ho, wo = ho // 2, wo // 2
    weights = rng.standard_normal((t_n, cout, ho, wo))
    return x, kernel, bias, pool, weights


@st.composite
def conv_cases(draw, max_extent=7, max_frames=3):
    """A random conv2d problem, as conv_case returns it; pooled where the
    correlation is at least 2x2."""
    cin, cout = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    h, w = draw(st.integers(1, max_extent)), draw(st.integers(1, max_extent))
    frames = draw(st.integers(1, max_frames))
    can_pool = min(h + kh, w + kw) >= 3
    pool = draw(st.booleans()) if can_pool else False
    return conv_case((frames, cin, h, w), (cout, cin, kh, kw),
                     draw(st.integers(0, 2**32 - 1)), pool)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(conv_cases())
def test_conv2d_property_matches_direct_sum(case):
    x, kernel, bias, pool, _ = case
    expected, _ = conv_layer_reference(x, kernel, bias, pool)
    for record in (True, False):
        out = Graph(record=record).conv2d(Tensor(x), Tensor(kernel), Tensor(bias), pool=pool)
        np.testing.assert_allclose(out.data, expected, rtol=1e-10, atol=1e-12)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(conv_cases(max_extent=5))
def test_conv2d_property_gradient(case):
    x, kernel, bias, pool, weights = case
    tensors = [Tensor(x), Tensor(kernel), Tensor(bias)]
    check_op_gradients(lambda g: g.conv2d(*tensors, pool=pool), tensors, weights)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(conv_cases())
def test_conv2d_property_constant_input_gets_no_gradient(case):
    x, kernel, bias, pool, weights = case
    grads = []
    for requires_grad in (True, False):
        xt, kt, bt = Tensor(x, requires_grad=requires_grad), Tensor(kernel), Tensor(bias)
        g = SeededGraph(weights)
        g.backward(g.conv2d(xt, kt, bt, pool=pool))
        assert (xt.grad is not None) == requires_grad
        grads.append((kt.grad, bt.grad))
    for with_x, without_x in zip(*grads):
        np.testing.assert_array_equal(with_x, without_x)


def conv2d_dx_reference(g, kernel, x_shape):
    """Input gradient of the correlation by direct sum: every output
    position adds g times the kernel into the padded input window it read."""
    t_n, cin, h, w = x_shape
    _, _, kh, kw = kernel.shape
    dxp = np.zeros((t_n, cin, h + 2 * (kh - 1), w + 2 * (kw - 1)))
    for t in range(t_n):
        for i in range(g.shape[2]):
            for j in range(g.shape[3]):
                window = (t, slice(None), slice(i, i + kh), slice(j, j + kw))
                dxp[window] += np.tensordot(g[t, :, i, j], kernel, axes=1)
    return dxp[:, :, kh - 1:kh - 1 + h, kw - 1:kw - 1 + w]


def conv_layer_grads(case):
    """Forward output and the gradients of x and kernel for a case, on one
    recorded graph."""
    x, kernel, bias, pool, weights = case
    xt, kt = Tensor(x), Tensor(kernel)
    g = SeededGraph(weights)
    g.backward(g.conv2d(xt, kt, Tensor(bias), pool=pool))
    return xt.grad, kt.grad


@settings(max_examples=80, deadline=None, derandomize=True)
@given(conv_cases(max_extent=9))
@example(conv_case((2, 3, 8, 6), (2, 3, 5, 5), 0, True))  # the model's 5x5 kernel, pooled
@example(conv_case((1, 2, 4, 5), (2, 2, 5, 2), 1))  # a kernel taller than the frame
def test_conv2d_dx_matches_direct_sum(case):
    x, kernel, bias, pool, weights = case
    seed = conv_correlation_grad(x, kernel, bias, pool, weights)
    np.testing.assert_allclose(conv_layer_grads(case)[0],
                               conv2d_dx_reference(seed, kernel, x.shape),
                               rtol=0, atol=1e-12)


def conv2d_dkernel_reference(g, x, k_shape):
    """Kernel gradient of the correlation by direct sum: every output
    position adds g times the padded input window it read."""
    t_n, cin, h, w = x.shape
    _, _, kh, kw = k_shape
    xp = np.zeros((t_n, cin, h + 2 * (kh - 1), w + 2 * (kw - 1)))
    xp[:, :, kh - 1:kh - 1 + h, kw - 1:kw - 1 + w] = x
    dkernel = np.zeros(k_shape)
    for t in range(t_n):
        for i in range(g.shape[2]):
            for j in range(g.shape[3]):
                dkernel += np.multiply.outer(g[t, :, i, j], xp[t, :, i:i + kh, j:j + kw])
    return dkernel


@settings(max_examples=80, deadline=None, derandomize=True)
@given(conv_cases(max_extent=9))
@example(conv_case((2, 3, 8, 6), (2, 3, 5, 5), 0, True))  # the model's 5x5 kernel, pooled
@example(conv_case((1, 2, 4, 5), (2, 2, 5, 2), 1))  # a kernel taller than the frame
def test_conv2d_dkernel_matches_direct_sum(case):
    x, kernel, bias, pool, weights = case
    seed = conv_correlation_grad(x, kernel, bias, pool, weights)
    np.testing.assert_allclose(conv_layer_grads(case)[1],
                               conv2d_dkernel_reference(seed, x, kernel.shape),
                               rtol=0, atol=1e-12)


def conv2d_results(case):
    """Forward output and the gradients of x, kernel and bias for a case."""
    x, kernel, bias, pool, weights = case
    xt, kt, bt = Tensor(x), Tensor(kernel), Tensor(bias)
    g = SeededGraph(weights)
    out = g.conv2d(xt, kt, bt, pool=pool)
    g.backward(out)
    return out.data, xt.grad, kt.grad, bt.grad


def forward_frame_bytes(case):
    """Bytes per frame of the forward: x's width lowering, which spans the
    padded height, and its two accumulators."""
    x, kernel = case[:2]
    cout, cin, kh, kw = kernel.shape
    _, _, h, w = x.shape
    ho, wo = h + kh - 1, w + kw - 1
    return (cin * kw * (ho + kh - 1) + 2 * cout * ho) * wo * 8


def backward_frame_bytes(case):
    """Bytes per frame of the vjp: the output gradient's width lowering and
    x's height lowering, each spanning h + kh - 1 rows, and dx's two
    accumulators."""
    x, kernel = case[:2]
    cout, cin, kh, kw = kernel.shape
    _, _, h, w = x.shape
    return ((cout * kw + cin * kh) * (h + kh - 1) + 2 * cin * h) * w * 8


def frame_bytes(case):
    """Bytes per frame of the forward and of the vjp, whichever is smaller."""
    return min(forward_frame_bytes(case), backward_frame_bytes(case))


def assert_close_to_rounding(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=1e-12,
                               atol=1e-12 * max(1.0, np.abs(expected).max()))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(conv_cases(max_extent=9, max_frames=5), st.integers(1, 2))
@example(conv_case((5, 2, 8, 8), (3, 2, 3, 3), 3), 1)
@example(conv_case((4, 3, 9, 7), (2, 3, 2, 3), 4, True), 2)
def test_conv2d_frame_blocks_match_one_block(case, frames_per_block):
    one_block = conv2d_results(case)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "CONV_BLOCK_BYTES", frames_per_block * frame_bytes(case))
        blocked = conv2d_results(case)
    # blocks are GEMMs of other widths, and BLAS may round a product's
    # column tail differently; dkernel also sums its blocks in another order,
    # and the bias gradient sums (1 - s^2) g over an s rounded so
    for actual, expected in zip(blocked, one_block):
        assert_close_to_rounding(actual, expected)


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


def test_conv2d_vjp_keeps_no_lowered_buffer(monkeypatch):
    case = conv_case((6, 2, 9, 7), (3, 2, 3, 3), 5)
    one_block = conv2d_results(case)
    x, kernel, bias, pool, weights = case
    monkeypatch.setattr(tensor, "CONV_BLOCK_BYTES", 2 * frame_bytes(case))
    xt, kt, bt = Tensor(x), Tensor(kernel), Tensor(bias)
    g = SeededGraph(weights)
    out = g.conv2d(xt, kt, bt, pool=pool)
    kept = closure_arrays(g._tape[-1].vjp)
    assert sorted(map(id, kept)) == sorted((id(kt.data), id(out.data)))
    g.backward(out)
    for actual, expected in zip((out.data, xt.grad, kt.grad, bt.grad), one_block):
        assert_close_to_rounding(actual, expected)


def test_pooled_conv2d_vjp_keeps_no_full_resolution_map(monkeypatch):
    # the model's conv1 at 16x8 crops: its 20x12 correlation pools to 10x6
    case = conv_case((4, 5, 16, 8), (16, 5, 5, 5), 6, True)
    one_block = conv2d_results(case)
    x, kernel, bias, pool, weights = case
    monkeypatch.setattr(tensor, "CONV_BLOCK_BYTES", forward_frame_bytes(case))
    xt, kt, bt = Tensor(x), Tensor(kernel), Tensor(bias)
    g = SeededGraph(weights)
    out = g.conv2d(xt, kt, bt, pool=pool)
    assert out.shape == (4, 16, 10, 6)
    kept = closure_arrays(g._tape[-1].vjp)
    taps = [a for a in kept if a is not kt.data and a is not out.data]
    assert len(kept) == 3 and len(taps) == 1
    assert taps[0].dtype == np.uint8 and taps[0].shape == out.shape
    assert max(a.size for a in kept) < 4 * 16 * 20 * 12
    g.backward(out)
    for actual, expected in zip((out.data, xt.grad, kt.grad, bt.grad), one_block):
        assert_close_to_rounding(actual, expected)


def one_by_one_layer(x):
    """conv2d of x under a 1x1 identity kernel, pooled, and the gradient its
    correlation got from an output gradient of ones: x.grad itself."""
    xt = Tensor(x)
    g = SeededGraph()
    out = g.conv2d(xt, Tensor(np.ones((1, 1, 1, 1))), Tensor(np.zeros(1)), pool=True)
    g.backward(out)
    return out.data, xt.grad


def test_pooled_conv2d_tie_goes_to_the_first_tap():
    x = np.array([[[[0.5, 0.5, -1.0, 0.25],
                    [0.5, 0.5, 0.25, 0.25]]]])
    out, grad = one_by_one_layer(x)
    np.testing.assert_array_equal(out, np.tanh([[[[0.5, 0.25]]]]))
    d = 1.0 - np.tanh(0.5) ** 2, 1.0 - np.tanh(0.25) ** 2
    np.testing.assert_array_equal(grad, [[[[d[0], 0.0, 0.0, d[1]],
                                           [0.0, 0.0, 0.0, 0.0]]]])


def test_pooled_conv2d_nan_max_passes_no_gradient():
    x = np.array([[[[0.5, np.nan, 1.0, 0.0],
                    [2.0, 0.5, 0.0, 0.0]]]])
    out, grad = one_by_one_layer(x)
    assert np.isnan(out[0, 0, 0, 0]) and out[0, 0, 0, 1] == np.tanh(1.0)
    np.testing.assert_array_equal(grad, [[[[0.0, 0.0, 1.0 - np.tanh(1.0) ** 2, 0.0],
                                           [0.0, 0.0, 0.0, 0.0]]]])


def test_conv2d_blocks_share_one_column_buffer_per_direction(monkeypatch):
    case = conv_case((7, 2, 9, 7), (3, 2, 3, 3), 5)
    one_block = conv2d_results(case)
    x, kernel, bias, pool, weights = case
    monkeypatch.setattr(tensor, "CONV_BLOCK_BYTES", 3 * forward_frame_bytes(case))
    lower, lowered = tensor._lower, []

    def recording(a, k, axis, buf):
        lowered.append((axis, lower(a, k, axis, buf)))
        return lowered[-1][1]

    monkeypatch.setattr(tensor, "_lower", recording)
    xt, kt, bt = Tensor(x), Tensor(kernel), Tensor(bias)
    g = SeededGraph(weights)
    out = g.conv2d(xt, kt, bt, pool=pool)
    cols = [c for _, c in lowered]
    lowered.clear()
    g.backward(out)
    # forward: x along its width, 3 blocks of at most 3 frames; vjp: the
    # output gradient along its width and x along its height, 4 blocks of
    # at most 2 frames
    gcols = [c for axis, c in lowered if axis == 3]
    xcols = [c for axis, c in lowered if axis == 2]
    assert (len(cols), len(gcols), len(xcols), len(lowered)) == (3, 4, 4, 8)
    groups = (cols, gcols, xcols)
    for group in groups:
        assert all(np.shares_memory(c, group[0]) for c in group)
    for first, second in itertools.combinations(groups, 2):
        assert not np.shares_memory(first[0], second[0])
    for actual, expected in zip((out.data, xt.grad, kt.grad, bt.grad), one_block):
        assert_close_to_rounding(actual, expected)


def test_conv2d_block_rule_at_eval_shapes(monkeypatch):
    # eval's conv1 at 64x32 crops: 16 frames of 5 channels, a 5x5 kernel to
    # 16 channels; a frame's width lowering is 25 x 72*36 floats
    # (0.52 MB) and its two accumulators 16 x 68*36 floats each (0.31 MB)
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((16, 5, 64, 32)), requires_grad=False)
    kernel, bias = Tensor(rng.standard_normal((16, 5, 5, 5))), Tensor(rng.standard_normal(16))
    lower, lowered = tensor._lower, []

    def recording(*args):
        cols = lower(*args)
        lowered.append(cols.nbytes)
        return cols

    monkeypatch.setattr(tensor, "_lower", recording)

    def conv(record, pool, block_bytes=tensor.CONV_BLOCK_BYTES):
        lowered.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor, "CONV_BLOCK_BYTES", block_bytes)
            out = Graph(record=record).conv2d(x, kernel, bias, pool=pool)
            return out.data, list(lowered)

    lowering_bytes = 25 * 72 * 36 * 8
    block_bytes = lowering_bytes + 2 * 16 * 68 * 36 * 8
    # a recorded block takes as many whole frames as CONV_BLOCK_BYTES holds
    frames = tensor.CONV_BLOCK_BYTES // block_bytes
    for pool in (False, True):  # the model pools conv1
        with tensor._one_blas_thread():
            one_block, _ = conv(True, pool, 2**40)
            unrecorded, forward_blocks = conv(False, pool)
            recorded, taped_blocks = conv(True, pool)
        assert forward_blocks == [lowering_bytes] * 16  # one frame per block
        assert taped_blocks == [min(frames, 16 - t0) * lowering_bytes
                                for t0 in range(0, 16, frames)]
        assert unrecorded.shape == (16, 16) + ((34, 18) if pool else (68, 36))
        assert unrecorded.tobytes() == one_block.tobytes()
        assert recorded.tobytes() == one_block.tobytes()


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
    # a train step at 128x64 crops frees about 93 MiB of heap buffers at its
    # end; the heap keeps even 168 MiB, so the next step refills resident pages
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
    g = SeededGraph()
    g.backward(g.maxpool2d(x, (2, 2)))
    np.testing.assert_array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])


def test_maxpool2d_gradient_mass_is_conserved(rng):
    # disjoint windows: every upstream unit lands on exactly one input cell
    x = Tensor(rng.standard_normal((2, 4, 8, 6)))
    g = SeededGraph()
    out = g.maxpool2d(x, (2, 2))
    g.backward(out)
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
    g = SeededGraph(weights)
    out = g.maxpool2d(xt, window)
    np.testing.assert_array_equal(out.data, [maxpool_reference(f, window) for f in x])
    g.backward(out)
    np.testing.assert_array_equal(xt.grad, maxpool_grad_reference(x, window, weights))


def first_tap_reference(x, window, g):
    """Max pooling and its gradient by a loop over windows: each window's g
    goes to the first cell in row-major scan that equals its max; a window
    holding a nan has a nan max, which no cell equals."""
    wh, ww = window
    out, dx = np.zeros(g.shape), np.zeros_like(x)
    for t, c, i, j in np.ndindex(g.shape):
        win = x[t, c, i * wh:(i + 1) * wh, j * ww:(j + 1) * ww]
        out[t, c, i, j] = win.max()
        held = np.flatnonzero(win == win.max())
        if held.size:
            a, b = np.unravel_index(held[0], win.shape)
            dx[t, c, i * wh + a, j * ww + b] = g[t, c, i, j]
    return out, dx


def first_max_past_255(rng):
    # max_pool's max over 300 frames: the first max sits past frame 255 in
    # every column but the last, and ties a later frame in the middle two
    x = rng.integers(-3, 3, size=(1, 1, 300, 4)).astype(float)
    for col, frames in enumerate([(299,), (260, 280), (256, 257), (0, 270)]):
        x[0, 0, list(frames), col] = 5.0
    return x, (300, 1)


def nan_in_a_window(rng):
    x = rng.standard_normal((1, 2, 4, 4))
    x[0, 1, 2, 1] = np.nan
    return x, (2, 2)


@pytest.mark.parametrize("make", [first_max_past_255, nan_in_a_window],
                         ids=["300-taps", "nan"])
def test_maxpool2d_first_tap_takes_the_gradient(rng, make):
    x, window = make(rng)
    weights = rng.standard_normal((x.shape[0], x.shape[1], x.shape[2] // window[0],
                                   x.shape[3] // window[1]))
    xt = Tensor(x)
    g = SeededGraph(weights)
    out = g.maxpool2d(xt, window)
    g.backward(out)
    expected_out, expected_dx = first_tap_reference(x, window, weights)
    np.testing.assert_array_equal(out.data, expected_out)
    np.testing.assert_array_equal(xt.grad, expected_dx)


def test_maxpool2d_window_larger_than_input(rng):
    with pytest.raises(ShapeError):
        Graph().maxpool2d(Tensor(rng.standard_normal((1, 1, 2, 2))), (3, 3))


def test_region_maxpool_matches_slicing(rng):
    x = Tensor(rng.standard_normal((1, 3, 6, 4)))
    out = Graph().region_maxpool(x, ((2, 2), (1, 1)))
    assert out.shape == (1, 15)
    cells = [(0, 3, 0, 2), (0, 3, 2, 4), (3, 6, 0, 2), (3, 6, 2, 4)]
    expected = [[x.data[0, c, r0:r1, c0:c1].max() for c in range(3) for (r0, r1, c0, c1) in cells]
                + [x.data[0, c].max() for c in range(3)]]
    np.testing.assert_array_equal(out.data, expected)


def test_region_maxpool_gradient(rng):
    # 5x5 under a 2x2 grid: neighbouring cells share the middle row and column
    x = Tensor(rng.standard_normal((2, 2, 5, 5)))
    check_op_gradients(lambda g: g.region_maxpool(x, ((2, 2), (1, 1))), [x])


def test_region_maxpool_batched_rows(rng):
    x = Tensor(rng.standard_normal((4, 2, 5, 5)))
    out = Graph().region_maxpool(x, ((2, 2), (1, 1)))
    assert out.shape == (4, 10)
    single = Graph().region_maxpool(Tensor(x.data[2:3]), ((2, 2), (1, 1)))
    np.testing.assert_array_equal(out.data[2], single.data[0])


def pyramid_cells(h, w, bins, channels):
    """(channel, r0, r1, c0, c1) of every output column, in output order."""
    return [(ch, r0, r1, c0, c1) for rows, cols in bins for ch in range(channels)
            for r0, r1 in tensor._cell_bounds(h, rows) for c0, c1 in tensor._cell_bounds(w, cols)]


@st.composite
def pyramid_cases(draw):
    """Small-integer maps, so cells tie, under a halving chain of possibly
    non-square grids, on maps from the finest grid's size up; integer
    weights on the finest level only."""
    levels = draw(st.integers(1, 3))
    coarse = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    bins = tuple((coarse[0] << k, coarse[1] << k) for k in reversed(range(levels)))
    h, w = draw(st.integers(bins[0][0], 13)), draw(st.integers(bins[0][1], 13))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(-2, 3, size=(draw(st.integers(1, 3)), draw(st.integers(1, 3)), h, w))
    n_fine = x.shape[1] * bins[0][0] * bins[0][1]
    g = np.zeros((x.shape[0], x.shape[1] * sum(r * c for r, c in bins)))
    g[:, :n_fine] = rng.integers(1, 5, size=(x.shape[0], n_fine))
    return x.astype(float), bins, g


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pyramid_cases())
@example((np.ones((1, 1, 1, 1)), ((1, 1),), np.ones((1, 1))))
@example((np.ones((2, 2, 3, 4)), ((2, 2), (1, 1)), np.arange(1.0, 21.0).reshape(2, 10)))
def test_region_maxpool_property_matches_slicing(case):
    x, bins, weights = case
    t_n, c, h, w = x.shape
    xt = Tensor(x)
    g = SeededGraph(weights)
    out = g.region_maxpool(xt, bins)
    cells = pyramid_cells(h, w, bins, c)
    expected = [[x[t, ch, r0:r1, c0:c1].max() for ch, r0, r1, c0, c1 in cells]
                for t in range(t_n)]
    np.testing.assert_array_equal(out.data, expected)
    g.backward(out)
    # each finest cell's weight lands on its first max cell in row-major scan
    dx = np.zeros_like(x)
    for t in range(t_n):
        for col, (ch, r0, r1, c0, c1) in enumerate(cells):
            block = x[t, ch, r0:r1, c0:c1]
            a, b = np.unravel_index(np.argmax(block), block.shape)
            dx[t, ch, r0 + a, c0 + b] += weights[t, col]
    np.testing.assert_array_equal(xt.grad, dx)


def test_region_maxpool_out_of_bounds(rng):
    # a finest grid with more rows or columns than the map has
    for bins in [((5, 4),), ((4, 5),), ((8, 2), (4, 1))]:
        with pytest.raises(ShapeError):
            Graph().region_maxpool(Tensor(rng.standard_normal((1, 1, 4, 4))), bins)


def test_pooling_ops_need_a_4d_stack(rng):
    x = Tensor(rng.standard_normal((2, 4, 4)))
    with pytest.raises(ShapeError):
        Graph().maxpool2d(x, (2, 2))
    with pytest.raises(ShapeError):
        Graph().region_maxpool(x, ((1, 1),))


class ParentOps(SeededGraph):
    """The ops the pyramid, the hinge and the conv layer were composed of
    before each became one node, as they were: sub, mul, sum_all, relu,
    tanh, concat, a max over explicit regions (r0, r1, c0, c1), half-open,
    and the correlation alone."""

    def correlate(self, x, kernel, bias):
        """conv2d before it pooled and tanh'd, in the same blocks and GEMMs,
        at the model's 5x5 kernels and padding 4."""
        t_n, cin, h, w = x.shape
        cout, _, kh, kw = kernel.shape
        kd = kernel.data
        hp, wp = h + 8, w + 8
        ho, wo = hp - kh + 1, wp - kw + 1
        blocks = tensor._frame_blocks(t_n, (cin * kw * hp + 2 * cout * ho) * wo * 8)
        xp = np.zeros((blocks[0][1], cin, hp, wp))
        cols_buf, acc_buf, part_buf = (np.empty(n * blocks[0][1] * wo)
                                       for n in (cin * kw * hp, cout * ho, cout * ho))
        kslabs = kd.transpose(2, 0, 1, 3).reshape(kh, cout, cin * kw)
        out = np.empty((t_n, cout, ho, wo))
        for t0, t1 in blocks:
            xb = xp[:t1 - t0]
            xb[:, :, 4:4 + h, 4:4 + w] = x.data[t0:t1]
            cols = tensor._lower(xb, kw, 3, cols_buf)
            row = (t1 - t0) * wo
            acc = tensor._row_sum(kslabs, cols, row, ho * row, acc_buf, part_buf)
            acc += bias.data[:, None]
            out[t0:t1] = acc.reshape(cout, ho, t1 - t0, wo).transpose(2, 0, 1, 3)

        def vjp(g):
            # padding 4 is the 5x5 kernel's size - 1: dx correlates g itself
            dbias = g.reshape(t_n, cout, ho * wo).sum(axis=(0, 2))
            blocks = tensor._frame_blocks(
                t_n, ((cout * kw + cin * kh) * (h + kh - 1) + 2 * cin * h) * w * 8, even=True)
            n_max = blocks[0][1]
            gbuf = np.empty(cout * kw * (h + kh - 1) * n_max * w)
            xbuf = np.empty(cin * kh * (h + kh - 1) * n_max * w)
            xh = np.zeros((n_max, cin, h + 2 * (kh - 1), w))
            dk = np.zeros((cout * kw, cin * kh))
            dx = None
            if x.requires_grad:
                kslabs = kd[:, :, ::-1, ::-1].transpose(2, 1, 0, 3).reshape(kh, cin, cout * kw)
                dx = np.empty((t_n, cin, h, w))
                acc_buf, part_buf = np.empty(cin * h * n_max * w), np.empty(cin * h * n_max * w)
            for t0, t1 in blocks:
                gcols = tensor._lower(g[t0:t1], kw, 3, gbuf)
                xb = xh[:t1 - t0]
                xb[:, :, kh - 1:kh - 1 + h] = x.data[t0:t1]
                dk += gcols @ tensor._lower(xb, kh, 2, xbuf).T
                if dx is not None:
                    row = (t1 - t0) * w
                    acc = tensor._row_sum(kslabs, gcols, row, h * row, acc_buf, part_buf)
                    dx[t0:t1] = acc.reshape(cin, h, t1 - t0, w).transpose(2, 0, 1, 3)
            dkernel = dk.reshape(cout, kw, cin, kh).transpose(0, 2, 3, 1)[:, :, :, ::-1]
            return dx, dkernel, dbias

        return self._push(Tensor(out), (x, kernel, bias), vjp)

    def sub(self, a, b):
        def vjp(g):
            return g, -g

        return self._push(Tensor(a.data - b.data), (a, b), vjp)

    def mul(self, a, b):
        ad, bd = a.data, b.data

        def vjp(g):
            return g * bd, g * ad

        return self._push(Tensor(ad * bd), (a, b), vjp)

    def sum_all(self, x):
        xshape = x.data.shape

        def vjp(g):
            return (np.full(xshape, g),)

        return self._push(Tensor(x.data.sum()), (x,), vjp)

    def relu(self, x):
        xd = x.data

        def vjp(g):
            return (g * (xd > 0.0),)

        return self._push(Tensor(np.maximum(xd, 0.0)), (x,), vjp)

    def tanh(self, x):
        od = np.tanh(x.data)

        def vjp(g):
            d = od * od
            np.subtract(1.0, d, out=d)
            d *= g
            return (d,)

        return self._push(Tensor(od), (x,), vjp)

    def concat(self, xs, axis):
        splits = np.cumsum([x.data.shape[axis] for x in xs])[:-1]

        def vjp(g):
            return tuple(np.split(g, splits, axis=axis))

        return self._push(Tensor(np.concatenate([x.data for x in xs], axis=axis)),
                          tuple(xs), vjp)

    def regions_maxpool(self, x, regions):
        xb = x.data
        t_n, c, h, w = xb.shape
        r0, r1, c0, c1 = np.array(regions, dtype=np.int64).T
        widths = c1 - c0
        areas = (r1 - r0) * widths
        k = np.minimum(np.arange(int(areas.max()))[:, None], areas - 1)
        table = (r0 + k // widths) * w + c0 + k % widths
        block = xb.reshape(t_n, c, h * w)[:, :, table]
        vals = block.max(axis=2)
        first = (block == vals[:, :, None]).argmax(axis=2)
        pos = table[first, np.arange(len(regions))] + np.arange(t_n * c).reshape(t_n, c, 1) * (h * w)

        def vjp(g):
            dx = np.bincount(pos.ravel(), weights=g.ravel(), minlength=xb.size)
            return (dx.reshape(t_n, c, h, w),)

        return self._push(Tensor(vals.reshape(t_n, c * len(regions))), (x,), vjp)


def pyramid_composition(graph, fmap, bins):
    """The pyramid as a tape of generic ops built it: a region max over the
    finest cells, then per coarser level a 2x2 maxpool2d of the level before,
    each level reshaped to rows and all joined by concat."""
    t_n, c, h, w = fmap.shape
    rows, cols = bins[0]
    level = graph.regions_maxpool(fmap, [(r0, r1, c0, c1) for r0, r1 in tensor._cell_bounds(h, rows)
                                         for c0, c1 in tensor._cell_bounds(w, cols)])
    parts = [level]
    grid = graph.reshape(level, (t_n, c, rows, cols))
    for rows, cols in bins[1:]:
        grid = graph.maxpool2d(grid, (2, 2))
        parts.append(graph.reshape(grid, (t_n, c * rows * cols)))
    return graph.concat(parts, axis=1)


def hinge_composition(graph, a, b, same, margin):
    diff = graph.sub(a, b)
    dist = graph.sum_all(graph.mul(diff, diff))
    if same:
        return dist
    return graph.relu(graph.sub(Tensor(np.float64(margin), requires_grad=False), dist))


def conv_stack_composition(graph, x, *weights):
    """The conv stack as three ops per layer built it: correlate, a 2x2
    maxpool2d in the first two layers, tanh."""
    for i in range(3):
        x = graph.correlate(x, weights[2 * i], weights[2 * i + 1])
        if i < 2:
            x = graph.maxpool2d(x, (2, 2))
        x = graph.tanh(x)
    return x


def bytes_of_run(build, inputs, weights):
    """Bytes of build(graph)'s output and of every input's gradient of
    sum(weights * output), on a fresh ParentOps tape."""
    tensors = [Tensor(x.copy()) for x in inputs]
    graph = ParentOps(weights)
    out = build(graph, *tensors)
    graph.backward(out)
    return [out.data.tobytes()] + [t.grad.tobytes() for t in tensors]


def overlapping_ties(rng):
    # one row and one column more than the 4x2 finest grid: neighbouring
    # cells share cells, and integer values tie within and across cells
    return rng.integers(-1, 2, size=(2, 3, 5, 3)).astype(float), ((4, 2), (2, 1))


def nan_map(rng):
    x = rng.standard_normal((2, 2, 8, 8))
    x[0, 1, 3, 4] = x[1, 0, 0, 0] = x[1, 1, 7, 2] = np.nan
    return x, ((4, 4), (2, 2), (1, 1))


@pytest.mark.parametrize("make", [
    overlapping_ties,
    nan_map,
    lambda rng: (rng.integers(0, 3, size=(1, 4, 9, 17)).astype(float), ((2, 8), (1, 4))),
    lambda rng: (rng.standard_normal((1, 32, 13, 11)), ((8, 8), (4, 4), (2, 2), (1, 1))),
    lambda rng: (np.zeros((3, 1, 4, 4)), ((4, 4), (2, 2), (1, 1))),
    lambda rng: (rng.integers(-1, 2, size=(1, 2, 3, 7)).astype(float), ((1, 1),)),
], ids=["overlapping-ties", "nan", "non-square-t1", "default-bins", "all-tied", "one-level"])
def test_region_maxpool_matches_the_composition_bitwise(rng, make):
    x, bins = make(rng)
    n = x.shape[1] * sum(r * c for r, c in bins)
    for weights in (rng.integers(-3, 4, size=(len(x), n)).astype(float),
                    rng.standard_normal((len(x), n))):
        assert (bytes_of_run(lambda g, t: g.region_maxpool(t, bins), [x], weights)
                == bytes_of_run(lambda g, t: pyramid_composition(g, t, bins), [x], weights))


@pytest.mark.parametrize("t_n,h,w", [(16, 16, 8), (2, 128, 64)], ids=["16x8", "128x64"])
def test_conv_stack_matches_the_composition_bitwise(rng, t_n, h, w):
    # flat patches tie windows in every layer, and frame 0 saturates tanh to
    # exactly +-1 in much of conv1; the frames take a gradient too
    frames = rng.uniform(-1, 1, size=(t_n, 5, h, w))
    frames[:, :, h // 4:3 * h // 4, w // 4:3 * w // 4] = 0.5
    frames[0] *= 200.0
    weights, cin = [frames], 5
    for cout in (16, 32, 32):
        bound = 1.0 / math.sqrt(cin * 25)
        weights += [rng.uniform(-bound, bound, (cout, cin, 5, 5)), rng.uniform(-bound, bound, cout)]
        cin = cout
    shape = (t_n, 32) + tuple(layers.conv_stack_output_hw((h, w)))
    for out_weights in (rng.integers(-3, 4, size=shape).astype(float),
                        rng.standard_normal(shape)):
        assert (bytes_of_run(lambda g, x, *ws: layers.conv_stack_forward(g, x, ws[::2], ws[1::2]),
                             weights, out_weights)
                == bytes_of_run(conv_stack_composition, weights, out_weights))


@pytest.mark.parametrize("same,margin", [
    (True, 3.0), (False, 5.0), (False, 3.0), (False, 6.0), (False, 0.0),
], ids=["positive", "at-margin", "beyond-margin", "inside-margin", "zero-margin"])
def test_hinge_matches_the_composition_bitwise(same, margin):
    # |a - b|^2 is exactly 5 (1 + 4); the weight's sign flips zeros' signs
    a, b = np.array([1.0, -0.5, 2.0]), np.array([0.0, -0.5, 0.0])
    for weight in (1.0, -1.5):
        weights = np.float64(weight)
        assert (bytes_of_run(lambda g, s, t: g.hinge(s, t, same, margin), [a, b], weights)
                == bytes_of_run(lambda g, s, t: hinge_composition(g, s, t, same, margin),
                                [a, b], weights))


def test_hinge_rejects_unequal_shapes():
    with pytest.raises(ShapeError):
        Graph().hinge(Tensor(np.zeros(3)), Tensor(np.zeros(4)), True, 1.0)


# ---- elementwise ----


def test_hinge_subgradient_at_the_margin_is_zero():
    # |a - b|^2 = 4: the slack 4.5 - 4 is active, 4 - 4 sits on the kink
    a, b = Tensor(np.array([2.0, 0.0])), Tensor(np.zeros(2))
    for margin, value, grad in [(4.5, 0.5, [-4.0, 0.0]), (4.0, 0.0, [0.0, 0.0]),
                                (3.0, 0.0, [0.0, 0.0])]:
        a.clear_grad()
        g = Graph()
        out = g.hinge(a, b, False, margin)
        assert out.item() == value
        g.backward(out)
        np.testing.assert_array_equal(a.grad, grad)


@pytest.mark.parametrize("op", ["add"])
def test_binary_elementwise_oracle_and_gradient(rng, op):
    a = Tensor(rng.standard_normal((3, 4)))
    b = Tensor(rng.standard_normal((3, 4)))
    expected = {"add": a.data + b.data}[op]
    np.testing.assert_array_equal(getattr(Graph(), op)(a, b).data, expected)
    check_op_gradients(lambda g: getattr(g, op)(a, b), [a, b])
    with pytest.raises(ShapeError):
        getattr(Graph(), op)(a, Tensor(np.zeros((4, 3))))


# ---- shape plumbing ----


def test_reshape_gradient_restores_shape(rng):
    x = Tensor(rng.standard_normal((2, 6)))
    check_op_gradients(lambda g: g.reshape(x, (3, 4)), [x])


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
    out = g.add(g.hinge(x, Tensor(np.zeros(1)), True, 0.0), g.reshape(x, ()))  # x^2 + x
    g.backward(out)
    assert x.grad[0] == pytest.approx(2 * 2.0 + 1.0, rel=1e-15)


def test_diamond_graph_gradient(rng):
    x = Tensor(rng.standard_normal((2, 4)))
    u_in, w_rec = Tensor(rng.standard_normal((3, 4)) / 2), Tensor(rng.standard_normal((3, 3)) / 2)

    def build(g):
        y = g.rnn(x, u_in, w_rec, post_tanh=True)
        return g.add(y, y)  # both operands are the same node

    check_op_gradients(build, [x, u_in, w_rec], rng.standard_normal((2, 3)))


def test_second_backward_raises_and_keeps_grads():
    x = Tensor(np.array([3.0]))
    w = Tensor(np.array([-2.0]))
    g = Graph()
    out = g.hinge(x, w, True, 0.0)
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
    hidden = g.matvec(Tensor(rng.standard_normal((2, 3))), x)
    out = g.hinge(hidden, Tensor(np.zeros(2)), True, 0.0)
    ref = weakref.ref(hidden)
    del hidden
    assert ref() is not None
    g.backward(out)
    assert ref() is None


def test_backward_requires_scalar_root(rng):
    x = Tensor(rng.standard_normal(3))
    g = Graph()
    out = g.reshape(x, (1, 3))
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
    out = g.hinge(x, Tensor(np.zeros(3)), True, 0.0)
    g.hinge(y, Tensor(np.zeros(3)), True, 0.0)  # also on the tape, but not feeding the root
    g.backward(out)
    assert x.grad is not None
    assert y.grad is None


def test_backward_never_writes_grad_of_a_constant(rng):
    a = Tensor(rng.standard_normal((3, 4)))
    c = Tensor(rng.standard_normal(4), requires_grad=False)
    g = SeededGraph()
    g.backward(g.matvec(a, c))
    assert c.grad is None
    np.testing.assert_allclose(a.grad, np.outer(np.ones(3), c.data), rtol=1e-15)


def test_long_composite_program_gradient(rng):
    a = Tensor(rng.standard_normal((3, 4)))
    b = Tensor(rng.standard_normal((3, 4)) / 2)
    w = Tensor(rng.standard_normal((3, 3)) / 2)
    v = Tensor(rng.standard_normal(3))

    def build(g):
        m = g.rnn(a, b, w, post_tanh=True)
        u = g.matvec(m, v)
        s, t = g.attend(m, m, w)
        return g.hinge(g.add(s, t), u, True, 0.0)

    check_op_gradients(build, [a, b, w, v])


def test_identical_runs_are_bitwise_identical(rng):
    data = rng.standard_normal((4, 4))
    results = []
    for _ in range(2):
        x = Tensor(data.copy())
        g = SeededGraph()
        out = g.rnn(x, x, x, post_tanh=True)
        g.backward(out)
        results.append((out.data.copy(), x.grad.copy()))
    np.testing.assert_array_equal(results[0][0], results[1][0])
    np.testing.assert_array_equal(results[0][1], results[1][1])


def test_every_public_graph_op_has_a_call_site_in_the_package():
    # the package calls ops on a Graph named graph, or sub for a branch's
    # sub-graph; an op that only tests reach is dead weight on the tape
    ops = {name for name, fn in vars(Graph).items()
           if inspect.isfunction(fn) and not name.startswith("_")}
    called = set()
    for path in Path(tensor.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("graph", "sub")):
                called.add(node.func.attr)
    assert ops - called == set()


# ---- concurrent branches ----


def branch_program(g, x, w, b):
    """A branch that reads the shared leaves w and b: the post-tanh rows of
    a recurrence over x + b, with w as both of its matrices."""
    return g.rnn(g.add(x, b), w, w, post_tanh=True)


def branch_leaves(rng, n_branches):
    """w (3x3), b (2x3) and one constant (2x3) x per branch."""
    xs = [Tensor(rng.standard_normal((2, 3)), requires_grad=False) for _ in range(n_branches)]
    return Tensor(rng.standard_normal((3, 3))), Tensor(rng.standard_normal((2, 3))), xs


def test_branches_match_one_tape_in_sequence(rng):
    w, b, xs = branch_leaves(rng, 2)
    grads, outs = [], []
    for concurrent in (False, True):
        g = Graph()
        if concurrent:
            rows = g.branches(lambda sub, x: branch_program(sub, x, w, b), xs)
        else:
            rows = [branch_program(g, x, w, b) for x in xs]
        loss = g.hinge(rows[0], rows[1], True, 0.0)
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
    w, b, xs = branch_leaves(rng, 6)
    g = SeededGraph()
    g.backward(functools.reduce(g.add, [branch_program(g, x, w, b) for x in xs]))
    expected = (w.grad, b.grad)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            w.clear_grad()
            b.clear_grad()
            g = SeededGraph()
            rows = g.branches(lambda sub, x: branch_program(sub, x, w, b), xs)
            g.backward(functools.reduce(g.add, rows))
            for got, want in zip((w.grad, b.grad), expected):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
    finally:
        sys.setswitchinterval(interval)


def test_branches_gradient_matches_finite_differences(rng):
    w, b, xs = branch_leaves(rng, 2)

    def build(g):
        rows = g.branches(lambda sub, x: branch_program(sub, x, w, b), xs)
        return g.hinge(rows[0], rows[1], True, 0.0)

    check_op_gradients(build, [w, b])


def test_branches_gradient_reaches_only_through_used_outputs(rng):
    w = Tensor(rng.standard_normal((4, 3)))
    w_rec = Tensor(np.zeros((4, 4)), requires_grad=False)
    x = Tensor(rng.standard_normal((1, 3)), requires_grad=False)
    g = SeededGraph()
    used, unused = g.branches(lambda sub, a: sub.rnn(a, w, w_rec, post_tanh=True), [x, x])
    g.backward(used)  # each branch: tanh(w x)
    expected = np.outer(1 - np.tanh(w.data @ x.data[0]) ** 2, x.data[0])
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
        return sub.add(x, x)

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
        return sub.add(x, x)

    threads_before = threading.active_count()
    with pytest.raises(ShapeError, match="first"):
        Graph().branches(branch, [Tensor(np.ones(())), Tensor(np.full((), 2.0)),
                                  Tensor(np.zeros(()))])
    assert finished == [0.0]
    assert threading.active_count() == threads_before
    with pytest.raises(ValueError, match="second"):
        Graph().branches(branch, [Tensor(np.zeros(())), Tensor(np.full((), 2.0))])


def test_unrecorded_branches_run_at_once_on_the_graph_itself():
    # one forward path: the branches run as a recording graph's do, but on
    # the unrecorded graph itself, with no sub-tapes and no node
    control = tensor._openblas_threads()
    blas_before = control[0]() if control else None
    seen = []
    barrier = threading.Barrier(2, timeout=30)
    g = Graph(record=False)

    def branch(sub, x):
        barrier.wait()  # returns only while both branches run
        seen.append((sub, threading.get_ident(), control[0]() if control else None))
        return sub.add(x, x)

    outs = g.branches(branch, [Tensor(np.zeros(2)), Tensor(np.ones(2))])
    assert all(sub is g for sub, _, _ in seen)
    assert len({ident for _, ident, _ in seen}) == 2
    assert len(g) == 0
    np.testing.assert_array_equal(outs[1].data, np.full(2, 2.0))
    if control:
        assert [n for _, _, n in seen] == [1, 1]
        assert control[0]() == blas_before
