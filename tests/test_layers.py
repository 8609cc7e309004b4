"""Block-level tests: conv stack shape arithmetic, pyramid pooling geometry,
the recurrence against a scalar hand calculation, and the attention head's
algebraic identities."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from astpn.datapipe import FRAME_CHANNELS
from astpn.layers import (
    CONV_CHANNELS,
    CONV_KERNEL,
    DEFAULT_BINS,
    RNN_OUTPUTS,
    attentive_summary,
    conv_stack_forward,
    conv_stack_output_hw,
    rnn_forward,
    spp_forward,
    uniform_init,
)
from astpn.model import LossConfig, rnn_input_dim
from astpn.tensor import Graph, ShapeError, Tensor, _cell_bounds
from conftest import SeededGraph


def conv_weights(rng):
    """The three conv layers' kernels and biases, drawn as init_params draws them."""
    kernels, biases = [], []
    cin = FRAME_CHANNELS
    for cout in CONV_CHANNELS:
        fan_in = cin * CONV_KERNEL * CONV_KERNEL
        kernels.append(uniform_init(rng, (cout, cin, CONV_KERNEL, CONV_KERNEL), fan_in))
        biases.append(uniform_init(rng, (cout,), fan_in))
        cin = cout
    return kernels, biases


def rnn_weights(rng, input_dim, feature_dim):
    """u_in and w_rec, drawn as init_params draws them."""
    return (uniform_init(rng, (feature_dim, input_dim), input_dim),
            uniform_init(rng, (feature_dim, feature_dim), feature_dim))


# ---- conv stack ----


def test_conv_stack_shapes_for_standard_input(rng):
    kernels, biases = conv_weights(rng)
    frames = Tensor(rng.uniform(-1, 1, size=(2, 5, 128, 64)))
    out = conv_stack_forward(Graph(), frames, kernels, biases)
    assert out.shape == (2, 32, 39, 23)
    assert out.shape[2:] == conv_stack_output_hw((128, 64))


def test_conv_stack_shape_chain_is_conv_pool_conv_pool_conv(rng):
    # a full 5x5 correlation grows each extent by 4 and pooling halves it with floor:
    # 128 -> 132 -> 66, 66 -> 70 -> 35, 35 -> 39, one conv2d node per layer
    g = Graph()
    conv_stack_forward(g, Tensor(rng.uniform(-1, 1, size=(1, 5, 128, 9))), *conv_weights(rng))
    chain = [(node.vjp.__qualname__.split(".")[1], node.inputs[0].shape[2], node.out.shape[2])
             for node in g._tape]
    assert chain == [("conv2d", 128, 66), ("conv2d", 66, 35), ("conv2d", 35, 39)]


@pytest.mark.parametrize("hw,expected", [
    ((128, 64), (39, 23)),
    ((120, 56), (37, 21)),
    ((48, 32), (19, 15)),
    ((24, 16), (13, 11)),
    ((16, 8), (11, 9)),
])
def test_conv_stack_output_hw_sweep(hw, expected):
    assert conv_stack_output_hw(hw) == expected


def test_conv_stack_single_frame_matches_batch(rng):
    kernels, biases = conv_weights(rng)
    frames = rng.uniform(-1, 1, size=(3, 5, 24, 16))
    g = Graph(record=False)
    batch = conv_stack_forward(g, Tensor(frames), kernels, biases)
    one = conv_stack_forward(g, Tensor(frames[1:2]), kernels, biases)
    np.testing.assert_array_equal(batch.data[1], one.data[0])


def conv_tanh_pool_reference(graph, frames, kernels, biases):
    """The conv stack with each tanh before its pooling: unpooled conv2d
    layers, each of the first two followed by a maxpool2d."""
    h = frames
    for i in range(3):
        h = graph.conv2d(h, kernels[i], biases[i])
        if i < 2:
            h = graph.maxpool2d(h)
    return h


def test_conv_stack_pooling_before_tanh_keeps_the_values_of_pooling_after(rng):
    kernels, biases = conv_weights(rng)
    frames = rng.uniform(-1, 1, size=(3, 5, 24, 16))
    frames[:, :, 6:18, 4:12] = 0.5  # flat patches: tied windows in every layer
    frames[0] *= 200.0  # tanh saturates to exactly +-1 in much of frame 0
    weights = rng.standard_normal((3, 32, 13, 11))
    results = []
    for forward in (conv_tanh_pool_reference, conv_stack_forward):
        for t in kernels + biases:
            t.clear_grad()
        g = SeededGraph(weights)
        out = forward(g, Tensor(frames, requires_grad=False), kernels, biases)
        g.backward(out)
        results.append((out.data, [t.grad for t in kernels + biases]))
    conv1 = Graph(record=False).conv2d(Tensor(frames), kernels[0], biases[0])
    assert (conv1.data == 1.0).any()
    (ref_out, ref_grads), (out, grads) = results
    assert out.tobytes() == ref_out.tobytes()
    # a gradient moves to another cell of its window only where two
    # different pre-activations share a tanh, as near saturation; its size
    # there is at most |g| (1 - tanh^2). The largest deviation seen here was
    # 2.5e-15 of the largest entry, in conv1's kernel gradient.
    for ref, grad in zip(ref_grads, grads):
        assert np.abs(grad - ref).max() <= 1e-12 * np.abs(ref).max()


def test_conv_stack_output_is_tanh_bounded(rng):
    kernels, biases = conv_weights(rng)
    out = conv_stack_forward(Graph(), Tensor(rng.uniform(-1, 1, size=(1, 5, 24, 16))),
                             kernels, biases)
    assert np.abs(out.data).max() < 1.0


def test_uniform_init_respects_fan_in_bound(rng):
    t = uniform_init(rng, (64, 25), fan_in=25)
    assert np.abs(t.data).max() <= 1.0 / 5.0


# ---- spatial pyramid pooling ----


def test_spp_length_is_2720_for_the_standard_stack(rng):
    assert sum(rows * cols for rows, cols in DEFAULT_BINS) == 85
    assert rnn_input_dim(LossConfig()) == 2720
    fmap = Tensor(rng.standard_normal((1, 32, 13, 11)))
    out = spp_forward(Graph(), fmap)
    assert out.shape == (1, 2720)


def test_spp_per_level_cell_counts():
    assert [rows * cols for rows, cols in DEFAULT_BINS] == [64, 16, 4, 1]


@pytest.mark.parametrize("hw", [(13, 11), (19, 15), (39, 23), (8, 8), (100, 37)])
def test_spp_length_independent_of_map_size(rng, hw):
    fmap = Tensor(rng.standard_normal((1, 32) + hw))
    assert spp_forward(Graph(), fmap).shape == (1, 2720)


def test_spp_batched_rows_match_single(rng):
    fmaps = rng.standard_normal((4, 8, 9, 9))
    g = Graph(record=False)
    batch = spp_forward(g, Tensor(fmaps))
    assert batch.shape == (4, 8 * 85)
    single = spp_forward(g, Tensor(fmaps[2:3]))
    np.testing.assert_array_equal(batch.data[2], single.data[0])


def test_spp_final_level_is_global_max_per_channel(rng):
    fmap = rng.standard_normal((2, 6, 10, 8))
    out = spp_forward(Graph(), Tensor(fmap))
    # the last 6 values of a row are the (1,1) level: one global max per channel
    np.testing.assert_array_equal(out.data[:, -6:], fmap.max(axis=(2, 3)))


def test_spp_cells_cover_the_whole_map(rng):
    # a single hot pixel lands in at least one cell of every level (cells may
    # overlap when the extent is not divisible by the grid), and in exactly
    # one cell of the global (1,1) level
    for h, w in [(13, 11), (9, 8), (16, 16)]:
        for r, c in [(0, 0), (h - 1, w - 1), (h // 2, w // 3)]:
            fmap = np.zeros((1, 1, h, w))
            fmap[0, 0, r, c] = 5.0
            out = spp_forward(Graph(), Tensor(fmap)).data[0]
            levels = np.split(out, np.cumsum([64, 16, 4])[:3])
            for grid, vals in zip(DEFAULT_BINS, levels):
                assert (vals == 5.0).sum() >= 1, f"level {grid} missed ({r},{c}) on {h}x{w}"
            assert out[-1] == 5.0


def test_spp_dominant_value_reaches_every_level(rng):
    fmap = rng.standard_normal((1, 3, 12, 10))
    fmap[0, 1, 4, 7] = 99.0
    out = spp_forward(Graph(), Tensor(fmap))
    levels = np.split(out.data[0], np.cumsum([3 * 64, 3 * 16, 3 * 4])[:3])
    for grid, vals in zip(DEFAULT_BINS, levels):
        assert (vals == 99.0).sum() >= 1, f"level {grid}"


def test_spp_rejects_too_small_maps(rng):
    with pytest.raises(ShapeError):
        spp_forward(Graph(), Tensor(rng.standard_normal((1, 2, 7, 8))))


def test_frame_layers_need_a_4d_stack(rng):
    with pytest.raises(ShapeError):
        spp_forward(Graph(), Tensor(rng.standard_normal((2, 9, 8))))
    with pytest.raises(ShapeError):
        conv_stack_forward(Graph(), Tensor(rng.standard_normal((5, 24, 16))),
                           *conv_weights(rng))


def test_spp_custom_bins(rng):
    out = spp_forward(Graph(), Tensor(rng.standard_normal((1, 4, 6, 6))), ((2, 2), (1, 1)))
    assert out.shape == (1, 4 * 5)


def test_spp_gradient_flows_to_max_positions(rng):
    fmap = Tensor(rng.standard_normal((1, 2, 8, 8)))
    g = SeededGraph()
    g.backward(spp_forward(g, fmap, ((1, 1),)))
    # one unit of gradient per channel, at that channel's argmax
    assert fmap.grad.sum() == 2.0
    for c in range(2):
        flat = np.argmax(fmap.data[0, c])
        assert fmap.grad[0, c].reshape(-1)[flat] == 1.0


def test_spp_records_one_tape_node(rng):
    g = Graph()
    spp_forward(g, Tensor(rng.standard_normal((2, 3, 9, 8))))
    assert len(g) == 1


def test_spp_bins_are_rows_then_columns():
    # (4, 2) on a 16x6 map: 4 bands of rows, 2 of columns; each cell's max
    # is the last row index of its band
    fmap = np.repeat(np.arange(16.0), 6).reshape(1, 1, 16, 6)
    out = spp_forward(Graph(), Tensor(fmap), ((4, 2), (2, 1)))
    np.testing.assert_array_equal(out.data[0], [3, 3, 7, 7, 11, 11, 15, 15, 7, 15])


@pytest.mark.parametrize("bins", [((8, 8), (3, 3)), ((4, 4), (1, 1)), ((3, 3), (1, 1)),
                                  ((1, 1), (2, 2)), ((2, 2), (1, 1), (1, 1)),
                                  ((4, 2), (2, 2)), (), ((0, 0),)])
def test_spp_config_rejects_bins_that_do_not_halve(rng, bins):
    # LossConfig carries the bins; it and the pooling op both reject them
    with pytest.raises(ShapeError):
        LossConfig(spp_bins=bins)
    with pytest.raises(ShapeError):
        spp_forward(Graph(), Tensor(rng.standard_normal((1, 1, 16, 16))), bins)


@pytest.mark.parametrize("bins", [((8, 8), (4, 4), (2, 2), (1, 1)), ((2, 2), (1, 1)),
                                  ((1, 1),), ((16, 16),), ((4, 2), (2, 1))])
def test_spp_config_accepts_halving_bins(bins):
    assert LossConfig(spp_bins=bins).spp_bins == bins


@pytest.mark.parametrize("cells", [1, 2, 3, 4, 5, 8, 16])
def test_cell_bounds_nest_two_into_one(cells):
    # cell i of n cells is exactly the union of cells 2i and 2i+1 of 2n cells
    for extent in range(2 * cells, 300):
        fine = _cell_bounds(extent, 2 * cells)
        for i, (lo, hi) in enumerate(_cell_bounds(extent, cells)):
            (lo_a, hi_a), (lo_b, hi_b) = fine[2 * i], fine[2 * i + 1]
            assert lo_b <= hi_a, f"cells {2 * i}, {2 * i + 1} of {extent} leave a gap"
            assert (lo, hi) == (lo_a, hi_b), f"cell {i} of {cells} over {extent}"


def spp_columns(h, w, bins, channels):
    """(channel, r0, r1, c0, c1) of every output column, in output order:
    levels in bin order, each channel-major with its cells row-major."""
    return [(ch, r0, r1, c0, c1) for rows, cols in bins for ch in range(channels)
            for r0, r1 in _cell_bounds(h, rows) for c0, c1 in _cell_bounds(w, cols)]


def spp_reference(fmap, bins, weights):
    """Every cell max-pooled by direct slicing, and the input gradient of
    sum(weights * out) with each cell's weight on its first max."""
    t_n, c, h, w = fmap.shape
    columns = spp_columns(h, w, bins, c)
    out = np.empty((t_n, len(columns)))
    dx = np.zeros_like(fmap)
    for t in range(t_n):
        for col, (ch, r0, r1, c0, c1) in enumerate(columns):
            block = fmap[t, ch, r0:r1, c0:c1]
            out[t, col] = block.max()
            a, b = np.unravel_index(np.argmax(block), block.shape)
            dx[t, ch, r0 + a, c0 + b] += weights[t, col]
    return out, dx


@st.composite
def spp_cases(draw):
    """A halving bin chain, finest first, and a map no smaller than its
    finest grid; integer output weights keep gradient sums exact."""
    levels = draw(st.integers(1, 4))
    coarse = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    bins = tuple((coarse[0] << k, coarse[1] << k) for k in reversed(range(levels)))
    h, w = draw(st.integers(bins[0][0], 40)), draw(st.integers(bins[0][1], 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fmap = rng.standard_normal((draw(st.integers(1, 2)), draw(st.integers(1, 3)), h, w))
    cells = sum(rows * cols for rows, cols in bins)
    weights = rng.integers(1, 5, size=(fmap.shape[0], fmap.shape[1] * cells))
    return fmap, bins, weights.astype(float)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(spp_cases())
@example((np.arange(40.0).reshape(1, 1, 8, 5), ((4, 4), (2, 2), (1, 1)), np.ones((1, 21))))
def test_spp_property_matches_per_cell_loop(case):
    fmap, bins, weights = case
    x = Tensor(fmap)
    g = SeededGraph(weights)
    out = spp_forward(g, x, bins)
    expected, dx = spp_reference(fmap, bins, weights)
    np.testing.assert_array_equal(out.data, expected)
    # continuous values: each cell's max sits at one position
    g.backward(out)
    np.testing.assert_array_equal(x.grad, dx)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 2**32 - 1), st.data())
def test_spp_tie_gradient_lands_on_a_max_of_its_cell(levels, channels, seed, data):
    bins = tuple((1 << k, 1 << k) for k in reversed(range(levels)))
    h = data.draw(st.integers(bins[0][0], 9))
    w = data.draw(st.integers(bins[0][1], 9))
    fmap = np.random.default_rng(seed).integers(-1, 2, size=(1, channels, h, w)).astype(float)
    columns = spp_columns(h, w, bins, channels)
    for col, (ch, r0, r1, c0, c1) in enumerate(columns):
        x = Tensor(fmap)
        onehot = np.zeros((1, len(columns)))
        onehot[0, col] = 1.0
        g = SeededGraph(onehot)
        g.backward(spp_forward(g, x, bins))
        assert np.count_nonzero(x.grad) == 1 and x.grad.sum() == 1.0
        (r, c), = np.argwhere(x.grad[0, ch] == 1.0)
        assert r0 <= r < r1 and c0 <= c < c1
        assert fmap[0, ch, r, c] == fmap[0, ch, r0:r1, c0:c1].max()


# ---- recurrence ----


def test_rnn_scalar_recursion_matches_hand_calculation():
    # one-dim everything: o_t = 2*r_t + 0.5*s_{t-1}, s_t = tanh(o_t), s_0 = 0
    reps = Tensor([[1.0], [-1.0], [0.25]])
    out = rnn_forward(Graph(), reps, Tensor([[2.0]]), Tensor([[0.5]]))
    o1 = 2.0
    o2 = -2.0 + 0.5 * math.tanh(o1)
    o3 = 0.5 + 0.5 * math.tanh(o2)
    np.testing.assert_allclose(out.data[:, 0], [o1, o2, o3], rtol=1e-15)


def test_rnn_post_tanh_rows_are_states():
    weights = Tensor([[2.0]]), Tensor([[0.5]])
    reps = Tensor([[1.0], [-1.0]])
    pre = rnn_forward(Graph(), reps, *weights, output="pre_tanh")
    post = rnn_forward(Graph(), reps, *weights, output="post_tanh")
    np.testing.assert_allclose(post.data, np.tanh(pre.data), rtol=1e-15)


def test_rnn_single_step_ignores_recurrence(rng):
    u_in, w_rec = rnn_weights(rng, input_dim=6, feature_dim=4)
    r = rng.standard_normal((1, 6))
    out = rnn_forward(Graph(), Tensor(r), u_in, w_rec)
    np.testing.assert_allclose(out.data[0], u_in.data @ r[0], rtol=1e-12)


def rnn_reference(reps, u_in, w_rec, output):
    """The recurrence one step at a time: o_t = U r_t + W s_{t-1}, s_t = tanh(o_t)."""
    state = np.zeros(u_in.shape[0])
    rows = []
    for r in reps:
        o = u_in @ r + w_rec @ state
        state = np.tanh(o)
        rows.append(o if output == "pre_tanh" else state)
    return np.stack(rows)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.integers(1, 12), st.integers(1, 6),
       st.sampled_from(["pre_tanh", "post_tanh"]), st.integers(0, 2**32 - 1))
def test_rnn_property_matches_stepwise_reference(steps, input_dim, feature_dim, output, seed):
    rng = np.random.default_rng(seed)
    u_in, w_rec = rnn_weights(rng, input_dim=input_dim, feature_dim=feature_dim)
    reps = rng.standard_normal((steps, input_dim))
    out = rnn_forward(Graph(), Tensor(reps), u_in, w_rec, output=output)
    expected = rnn_reference(reps, u_in.data, w_rec.data, output)
    np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)


def test_rnn_zero_recurrence_is_frame_independent(rng):
    u_in, w_rec = rnn_weights(rng, input_dim=5, feature_dim=3)
    w_rec.data[:] = 0.0
    rows = rng.standard_normal((6, 5))
    perm = rng.permutation(6)
    out = rnn_forward(Graph(), Tensor(rows), u_in, w_rec)
    out_perm = rnn_forward(Graph(), Tensor(rows[perm]), u_in, w_rec)
    np.testing.assert_allclose(out.data[perm], out_perm.data, rtol=1e-12)


def test_rnn_rejects_wrong_input_dim(rng):
    weights = rnn_weights(rng, input_dim=5, feature_dim=3)
    with pytest.raises(ShapeError):
        rnn_forward(Graph(), Tensor(rng.standard_normal((4, 6))), *weights)
    with pytest.raises(ValueError):
        rnn_forward(Graph(), Tensor(rng.standard_normal((4, 5))), *weights, output="mid")


@pytest.mark.parametrize("output", RNN_OUTPUTS)
def test_rnn_gradient_through_time(rng, output):
    u_in, w_rec = rnn_weights(rng, input_dim=3, feature_dim=2)
    reps = Tensor(rng.standard_normal((4, 3)))

    def loss():
        g = Graph(record=False)
        out = rnn_forward(g, reps, u_in, w_rec, output)
        return float(out.data.sum())

    g = SeededGraph()
    g.backward(rnn_forward(g, reps, u_in, w_rec, output))
    h = 1e-6
    for t in (u_in, w_rec, reps):
        flat = t.data.reshape(-1)
        gflat = t.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss()
            flat[i] = orig - h
            lo = loss()
            flat[i] = orig
            assert gflat[i] == pytest.approx((hi - lo) / (2 * h), rel=1e-5, abs=1e-7)


def test_rnn_records_one_tape_node(rng):
    weights = rnn_weights(rng, input_dim=5, feature_dim=3)
    g = Graph()
    rnn_forward(g, Tensor(rng.standard_normal((16, 5))), *weights)
    assert len(g) == 1


# ---- attention ----


def summarize(p, g, u):
    """attentive_summary's (v_p, v_g) on plain arrays, without a tape."""
    v_p, v_g = attentive_summary(Graph(record=False), Tensor(p), Tensor(g), Tensor(u))
    return v_p.data, v_g.data


def test_attention_matrix_identity_weights_give_tanh_of_gram():
    # identity U scores tanh(P G^T); identity probe rows expose its weights
    p = np.eye(2)
    g_rows = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
    v_p, v_g = summarize(p, g_rows, np.eye(2))
    affinity = np.tanh(p @ g_rows.T)  # rectangular: unequal sequence lengths are fine
    np.testing.assert_allclose(v_p, softmax_reference(affinity.max(axis=1)), rtol=1e-15)
    np.testing.assert_allclose(v_g, softmax_reference(affinity.max(axis=0)) @ g_rows,
                               rtol=1e-15)


def test_attention_diagonal_self_match_is_tanh_one():
    # frames 0 and 1 match themselves at tanh(1); the zero frame 2 scores 0
    p = np.eye(3)
    p[2] = 0.0
    v_p, _ = summarize(p, p, np.eye(3))
    t = math.tanh(1.0)
    np.testing.assert_allclose(v_p[:2], math.exp(t) / (2 * math.exp(t) + 1), rtol=1e-15)


def test_attention_transpose_identity_bitwise_on_dyadic_inputs(rng):
    # entries are small integer multiples of 2^-3, so every product and sum in
    # the affinity computation is exact: swapping the sequences and using U^T
    # transposes it exactly, and swaps the pooled vectors bitwise
    for trial in range(100):
        p = rng.integers(-8, 9, size=(3, 4)) / 8.0
        gal = rng.integers(-8, 9, size=(5, 4)) / 8.0
        u = rng.integers(-8, 9, size=(4, 4)) / 8.0
        v_p, v_g = summarize(p, gal, u)
        w_g, w_p = summarize(gal, p, u.T)
        assert v_p.tobytes() == w_p.tobytes() and v_g.tobytes() == w_g.tobytes()


def test_attention_transpose_identity_on_generic_floats(rng):
    p = rng.standard_normal((4, 6))
    gal = rng.standard_normal((7, 6))
    u = rng.standard_normal((6, 6))
    v_p, v_g = summarize(p, gal, u)
    w_g, w_p = summarize(gal, p, u.T)
    np.testing.assert_allclose(w_p, v_p, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(w_g, v_g, rtol=1e-12, atol=1e-12)


def test_temporal_weights_select_row_and_column_maxes():
    # with P = G = I the affinity is tanh(U), here the matrix below; the
    # probe weighs its row maxima 0.9, 0.3 and the gallery its column maxima
    # 0.3, 0.9
    affinity = np.array([[0.1, 0.9], [0.3, 0.2]])
    a_p, a_g = summarize(np.eye(2), np.eye(2), np.arctanh(affinity))
    np.testing.assert_allclose(a_p, softmax_reference(np.array([0.9, 0.3])), rtol=1e-15)
    np.testing.assert_allclose(a_g, softmax_reference(np.array([0.3, 0.9])), rtol=1e-15)


def test_attentive_summary_weights_sum_to_one(rng):
    # identity rows expose the weights: P = I gives v_p = a_p
    u = uniform_init(rng, (5, 5), 5).data
    a_p, a_g = summarize(np.eye(5), np.eye(5)[:3], u)
    assert a_p.sum() == pytest.approx(1.0, abs=1e-12)
    assert a_g[:3].sum() == pytest.approx(1.0, abs=1e-12)
    assert (a_p > 0).all() and (a_g[:3] > 0).all() and not a_g[3:].any()


def test_attentive_summary_zero_weights_is_mean_pooling(rng):
    p = Tensor(rng.standard_normal((5, 4)))
    gal = Tensor(rng.standard_normal((3, 4)))
    v_p, v_g = attentive_summary(Graph(), p, gal, Tensor(np.zeros((4, 4))))
    np.testing.assert_allclose(v_p.data, p.data.mean(axis=0), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(v_g.data, gal.data.mean(axis=0), rtol=1e-12, atol=1e-12)


def test_attentive_summary_is_convex_combination_of_rows(rng):
    # a dominant affinity concentrates almost all weight on one frame
    p = np.zeros((3, 2))
    p[1] = [50.0, 0.0]
    gal = np.zeros((2, 2))
    gal[0] = [50.0, 0.0]
    v_p, v_g = attentive_summary(Graph(), Tensor(p), Tensor(gal), Tensor(np.eye(2)))
    # tanh saturates at 1 for the (1,0) entry; the other rows sit at tanh(0)=0
    w = math.exp(1.0) / (math.exp(1.0) + 2.0 * math.exp(math.tanh(0.0)))
    np.testing.assert_allclose(v_p.data, w * p[1], rtol=1e-12)


def test_attention_rejects_mismatched_feature_dims(rng):
    u_att = uniform_init(rng, (4, 4), 4)
    with pytest.raises(ShapeError):
        attentive_summary(Graph(), Tensor(rng.standard_normal((3, 5))),
                          Tensor(rng.standard_normal((3, 4))), u_att)
    with pytest.raises(ShapeError):
        attentive_summary(Graph(), Tensor(rng.standard_normal((3, 4))),
                          Tensor(rng.standard_normal((3, 5))), u_att)


def test_attentive_summary_gradient(rng):
    p = Tensor(rng.standard_normal((3, 4)))
    gal = Tensor(rng.standard_normal((2, 4)))
    u = Tensor(rng.standard_normal((4, 4)))

    def loss():
        g = Graph(record=False)
        v_p, v_g = attentive_summary(g, p, gal, u)
        return float(v_p.data.sum() + v_g.data.sum())

    g = SeededGraph()
    g.backward(g.add(*attentive_summary(g, p, gal, u)))  # both (4,)
    h = 1e-6
    for t in (p, gal, u):
        flat = t.data.reshape(-1)
        gflat = t.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss()
            flat[i] = orig - h
            lo = loss()
            flat[i] = orig
            assert gflat[i] == pytest.approx((hi - lo) / (2 * h), rel=1e-5, abs=1e-7)


def softmax_reference(v):
    z = np.exp(v - v.max())
    return z / z.sum()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 6), st.floats(0.1, 4.0),
       st.integers(0, 2**32 - 1))
def test_attention_head_property_matches_numpy_reference(t_p, t_g, n, scale, seed):
    rng = np.random.default_rng(seed)
    p = scale * rng.standard_normal((t_p, n))
    gal = scale * rng.standard_normal((t_g, n))
    u = rng.standard_normal((n, n))
    v_p, v_g = summarize(p, gal, u)
    expected = np.tanh(p @ u @ gal.T)
    np.testing.assert_allclose(v_p, softmax_reference(expected.max(axis=1)) @ p,
                               rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(v_g, softmax_reference(expected.max(axis=0)) @ gal,
                               rtol=0, atol=1e-12 * scale)
