"""Model assembly tests: variant forwards, loss analytics, the SGD contract,
and checkpoint round trips."""

import math
import os
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from astpn import tensor
from astpn.layers import RNN_OUTPUTS
from astpn.datapipe import ChannelStack, DatasetError, PairBatch, RawSequence, preprocess_dataset
from astpn.evalkit import eval_sequence
from astpn.model import (
    TENSOR_NAMES,
    CheckpointError,
    LossConfig,
    VARIANTS,
    branch_rows,
    extract_feature,
    forward_pair,
    hinge_loss,
    identity_loss,
    init_params,
    load_checkpoint,
    param_shapes,
    pool_pair,
    rnn_input_dim,
    save_checkpoint,
    sgd_step,
    total_loss,
)
from astpn.tensor import Graph, ShapeError, Tensor
from conftest import SeededGraph

TOY_BINS = ((2, 2), (1, 1))
TOY_HW = (12, 8)


def toy_cfg(variant="astpn", **kwargs):
    return LossConfig(variant=variant, spp_bins=TOY_BINS, **kwargs)


def toy_pair(seed=0, same=True, steps=2):
    rng = np.random.default_rng(seed)
    h, w = TOY_HW

    def seq(pid, cam):
        return ChannelStack(pid, cam, rng.uniform(-1, 1, size=(steps, 5, h, w)))

    if same:
        return PairBatch(seq("a", "c0"), seq("a", "c1"), True, 0, 0)
    return PairBatch(seq("a", "c0"), seq("b", "c1"), False, 0, 1)


def toy_params(cfg, seed=0, n_ids=3, feature_dim=6):
    return init_params(seed, n_ids, cfg, feature_dim=feature_dim, frame_hw=TOY_HW)


# ---- configuration ----


def test_loss_config_validation():
    for margin in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="margin"):
            LossConfig(margin=margin)
    with pytest.raises(ValueError):
        LossConfig(variant="bilinear")
    with pytest.raises(ValueError):
        LossConfig(rnn_output="mid")
    with pytest.raises(ShapeError):
        LossConfig(spp_bins=((8, 8), (3, 3)))


def test_rnn_input_dim_spp_variants():
    assert rnn_input_dim(LossConfig()) == 2720
    assert rnn_input_dim(toy_cfg()) == 32 * 5


def test_rnn_input_dim_plain_pool_depends_on_frame_size():
    cfg = LossConfig(variant="atpn_only")
    with pytest.raises(ValueError):
        rnn_input_dim(cfg)
    # conv output for 24x16 input is 13x11; a 2x2/2x2 pool leaves 6x5
    assert rnn_input_dim(cfg, frame_hw=(24, 16)) == 32 * 6 * 5


# ---- forward pass ----


@pytest.mark.parametrize("variant", VARIANTS)
def test_forward_pair_shapes(variant):
    cfg = toy_cfg(variant)
    params = toy_params(cfg)
    pair = toy_pair()
    v_p, v_g = forward_pair(Graph(), pair.probe, pair.gallery, params, cfg)
    assert v_p.shape == (6,)
    assert v_g.shape == (6,)


def test_astpn_with_zero_attention_equals_mean_pool():
    pair = toy_pair()
    cfg_att = toy_cfg("astpn")
    params = toy_params(cfg_att)
    params["att.u_att"].data[:] = 0.0
    v_p_att, v_g_att = forward_pair(Graph(), pair.probe, pair.gallery, params, cfg_att)
    cfg_mean = toy_cfg("mean_pool")
    v_p_mean, v_g_mean = forward_pair(Graph(), pair.probe, pair.gallery, params, cfg_mean)
    # softmax of zeros is exactly 1/T, and both pool through the same ops
    np.testing.assert_array_equal(v_p_att.data, v_p_mean.data)
    np.testing.assert_array_equal(v_g_att.data, v_g_mean.data)


def test_aspn_only_is_spp_with_mean_pooling():
    # identical code path to mean_pool: spatial pyramid plus arithmetic mean
    pair = toy_pair()
    params = toy_params(toy_cfg())
    a = forward_pair(Graph(), pair.probe, pair.gallery, params, toy_cfg("aspn_only"))
    b = forward_pair(Graph(), pair.probe, pair.gallery, params, toy_cfg("mean_pool"))
    np.testing.assert_array_equal(a[0].data, b[0].data)
    np.testing.assert_array_equal(a[1].data, b[1].data)


def test_max_pool_takes_elementwise_max_over_time():
    pair = toy_pair(steps=4)
    cfg = toy_cfg("max_pool")
    params = toy_params(cfg)
    v_p, _ = forward_pair(Graph(), pair.probe, pair.gallery, params, cfg)
    cfg_mean = toy_cfg("mean_pool")
    v_mean, _ = forward_pair(Graph(), pair.probe, pair.gallery, params, cfg_mean)
    assert (v_p.data >= v_mean.data - 1e-12).all()


def test_max_pool_is_the_max_over_time_and_its_gradient_takes_the_first_max():
    rows = Tensor(np.array([[1.0, -2.0, 0.5], [3.0, -2.0, 0.5], [3.0, -4.0, 0.0]]))
    cfg = toy_cfg("max_pool")
    g = SeededGraph([1.0, 2.0, 3.0])
    v_p, v_g = pool_pair(g, rows, rows, toy_params(cfg, feature_dim=3), cfg)
    np.testing.assert_array_equal(v_p.data, [3.0, -2.0, 0.5])
    np.testing.assert_array_equal(v_g.data, v_p.data)
    g.backward(v_p)
    np.testing.assert_array_equal(rows.grad, [[0.0, 2.0, 3.0], [1.0, 0.0, 0.0],
                                              [0.0, 0.0, 0.0]])


def test_max_pool_head_sends_each_columns_gradient_to_its_first_max_past_frame_255():
    # the max over 300 frames: the first max sits past frame 255 in every
    # column but the last, and ties a later frame in the middle two
    rng = np.random.default_rng(3)
    rows = rng.integers(-3, 3, size=(300, 4)).astype(float)
    for col, frames in enumerate([(299,), (260, 280), (256, 257), (0, 270)]):
        rows[list(frames), col] = 5.0
    cfg = toy_cfg("max_pool")
    params = toy_params(cfg, feature_dim=4)
    v, _ = pool_pair(Graph(record=False), Tensor(rows), Tensor(rows), params, cfg)
    assert v.data.tobytes() == rows.max(axis=0).tobytes()
    weights = rng.standard_normal(4)
    rows_t = Tensor(rows)
    g = SeededGraph(weights)
    v_p, _ = pool_pair(g, rows_t, rows_t, params, cfg)
    assert v_p.data.tobytes() == rows.max(axis=0).tobytes()
    g.backward(v_p)
    expected = np.zeros_like(rows)
    expected[[299, 260, 256, 0], range(4)] = weights
    assert rows_t.grad.tobytes() == expected.tobytes()


def window_max_over_time(graph, p_rows, g_rows, params, cfg):
    """max_pool's head by the rule of a (T, 1) max pooling window: each
    column's max, whose gradient g each frame k takes as (k is the column's
    first max) * g, so the other frames take 0 * g. Rows must hold no nan."""
    def max_over_time(rows):
        x = rows.data
        best = x.max(axis=0)
        first = (x == best).argmax(axis=0)

        def vjp(g):
            dx = np.empty_like(x)
            for k in range(len(x)):
                np.multiply(first == k, g, out=dx[k])
            return (dx,)

        return graph._push(Tensor(best), (rows,), vjp)

    return max_over_time(p_rows), max_over_time(g_rows)


def test_max_pool_gradients_equal_the_window_rule_bitwise(monkeypatch):
    cfg = toy_cfg("max_pool")
    for same in (True, False):
        pair = toy_pair(seed=5, same=same, steps=5)
        grads = []
        for head in (pool_pair, window_max_over_time):
            monkeypatch.setattr("astpn.model.pool_pair", head)
            params = toy_params(cfg, feature_dim=8)
            g = Graph()
            g.backward(total_loss(g, pair, params, cfg))
            grads.append({n: t.grad for n, t in params.named_tensors().items()})
        for name, expected in grads[1].items():
            if expected is None:
                assert grads[0][name] is None, name
            else:
                assert grads[0][name].tobytes() == expected.tobytes(), name


def test_atpn_only_uses_plain_pooling_head():
    cfg = toy_cfg("atpn_only")
    # conv output for 12x8 frames is 10x9, pooled to 5x4
    assert rnn_input_dim(cfg, frame_hw=TOY_HW) == 32 * 5 * 4
    params = toy_params(cfg)
    assert params["rnn.u_in"].shape[1] == 32 * 5 * 4
    pair = toy_pair()
    v_p, v_g = forward_pair(Graph(), pair.probe, pair.gallery, params, cfg)
    assert v_p.shape == (6,)


def test_attentive_self_pair_is_asymmetric():
    # probe and gallery weights come from row and column maxes of one
    # non-symmetric affinity matrix, so even a self pair splits apart
    pair = toy_pair()
    cfg = toy_cfg("astpn")
    params = toy_params(cfg)
    v_p, v_g = forward_pair(Graph(), pair.probe, pair.probe, params, cfg)
    assert not np.array_equal(v_p.data, v_g.data)


def test_forward_pair_rejects_empty_and_misshapen():
    cfg = toy_cfg()
    params = toy_params(cfg)
    empty = ChannelStack("a", "c0", np.zeros((0, 5, 12, 8)))
    good = toy_pair().probe
    with pytest.raises(ValueError):
        forward_pair(Graph(), empty, good, params, cfg)
    flat = ChannelStack("a", "c0", np.zeros((5, 12, 8)))
    with pytest.raises(Exception):
        forward_pair(Graph(), flat, good, params, cfg)
    with pytest.raises(ValueError):
        extract_feature(empty, params, cfg)
    with pytest.raises(ShapeError):
        extract_feature(flat, params, cfg)


@pytest.mark.parametrize("variant", VARIANTS)
def test_extract_feature_is_probe_vector_of_self_pair_bitwise(variant):
    seq = toy_pair(steps=3).probe
    cfg = toy_cfg(variant)
    params = toy_params(cfg)
    with tensor._one_blas_thread():  # as extract_feature runs
        v_p, _ = forward_pair(Graph(record=False), seq, seq, params, cfg)
    feat = extract_feature(seq, params, cfg)
    assert feat.tobytes() == v_p.data.tobytes()


@pytest.mark.parametrize("eval_k", [None, 1])
@pytest.mark.parametrize("variant", VARIANTS)
def test_extract_feature_is_independent_of_blas_threads_and_cpus(fake_cpus, variant, eval_k):
    # 32x16 crops, where OpenBLAS at two threads splits the products, and
    # where each layer's frames are narrow enough for several to share one
    # conv block; eval_k=1 leaves fewer frames than CPUs
    rng = np.random.default_rng(7)
    hw = (32, 16)
    cfg = LossConfig(variant=variant)
    params = init_params(3, 3, cfg, feature_dim=32, frame_hw=hw)
    frames = list(rng.integers(0, 256, size=(5, 40, 24, 3), dtype=np.uint8))
    seq = eval_sequence(preprocess_dataset([RawSequence("a", "c0", frames)])[0], eval_k)
    feats = []
    control = tensor._openblas_threads()
    before = control[0]() if control else None
    try:
        for threads in (1, 2):
            if control:
                control[1](threads)
            feats.append(extract_feature(seq, params, cfg))
    finally:
        if control:
            control[1](before)
    for cpus in (1, 2, 3):
        fake_cpus(cpus)
        feats.append(extract_feature(seq, params, cfg))
    assert all(f.tobytes() == feats[0].tobytes() for f in feats[1:])


def test_extract_feature_raises_a_worker_error_after_every_worker_ends(fake_cpus):
    # the kernel takes five channels; every run of the split fails in conv1,
    # and the call raises the first run's error on the calling thread
    fake_cpus(2)
    cfg = toy_cfg()
    params = toy_params(cfg)
    seq = ChannelStack("a", "c0", np.zeros((4, 4) + TOY_HW))
    threads_before = threading.active_count()
    with pytest.raises(ShapeError, match="4 channels but kernel expects 5"):
        extract_feature(seq, params, cfg)
    assert threading.active_count() == threads_before


# ---- losses ----


def test_hinge_loss_identical_features_is_zero():
    v = Tensor(np.array([1.0, -2.0, 0.5]))
    out = hinge_loss(Graph(), v, Tensor(v.data.copy()), True, margin=3.0)
    assert out.item() == 0.0


def test_hinge_loss_positive_pair_is_squared_distance():
    v_p = Tensor(np.array([1.0, 0.0]))
    v_g = Tensor(np.array([0.0, 2.0]))
    out = hinge_loss(Graph(), v_p, v_g, True, margin=3.0)
    assert out.item() == pytest.approx(5.0, rel=1e-15)


def test_hinge_loss_negative_inside_margin():
    # distance 1 against margin 3 leaves slack 2
    v_p = Tensor(np.zeros(4))
    v_g = Tensor(np.array([1.0, 0.0, 0.0, 0.0]))
    out = hinge_loss(Graph(), v_p, v_g, False, margin=3.0)
    assert out.item() == pytest.approx(2.0, rel=1e-15)


def test_hinge_loss_margin_takes_no_gradient():
    graph = Graph()
    v_p = Tensor(np.zeros(4))
    v_g = Tensor(np.array([1.0, 0.0, 0.0, 0.0]))
    out = hinge_loss(graph, v_p, v_g, False, margin=3.0)
    # the margin is a constant of the node, not one of its inputs
    assert [t for node in graph._tape for t in node.inputs] == [v_p, v_g]
    graph.backward(out)
    np.testing.assert_array_equal(v_g.grad, [-2.0, 0.0, 0.0, 0.0])  # d(3 - |p - g|^2)/dg
    np.testing.assert_array_equal(v_p.grad, [2.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("same", [True, False])
def test_hinge_loss_records_one_tape_node(same):
    graph = Graph()
    hinge_loss(graph, Tensor(np.zeros(3)), Tensor(np.ones(3)), same, margin=3.0)
    assert len(graph) == 1


def test_hinge_loss_negative_beyond_margin_is_zero():
    v_p = Tensor(np.zeros(1))
    v_g = Tensor(np.array([2.0]))  # squared distance 4 > margin 3
    out = hinge_loss(Graph(), v_p, v_g, False, margin=3.0)
    assert out.item() == 0.0


def test_astpn_train_step_records_11_nodes_and_5_per_branch(monkeypatch):
    # step: branches, attend, hinge, 2 x (matvec, add, cross_entropy), 2 adds;
    # branch: 3 conv2d (each a whole conv layer), region_maxpool, rnn, which
    # also emits the post-tanh rows; a branch's backward starts from its
    # output's gradient and adds no node
    subs, replayed = [], []

    class Counted(tensor._Branch):
        def __init__(self):
            super().__init__()
            subs.append(self)

        def backward(self, root):
            replayed.append(len(self))
            super().backward(root)

    monkeypatch.setattr(tensor, "_Branch", Counted)
    for rnn_output in RNN_OUTPUTS:
        subs.clear()
        replayed.clear()
        cfg = toy_cfg(rnn_output=rnn_output)
        graph = Graph()
        loss = total_loss(graph, toy_pair(same=False), toy_params(cfg), cfg)
        assert [len(graph)] + [len(sub) for sub in subs] == [11, 5, 5], rnn_output
        graph.backward(loss)
        assert replayed == [5, 5], rnn_output


def test_identity_loss_zero_weights_gives_log_k():
    cfg = toy_cfg()
    params = toy_params(cfg, n_ids=5)
    params["classifier.weight"].data[:] = 0.0
    params["classifier.bias"].data[:] = 0.0
    v = Tensor(np.random.default_rng(1).standard_normal(6))
    out = identity_loss(Graph(), v, 2, params)
    assert out.item() == pytest.approx(math.log(5.0), rel=1e-15)


def test_identity_loss_bias_only_analytic_value():
    cfg = toy_cfg()
    params = toy_params(cfg, n_ids=2)
    params["classifier.weight"].data[:] = 0.0
    params["classifier.bias"].data[:] = [math.log(3.0), 0.0]
    out = identity_loss(Graph(), Tensor(np.zeros(6)), 0, params)
    # softmax probability of class 0 is 3/4
    assert out.item() == pytest.approx(-math.log(0.75), rel=1e-14)


def test_identity_loss_label_out_of_range():
    params = toy_params(toy_cfg(), n_ids=3)
    with pytest.raises(ValueError):
        identity_loss(Graph(), Tensor(np.zeros(6)), 3, params)


def test_total_loss_is_sum_of_terms():
    pair = toy_pair(same=False)
    cfg = toy_cfg()
    params = toy_params(cfg)
    g = Graph(record=False)
    v_p, v_g = forward_pair(g, pair.probe, pair.gallery, params, cfg)
    expected = (hinge_loss(g, v_p, v_g, pair.same_person, cfg.margin).item()
                + identity_loss(g, v_p, pair.probe_label, params).item()
                + identity_loss(g, v_g, pair.gallery_label, params).item())
    assert total_loss(Graph(), pair, params, cfg).item() == pytest.approx(expected, rel=1e-12)


def test_total_loss_identity_off_identical_positive_pair_is_zero():
    pair = toy_pair()
    pair = PairBatch(pair.probe, pair.probe, True, 0, 0)
    cfg = toy_cfg("mean_pool", use_identity_loss=False)
    params = toy_params(cfg)
    assert total_loss(Graph(), pair, params, cfg).item() == 0.0


@pytest.mark.parametrize("variant", VARIANTS)
def test_total_loss_gradient_matches_finite_differences(variant):
    pair = toy_pair()
    cfg = toy_cfg(variant)
    params = toy_params(cfg)
    g = Graph()
    loss = total_loss(g, pair, params, cfg)
    g.backward(loss)

    def value():
        return total_loss(Graph(record=False), pair, params, cfg).item()

    rng = np.random.default_rng(7)
    h = 1e-5
    for name, t in params.named_tensors().items():
        if t.grad is None:
            continue  # tensors outside this variant's forward path
        for flat in rng.choice(t.size, size=min(4, t.size), replace=False):
            idx = np.unravel_index(int(flat), t.data.shape)
            orig = t.data[idx]
            t.data[idx] = orig + h
            hi = value()
            t.data[idx] = orig - h
            lo = value()
            t.data[idx] = orig
            fd = (hi - lo) / (2 * h)
            assert abs(t.grad[idx] - fd) / max(1.0, abs(fd)) < 1e-4, (variant, name, idx)


def test_gradients_cover_all_tensors_for_attentive_variant():
    pair = toy_pair()
    cfg = toy_cfg("astpn")
    params = toy_params(cfg)
    g = Graph()
    g.backward(total_loss(g, pair, params, cfg))
    for name, t in params.named_tensors().items():
        assert t.grad is not None, name
        assert np.isfinite(t.grad).all(), name


def test_mean_pool_leaves_attention_without_gradient():
    pair = toy_pair()
    cfg = toy_cfg("mean_pool")
    params = toy_params(cfg)
    g = Graph()
    g.backward(total_loss(g, pair, params, cfg))
    assert params["att.u_att"].grad is None
    assert params["rnn.u_in"].grad is not None


def test_every_public_graph_op_serves_the_model(monkeypatch):
    # one positive and one negative training step and one extraction, for
    # every variant and recurrence output, call every public Graph method: an
    # op that no layer needs any more fails here
    public = {name for name, value in vars(Graph).items()
              if callable(value) and not name.startswith("_")}
    called = set()

    def recording(name, method):
        def record(*args, **kwargs):
            called.add(name)
            return method(*args, **kwargs)
        return record

    for name in public:
        monkeypatch.setattr(Graph, name, recording(name, getattr(Graph, name)))
    for variant in VARIANTS:
        for rnn_output in RNN_OUTPUTS:
            cfg = toy_cfg(variant, rnn_output=rnn_output)
            params = toy_params(cfg)
            for same in (True, False):
                g = Graph()
                g.backward(total_loss(g, toy_pair(same=same), params, cfg))
            extract_feature(toy_pair().probe, params, cfg)
    assert called == public


# ---- SGD ----


def test_sgd_step_arithmetic():
    cfg = toy_cfg()
    params = toy_params(cfg)
    for t in params.named_tensors().values():
        t.data[:] = 1.0
        t.grad = np.full(t.shape, 2.0)
    sgd_step(params, lr=0.1)
    for name, t in params.named_tensors().items():
        np.testing.assert_allclose(t.data, 0.8, rtol=1e-15)
        assert t.grad is None


def test_sgd_step_skips_untouched_tensors_bitwise():
    cfg = toy_cfg()
    params = toy_params(cfg)
    before = params["att.u_att"].data.copy()
    params["rnn.u_in"].grad = np.ones(params["rnn.u_in"].shape)
    sgd_step(params, lr=0.5)
    np.testing.assert_array_equal(params["att.u_att"].data, before)


def test_sgd_step_without_any_gradient_raises():
    params = toy_params(toy_cfg())
    with pytest.raises(ValueError):
        sgd_step(params, lr=0.1)


def test_training_step_changes_parameters_deterministically():
    pair = toy_pair()
    cfg = toy_cfg()
    snapshots = []
    for _ in range(2):
        params = toy_params(cfg)
        g = Graph()
        g.backward(total_loss(g, pair, params, cfg))
        sgd_step(params, lr=0.01)
        snapshots.append({n: t.data.copy() for n, t in params.named_tensors().items()})
    for name in snapshots[0]:
        np.testing.assert_array_equal(snapshots[0][name], snapshots[1][name])


# ---- the two branches at once ----


def sequential_total_loss(graph, pair, params, cfg):
    """total_loss with both branches on one tape, probe first, as a train
    step ran them before they ran at once."""
    p_rows = branch_rows(graph, pair.probe.frames, params, cfg)
    g_rows = branch_rows(graph, pair.gallery.frames, params, cfg)
    v_p, v_g = pool_pair(graph, p_rows, g_rows, params, cfg)
    loss = hinge_loss(graph, v_p, v_g, pair.same_person, cfg.margin)
    loss = graph.add(loss, identity_loss(graph, v_p, pair.probe_label, params))
    return graph.add(loss, identity_loss(graph, v_g, pair.gallery_label, params))


@pytest.mark.parametrize("same", [True, False])
def test_concurrent_pair_gradients_match_one_sequential_tape(same):
    # the two differ only in rounding: OpenBLAS at one thread against the
    # default count, and w_rec's per-branch sums added as two parts; the
    # largest deviation seen here was 2.4e-15 of a tensor's largest entry
    cfg = toy_cfg()
    pair = toy_pair(seed=4, same=same, steps=5)
    grads = []
    for loss_fn in (sequential_total_loss, total_loss):
        params = toy_params(cfg, feature_dim=8)
        g = Graph()
        g.backward(loss_fn(g, pair, params, cfg))
        grads.append({n: t.grad for n, t in params.named_tensors().items()})
    for name, expected in grads[0].items():
        scale = np.abs(expected).max()
        assert scale > 0, name
        assert np.abs(grads[1][name] - expected).max() <= 1e-12 * scale, name


def train_steps(n_steps, seed=0):
    cfg = toy_cfg()
    params = toy_params(cfg, seed=seed, feature_dim=8)
    for step in range(n_steps):
        g = Graph()
        g.backward(total_loss(g, toy_pair(seed=step, same=step % 2 == 0, steps=3), params, cfg))
        sgd_step(params, lr=0.05)
    return {n: t.data.copy() for n, t in params.named_tensors().items()}


def test_same_seed_training_is_bitwise_repeatable():
    first, second = train_steps(10), train_steps(10)
    for name in first:
        assert first[name].tobytes() == second[name].tobytes(), name


def test_shape_error_in_one_branch_leaves_the_next_step_working():
    cfg = toy_cfg()
    params = toy_params(cfg)
    good = toy_pair()
    bad = PairBatch(good.probe, ChannelStack("b", "c1", good.gallery.frames[:, :4]),
                    False, 0, 1)
    threads = threading.active_count()
    with pytest.raises(ShapeError, match="channels"):
        total_loss(Graph(), bad, params, cfg)
    assert threading.active_count() == threads
    g = Graph()
    g.backward(total_loss(g, good, params, cfg))
    sgd_step(params, lr=0.01)
    assert all(np.isfinite(t.data).all() for t in params.named_tensors().values())


def test_train_step_leaves_thread_and_blas_counts_as_it_found_them():
    cfg = toy_cfg()
    params = toy_params(cfg)
    control = tensor._openblas_threads()
    threads = threading.active_count()
    blas = control[0]() if control else None
    g = Graph()
    g.backward(total_loss(g, toy_pair(), params, cfg))
    sgd_step(params, lr=0.01)
    assert threading.active_count() == threads
    if control is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS with a thread control")
    assert control[0]() == blas


def test_import_astpn_does_not_import_concurrent_futures():
    # concurrent.futures costs 6-9 ms of import time; threading is enough
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, astpn; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"


# ---- initialization ----


def test_init_params_is_seed_deterministic():
    cfg = toy_cfg()
    a = toy_params(cfg, seed=3)
    b = toy_params(cfg, seed=3)
    c = toy_params(cfg, seed=4)
    for name in a.named_tensors():
        np.testing.assert_array_equal(a.named_tensors()[name].data,
                                      b.named_tensors()[name].data)
    assert any(
        not np.array_equal(a.named_tensors()[n].data, c.named_tensors()[n].data)
        for n in a.named_tensors()
    )


def test_init_params_shapes():
    cfg = toy_cfg()
    params = toy_params(cfg, n_ids=4, feature_dim=10)
    named = params.named_tensors()
    assert named["conv1.kernel"].shape == (16, 5, 5, 5)
    assert named["conv2.kernel"].shape == (32, 16, 5, 5)
    assert named["conv3.kernel"].shape == (32, 32, 5, 5)
    assert named["rnn.u_in"].shape == (10, 160)
    assert named["rnn.w_rec"].shape == (10, 10)
    assert named["att.u_att"].shape == (10, 10)
    assert named["classifier.weight"].shape == (4, 10)
    assert named["classifier.bias"].shape == (4,)
    assert params.n_identities == 4
    assert params.feature_dim == 10
    table = param_shapes(4, 10, 160)
    assert list(table) == list(named) == list(TENSOR_NAMES)
    assert {name: t.shape for name, t in named.items()} == table


def per_group_init(seed, n_identities, cfg, feature_dim, frame_hw):
    """init_params as it was drawn by one helper per tensor group (conv stack,
    recurrence, attention, classifier), each from its own child stream, into
    arrays in checkpoint order."""
    def uniform(rng, shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    def init_conv_stack(rng, in_channels=5):
        kernels, biases = [], []
        cin = in_channels
        for cout in (16, 32, 32):
            fan_in = cin * 5 * 5
            kernels.append(uniform(rng, (cout, cin, 5, 5), fan_in))
            biases.append(uniform(rng, (cout,), fan_in))
            cin = cout
        return kernels, biases

    def init_rnn(rng, input_dim, feature_dim):
        return (uniform(rng, (feature_dim, input_dim), input_dim),
                uniform(rng, (feature_dim, feature_dim), feature_dim))

    def init_attention(rng, feature_dim):
        return uniform(rng, (feature_dim, feature_dim), feature_dim)

    streams = np.random.SeedSequence(seed).spawn(4)
    kernels, biases = init_conv_stack(np.random.default_rng(streams[0]))
    u_in, w_rec = init_rnn(np.random.default_rng(streams[1]),
                           rnn_input_dim(cfg, frame_hw), feature_dim)
    u_att = init_attention(np.random.default_rng(streams[2]), feature_dim)
    cls_rng = np.random.default_rng(streams[3])
    classifier_w = uniform(cls_rng, (n_identities, feature_dim), feature_dim)
    classifier_b = uniform(cls_rng, (n_identities,), feature_dim)
    return {
        "conv1.kernel": kernels[0], "conv1.bias": biases[0],
        "conv2.kernel": kernels[1], "conv2.bias": biases[1],
        "conv3.kernel": kernels[2], "conv3.bias": biases[2],
        "rnn.u_in": u_in, "rnn.w_rec": w_rec, "att.u_att": u_att,
        "classifier.weight": classifier_w, "classifier.bias": classifier_b,
    }


@pytest.mark.parametrize("seed", [0, 9])
@pytest.mark.parametrize("variant", ["astpn", "atpn_only"])
@pytest.mark.parametrize("feature_dim", [6, 16])
def test_init_params_equals_the_per_group_draws_bitwise(seed, variant, feature_dim):
    cfg = toy_cfg(variant)
    expected = per_group_init(seed, 3, cfg, feature_dim, TOY_HW)
    named = toy_params(cfg, seed=seed, feature_dim=feature_dim).named_tensors()
    assert list(named) == list(expected) == list(TENSOR_NAMES)
    for name, array in expected.items():
        assert named[name].shape == array.shape, name
        assert named[name].data.tobytes() == array.tobytes(), name


def test_init_params_requires_identities():
    with pytest.raises(ValueError):
        init_params(0, 0, toy_cfg(), feature_dim=4, frame_hw=TOY_HW)


# ---- checkpoints ----


def test_checkpoint_roundtrip_is_bitwise(tmp_path):
    params = toy_params(toy_cfg(), seed=11)
    path = tmp_path / "model.astp"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    for name, t in params.named_tensors().items():
        lt = loaded.named_tensors()[name]
        assert lt.shape == t.shape
        np.testing.assert_array_equal(lt.data, t.data)
    assert loaded.n_identities == params.n_identities


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    params = toy_params(toy_cfg(), seed=5)
    p1, p2 = tmp_path / "a.astp", tmp_path / "b.astp"
    save_checkpoint(params, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_failed_checkpoint_save_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "model.astp"
    save_checkpoint(toy_params(toy_cfg(), seed=5), path)
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(DatasetError, match="cannot write: disk full"):
        save_checkpoint(toy_params(toy_cfg(), seed=6), path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # no temporary file left behind


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.astp"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_unsupported_version(tmp_path):
    params = toy_params(toy_cfg())
    path = tmp_path / "v9.astp"
    save_checkpoint(params, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 9)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    params = toy_params(toy_cfg())
    path = tmp_path / "cut.astp"
    save_checkpoint(params, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


# byte edits of the first record, conv1.kernel: its name runs from byte 16,
# its four extents from byte 32; four extents of 2^62 or of 2^32 multiply to
# 0 modulo 2^64
CORRUPT_HEADERS = {
    "name-not-utf8": (16, b"\xff"),
    "extents-2^62": (32, struct.pack("<4Q", *[2**62] * 4)),
    "extents-2^32": (32, struct.pack("<4Q", *[2**32] * 4)),
    # a zero extent makes the count 0 however large the others are
    "extents-0-2^63": (32, struct.pack("<4Q", 0, 2**63, 5, 5)),
    "extents-2^62-0": (32, struct.pack("<4Q", 2**62, 2**62, 0, 5)),
}


@pytest.mark.parametrize("kind", CORRUPT_HEADERS)
def test_checkpoint_corrupt_header_is_a_checkpoint_error(tmp_path, kind):
    path = tmp_path / "model.astp"
    save_checkpoint(toy_params(toy_cfg()), path)
    blob = bytearray(path.read_bytes())
    assert blob[12:28] == struct.pack("<I", 12) + b"conv1.kernel"
    at, edit = CORRUPT_HEADERS[kind]
    blob[at:at + len(edit)] = edit
    path.write_bytes(bytes(blob))
    match = {"name-not-utf8": "not UTF-8", "extents-0-2^63": "empty axis",
             "extents-2^62-0": "empty axis"}.get(kind, "truncated")
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def test_checkpoint_missing_tensor(tmp_path):
    params = toy_params(toy_cfg())
    path = tmp_path / "model.astp"
    save_checkpoint(params, path)
    blob = path.read_bytes()
    # drop the final record (classifier.bias): name length prefix + name +
    # rank + one extent + payload
    name = b"classifier.bias"
    cut = blob.rindex(struct.pack("<I", len(name)) + name)
    path.write_bytes(blob[:cut])
    with pytest.raises(CheckpointError, match="missing tensor classifier.bias"):
        load_checkpoint(path)


def test_checkpoint_unknown_tensor(tmp_path):
    params = toy_params(toy_cfg())
    path = tmp_path / "model.astp"
    save_checkpoint(params, path)
    name = b"extra.tensor"
    record = struct.pack("<I", len(name)) + name + struct.pack("<I", 1)
    record += struct.pack("<Q", 2) + np.zeros(2).tobytes()
    path.write_bytes(path.read_bytes() + record)
    with pytest.raises(CheckpointError, match="unknown tensor extra.tensor"):
        load_checkpoint(path)


def test_checkpoint_with_a_tensor_stored_twice(tmp_path):
    params = toy_params(toy_cfg(), n_ids=3)
    path = tmp_path / "model.astp"
    save_checkpoint(params, path)
    name = b"classifier.bias"
    record = struct.pack("<I", len(name)) + name + struct.pack("<I", 1)
    record += struct.pack("<Q", 3) + np.array([7.0, 8.0, 9.0]).tobytes()
    path.write_bytes(path.read_bytes() + record)
    with pytest.raises(CheckpointError, match="classifier.bias is stored twice"):
        load_checkpoint(path)


def test_checkpoint_identity_count_mismatch(tmp_path):
    params = toy_params(toy_cfg(), n_ids=3)
    path = tmp_path / "model.astp"
    save_checkpoint(params, path)
    blob = bytearray(path.read_bytes())
    blob[8:12] = struct.pack("<I", 7)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="identities"):
        load_checkpoint(path)


@pytest.mark.parametrize("name, shape", [
    ("conv1.kernel", (16, 5, 3, 3)),
    ("conv2.kernel", (32, 15, 5, 5)),
    ("conv3.bias", (31,)),
    ("rnn.u_in", (6,)),
    ("rnn.w_rec", (6, 5)),
    ("att.u_att", (5, 5)),
    ("classifier.weight", (3, 5)),
    ("classifier.bias", (2,)),
])
def test_checkpoint_shapes_that_do_not_chain(tmp_path, name, shape):
    params = toy_params(toy_cfg(), n_ids=3, feature_dim=6)
    params.named_tensors()[name].data = np.zeros(shape)
    path = tmp_path / "model.astp"
    save_checkpoint(params, path)
    with pytest.raises(CheckpointError, match=f"{name} has shape"):
        load_checkpoint(path)


def test_checkpoint_conv_channels_that_chain_but_are_not_the_network(tmp_path):
    # conv1 with 8 outputs feeding a conv2 that takes 8: each layer agrees
    # with the next, but init_params never makes these shapes
    params = toy_params(toy_cfg(), n_ids=3, feature_dim=6)
    named = params.named_tensors()
    named["conv1.kernel"].data = np.zeros((8, 5, 5, 5))
    named["conv1.bias"].data = np.zeros(8)
    named["conv2.kernel"].data = np.zeros((32, 8, 5, 5))
    path = tmp_path / "model.astp"
    save_checkpoint(params, path)
    with pytest.raises(CheckpointError, match="conv1.kernel has shape"):
        load_checkpoint(path)
