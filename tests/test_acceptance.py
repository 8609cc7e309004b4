"""Acceptance suite: ten end-to-end criteria covering gradients, the fixed
analytic values, pooling contracts, attention identities, synthetic training
runs, ranking oracles, optical flow accuracy, and reproducibility.

Each test prints a one-line verdict so a -s run reads as a checklist. The
synthetic end-to-end runs are the slow part (a few minutes total); everything
else is near-instant.
"""

import json
import math
import time

import numpy as np
import pytest

from astpn.cli import EXIT_OK, main
from astpn.datapipe import FLOW_MAX_PX, lucas_kanade_flow, pair_stream
from astpn.evalkit import cmc_from_features, compute_cmc, eval_sequence, rank_gallery
from astpn.gradcheck import run_gradcheck
from astpn.layers import attentive_summary, conv_stack_forward, rnn_forward, spp_forward
from astpn.model import (
    LossConfig,
    extract_feature,
    hinge_loss,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    total_loss,
)
from astpn.tensor import Graph, Tensor


def report(criterion, detail):
    print(f"[acceptance {criterion}] {detail}")


# ---- 1: gradient suite ----


def test_criterion_1_gradcheck_all_tensors():
    start = time.time()
    result = run_gradcheck(seed=0, samples_per_tensor=24, tol=1e-4)
    elapsed = time.time() - start
    assert len(result.worst) == 11  # every trainable tensor is covered
    for name, err in result.worst.items():
        assert err < 1e-4, f"{name}: {err:.3e}"
    assert elapsed < 60.0, f"gradcheck took {elapsed:.1f}s"
    report(1, f"gradcheck worst {result.worst_overall:.2e} < 1e-4 in {elapsed:.1f}s")


# ---- 2: analytic equation values ----


def test_criterion_2_analytic_values():
    g = Graph()
    one = Tensor(np.ones((1, 1)))
    tanh_one = rnn_forward(g, one, one, Tensor(np.zeros((1, 1))), "post_tanh").item()
    assert abs(tanh_one - math.tanh(1.0)) < 1e-12

    # the head's softmax: identity rows make the affinity tanh(U) and expose
    # the probe weights, and this U puts its row maxima at ln 2 and 0
    eye = Tensor(np.eye(2))
    u = Tensor(np.diag([math.atanh(math.log(2.0)), 0.0]))
    soft, _ = attentive_summary(g, eye, eye, u)
    assert abs(soft.data[0] - 2.0 / 3.0) < 1e-12
    assert abs(soft.data[1] - 1.0 / 3.0) < 1e-12

    v_p = Tensor(np.zeros(4))
    v_g = Tensor(np.array([1.0, 0.0, 0.0, 0.0]))
    hinge = hinge_loss(g, v_p, v_g, same_person=False, margin=3.0).item()
    assert abs(hinge - 2.0) < 1e-12

    for k in (2, 4, 8):
        ce = g.cross_entropy(Tensor(np.zeros(k)), 0).item()
        assert abs(ce - math.log(k)) < 1e-12
    biased = g.cross_entropy(Tensor(np.array([math.log(3.0), 0.0])), 0).item()
    assert abs(biased - (-math.log(0.75))) < 1e-12
    report(2, "tanh(1), softmax([ln2,0]), hinge slack, cross entropy all within 1e-12")


# ---- 3: pyramid pooling contract ----


def test_criterion_3_spp_fixed_length_across_resolutions(rng):
    cfg = LossConfig()
    assert [rows * cols for rows, cols in cfg.spp_bins] == [64, 16, 4, 1]
    params = init_params(0, 1, cfg)
    kernels = [params[f"conv{i}.kernel"] for i in (1, 2, 3)]
    biases = [params[f"conv{i}.bias"] for i in (1, 2, 3)]
    seen = {}
    for hw in [(24, 16), (48, 32), (128, 64)]:
        frames = Tensor(rng.uniform(-1, 1, size=(2, 5) + hw))
        fmap = conv_stack_forward(Graph(record=False), frames, kernels, biases)
        out = spp_forward(Graph(record=False), fmap, cfg.spp_bins)
        seen[hw] = out.shape
        assert out.shape == (2, 2720), f"input {hw} gave {out.shape}"
    report(3, f"descriptor length 2720 for inputs {sorted(seen)}")


# ---- 4: attention identities ----


def test_criterion_4_attention_identities(rng):
    # role swap, bitwise: dyadic rational inputs make every product and sum
    # exact, so pooling the sequences the other way round under U^T must give
    # the same two vectors, swapped, to the last bit on all 100 instances
    for _ in range(100):
        p = Tensor(rng.integers(-8, 9, size=(4, 6)) / 8.0)
        q = Tensor(rng.integers(-8, 9, size=(5, 6)) / 8.0)
        u = rng.integers(-8, 9, size=(6, 6)) / 8.0
        g = Graph(record=False)
        v_p, v_q = attentive_summary(g, p, q, Tensor(u))
        w_q, w_p = attentive_summary(g, q, p, Tensor(u.T))
        assert v_p.data.tobytes() == w_p.data.tobytes()
        assert v_q.data.tobytes() == w_q.data.tobytes()

    # zero attention matrix reduces attentive pooling to the arithmetic mean
    p = Tensor(rng.standard_normal((6, 5)))
    q = Tensor(rng.standard_normal((4, 5)))
    zero = Tensor(np.zeros((5, 5)))
    v_p, v_g = attentive_summary(Graph(record=False), p, q, zero)
    np.testing.assert_allclose(v_p.data, p.data.mean(axis=0), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(v_g.data, q.data.mean(axis=0), rtol=1e-12, atol=1e-12)

    # attention weight vectors are probability distributions: identity rows
    # expose them, since P = I gives v_p = a_p
    u = Tensor(rng.standard_normal((5, 5)))
    a_p, a_g = attentive_summary(Graph(record=False), Tensor(np.eye(5)), Tensor(np.eye(5)), u)
    for w in (a_p, a_g):
        assert abs(w.data.sum() - 1.0) < 1e-12
        assert (w.data > 0).all()
    report(4, "role swap bitwise x100, zero-matrix mean reduction, weights sum to 1")


# ---- 5 and shared artifacts: synthetic overfit run ----


@pytest.fixture(scope="module")
def overfit_run(synth_root, tmp_path_factory):
    """Train on the default synthetic set until it is memorized; several
    criteria reuse the checkpoint and its timing."""
    out = tmp_path_factory.mktemp("acceptance") / "overfit"
    start = time.time()
    code = main([
        "train", "--data-root", str(synth_root), "--out", str(out),
        "--epochs", "40", "--split-mode", "all", "--seed", "0",
    ])
    train_time = time.time() - start
    assert code == EXIT_OK
    return out, train_time


def test_criterion_5_synthetic_overfit_rank1(synth_root, overfit_run, tmp_path):
    out, train_time = overfit_run
    # 40 epochs x 2 pairs x 8 identities = 640 SGD steps, under the 2000 cap
    log_lines = (out / "train_log.csv").read_text().splitlines()
    assert len(log_lines) - 1 == 40
    first_loss = float(log_lines[1].split(",")[1])
    last_loss = float(log_lines[-1].split(",")[1])
    assert last_loss < first_loss

    eval_out = tmp_path / "eval"
    start = time.time()
    code = main([
        "eval", "--data-root", str(synth_root), "--out", str(eval_out),
        "--checkpoint", str(out / "checkpoint.astp"),
        "--split-mode", "all", "--trials", "1", "--seed", "0",
    ])
    eval_time = time.time() - start
    assert code == EXIT_OK
    summary = json.loads(next(eval_out.glob("cmc_*.json")).read_text())
    assert summary["rank_means"]["1"] == 1.0, summary["rank_means"]
    total = train_time + eval_time
    assert total < 600.0, f"end-to-end took {total:.0f}s"
    report(5, f"640 steps, rank-1 = 1.0 on 8/8 identities, {total:.0f}s total")


# ---- 6: attentive pooling vs plain mean on temporally sparse signal ----


def _train_and_rank(index, ids, variant, seed, epochs=8, lr=0.001):
    cfg = LossConfig(variant=variant)
    params = init_params(seed, len(ids), cfg, feature_dim=32, frame_hw=(8, 4))
    stream = pair_stream(index, ids, 16, seed=seed)
    for _ in range(epochs):
        for _ in range(2 * len(ids)):
            pair = next(stream)
            g = Graph()
            loss = total_loss(g, pair, params, cfg)
            g.backward(loss)
            sgd_step(params, lr)
    return compute_cmc(index, ids, params, cfg).rank(1), params, cfg


def test_criterion_6_attention_not_worse_on_sparse_signal(sparse_index):
    ids = sorted(sparse_index)
    satisfied = 0
    outcomes = []
    for seed in range(5):
        r_att, att_params, att_cfg = _train_and_rank(sparse_index, ids, "astpn", seed)
        r_mean, _, _ = _train_and_rank(sparse_index, ids, "mean_pool", seed)
        outcomes.append((r_att, r_mean))
        satisfied += r_att >= r_mean
    assert satisfied >= 4, outcomes

    # guard against the comparison being vacuous: with a nonzero attention
    # matrix the attentive features must actually differ from plain means
    sample = eval_sequence(sparse_index[ids[0]]["cam0"], None)
    att_feat = extract_feature(sample, att_params, att_cfg)
    mean_feat = extract_feature(sample, att_params, LossConfig(variant="mean_pool"))
    assert not np.allclose(att_feat, mean_feat)
    report(6, f"attentive rank-1 >= mean pooling in {satisfied}/5 seeds: {outcomes}")


# ---- 7: ranking oracles ----


def brute_force_positions(probes, probe_ids, gallery, gallery_ids):
    counts = np.zeros(len(gallery_ids))
    for feat, pid in zip(probes, probe_ids):
        dists = [((g - feat) ** 2).sum() for g in gallery]
        order = sorted(range(len(gallery)), key=lambda j: (dists[j], j))
        counts[[gallery_ids[j] for j in order].index(pid)] += 1
    return counts.cumsum() / len(probes)


def test_criterion_7_cmc_brute_force_oracles(rng):
    for _ in range(1000):
        size = int(rng.integers(1, 8))
        dim = int(rng.integers(1, 4))
        probe = rng.standard_normal(dim)
        gallery = rng.standard_normal((size, dim))
        dists = [((row - probe) ** 2).sum() for row in gallery]
        expected = sorted(range(size), key=lambda j: (dists[j], j))
        np.testing.assert_array_equal(rank_gallery(probe, gallery), expected)

    checked = 0
    for size in range(1, 8):
        ids = [f"id{j}" for j in range(size)]
        for _ in range(30):
            gallery = rng.standard_normal((size, 3))
            probes = rng.standard_normal((size, 3))
            curve = cmc_from_features(probes, ids, gallery, ids)
            expected = brute_force_positions(probes, ids, gallery, ids)
            np.testing.assert_array_equal(curve.values, expected)
            checked += 1
    report(7, f"rank_gallery x1000 and cmc curves x{checked} match brute force exactly")


# ---- 8: optical flow accuracy ----


def test_criterion_8_optical_flow_known_motion(rng):
    yy, xx = np.mgrid[0:28, 0:36].astype(np.float64)
    img = 128 + 60 * np.sin(2 * np.pi * xx / 36) * np.cos(2 * np.pi * yy / 28)

    flow = lucas_kanade_flow(img, np.roll(img, 1, axis=1)) * FLOW_MAX_PX
    err_x = abs(flow[0, 4:-4, 4:-4].mean() - 1.0)
    err_y = abs(flow[1, 4:-4, 4:-4].mean())
    assert err_x < 0.25, f"horizontal error {err_x:.3f}px"
    assert err_y < 0.25

    np.testing.assert_array_equal(lucas_kanade_flow(img, img), 0.0)
    report(8, f"1px shift recovered within {err_x:.3f}px; identical frames exactly zero")


# ---- 9: reproducibility ----


def test_criterion_9_training_reproducibility(synth_root, tmp_path):
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main([
            "train", "--data-root", str(synth_root), "--out", str(out),
            "--epochs", "1", "--k", "4", "--feature-dim", "16", "--seed", "0",
        ])
        assert code == EXIT_OK
        blobs.append((out / "checkpoint.astp").read_bytes())
    assert blobs[0] == blobs[1]

    params = load_checkpoint(tmp_path / "first" / "checkpoint.astp")
    again = tmp_path / "roundtrip.astp"
    save_checkpoint(params, again)
    assert again.read_bytes() == blobs[0]
    report(9, "same-seed checkpoints and save/load round trip are byte-identical")


# ---- 10: single-shot and cross-dataset modes ----


def test_criterion_10_single_shot_and_cross_dataset(synth_root, overfit_run,
                                                    tmp_path, tmp_path_factory):
    out, _ = overfit_run
    checkpoint = out / "checkpoint.astp"

    ss_out = tmp_path / "single_shot"
    code = main([
        "eval", "--data-root", str(synth_root), "--out", str(ss_out),
        "--checkpoint", str(checkpoint), "--split-mode", "all",
        "--trials", "1", "--seed", "0", "--single-shot",
    ])
    assert code == EXIT_OK

    foreign = tmp_path_factory.mktemp("acceptance") / "foreign"
    main(["synth", str(foreign), "--ids", "6", "--cams", "2", "--frames", "16",
          "--height", "24", "--width", "16", "--seed", "77"])
    cross_out = tmp_path / "cross"
    code = main([
        "eval", "--out", str(cross_out), "--checkpoint", str(checkpoint),
        "--cross-dataset", str(foreign), "--fraction", "0.5", "--seed", "0",
    ])
    assert code == EXIT_OK

    for run_dir in (ss_out, cross_out):
        csv_path = next(run_dir.glob("cmc_*.csv"))
        rows = csv_path.read_text().splitlines()[1:]
        values = np.array([float(r.split(",")[1]) for r in rows])
        assert (np.diff(values) >= -1e-15).all()        # monotone
        assert ((0.0 <= values) & (values <= 1.0)).all()
        assert values[-1] == 1.0                        # every probe has its match
        summary = json.loads(next(run_dir.glob("cmc_*.json")).read_text())
        assert set(summary["rank_means"]) == {"1", "5", "10", "20"}
    report(10, "single-shot and cross-dataset reports emitted with valid curves")
