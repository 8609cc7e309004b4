"""Evaluation tests: ranking against brute-force oracles, CMC construction
over exhaustive small galleries, and report file round trips."""

import json

import numpy as np
import pytest

from astpn.cli import EXIT_DATA, EXIT_OK, main
from astpn.datapipe import ChannelStack, DatasetError
from astpn.evalkit import (
    CmcCurve,
    cmc_from_features,
    compute_cmc,
    emit_report,
    eval_sequence,
    rank_gallery,
)
from astpn.model import LossConfig, extract_feature, init_params, save_checkpoint
from astpn.tensor import ShapeError

TOY_CFG = LossConfig(spp_bins=((2, 2), (1, 1)))


# ---- ranking ----


def test_rank_gallery_exact_match_first():
    gallery = np.array([[3.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
    order = rank_gallery(gallery[1], gallery)
    assert order[0] == 1


def test_rank_gallery_scaled_copies():
    e1 = np.array([1.0, 0.0])
    order = rank_gallery(np.zeros(2), np.stack([2 * e1, e1]))
    np.testing.assert_array_equal(order, [1, 0])  # distances 4 > 1


def test_rank_gallery_matches_brute_force_on_1000_instances(rng):
    for _ in range(1000):
        g_size = int(rng.integers(1, 8))
        dim = int(rng.integers(1, 5))
        probe = rng.standard_normal(dim)
        gallery = rng.standard_normal((g_size, dim))
        order = rank_gallery(probe, gallery)
        dists = [((row - probe) ** 2).sum() for row in gallery]
        expected = sorted(range(g_size), key=lambda j: (dists[j], j))
        np.testing.assert_array_equal(order, expected)


def test_rank_gallery_ties_resolve_to_lower_index():
    gallery = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])  # all distance 1 from 0
    np.testing.assert_array_equal(rank_gallery(np.zeros(2), gallery), [0, 1, 2])


def test_rank_gallery_shape_errors():
    with pytest.raises(ShapeError):
        rank_gallery(np.zeros(3), np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        rank_gallery(np.zeros((1, 3)), np.zeros((4, 3)))


# ---- CMC construction ----


def brute_force_cmc(probe_feats, probe_ids, gallery_feats, gallery_ids):
    counts = np.zeros(len(gallery_ids))
    for feat, pid in zip(probe_feats, probe_ids):
        dists = [((g - feat) ** 2).sum() for g in gallery_feats]
        order = sorted(range(len(gallery_ids)), key=lambda j: (dists[j], j))
        position = [gallery_ids[j] for j in order].index(pid)
        counts[position:] += 0  # placeholder for clarity; cumsum below
        counts[position] += 1
    return counts.cumsum() / len(probe_feats)


def test_cmc_perfectly_separated_features_rank_one():
    feats = np.eye(4) * 10.0
    ids = list("abcd")
    curve = cmc_from_features(feats, ids, feats + 0.01, ids)
    assert curve.rank(1) == 1.0
    np.testing.assert_array_equal(curve.values, 1.0)


def test_cmc_adversarial_features_rank_last():
    # every probe sits exactly on the wrong gallery points: true match farthest
    gallery = np.array([[0.0], [10.0], [20.0]])
    probes = np.array([[20.0], [0.0], [0.0]])  # a->far, b->near a, c->near a
    curve = cmc_from_features(probes, list("abc"), gallery, list("abc"))
    assert curve.rank(1) == 0.0
    assert curve.values[-1] == 1.0


def test_cmc_hand_placed_three_identities():
    gallery = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    probes = np.array([[1.0, 0.0],    # a: nearest a, then b, then c
                       [4.1, 0.0],    # b: nearest b
                       [3.0, 3.0]])   # c: b at dist 10.0, c at dist 10.0: tie -> index 1 (b) first
    curve = cmc_from_features(probes, list("abc"), gallery, list("abc"))
    np.testing.assert_allclose(curve.values, [2 / 3, 1.0, 1.0], rtol=1e-15)


def test_cmc_matches_brute_force_on_exhaustive_small_galleries(rng):
    for g_size in range(1, 8):
        ids = [f"id{j}" for j in range(g_size)]
        for _ in range(40):
            gallery = rng.standard_normal((g_size, 3))
            probes = rng.standard_normal((g_size, 3))
            curve = cmc_from_features(probes, ids, gallery, ids)
            expected = brute_force_cmc(probes, ids, gallery, ids)
            np.testing.assert_array_equal(curve.values, expected)


def test_cmc_rank1_equals_nearest_neighbor_accuracy(rng):
    ids = [f"id{j}" for j in range(6)]
    gallery = rng.standard_normal((6, 4))
    probes = rng.standard_normal((6, 4))
    curve = cmc_from_features(probes, ids, gallery, ids)
    hits = sum(
        ids[int(np.argmin(((gallery - p) ** 2).sum(axis=1)))] == pid
        for p, pid in zip(probes, ids)
    )
    assert curve.rank(1) == pytest.approx(hits / 6)


def test_cmc_curve_invariants(rng):
    for trial in range(25):
        n = int(rng.integers(2, 9))
        ids = [f"id{j}" for j in range(n)]
        curve = cmc_from_features(rng.standard_normal((n, 3)), ids,
                                  rng.standard_normal((n, 3)), ids)
        assert (np.diff(curve.values) >= 0).all()
        assert curve.values[-1] == 1.0
        assert ((0.0 <= curve.values) & (curve.values <= 1.0)).all()


def test_cmc_gallery_permutation_invariance(rng):
    ids = [f"id{j}" for j in range(7)]
    gallery = rng.standard_normal((7, 3))
    probes = rng.standard_normal((7, 3))
    base = cmc_from_features(probes, ids, gallery, ids)
    perm = rng.permutation(7)
    shuffled = cmc_from_features(probes, ids, gallery[perm], [ids[j] for j in perm])
    np.testing.assert_array_equal(base.values, shuffled.values)


def test_cmc_curve_rank_accessor():
    curve = CmcCurve(values=np.array([0.5, 0.8, 1.0]), n_probes=10)
    assert curve.rank(1) == 0.5
    assert curve.rank(3) == 1.0
    assert curve.rank(20) == 1.0  # clamped to gallery size
    with pytest.raises(ValueError):
        curve.rank(0)


def per_probe_cmc(probe_feats, probe_ids, gallery_feats, gallery_ids):
    """CMC from one rank_gallery call and one scan per probe."""
    counts = np.zeros(len(gallery_ids))
    for feat, pid in zip(probe_feats, probe_ids):
        order = rank_gallery(feat, gallery_feats)
        counts[[gallery_ids[j] for j in order].index(pid)] += 1
    return counts.cumsum() / len(probe_feats)


def test_cmc_equals_per_probe_ranking_bitwise(rng):
    # wide features and repeated gallery identities, with distances tied
    # by duplicated gallery rows and by quantised values
    for _ in range(60):
        n_probes, n_gallery = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        dim = int(rng.choice([1, 7, 128, 300]))
        gallery_ids = [f"id{j}" for j in rng.integers(0, 4, n_gallery)]
        probe_ids = [gallery_ids[j] for j in rng.integers(0, n_gallery, n_probes)]
        gallery = np.round(rng.standard_normal((n_gallery, dim)), 1)
        gallery[rng.integers(0, n_gallery)] = gallery[0]
        probes = np.round(rng.standard_normal((n_probes, dim)), 1)
        curve = cmc_from_features(probes, probe_ids, gallery, gallery_ids)
        expected = per_probe_cmc(probes, probe_ids, gallery, gallery_ids)
        assert curve.values.tobytes() == expected.tobytes()


def test_cmc_probe_without_gallery_entry():
    with pytest.raises(DatasetError, match="ghost"):
        cmc_from_features(np.zeros((1, 2)), ["ghost"], np.zeros((1, 2)), ["real"])
    with pytest.raises(DatasetError, match="ghost"):
        cmc_from_features(np.zeros((2, 2)), ["real", "ghost"], np.zeros((1, 2)), ["real"])


def test_cmc_feature_width_mismatch_is_shape_error():
    with pytest.raises(ShapeError):
        cmc_from_features(np.zeros((1, 3)), ["a"], np.zeros((1, 2)), ["a"])
    with pytest.raises(ShapeError):
        cmc_from_features(np.zeros(2), ["a", "b"], np.zeros((2, 2)), ["a", "b"])


def test_cmc_count_mismatch():
    with pytest.raises(ValueError):
        cmc_from_features(np.zeros((2, 2)), ["a"], np.zeros((2, 2)), ["a", "b"])


# ---- dataset-level evaluation ----


def test_compute_cmc_runs_on_synthetic_index(synth_index):
    params = init_params(0, 8, TOY_CFG, feature_dim=8, frame_hw=(16, 8))
    curve = compute_cmc(synth_index, sorted(synth_index), params, TOY_CFG)
    assert curve.n_probes == 8
    assert len(curve.values) == 8
    assert (np.diff(curve.values) >= 0).all()
    assert curve.values[-1] == 1.0


def test_compute_cmc_single_shot_uses_first_frame_only(synth_index):
    # the oracle featurises the first frame of each full eval view, and
    # compute_cmc ranks those features from its memo
    params = init_params(0, 8, TOY_CFG, feature_dim=8, frame_hw=(16, 8))
    first_frames = {
        (pid, cam): extract_feature(
            ChannelStack(pid, cam, eval_sequence(s, None).channels()[:1]), params, TOY_CFG)
        for pid, cams in synth_index.items() for cam, s in cams.items()
    }
    single = compute_cmc(synth_index, sorted(synth_index), params, TOY_CFG, eval_k=1)
    oracle = compute_cmc(synth_index, sorted(synth_index), params, TOY_CFG,
                         features=first_frames)
    np.testing.assert_array_equal(single.values, oracle.values)


def test_compute_cmc_is_deterministic(synth_index):
    params = init_params(0, 8, TOY_CFG, feature_dim=8, frame_hw=(16, 8))
    a = compute_cmc(synth_index, sorted(synth_index), params, TOY_CFG)
    b = compute_cmc(synth_index, sorted(synth_index), params, TOY_CFG)
    np.testing.assert_array_equal(a.values, b.values)


def test_featurising_the_eval_view_reads_the_index_only(synth_index):
    # the eval view builds its channels from the stored frames and stats:
    # featurising it must leave them as they were, and give the features
    # of its built channels
    params = init_params(0, 8, TOY_CFG, feature_dim=8, frame_hw=(16, 8))
    stored = {(pid, cam): (s.frames.tobytes(), s.stats.tobytes())
              for pid, cams in synth_index.items() for cam, s in cams.items()}
    compute_cmc(synth_index, sorted(synth_index), params, TOY_CFG)
    for (pid, cam), kept in stored.items():
        sample = synth_index[pid][cam]
        view = eval_sequence(sample, None)
        built = ChannelStack(pid, cam, view.channels())
        assert (extract_feature(view, params, TOY_CFG).tobytes()
                == extract_feature(built, params, TOY_CFG).tobytes())
        assert (sample.frames.tobytes(), sample.stats.tobytes()) == kept


def test_compute_cmc_missing_identity(synth_index):
    params = init_params(0, 8, TOY_CFG, feature_dim=8, frame_hw=(16, 8))
    with pytest.raises(DatasetError, match="ghost"):
        compute_cmc(synth_index, ["ghost"], params, TOY_CFG)
    with pytest.raises(DatasetError):
        compute_cmc(synth_index, [], params, TOY_CFG)


# ---- cross-dataset selection (eval --cross-dataset) ----


@pytest.fixture(scope="module")
def cross_eval(tmp_path_factory):
    """eval from an untrained checkpoint: the CSV bytes and per-pass probe
    counts of its report, or the exit code of a refused run."""
    tmp = tmp_path_factory.mktemp("cross")
    checkpoint = tmp / "init.astp"
    save_checkpoint(init_params(0, 8, LossConfig(), feature_dim=16, frame_hw=(16, 12)),
                    checkpoint)

    def report(out, *flags):
        code = main(["eval", "--out", str(tmp / out), "--feature-dim", "16",
                     "--checkpoint", str(checkpoint), "--seed", "3", *flags])
        if code != EXIT_OK:
            return code
        summary = json.loads(next((tmp / out).glob("cmc_sparse8_*.json")).read_text())
        return next((tmp / out).glob("cmc_sparse8_*.csv")).read_bytes(), summary["n_probes"]

    return report


def test_cross_dataset_eval_full_fraction_covers_all(sparse_root, cross_eval):
    # every identity, drawn as a cross-dataset share, is the one trial of --split-mode all
    whole = cross_eval("whole", "--cross-dataset", str(sparse_root), "--fraction", "1.0")
    assert whole == cross_eval("trial", "--data-root", str(sparse_root), "--split-mode", "all",
                               "--trials", "1")
    assert whole[1] == [8] and not whole[0].startswith(b"rank,mean,std,trial_1\n1,1,")


def test_cross_dataset_eval_fraction_selects_subset(sparse_root, cross_eval):
    half = cross_eval("half", "--cross-dataset", str(sparse_root), "--fraction", "0.5")
    assert half[1] == [round(0.5 * 8)]
    assert half == cross_eval("again", "--cross-dataset", str(sparse_root), "--fraction", "0.5")
    assert cross_eval("none", "--cross-dataset", str(sparse_root), "--fraction", "0") == EXIT_DATA


# ---- reports ----


def test_emit_report_csv_roundtrip_and_std(tmp_path, rng):
    curves = [
        CmcCurve(values=np.array([0.5, 0.8, 1.0]), n_probes=4),
        CmcCurve(values=np.array([0.25, 0.9, 1.0]), n_probes=4),
    ]
    csv_path, json_path = emit_report(curves, tmp_path / "report")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "rank,mean,std,trial_1,trial_2"
    assert len(lines) == 4
    table = np.stack([c.values for c in curves])
    for r, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == r + 1
        assert float(cells[1]) == table.mean(axis=0)[r]  # 17 digits re-parse exactly
        assert float(cells[2]) == table.std(axis=0)[r]
        assert float(cells[3]) == curves[0].values[r]
        assert float(cells[4]) == curves[1].values[r]


def test_emit_report_identical_trials_zero_std(tmp_path):
    curve = CmcCurve(values=np.array([1 / 3, 2 / 3, 1.0]), n_probes=3)
    copies = [CmcCurve(values=curve.values.copy(), n_probes=3) for _ in range(3)]
    csv_path, _ = emit_report(copies, tmp_path / "same")
    for line in csv_path.read_text().splitlines()[1:]:
        assert float(line.split(",")[2]) == 0.0


def test_emit_report_single_trial(tmp_path):
    curve = CmcCurve(values=np.array([0.5, 0.8, 1.0]), n_probes=4)
    csv_path, json_path = emit_report([curve], tmp_path / "solo")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "rank,mean,std,trial_1"
    assert all(float(l.split(",")[2]) == 0.0 for l in lines[1:])


def test_emit_report_json_summary(tmp_path):
    values = np.linspace(0.1, 1.0, 25)
    curves = [CmcCurve(values=values, n_probes=25)]
    _, json_path = emit_report(curves, tmp_path / "s", meta={"seed": 3})
    data = json.loads(json_path.read_text())
    assert data["n_trials"] == 1
    assert data["n_probes"] == [25]
    assert data["gallery_size"] == 25
    assert data["seed"] == 3
    assert data["rank_means"]["1"] == values[0]
    assert data["rank_means"]["5"] == values[4]
    assert data["rank_means"]["20"] == values[19]


def test_emit_report_validates_input(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], tmp_path / "x")
    mismatched = [
        CmcCurve(values=np.array([0.5, 1.0]), n_probes=2),
        CmcCurve(values=np.array([1.0]), n_probes=1),
    ]
    with pytest.raises(ValueError):
        emit_report(mismatched, tmp_path / "x")
