"""Cumulative matching characteristic evaluation and report emission."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datapipe import (
    DatasetError,
    SequenceSample,
    augment,
    by_identity,
    load_dataset,
    preprocess_dataset,
)
from .model import AstpnParams, LossConfig, extract_feature, load_checkpoint
from .tensor import ShapeError

REPORT_RANKS = (1, 5, 10, 20)


@dataclass
class CmcCurve:
    """values[r-1] is the fraction of probes whose true match ranked <= r."""

    values: np.ndarray
    n_probes: int
    meta: dict = field(default_factory=dict)

    def rank(self, r: int) -> float:
        if r < 1:
            raise ValueError(f"rank must be >= 1, got {r}")
        return float(self.values[min(r, len(self.values)) - 1])


def rank_gallery(probe_feat: np.ndarray, gallery_feats: np.ndarray) -> np.ndarray:
    """Gallery indices sorted by ascending squared Euclidean distance.

    Equal distances keep gallery order (stable sort), so ties resolve to the
    lower index.
    """
    probe = np.asarray(probe_feat, dtype=np.float64)
    gallery = np.asarray(gallery_feats, dtype=np.float64)
    if gallery.ndim != 2 or probe.ndim != 1 or gallery.shape[1] != probe.shape[0]:
        raise ShapeError(
            f"rank_gallery needs (N,) probe and (G,N) gallery, got {probe.shape} "
            f"and {gallery.shape}"
        )
    dists = ((gallery - probe) ** 2).sum(axis=1)
    return np.argsort(dists, kind="stable")


def cmc_from_features(probe_feats, probe_ids, gallery_feats, gallery_ids,
                      meta: dict | None = None) -> CmcCurve:
    """CMC curve from precomputed features; matching is identity-level."""
    probe_feats = np.asarray(probe_feats, dtype=np.float64)
    gallery_feats = np.asarray(gallery_feats, dtype=np.float64)
    if len(probe_ids) != len(probe_feats) or len(gallery_ids) != len(gallery_feats):
        raise ValueError("feature/identity counts disagree")
    if len(probe_feats) == 0 or len(gallery_feats) == 0:
        raise ValueError("need at least one probe and one gallery entry")
    gallery_ids = list(gallery_ids)
    counts = np.zeros(len(gallery_ids))
    for feat, pid in zip(probe_feats, probe_ids):
        order = rank_gallery(feat, gallery_feats)
        position = next(
            (r for r, j in enumerate(order) if gallery_ids[j] == pid), None)
        if position is None:
            raise DatasetError(f"probe identity {pid} has no gallery entry")
        counts[position] += 1
    values = counts.cumsum() / len(probe_feats)
    return CmcCurve(values=values, n_probes=len(probe_feats), meta=dict(meta or {}))


def _eval_sequence(sample: SequenceSample, eval_k: int | None) -> SequenceSample:
    if eval_k is not None:
        sample = SequenceSample(sample.person_id, sample.camera_id,
                                sample.frames[:eval_k], sample.paths)
    return augment(sample, "test")


def compute_cmc(index: dict[str, dict[str, SequenceSample]], test_ids, params: AstpnParams,
                cfg: LossConfig, eval_k: int | None = None, seed: int = 0,
                meta: dict | None = None, features: dict | None = None) -> CmcCurve:
    """Evaluate one probe-vs-gallery pass over the given identities.

    The lexicographically first camera of each identity is the probe view and
    the second the gallery view; identities with more than two cameras get a
    seeded random choice of two. eval_k limits every sequence to its first
    eval_k frames (single-shot evaluation passes 1); None uses full sequences.

    features memoizes feature vectors by (person_id, camera_id). Calls that
    share one dict must also share index, params, cfg and eval_k; each
    sequence is then featurised once however many passes include it.
    """
    ids = sorted(test_ids)
    if not ids:
        raise DatasetError("no identities to evaluate")
    if features is None:
        features = {}

    def feature(pid: str, cam: str) -> np.ndarray:
        if (pid, cam) not in features:
            features[pid, cam] = extract_feature(
                _eval_sequence(index[pid][cam], eval_k), params, cfg)
        return features[pid, cam]

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    probe_feats, gallery_feats = [], []
    for pid in ids:
        if pid not in index:
            raise DatasetError(f"identity {pid} not present in the dataset")
        cams = sorted(index[pid])
        if len(cams) < 2:
            raise DatasetError(f"identity {pid} needs two cameras, found {len(cams)}")
        if len(cams) > 2:
            chosen = sorted(rng.choice(len(cams), size=2, replace=False))
            cams = [cams[chosen[0]], cams[chosen[1]]]
        probe_feats.append(feature(pid, cams[0]))
        gallery_feats.append(feature(pid, cams[1]))
    full_meta = {"n_identities": len(ids), "seed": seed}
    full_meta.update(meta or {})
    return cmc_from_features(probe_feats, ids, gallery_feats, ids, meta=full_meta)


def cross_dataset_eval(checkpoint_path, test_root, cfg: LossConfig,
                       fraction: float = 0.5, seed: int = 0,
                       eval_k: int | None = None) -> CmcCurve:
    """Evaluate a trained checkpoint on a seeded subset of another dataset."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    params = load_checkpoint(checkpoint_path)
    index = by_identity(preprocess_dataset(load_dataset(test_root)))
    usable = sorted(pid for pid, cams in index.items() if len(cams) >= 2)
    if not usable:
        raise DatasetError(f"{test_root}: no identities with two cameras")
    n_eval = max(1, round(fraction * len(usable)))
    rng = np.random.default_rng(seed)
    chosen = sorted(rng.choice(len(usable), size=n_eval, replace=False).tolist())
    ids = [usable[i] for i in chosen]
    meta = {"fraction": fraction, "source": str(test_root)}
    return compute_cmc(index, ids, params, cfg, eval_k=eval_k, seed=seed, meta=meta)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def emit_report(curves: list[CmcCurve], base_path, meta: dict | None = None) -> tuple[Path, Path]:
    """Write <base>.csv and <base>.json for a set of per-trial curves.

    The CSV has one row per rank with the cross-trial mean and population
    standard deviation followed by each trial's value, all printed with 17
    significant digits so re-parsing reproduces the floats exactly.
    """
    if not curves:
        raise ValueError("emit_report needs at least one curve")
    lengths = {len(c.values) for c in curves}
    if len(lengths) != 1:
        raise ValueError(f"curves have mismatched lengths {sorted(lengths)}")
    table = np.stack([c.values for c in curves])
    means = table.mean(axis=0)
    stds = table.std(axis=0)
    base = Path(base_path)
    base.parent.mkdir(parents=True, exist_ok=True)

    csv_path = base.with_suffix(".csv")
    header = "rank,mean,std," + ",".join(f"trial_{i + 1}" for i in range(len(curves)))
    lines = [header]
    for r in range(table.shape[1]):
        cells = [str(r + 1), _fmt(means[r]), _fmt(stds[r])]
        cells += [_fmt(table[t, r]) for t in range(table.shape[0])]
        lines.append(",".join(cells))
    csv_path.write_text("\n".join(lines) + "\n")

    summary = {
        "rank_means": {
            str(r): means[min(r, len(means)) - 1] for r in REPORT_RANKS
        },
        "n_trials": len(curves),
        "n_probes": [c.n_probes for c in curves],
        "gallery_size": int(table.shape[1]),
    }
    summary.update(meta or {})
    json_path = base.with_suffix(".json")
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return csv_path, json_path
