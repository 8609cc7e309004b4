"""Cumulative matching characteristic evaluation and report emission."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datapipe import (CROP_MARGIN, DatasetError, SequenceSample, SequenceView, make_dir,
                       pick_cameras, write_atomic)
from .model import AstpnParams, LossConfig, extract_feature
from .tensor import ShapeError

REPORT_RANKS = (1, 5, 10, 20)


@dataclass
class CmcCurve:
    """values[r-1] is the fraction of probes whose true match ranked <= r."""

    values: np.ndarray
    n_probes: int

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


def cmc_from_features(probe_feats, probe_ids, gallery_feats, gallery_ids) -> CmcCurve:
    """CMC curve from precomputed features; matching is identity-level.

    Every row of one (P, G) squared-distance matrix is ranked as rank_gallery
    ranks it (stable sort, ties to the lower gallery index), and the first
    gallery entry of the probe's identity gives its match rank. The matrix
    is filled one probe at a time, so no (P, G, N) temporary is made.
    """
    probe_feats = np.asarray(probe_feats, dtype=np.float64)
    gallery_feats = np.asarray(gallery_feats, dtype=np.float64)
    if len(probe_ids) != len(probe_feats) or len(gallery_ids) != len(gallery_feats):
        raise ValueError("feature/identity counts disagree")
    if len(probe_feats) == 0 or len(gallery_feats) == 0:
        raise ValueError("need at least one probe and one gallery entry")
    if probe_feats.ndim != 2 or gallery_feats.shape[1:] != probe_feats.shape[1:]:
        raise ShapeError(f"cmc_from_features needs (P,N) probes and (G,N) gallery, got "
                         f"{probe_feats.shape} and {gallery_feats.shape}")
    dists = np.stack([((gallery_feats - p) ** 2).sum(axis=1) for p in probe_feats])
    order = np.argsort(dists, axis=1, kind="stable")
    hits = np.asarray(gallery_ids)[order] == np.asarray(probe_ids)[:, None]
    found = hits.any(axis=1)
    if not found.all():
        raise DatasetError(f"probe identity {probe_ids[np.argmin(found)]} has no gallery entry")
    counts = np.bincount(hits.argmax(axis=1), minlength=len(gallery_ids))
    values = counts.cumsum() / len(probe_feats)
    return CmcCurve(values=values, n_probes=len(probe_feats))


def eval_sequence(sample: SequenceSample, eval_k: int | None) -> SequenceView:
    """The view of a sequence that eval and extract featurise: its first eval_k
    frames (all of them when None), centre-cropped, never mirrored. Nothing
    is built here: extract_feature builds the view's channels run by run,
    in the workers that featurise them, and drops them after."""
    centre = CROP_MARGIN // 2
    return SequenceView(sample, np.arange(sample.n_frames)[:eval_k], centre, centre, False)


def compute_cmc(index: dict[str, dict[str, SequenceSample]], test_ids, params: AstpnParams,
                cfg: LossConfig, eval_k: int | None = None, seed: int = 0,
                features: dict | None = None) -> CmcCurve:
    """Evaluate one probe-vs-gallery pass over the given identities: in
    `astpn eval`, one trial's test identities, or the seeded share of another
    set's identities that --cross-dataset scores.

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
                eval_sequence(index[pid][cam], eval_k), params, cfg)
        return features[pid, cam]

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    probe_feats, gallery_feats = [], []
    for pid in ids:
        if pid not in index:
            raise DatasetError(f"identity {pid} not present in the dataset")
        cam_p, cam_g = pick_cameras(index[pid], pid, rng)
        probe_feats.append(feature(pid, cam_p))
        gallery_feats.append(feature(pid, cam_g))
    return cmc_from_features(probe_feats, ids, gallery_feats, ids)


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
    mean = CmcCurve(table.mean(axis=0), sum(c.n_probes for c in curves))
    stds = table.std(axis=0)
    base = Path(base_path)
    make_dir(base.parent)

    csv_path = base.with_suffix(".csv")
    header = "rank,mean,std," + ",".join(f"trial_{i + 1}" for i in range(len(curves)))
    lines = [header]
    for r in range(table.shape[1]):
        cells = [str(r + 1), _fmt(mean.values[r]), _fmt(stds[r])]
        cells += [_fmt(table[t, r]) for t in range(table.shape[0])]
        lines.append(",".join(cells))
    write_atomic(csv_path, "\n".join(lines) + "\n")

    summary = {
        "rank_means": {str(r): mean.rank(r) for r in REPORT_RANKS},
        "n_trials": len(curves),
        "n_probes": [c.n_probes for c in curves],
        "gallery_size": int(table.shape[1]),
    }
    summary.update(meta or {})
    json_path = base.with_suffix(".json")
    write_atomic(json_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return csv_path, json_path
