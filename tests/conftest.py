"""Shared fixtures: the suite writes, decodes and indexes each synthetic
dataset once per session. The indexed samples hold uint8 frames; the tests
that read their channels build them from those. SeededGraph starts a
backward from given weights."""

import os

import numpy as np
import pytest

from astpn.datapipe import (
    by_identity,
    load_dataset,
    preprocess_dataset,
    synth_dataset,
)
from astpn.tensor import Graph


class SeededGraph(Graph):
    """A recording graph whose backward(root) takes a root of any shape and
    starts from weights, ones where weights is None: it accumulates the
    gradients of sum(weights * root). The weights enter through the hook
    that starts each Graph.branches sub-tape from its output's gradient."""

    def __init__(self, weights=None):
        super().__init__()
        self.weights = weights

    def _seed(self, root):
        if self.weights is None:
            return np.ones(root.shape)
        weights = np.asarray(self.weights, dtype=np.float64)
        assert weights.shape == root.shape, (weights.shape, root.shape)
        return weights


@pytest.fixture(scope="session")
def synth_root(tmp_path_factory):
    """Default synthetic dataset: 8 identities, 2 cameras, 16 frames of 24x16."""
    root = tmp_path_factory.mktemp("data") / "synth8"
    synth_dataset(root, n_ids=8, n_cams=2, frames_per_seq=16, size=(24, 16), seed=0)
    return root


@pytest.fixture(scope="session")
def synth_index(synth_root):
    return by_identity(preprocess_dataset(load_dataset(synth_root)))


@pytest.fixture(scope="session")
def sparse_root(tmp_path_factory):
    """Synthetic dataset where only 2 of 16 frames carry identity signal."""
    root = tmp_path_factory.mktemp("data") / "sparse8"
    synth_dataset(root, n_ids=8, n_cams=2, frames_per_seq=16, size=(16, 12),
                  seed=0, signal_frames=2)
    return root


@pytest.fixture(scope="session")
def sparse_index(sparse_root):
    return by_identity(preprocess_dataset(load_dataset(sparse_root)))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def fake_cpus(monkeypatch):
    """fake_cpus(n) makes the process's affinity mask hold n CPUs."""
    def fake(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    return fake
