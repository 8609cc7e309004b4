"""Finite-difference verification of the taped backward pass.

The check builds a small model and a fixed synthetic positive pair, then
compares the analytic gradient of the full training loss against central
differences for a seeded sample of elements in every parameter tensor. A
positive pair keeps the hinge term quadratic, so the objective is smooth
almost everywhere. It still has kinks (ReLU subgradients, max selections in
pooling and attention), and a step that crosses one makes the difference
quotient wrong though the taped gradient is right: at h = 1e-5 toy seed 505
misses by 2e-4. At h = 1e-6 the check passes on toy seeds 0 and 500-511 with
24 samples per tensor (worst 5.3e-5, on seed 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datapipe import PairBatch, SequenceSample
from .model import LossConfig, init_params, total_loss
from .tensor import Graph

FD_STEP = 1e-6
DEFAULT_TOL = 1e-4
TOY_FRAME_HW = (12, 8)
TOY_STEPS = 3
TOY_IDENTITIES = 2
TOY_FEATURE_DIM = 16


@dataclass
class GradcheckReport:
    worst: dict[str, float]  # tensor name -> max relative error seen
    checked: dict[str, int]  # tensor name -> elements compared
    tol: float

    @property
    def passed(self) -> bool:
        return all(err < self.tol for err in self.worst.values())

    @property
    def worst_overall(self) -> float:
        return max(self.worst.values())


def central_difference(loss_fn, tensor, index, h: float = FD_STEP) -> float:
    """d loss / d tensor[index] by symmetric perturbation."""
    original = tensor.data[index]
    tensor.data[index] = original + h
    hi = loss_fn()
    tensor.data[index] = original - h
    lo = loss_fn()
    tensor.data[index] = original
    return (hi - lo) / (2.0 * h)


def build_toy_problem(seed: int = 0, variant: str = "astpn"):
    """A tiny deterministic pair and matching parameters."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    h, w = TOY_FRAME_HW

    def seq(pid, cam):
        frames = rng.uniform(-1.0, 1.0, size=(TOY_STEPS, 5, h, w))
        return SequenceSample(pid, cam, frames)

    pair = PairBatch(seq("a", "cam0"), seq("a", "cam1"), True, 0, 0)
    cfg = LossConfig(variant=variant)
    params = init_params(seed, TOY_IDENTITIES, cfg,
                         feature_dim=TOY_FEATURE_DIM, frame_hw=TOY_FRAME_HW)
    return pair, params, cfg


def toy_tensor_names() -> list[str]:
    """The names of the toy model's tensors, the values corrupt may take."""
    return list(build_toy_problem()[1].named_tensors())


def run_gradcheck(seed: int = 0, samples_per_tensor: int = 24,
                  tol: float = DEFAULT_TOL, variant: str = "astpn",
                  corrupt: str | None = None) -> GradcheckReport:
    """Compare taped gradients with central differences on the toy problem.

    corrupt names a tensor whose analytic gradient gets scaled before the
    comparison; it exists so tests can confirm the check actually fails when
    a backward rule is wrong.
    """
    pair, params, cfg = build_toy_problem(seed, variant)

    def loss_value() -> float:
        return total_loss(Graph(record=False), pair, params, cfg).item()

    graph = Graph()
    loss = total_loss(graph, pair, params, cfg)
    graph.backward(loss)
    named = params.named_tensors()
    # a tensor the loss never reaches (u_att under plain pooling) has no grad
    analytic = {name: np.zeros(t.shape) if t.grad is None else t.grad
                for name, t in named.items()}
    if corrupt is not None:
        if corrupt not in analytic:
            raise ValueError(f"unknown tensor {corrupt!r}")
        analytic[corrupt] = analytic[corrupt] * 1.5 + 1e-3

    pick_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2,)))
    worst: dict[str, float] = {}
    checked: dict[str, int] = {}
    for name, t in named.items():
        n = t.size
        count = min(samples_per_tensor, n)
        flat_choices = pick_rng.choice(n, size=count, replace=False)
        err = 0.0
        for flat in flat_choices:
            index = np.unravel_index(int(flat), t.data.shape)
            fd = central_difference(loss_value, t, index)
            ga = float(analytic[name][index])
            err = max(err, abs(ga - fd) / max(1.0, abs(fd)))
        worst[name] = err
        checked[name] = count
    return GradcheckReport(worst=worst, checked=checked, tol=tol)
