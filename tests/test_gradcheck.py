"""Tests for the finite-difference verifier itself: it must pass on the real
backward pass, fail when a gradient is corrupted, and stay fast."""

import numpy as np
import pytest

from astpn.gradcheck import (
    DEFAULT_TOL,
    GradcheckReport,
    build_toy_problem,
    central_difference,
    run_gradcheck,
)
from astpn.model import VARIANTS
from astpn.tensor import Tensor


def test_central_difference_on_quadratic():
    t = Tensor(np.array([3.0, -1.0]))

    def f():
        return float((t.data ** 2).sum())

    assert central_difference(f, t, (0,)) == pytest.approx(6.0, rel=1e-8)
    assert central_difference(f, t, (1,)) == pytest.approx(-2.0, rel=1e-8)
    np.testing.assert_array_equal(t.data, [3.0, -1.0])  # restored afterwards


def test_toy_problem_is_deterministic():
    pair_a, params_a, _ = build_toy_problem(seed=0)
    pair_b, params_b, _ = build_toy_problem(seed=0)
    np.testing.assert_array_equal(pair_a.probe.frames, pair_b.probe.frames)
    for name, t in params_a.named_tensors().items():
        np.testing.assert_array_equal(t.data, params_b.named_tensors()[name].data)
    assert pair_a.same_person


def test_gradcheck_passes_on_every_tensor():
    report = run_gradcheck(seed=0, samples_per_tensor=8)
    expected = {
        "conv1.kernel", "conv1.bias", "conv2.kernel", "conv2.bias",
        "conv3.kernel", "conv3.bias", "rnn.u_in", "rnn.w_rec", "att.u_att",
        "classifier.weight", "classifier.bias",
    }
    assert set(report.worst) == expected
    assert report.passed, report.worst
    assert report.worst_overall < DEFAULT_TOL
    assert all(report.checked[name] >= 1 for name in expected)


@pytest.mark.parametrize("variant", VARIANTS)
def test_gradcheck_passes_for_every_variant(variant):
    # the plain pooling variants leave att.u_att without a gradient, which
    # counts as zero and must match its zero finite differences
    report = run_gradcheck(seed=0, samples_per_tensor=3, variant=variant)
    assert report.passed, report.worst
    assert len(report.worst) == 11


def test_gradcheck_step_does_not_cross_a_kink_on_seed_505():
    # a step of 1e-5 crosses a ReLU/max kink on this seed and fails correct
    # code by 2e-4
    report = run_gradcheck(seed=505, samples_per_tensor=24)
    assert report.passed, report.worst


def test_gradcheck_detects_corrupted_gradient():
    report = run_gradcheck(seed=0, samples_per_tensor=8, corrupt="rnn.u_in")
    assert not report.passed
    assert report.worst["rnn.u_in"] >= DEFAULT_TOL
    ok = {n: e for n, e in report.worst.items() if n != "rnn.u_in"}
    assert all(e < DEFAULT_TOL for e in ok.values())


def test_gradcheck_unknown_corrupt_tensor():
    with pytest.raises(ValueError):
        run_gradcheck(samples_per_tensor=1, corrupt="not.a.tensor")


def test_gradcheck_report_properties():
    report = GradcheckReport(worst={"a": 1e-6, "b": 5e-5}, checked={"a": 3, "b": 3},
                             tol=1e-4)
    assert report.passed
    assert report.worst_overall == 5e-5
    failing = GradcheckReport(worst={"a": 1e-2}, checked={"a": 3}, tol=1e-4)
    assert not failing.passed


def test_gradcheck_is_seed_stable():
    a = run_gradcheck(seed=1, samples_per_tensor=4)
    b = run_gradcheck(seed=1, samples_per_tensor=4)
    assert a.worst == b.worst
    assert a.checked == b.checked
