"""Tests of the benchmark itself, on scaled-down copies of its workloads.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads

TINY = {
    "train-small": lambda: workloads.TrainWorkload(
        workloads.TrainSpec(n_ids=3, frames=4, size=(24, 16), warmup_steps=1, k=4)),
    "eval-cli": lambda: workloads.EvalCliWorkload(
        workloads.EvalSpec(n_ids=4, frames=3, size=(24, 16), trials=2)),
}

TRAIN_SPANS = {
    "tensor.conv2d", "tensor.maxpool2d", "tensor.region_maxpool", "tensor.matvec",
    "tensor.backward", "tensor.conv2d.vjp", "tensor.matvec.vjp", "layers.conv_stack",
    "layers.spp", "layers.rnn", "layers.attention", "model.forward_pair", "model.loss",
    "model.sgd_step", "datapipe.pair_draw", "datapipe.load_dataset", "datapipe.preprocess",
    "datapipe.read_frame", "datapipe.yuv", "datapipe.flow",
}
EVAL_SPANS = {
    "tensor.conv2d", "tensor.maxpool2d", "tensor.region_maxpool", "tensor.matvec",
    "layers.conv_stack", "layers.spp", "layers.rnn", "layers.attention",
    "model.forward_pair", "model.extract_feature", "model.checkpoint_load",
    "evalkit.compute_cmc", "evalkit.ranking", "evalkit.report", "datapipe.load_dataset",
    "datapipe.preprocess", "datapipe.read_frame", "datapipe.yuv", "datapipe.flow",
}
TRAIN_ONLY = {"tensor.backward", "model.loss", "model.sgd_step", "datapipe.pair_draw"}


def run_tiny(name, seed, tmp_path, trace=False):
    """With seconds=0 the loop stops after one op, or two when traced."""
    return workloads.run(name, seed, seconds=0, trace=trace, work=tmp_path / f"w{seed}{trace}")


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    for name, factory in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, factory)


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_reruns_match_bitwise(name, tmp_path):
    first, first_report = run_tiny(name, 3, tmp_path)
    second, second_report = run_tiny(name, 3, tmp_path / "again")
    other, other_report = run_tiny(name, 4, tmp_path / "other")
    assert first["correct"] and second["correct"] and other["correct"]
    assert first_report["digests"] == second_report["digests"]
    assert first_report["digests"]["warmup"] != other_report["digests"]["warmup"]


@pytest.mark.parametrize("name, expected", [("train-small", TRAIN_SPANS),
                                            ("eval-cli", EVAL_SPANS)])
def test_every_named_span_fires(name, expected, tmp_path):
    result, report = run_tiny(name, 1, tmp_path, trace=True)
    assert result["correct"]
    spans = report["tracing"]["spans"]["spans"]
    fired = {span for span, figures in spans.items() if figures["calls"] > 0}
    assert expected <= fired, sorted(expected - fired)
    if name == "eval-cli":
        assert not TRAIN_ONLY & fired
        assert result["metrics"]["model.branch_useful_ratio"]["value"] == 0.5
    else:
        assert result["metrics"]["tensor.tape_nodes"]["value"] > 0


def test_tracer_rebinds_names_imported_elsewhere_and_restores_them():
    import astpn.cli
    import astpn.evalkit
    import astpn.layers
    import astpn.model

    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _ in tracing.FUNCTION_SPANS}
    lookups = [(astpn.model, "rnn_forward"), (astpn.model, "spp_forward"),
               (astpn.evalkit, "extract_feature"), (astpn.cli, "compute_cmc"),
               (astpn.cli, "load_dataset"), (astpn.cli, "load_checkpoint")]
    before = [getattr(owner, attr) for owner, attr in lookups]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), old in zip(lookups, before):
            assert getattr(owner, attr) is not old, f"{owner.__name__}.{attr} not rebound"
        for module in [m for n, m in sys.modules.items() if n.startswith("astpn")]:
            for value in vars(module).values():
                assert not any(value is fn for fn in originals.values())
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr in lookups] == before


def test_tail_needs_ten_samples_beyond_it():
    assert workloads.tail(list(range(30))) == {"percentile": 66, "value": 19, "n": 30}
    assert workloads.tail(list(range(19)))["value"] is None


def test_exits_nonzero_without_sources(tmp_path):
    bench = Path(__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, f"{bench.name}/run.py", "--workload", "eval-cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
