"""The untraced path of the benchmark's workloads (perfbench/workloads.py).

`perfbench/run.py --trace 0` calls astpn through the names its workloads
use: preprocess_dataset(load_dataset(...)), init_params(..., frame_hw=),
named_tensors(), total_loss, save_checkpoint, cli.main(["eval", ...]) and
evalkit.extract_feature, among others. A refactor that breaks one of them
breaks the benchmark without failing any other test. This file runs
scaled-down copies of the train and eval-cli workloads, at the sizes of
perfbench/test_perfbench.py's TINY; it reads the benchmark's files and
changes nothing in them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(monkeypatch, name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def workloads(monkeypatch):
    load(monkeypatch, "tracing", PERFBENCH / "tracing.py")  # workloads imports it by name
    return load(monkeypatch, "perfbench_workloads", PERFBENCH / "workloads.py")


def tiny(workloads, name):
    if name == "train":
        return workloads.TrainWorkload(
            workloads.TrainSpec(n_ids=3, frames=4, size=(24, 16), warmup_steps=1, k=4))
    return workloads.EvalCliWorkload(
        workloads.EvalSpec(n_ids=4, frames=3, size=(24, 16), trials=2))


@pytest.mark.parametrize("name, digest_keys", [
    ("train", {"steps", "checkpoint_sha256", "loss_trace_sha256"}),
    ("eval-cli", {"feature_rows", "feature_rows_sha256"}),
])
def test_generate_setup_op_and_check_run_untraced(workloads, tmp_path, name, digest_keys):
    workload = tiny(workloads, name)
    workload.generate(tmp_path, 3)
    workload.setup()
    assert workload.check(workload.op()) >= 1
    digest = workload.warmup()  # one more op and check, then the digest
    assert set(digest) == digest_keys
    assert all(value for value in digest.values())
