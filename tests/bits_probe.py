"""Print two sha256 digests per model configuration over a short seeded
training run.

For each variant and each rnn_output mode, train 4 SGD steps on 16x8 crops
of a small synthetic set, then featurise every sequence with
extract_feature. The first digest covers the trained parameters, in
model.TENSOR_NAMES order, and every feature vector. The second covers the
CSV reports of two in-process `astpn eval` runs from a checkpoint of those
parameters: two half-split trials, and a cross-dataset pass over half the
identities. They run on a larger and harder synthetic set (EVAL_IDS
identities, one frame of each sequence showing its identity), so that the
curves differ between configurations. Two trees that print the same lines
train, extract and evaluate the same bits. Bytes depend on the BLAS thread
count: compare runs at the same OPENBLAS_NUM_THREADS.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tests/bits_probe.py

pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import tempfile
from pathlib import Path

from astpn import cli
from astpn.datapipe import (
    by_identity,
    load_dataset,
    pair_stream,
    preprocess_dataset,
    synth_dataset,
)
from astpn.evalkit import eval_sequence
from astpn.layers import RNN_OUTPUTS
from astpn.model import (
    TENSOR_NAMES,
    VARIANTS,
    LossConfig,
    extract_feature,
    init_params,
    save_checkpoint,
    sgd_step,
    total_loss,
)
from astpn.tensor import Graph

STEPS = 4
EVAL_IDS = 16


def digest(samples, index, cfg: LossConfig, root: Path) -> tuple[str, str]:
    """sha256 of the parameters after STEPS steps and of every feature; and
    sha256 of the eval reports that a checkpoint of them writes under root."""
    ids = sorted(index)
    params = init_params(3, len(ids), cfg, feature_dim=32, frame_hw=(16, 8))
    for pair in itertools.islice(pair_stream(index, ids, k=8, seed=3), STEPS):
        graph = Graph()
        graph.backward(total_loss(graph, pair, params, cfg))
        sgd_step(params, lr=1e-2)
    h = hashlib.sha256()
    for name in TENSOR_NAMES:
        h.update(params[name].data.tobytes())
    for sample in samples:
        h.update(extract_feature(eval_sequence(sample, None), params, cfg).tobytes())

    checkpoint = root / f"{cfg.variant}_{cfg.rnn_output}.astp"
    save_checkpoint(params, checkpoint)
    reports = hashlib.sha256()
    for name, flags in (("trials", ["--data-root", str(root / "eval"), "--trials", "2",
                                    "--split-mode", "half"]),
                        ("cross", ["--cross-dataset", str(root / "eval"), "--fraction", "0.5"])):
        out = root / f"{cfg.variant}_{cfg.rnn_output}_{name}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["eval", "--out", str(out), "--checkpoint", str(checkpoint),
                             "--feature-dim", "32", "--variant", cfg.variant,
                             "--rnn-output", cfg.rnn_output, "--seed", "3", *flags])
        if code != cli.EXIT_OK:
            raise SystemExit(f"eval {name} exited {code}")
        reports.update(next(out.glob("cmc_*.csv")).read_bytes())
    return h.hexdigest(), reports.hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        synth_dataset(root / "data", n_ids=4, n_cams=2, frames_per_seq=8, size=(24, 16),
                      seed=3)
        samples = preprocess_dataset(load_dataset(root / "data"))
        synth_dataset(root / "eval", n_ids=EVAL_IDS, n_cams=2, frames_per_seq=8,
                      size=(24, 16), seed=4, signal_frames=1)
        index = by_identity(samples)
        for variant, rnn_output in itertools.product(VARIANTS, RNN_OUTPUTS):
            cfg = LossConfig(variant=variant, rnn_output=rnn_output)
            print(variant, rnn_output, *digest(samples, index, cfg, root))


if __name__ == "__main__":
    main()
