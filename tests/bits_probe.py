"""Print one sha256 per model configuration over a short seeded training run.

For each variant and each rnn_output mode, train 4 SGD steps on 16x8 crops
of a small synthetic set, then featurise every sequence with
extract_feature. The digest covers the trained parameters, in
model.TENSOR_NAMES order, and every feature vector, so two trees that print
the same lines train and extract the same bits. Bytes depend on the BLAS
thread count: compare runs at the same OPENBLAS_NUM_THREADS.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tests/bits_probe.py

pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import itertools
import tempfile

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
    sgd_step,
    total_loss,
)
from astpn.tensor import Graph

STEPS = 4


def digest(samples, index, cfg: LossConfig) -> str:
    """sha256 of the parameters after STEPS steps and of every feature."""
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
    return h.hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        synth_dataset(root, n_ids=4, n_cams=2, frames_per_seq=8, size=(24, 16), seed=3)
        samples = preprocess_dataset(load_dataset(root))
    index = by_identity(samples)
    for variant, rnn_output in itertools.product(VARIANTS, RNN_OUTPUTS):
        cfg = LossConfig(variant=variant, rnn_output=rnn_output)
        print(variant, rnn_output, digest(samples, index, cfg))


if __name__ == "__main__":
    main()
