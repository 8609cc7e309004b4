"""Property fuzz of the files the CLI reads: a checkpoint, a PPM frame and a
--config file, each cut short or with a few bytes overwritten, either loads
or raises its documented error (CheckpointError or DatasetError, both exit
2), never any other exception."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from astpn.cli import RunConfig, build_parser, resolve_config
from astpn.datapipe import DatasetError, read_frame, write_ppm
from astpn.model import (
    TENSOR_NAMES,
    AstpnParams,
    CheckpointError,
    LossConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
)


# bytes that steer a reader: digits, separators, and the extremes of a byte
# (two 0xff bytes atop a float64 make a nan)
STEERING = st.sampled_from(b"0123456789 \n#\x00\x01\x7f\x80\xff")


@st.composite
def damaged(draw, blob: bytes, spans=None):
    """blob cut short, or with one to four runs of one to eight bytes each
    overwritten with one value; with spans, a list of (start, stop) ranges,
    each run starts in one."""
    if draw(st.booleans()):
        return blob[:draw(st.integers(0, len(blob) - 1))]
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        start, stop = draw(st.sampled_from(spans)) if spans else (0, len(blob))
        at = draw(st.integers(start, stop - 1))
        run = min(draw(st.integers(1, 8)), len(out) - at)
        out[at:at + run] = bytes([draw(st.one_of(STEERING, st.integers(0, 255)))]) * run
    return bytes(out)


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A directory holding the files the damaged ones start from:
    base.astp, base.ppm and base.json."""
    root = tmp_path_factory.mktemp("fuzz")
    save_checkpoint(init_params(0, 2, LossConfig(spp_bins=((1, 1),)), feature_dim=2),
                    root / "base.astp")
    write_ppm(root / "base.ppm", np.arange(36, dtype=np.uint8).reshape(4, 3, 3))
    config = {"data_root": "data", "k": 4, "epochs": 2, "lr": 0.01, "margin": 3.0,
              "variant": "atpn_only", "use_identity_loss": False, "spp_bins": [[2, 2], [1, 1]]}
    (root / "base.json").write_text(json.dumps(config))
    return root


def damage(data, root, suffix, spans=None):
    """Write a damaged copy of base.<suffix> under root; its path."""
    path = root / f"damaged.{suffix}"
    path.write_bytes(data.draw(damaged((root / f"base.{suffix}").read_bytes(), spans)))
    return path


def record_headers(blob: bytes) -> list[tuple[int, int]]:
    """The (start, stop) byte span of a checkpoint's file header and of each
    record's header: name length, name, rank and extents."""
    spans, pos = [(0, 12)], 12
    for _ in TENSOR_NAMES:
        name_len = int.from_bytes(blob[pos:pos + 4], "little")
        rank = int.from_bytes(blob[pos + 4 + name_len:pos + 8 + name_len], "little")
        stop = pos + 8 + name_len + 8 * rank
        shape = np.frombuffer(blob[stop - 8 * rank:stop], dtype="<u8")
        spans.append((pos, stop))
        pos = stop + 8 * math.prod(map(int, shape))
    assert pos == len(blob)
    return spans


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_a_damaged_checkpoint_loads_or_is_a_checkpoint_error(root, data):
    # edits fall in the headers, where a byte steers the reader, or anywhere
    headers = record_headers((root / "base.astp").read_bytes())
    path = damage(data, root, "astp", data.draw(st.sampled_from([headers, None])))
    try:
        params = load_checkpoint(path)
    except CheckpointError:
        return
    assert isinstance(params, AstpnParams) and list(params) == list(TENSOR_NAMES)
    assert all(np.isfinite(t.data).all() for t in params.values())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_a_damaged_ppm_frame_decodes_or_is_a_dataset_error(root, data):
    # edits fall in the header (P6, width, height, maxval), or anywhere
    header = [(0, len(b"P6\n3 4\n255\n"))]
    path = damage(data, root, "ppm", data.draw(st.sampled_from([header, None])))
    try:
        frame = read_frame(path)
    except DatasetError:
        return
    assert frame.dtype == np.uint8 and frame.ndim == 3 and frame.shape[2] == 3 and frame.size


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_a_damaged_config_file_resolves_or_is_a_dataset_error(root, data):
    args = build_parser().parse_args(["train", "--config", str(damage(data, root, "json"))])
    try:
        cfg = resolve_config(args)
    except DatasetError:
        return
    assert isinstance(cfg, RunConfig)
