"""Siamese model assembly: shared-weight branch forward, training losses,
plain SGD, and binary checkpoint round trips."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .datapipe import FRAME_CHANNELS, write_atomic
from .layers import (
    CONV_CHANNELS,
    CONV_KERNEL,
    DEFAULT_BINS,
    RNN_OUTPUTS,
    attentive_summary,
    conv_stack_forward,
    conv_stack_output_hw,
    rnn_forward,
    spp_forward,
    uniform_init,
)
from .tensor import Graph, Tensor, _one_blas_thread, _cpu_runs, check_bins

VARIANTS = ("astpn", "atpn_only", "aspn_only", "mean_pool", "max_pool")

CHECKPOINT_MAGIC = b"ASTP"
CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    """Raised when a checkpoint file cannot be read back faithfully."""


@dataclass(frozen=True)
class LossConfig:
    """Knobs shared by the forward pass and the training objective."""

    margin: float = 3.0
    variant: str = "astpn"
    use_identity_loss: bool = True
    rnn_output: str = "pre_tanh"
    spp_bins: tuple[tuple[int, int], ...] = DEFAULT_BINS

    def __post_init__(self):
        if not 0 <= self.margin < math.inf:
            raise ValueError(f"margin must be >= 0 and finite, got {self.margin}")
        for name, allowed in (("variant", VARIANTS), ("rnn_output", RNN_OUTPUTS)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {', '.join(allowed)}, "
                                 f"got {getattr(self, name)!r}")
        if not isinstance(self.use_identity_loss, bool):
            raise ValueError(f"use_identity_loss must be a bool, got {self.use_identity_loss!r}")
        check_bins(self.spp_bins)


class AstpnParams(dict):
    """Every trainable tensor of the network, keyed by its name in
    TENSOR_NAMES order, including the identity classifier head used only as
    a training signal. Both Siamese branches read the same tensors."""

    @property
    def n_identities(self) -> int:
        return self["classifier.weight"].shape[0]

    @property
    def feature_dim(self) -> int:
        return self["rnn.u_in"].shape[0]

    def named_tensors(self) -> dict[str, Tensor]:
        return self


def rnn_input_dim(cfg: LossConfig, frame_hw: tuple[int, int] | None = None) -> int:
    """Length of the per-frame descriptor feeding the recurrence."""
    if cfg.variant == "atpn_only":
        if frame_hw is None:
            raise ValueError("variant atpn_only needs the frame size to fix the rnn input dim")
        h, w = conv_stack_output_hw(frame_hw)
        return CONV_CHANNELS[-1] * (h // 2) * (w // 2)
    return CONV_CHANNELS[-1] * sum(rows * cols for rows, cols in cfg.spp_bins)


def param_shapes(n_identities: int, feature_dim: int,
                 input_dim: int) -> dict[str, tuple[int, ...]]:
    """The shape of every trainable tensor, keyed by its name, in the order
    init_params draws each group's tensors and a checkpoint stores its
    records. input_dim is the per-frame descriptor length (rnn_input_dim)."""
    shapes = {}
    cin = FRAME_CHANNELS
    for i, cout in enumerate(CONV_CHANNELS, 1):
        shapes[f"conv{i}.kernel"] = (cout, cin, CONV_KERNEL, CONV_KERNEL)
        shapes[f"conv{i}.bias"] = (cout,)
        cin = cout
    return shapes | {
        "rnn.u_in": (feature_dim, input_dim), "rnn.w_rec": (feature_dim, feature_dim),
        "att.u_att": (feature_dim, feature_dim),
        "classifier.weight": (n_identities, feature_dim), "classifier.bias": (n_identities,),
    }


TENSOR_NAMES = tuple(param_shapes(1, 1, 1))


def init_params(seed: int, n_identities: int, cfg: LossConfig, feature_dim: int = 128,
                frame_hw: tuple[int, int] | None = None) -> AstpnParams:
    """Seeded uniform initialization of the param_shapes tensors, each within
    +-1/sqrt(fan_in). A weight's fan-in is the product of its extents after
    the first; a bias takes the fan-in of the weight before it.

    One child RNG stream per tensor group (conv, rnn, att, classifier)
    draws that group's tensors in TENSOR_NAMES order.
    """
    if n_identities < 1:
        raise ValueError(f"need at least one identity, got {n_identities}")
    streams = dict(zip(("conv", "rnn", "att", "classifier"),
                       map(np.random.default_rng, np.random.SeedSequence(seed).spawn(4))))
    params = AstpnParams()
    for name, shape in param_shapes(n_identities, feature_dim,
                                    rnn_input_dim(cfg, frame_hw)).items():
        if len(shape) > 1:
            fan_in = math.prod(shape[1:])
        group = next(g for g in streams if name.startswith(g))
        params[name] = uniform_init(streams[group], shape, fan_in)
    return params


def frame_reps(graph: Graph, frames: np.ndarray, params: AstpnParams,
               cfg: LossConfig) -> Tensor:
    """Conv stack, then the spatial head (SPP, or the 2x2 pool of
    atpn_only): one (T, L) descriptor row per frame, each row read from its
    own frame alone. The frames are a constant of the tape
    (requires_grad=False), so backward computes no gradient for them.
    """
    x = Tensor(frames, requires_grad=False)
    fmap = conv_stack_forward(graph, x, [params[f"conv{i}.kernel"] for i in (1, 2, 3)],
                              [params[f"conv{i}.bias"] for i in (1, 2, 3)])
    if cfg.variant == "atpn_only":
        pooled = graph.maxpool2d(fmap)
        return graph.reshape(pooled, (pooled.shape[0], -1))
    return spp_forward(graph, fmap, cfg.spp_bins)


def branch_rows(graph: Graph, frames: np.ndarray, params: AstpnParams,
                cfg: LossConfig) -> Tensor:
    """One Siamese branch: frame_reps, then the recurrence. Returns (T, N).

    The branch never sees the other sequence of a pair, so one sequence's
    rows can be pooled against any partner.
    """
    reps = frame_reps(graph, frames, params, cfg)
    return rnn_forward(graph, reps, params["rnn.u_in"], params["rnn.w_rec"], cfg.rnn_output)


def pool_pair(graph: Graph, p_rows: Tensor, g_rows: Tensor, params: AstpnParams,
              cfg: LossConfig) -> tuple[Tensor, Tensor]:
    """Pool two branches' (T, N) rows over time into their feature vectors.

    astpn and atpn_only pool attentively, each sequence's weights depending
    on the other. aspn_only and mean_pool run the same head with a constant
    zero U, which weighs every frame 1/T. max_pool takes the elementwise max
    over time: a region_maxpool of the (1, 1, T, N) view with one level of
    (1, N) cells, one column each. Its gradient goes to the first frame that
    holds each column's max; where that max is nan, to frame 0. (No CLI run
    reaches a nan max: train exits 3 on a non-finite loss before backward.)
    """
    if cfg.variant == "max_pool":
        def max_over_time(rows):
            t_n, n = rows.shape
            return graph.reshape(graph.region_maxpool(graph.reshape(rows, (1, 1, t_n, n)),
                                                      ((1, n),)), (n,))

        return max_over_time(p_rows), max_over_time(g_rows)
    u_att = params["att.u_att"]
    if cfg.variant in ("aspn_only", "mean_pool"):
        u_att = Tensor(np.zeros(u_att.shape), requires_grad=False)
    return attentive_summary(graph, p_rows, g_rows, u_att)


def forward_pair(graph: Graph, probe, gallery, params: AstpnParams,
                 cfg: LossConfig) -> tuple[Tensor, Tensor]:
    """Map a probe/gallery sequence pair to their pooled feature vectors.

    probe and gallery are datapipe.SequenceView objects, or anything else
    whose channels() gives a (T,C,H,W) float stack: each runs through
    branch_rows, the two at the same time (Graph.branches), and each is
    built inside its own branch, on that branch's thread. pool_pair then
    pools the two together.
    """
    p_rows, g_rows = graph.branches(
        lambda branch, seq: branch_rows(branch, seq.channels(), params, cfg),
        [probe, gallery])
    return pool_pair(graph, p_rows, g_rows, params, cfg)


def hinge_loss(graph: Graph, v_p: Tensor, v_g: Tensor, same_person: bool,
               margin: float) -> Tensor:
    """Squared distance for matching pairs, hinged margin slack otherwise:
    one Graph.hinge node."""
    return graph.hinge(v_p, v_g, same_person, margin)


def identity_loss(graph: Graph, v: Tensor, label: int, params: AstpnParams) -> Tensor:
    """Cross entropy of the shared linear classifier on a pooled feature."""
    logits = graph.add(graph.matvec(params["classifier.weight"], v), params["classifier.bias"])
    return graph.cross_entropy(logits, label)


def total_loss(graph: Graph, pair, params: AstpnParams, cfg: LossConfig) -> Tensor:
    """Hinge term plus, when enabled, identity terms for both branches."""
    v_p, v_g = forward_pair(graph, pair.probe, pair.gallery, params, cfg)
    loss = hinge_loss(graph, v_p, v_g, pair.same_person, cfg.margin)
    if cfg.use_identity_loss:
        loss = graph.add(loss, identity_loss(graph, v_p, pair.probe_label, params))
        loss = graph.add(loss, identity_loss(graph, v_g, pair.gallery_label, params))
    return loss


def sgd_step(params: AstpnParams, lr: float) -> None:
    """theta <- theta - lr * grad for every tensor, then clear the grads.

    Tensors the loss never touched (the attention matrix under plain pooling
    variants, the classifier when the identity loss is off) have an exactly
    zero gradient and therefore stay put; their buffers may simply be absent.
    Calling this when no tensor has a gradient at all is an error, since it
    means backward never ran.
    """
    named = params.named_tensors()
    if all(t.grad is None for t in named.values()):
        raise ValueError("no gradients accumulated on any parameter; run backward first")
    for t in named.values():
        if t.grad is not None:
            t.data -= lr * t.grad
            t.clear_grad()


def extract_feature(seq, params: AstpnParams, cfg: LossConfig) -> np.ndarray:
    """Feature vector for one sequence, without taping: its branch rows run
    once and are pooled against themselves, giving the probe vector of the
    self-pair.

    seq is a datapipe.SequenceView, or anything else with n_frames and a
    channels(run) that gives the (len, C, H, W) float stack of the frames in
    run. Its frames are cut into one contiguous run per CPU the process may
    use, never more runs than frames (tensor._cpu_runs; a sequence with none
    is one empty run, which Graph.conv2d refuses), and the runs go through
    frame_reps as the branches of one unrecorded graph (Graph.branches), at
    the same time, each built by the worker that featurises it. Their rows
    are joined in frame order; the recurrence and the pooling then run on
    the calling thread, and no built channels outlive the call. The whole
    call runs OpenBLAS at one thread, so the feature is bitwise the same
    whatever the caller's BLAS thread count and CPU count.
    """
    graph = Graph(record=False)
    with _one_blas_thread():
        parts = graph.branches(
            lambda branch, run: frame_reps(branch, seq.channels(run), params, cfg),
            _cpu_runs(seq.n_frames))
        reps = Tensor(np.concatenate([part.data for part in parts]), requires_grad=False)
        rows = rnn_forward(graph, reps, params["rnn.u_in"], params["rnn.w_rec"], cfg.rnn_output)
        v_p, _ = pool_pair(graph, rows, rows, params, cfg)
    return v_p.data


# ---- checkpoint format ----
#
# magic "ASTP", u32 version, u32 identity count, then one record per tensor
# in TENSOR_NAMES order: u32 name length, UTF-8 name, u32 rank, rank u64
# extents, float64 payload.
# All integers and floats little-endian.


def save_checkpoint(params: AstpnParams, path) -> None:
    """Write params to path atomically: a failed save keeps the old file."""
    buf = bytearray(CHECKPOINT_MAGIC)
    buf += struct.pack("<I", CHECKPOINT_VERSION)
    buf += struct.pack("<I", params.n_identities)
    for name, t in params.named_tensors().items():
        encoded = name.encode("utf-8")
        buf += struct.pack("<I", len(encoded))
        buf += encoded
        buf += struct.pack("<I", t.data.ndim)
        for extent in t.data.shape:
            buf += struct.pack("<Q", extent)
        buf += np.ascontiguousarray(t.data, dtype="<f8").tobytes()
    write_atomic(path, buf)


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_checkpoint(path) -> AstpnParams:
    """Read a checkpoint back into a parameter bundle, byte for byte.

    Every tensor must have the shape param_shapes gives for the stored
    identity count and rnn.u_in's two extents, and hold no nan or inf (no
    finite feature or step could come of it); else CheckpointError."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:  # missing, a directory, unreadable
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc.strerror}") from exc
    r = _Reader(blob, path)
    if r.take(4) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    version = r.u32()
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    n_identities = r.u32()
    arrays: dict[str, np.ndarray] = {}
    while r.pos < len(blob):
        try:
            name = r.take(r.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: a tensor name is not UTF-8") from exc
        if name in arrays:
            raise CheckpointError(f"{path}: tensor {name} is stored twice")
        rank = r.u32()
        shape = struct.unpack(f"<{rank}Q", r.take(8 * rank))
        # no parameter has an empty axis; with every extent at least 1, the
        # exact count that take checks bounds each extent by the file size
        if 0 in shape:
            raise CheckpointError(f"{path}: tensor {name} has an empty axis {shape}")
        data = np.frombuffer(r.take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
        if not np.isfinite(data).all():
            raise CheckpointError(f"{path}: tensor {name} holds a nan or inf")
        arrays[name] = np.array(data)  # own the memory

    for name in TENSOR_NAMES:
        if name not in arrays:
            raise CheckpointError(f"{path}: missing tensor {name}")
    for name in arrays:
        if name not in TENSOR_NAMES:
            raise CheckpointError(f"{path}: unknown tensor {name}")
    u_in = arrays["rnn.u_in"].shape
    if len(u_in) != 2:
        raise CheckpointError(f"{path}: rnn.u_in has shape {u_in}, expected 2 axes")
    for name, shape in param_shapes(n_identities, *u_in).items():
        if arrays[name].shape != shape:
            raise CheckpointError(f"{path}: {name} has shape {arrays[name].shape}, expected "
                                  f"{shape} for {n_identities} identities and rnn.u_in {u_in}")
    return AstpnParams({name: Tensor(arrays[name]) for name in TENSOR_NAMES})
