"""Siamese model assembly: shared-weight branch forward, training losses,
plain SGD, and binary checkpoint round trips."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .datapipe import write_atomic
from .layers import (
    CONV_CHANNELS,
    CONV_KERNEL,
    AttentionParams,
    ConvStackParams,
    DEFAULT_BINS,
    POOL_WINDOW,
    RNN_OUTPUTS,
    RnnParams,
    SppConfig,
    attentive_summary,
    conv_stack_forward,
    conv_stack_output_hw,
    init_attention,
    init_conv_stack,
    init_rnn,
    rnn_forward,
    spp_forward,
    uniform_init,
)
from .tensor import Graph, ShapeError, Tensor

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
        if not self.margin >= 0:
            raise ValueError(f"margin must be >= 0, got {self.margin}")
        for name, allowed in (("variant", VARIANTS), ("rnn_output", RNN_OUTPUTS)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {', '.join(allowed)}, "
                                 f"got {getattr(self, name)!r}")
        if not isinstance(self.use_identity_loss, bool):
            raise ValueError(f"use_identity_loss must be a bool, got {self.use_identity_loss!r}")
        SppConfig(self.spp_bins)  # raises ShapeError unless the bins halve level by level


@dataclass
class AstpnParams:
    """Every trainable tensor of the network, including the identity
    classifier head used only as a training signal."""

    conv: ConvStackParams
    rnn: RnnParams
    att: AttentionParams
    classifier_w: Tensor
    classifier_b: Tensor

    @property
    def n_identities(self) -> int:
        return self.classifier_w.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.rnn.feature_dim

    def named_tensors(self) -> dict[str, Tensor]:
        named = {}
        for i, (k, b) in enumerate(zip(self.conv.kernels, self.conv.biases), start=1):
            named[f"conv{i}.kernel"] = k
            named[f"conv{i}.bias"] = b
        named["rnn.u_in"] = self.rnn.u_in
        named["rnn.w_rec"] = self.rnn.w_rec
        named["att.u_att"] = self.att.u_att
        named["classifier.weight"] = self.classifier_w
        named["classifier.bias"] = self.classifier_b
        return named


def rnn_input_dim(cfg: LossConfig, frame_hw: tuple[int, int] | None = None) -> int:
    """Length of the per-frame descriptor feeding the recurrence."""
    if cfg.variant == "atpn_only":
        if frame_hw is None:
            raise ValueError("variant atpn_only needs the frame size to fix the rnn input dim")
        h, w = conv_stack_output_hw(frame_hw)
        return CONV_CHANNELS[-1] * (h // 2) * (w // 2)
    return SppConfig(cfg.spp_bins).output_length(CONV_CHANNELS[-1])


def init_params(seed: int, n_identities: int, cfg: LossConfig,
                feature_dim: int = 128, in_channels: int = 5,
                frame_hw: tuple[int, int] | None = None) -> AstpnParams:
    """Seeded uniform initialization; one child RNG stream per tensor group."""
    if n_identities < 1:
        raise ValueError(f"need at least one identity, got {n_identities}")
    streams = np.random.SeedSequence(seed).spawn(4)
    conv = init_conv_stack(np.random.default_rng(streams[0]), in_channels)
    input_dim = rnn_input_dim(cfg, frame_hw)
    rnn = init_rnn(np.random.default_rng(streams[1]), input_dim, feature_dim)
    att = init_attention(np.random.default_rng(streams[2]), feature_dim)
    cls_rng = np.random.default_rng(streams[3])
    classifier_w = uniform_init(cls_rng, (n_identities, feature_dim), feature_dim)
    classifier_b = uniform_init(cls_rng, (n_identities,), feature_dim)
    return AstpnParams(conv, rnn, att, classifier_w, classifier_b)


def _frame_stack(seq) -> np.ndarray:
    frames = np.asarray(seq.frames, dtype=np.float64)
    if frames.ndim != 4:
        raise ShapeError(f"a sequence needs a (T,C,H,W) frame stack, got shape {frames.shape}")
    if frames.shape[0] == 0:
        raise ValueError("a sequence needs at least one frame")
    return frames


def branch_rows(graph: Graph, frames: np.ndarray, params: AstpnParams,
                cfg: LossConfig) -> Tensor:
    """One Siamese branch: conv stack, spatial head, recurrence. Returns (T, N).

    The branch never sees the other sequence of a pair, so one sequence's
    rows can be pooled against any partner. The frames are a constant of the
    tape (requires_grad=False), so backward computes no gradient for them.
    """
    x = Tensor(frames, requires_grad=False)
    fmap = conv_stack_forward(graph, x, params.conv)
    if cfg.variant == "atpn_only":
        pooled = graph.maxpool2d(fmap, POOL_WINDOW)
        reps = graph.reshape(pooled, (pooled.shape[0], -1))
    else:
        reps = spp_forward(graph, fmap, SppConfig(cfg.spp_bins))
    return rnn_forward(graph, reps, params.rnn, cfg.rnn_output)


def pool_pair(graph: Graph, p_rows: Tensor, g_rows: Tensor, params: AstpnParams,
              cfg: LossConfig) -> tuple[Tensor, Tensor]:
    """Pool two branches' (T, N) rows over time into their feature vectors.

    astpn and atpn_only pool attentively, each sequence's weights depending
    on the other. aspn_only and mean_pool run the same head with a constant
    zero U, which weighs every frame 1/T. max_pool takes the elementwise max
    over time: a maxpool2d of the (1, 1, T, N) view with window (T, 1).
    """
    if cfg.variant == "max_pool":
        def max_over_time(rows):
            t_n, n = rows.shape
            return graph.reshape(graph.maxpool2d(graph.reshape(rows, (1, 1, t_n, n)),
                                                 (t_n, 1)), (n,))

        return max_over_time(p_rows), max_over_time(g_rows)
    att = params.att
    if cfg.variant in ("aspn_only", "mean_pool"):
        att = AttentionParams(Tensor(np.zeros(att.u_att.shape), requires_grad=False))
    return attentive_summary(graph, p_rows, g_rows, att)


def forward_pair(graph: Graph, probe, gallery, params: AstpnParams,
                 cfg: LossConfig) -> tuple[Tensor, Tensor]:
    """Map a probe/gallery sequence pair to their pooled feature vectors.

    probe and gallery are SequenceSample objects (or anything with a
    (T,C,H,W) .frames array): each runs through branch_rows, the two at the
    same time (Graph.branches), then pool_pair pools the two together.
    """
    p_rows, g_rows = graph.branches(
        lambda branch, frames: branch_rows(branch, frames, params, cfg),
        [_frame_stack(probe), _frame_stack(gallery)])
    return pool_pair(graph, p_rows, g_rows, params, cfg)


def hinge_loss(graph: Graph, v_p: Tensor, v_g: Tensor, same_person: bool,
               margin: float) -> Tensor:
    """Squared distance for matching pairs, hinged margin slack otherwise."""
    if v_p.shape != v_g.shape:
        raise ShapeError(f"feature shapes differ, {v_p.shape} vs {v_g.shape}")
    diff = graph.sub(v_p, v_g)
    dist = graph.sum_all(graph.mul(diff, diff))
    if same_person:
        return dist
    return graph.relu(graph.sub(Tensor(np.float64(margin)), dist))


def identity_loss(graph: Graph, v: Tensor, label: int, params: AstpnParams) -> Tensor:
    """Cross entropy of the shared linear classifier on a pooled feature."""
    logits = graph.add(graph.matvec(params.classifier_w, v), params.classifier_b)
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
    self-pair."""
    graph = Graph(record=False)
    rows = branch_rows(graph, _frame_stack(seq), params, cfg)
    v_p, _ = pool_pair(graph, rows, rows, params, cfg)
    return v_p.data


# ---- checkpoint format ----
#
# magic "ASTP", u32 version, u32 identity count, then one record per tensor:
# u32 name length, UTF-8 name, u32 rank, rank u64 extents, float64 payload.
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

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def load_checkpoint(path) -> AstpnParams:
    """Read a checkpoint back into a parameter bundle, byte for byte."""
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
        name = r.take(r.u32()).decode("utf-8")
        rank = r.u32()
        shape = tuple(r.u64() for _ in range(rank))
        count = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(r.take(count * 8), dtype="<f8").reshape(shape)
        arrays[name] = np.array(data)  # own the memory

    expected = [
        "conv1.kernel", "conv1.bias", "conv2.kernel", "conv2.bias",
        "conv3.kernel", "conv3.bias", "rnn.u_in", "rnn.w_rec", "att.u_att",
        "classifier.weight", "classifier.bias",
    ]
    for name in expected:
        if name not in arrays:
            raise CheckpointError(f"{path}: missing tensor {name}")
    for name in arrays:
        if name not in expected:
            raise CheckpointError(f"{path}: unknown tensor {name}")
    _check_shape_chain(arrays, n_identities, path)
    conv = ConvStackParams(
        kernels=[Tensor(arrays[f"conv{i}.kernel"]) for i in (1, 2, 3)],
        biases=[Tensor(arrays[f"conv{i}.bias"]) for i in (1, 2, 3)],
    )
    rnn = RnnParams(u_in=Tensor(arrays["rnn.u_in"]), w_rec=Tensor(arrays["rnn.w_rec"]))
    att = AttentionParams(u_att=Tensor(arrays["att.u_att"]))
    return AstpnParams(conv, rnn, att,
                       Tensor(arrays["classifier.weight"]),
                       Tensor(arrays["classifier.bias"]))


def _check_shape_chain(arrays: dict[str, np.ndarray], n_identities: int, path) -> None:
    """Each conv layer takes the previous layer's output channels, and the
    recurrence, attention and classifier agree on one feature dim."""

    def extent(name, axis):
        shape = arrays[name].shape
        if len(shape) <= axis:
            raise CheckpointError(f"{path}: {name} has shape {shape}, too few axes")
        return shape[axis]

    if extent("classifier.weight", 0) != n_identities:
        raise CheckpointError(
            f"{path}: header says {n_identities} identities but classifier.weight "
            f"has {arrays['classifier.weight'].shape[0]} rows"
        )
    expected = {}
    cin = extent("conv1.kernel", 1)
    for i in (1, 2, 3):
        cout = extent(f"conv{i}.kernel", 0)
        expected[f"conv{i}.kernel"] = (cout, cin, CONV_KERNEL, CONV_KERNEL)
        expected[f"conv{i}.bias"] = (cout,)
        cin = cout
    n = extent("rnn.u_in", 0)
    expected["rnn.u_in"] = (n, extent("rnn.u_in", 1))
    expected["rnn.w_rec"] = expected["att.u_att"] = (n, n)
    expected["classifier.weight"] = (n_identities, n)
    expected["classifier.bias"] = (n_identities,)
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise CheckpointError(
                f"{path}: {name} has shape {arrays[name].shape}, expected {shape}")
