"""Network building blocks: conv stack, spatial pyramid pooling, recurrence,
and the two-way attentive temporal pooling head.

All forwards take an explicit Graph so the same code serves training and
gradient-free extraction. Frame inputs are (T,C,H,W) stacks only: the
per-frame convolutional work of a whole sequence runs through single tape ops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Graph, ShapeError, Tensor

CONV_CHANNELS = (16, 32, 32)
CONV_KERNEL = 5
CONV_PAD = 4
POOL_WINDOW = (2, 2)
DEFAULT_BINS = ((8, 8), (4, 4), (2, 2), (1, 1))
RNN_OUTPUTS = ("pre_tanh", "post_tanh")


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    """Uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], the classic small-net init."""
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape))


@dataclass
class ConvStackParams:
    """Kernels and biases for the three tanh conv layers.

    Layer shapes are fixed: 16x(Cin)x5x5, 32x16x5x5, 32x32x5x5, all with
    padding 4; 2x2 max pooling (stride 2) follows the first two layers only.
    """

    kernels: list[Tensor]
    biases: list[Tensor]


def init_conv_stack(rng: np.random.Generator, in_channels: int = 5) -> ConvStackParams:
    kernels, biases = [], []
    cin = in_channels
    for cout in CONV_CHANNELS:
        fan_in = cin * CONV_KERNEL * CONV_KERNEL
        kernels.append(uniform_init(rng, (cout, cin, CONV_KERNEL, CONV_KERNEL), fan_in))
        biases.append(uniform_init(rng, (cout,), fan_in))
        cin = cout
    return ConvStackParams(kernels, biases)


def conv_out_extent(extent: int) -> int:
    return extent + 2 * CONV_PAD - CONV_KERNEL + 1


def pool_out_extent(extent: int) -> int:
    return extent // 2


def conv_stack_output_hw(hw: tuple[int, int]) -> tuple[int, int]:
    """Spatial extents after conv+pool, conv+pool, conv."""
    out = []
    for e in hw:
        for _ in range(2):
            e = pool_out_extent(conv_out_extent(e))
        out.append(conv_out_extent(e))
    return tuple(out)


def conv_stack_forward(graph: Graph, frames: Tensor, params: ConvStackParams) -> Tensor:
    """Run a (T,Cin,H,W) stack through conv/tanh(/pool) x3.

    Layers 1 and 2 pool before their tanh. np.tanh never decreases, so the
    values are those of pooling after it, and tanh runs on a quarter of the
    cells. A gradient can land on another cell of a window only where two
    different pre-activations have the same tanh.
    """
    h = frames
    for i in range(3):
        h = graph.conv2d(h, params.kernels[i], params.biases[i], pad=CONV_PAD)
        if i < 2:
            h = graph.maxpool2d(h, POOL_WINDOW)
        h = graph.tanh(h)
    return h


@dataclass(frozen=True)
class SppConfig:
    """Pyramid bin grids (mw, mh), finest first; the output keeps this order.

    Each level must be exactly half the one before in both axes, as in the
    default (8,8), (4,4), (2,2), (1,1): every coarser level is then a 2x2 max
    of the level below it. Other bins raise ShapeError.
    """

    bins: tuple[tuple[int, int], ...] = DEFAULT_BINS

    def __post_init__(self):
        if not self.bins or any(min(b) < 1 for b in self.bins):
            raise ShapeError(f"spp bins must be one or more grids of at least 1x1, "
                             f"got {self.bins}")
        for (mw, mh), (nw, nh) in zip(self.bins, self.bins[1:]):
            if (2 * nw, 2 * nh) != (mw, mh):
                raise ShapeError(f"spp bins must halve from level to level, got {(nw, nh)} "
                                 f"after {(mw, mh)}")

    @property
    def cells_per_channel(self) -> int:
        return sum(mw * mh for mw, mh in self.bins)

    def output_length(self, channels: int) -> int:
        return channels * self.cells_per_channel


def _cell_bounds(extent: int, cells: int) -> list[tuple[int, int]]:
    # cell i covers [floor(i*extent/cells), ceil((i+1)*extent/cells)); for
    # extent >= 2*cells it is exactly the union of cells 2i and 2i+1 of 2*cells
    return [
        (i * extent // cells, ((i + 1) * extent + cells - 1) // cells)
        for i in range(cells)
    ]


def spp_forward(graph: Graph, fmap: Tensor, cfg: SppConfig = SppConfig()) -> Tensor:
    """Spatial pyramid max pooling to a fixed-length descriptor.

    For each bin grid (mw, mh) the map is partitioned into mw x mh cells, each
    cell max-pooled, and the results flattened channel-major, cells
    row-major; levels are concatenated in bin order, finest first. A
    (T,C,H,W) map yields a (T, C * sum(mw*mh)) matrix, one descriptor per
    row.

    Only the finest level reads the map, in one region_maxpool. The cells
    nest (see _cell_bounds), so each coarser level is the 2x2 maxpool2d of
    the level before: the values are those of a max over each cell. A
    gradient reaches the same map position as a per-cell max would, except
    on exact ties between different sub-cells, where it follows maxpool2d's
    first-tap rule.
    """
    if len(fmap.shape) != 4:
        raise ShapeError(f"spp_forward needs a (T,C,H,W) map, got {fmap.shape}")
    t_n, c, h, w = fmap.shape
    mw, mh = cfg.bins[0]
    if h < mw or w < mh:
        raise ShapeError(f"spp bin {(mw, mh)} needs a map of at least {mw}x{mh}, got {h}x{w}")
    regions = [
        (r0, r1, c0, c1)
        for r0, r1 in _cell_bounds(h, mw)
        for c0, c1 in _cell_bounds(w, mh)
    ]
    level = graph.region_maxpool(fmap, regions)
    parts = [level]
    grid = graph.reshape(level, (t_n, c, mw, mh))
    for mw, mh in cfg.bins[1:]:
        grid = graph.maxpool2d(grid, (2, 2))
        parts.append(graph.reshape(grid, (t_n, c * mw * mh)))
    return graph.concat(parts, axis=1)


@dataclass
class RnnParams:
    """Input projection and recurrent weights; the initial state is zero."""

    u_in: Tensor
    w_rec: Tensor

    @property
    def feature_dim(self) -> int:
        return self.u_in.shape[0]

    @property
    def input_dim(self) -> int:
        return self.u_in.shape[1]


def init_rnn(rng: np.random.Generator, input_dim: int, feature_dim: int) -> RnnParams:
    return RnnParams(
        u_in=uniform_init(rng, (feature_dim, input_dim), input_dim),
        w_rec=uniform_init(rng, (feature_dim, feature_dim), feature_dim),
    )


def rnn_forward(graph: Graph, reps: Tensor, params: RnnParams,
                output: str = "pre_tanh") -> Tensor:
    """Run per-frame descriptors through the recurrence.

    reps is a (T, L) Tensor. Each step computes o_t = U_in r_t + W_rec s_{t-1}
    with s_t = tanh(o_t) and s_0 = 0, all in one Graph.rnn node. Returns a
    (T, N) matrix whose row t is o_t, or s_t when output="post_tanh".
    """
    if output not in RNN_OUTPUTS:
        raise ValueError(f"unknown rnn output mode {output!r}")
    if reps.data.ndim != 2:
        raise ShapeError(f"rnn_forward needs a (T, L) input, got {reps.shape}")
    if reps.shape[1] != params.input_dim:
        raise ShapeError(
            f"rnn input rows of length {reps.shape[1]} do not match u_in {params.u_in.shape}"
        )
    rows = graph.rnn(reps, params.u_in, params.w_rec)
    return rows if output == "pre_tanh" else graph.tanh(rows)


@dataclass
class AttentionParams:
    """Shared bilinear matrix scoring probe rows against gallery rows."""

    u_att: Tensor


def init_attention(rng: np.random.Generator, feature_dim: int) -> AttentionParams:
    return AttentionParams(u_att=uniform_init(rng, (feature_dim, feature_dim), feature_dim))


def attentive_summary(graph: Graph, probe_seq: Tensor, gallery_seq: Tensor,
                      params: AttentionParams) -> tuple[Tensor, Tensor]:
    """Jointly pool both sequences' (T, N) rows with the two-way attentive
    head, Graph.attend; a zero U weighs every frame 1/T."""
    n = params.u_att.shape[0]
    if probe_seq.data.ndim != 2 or probe_seq.shape[1] != n:
        raise ShapeError(f"probe rows {probe_seq.shape} do not match u_att {params.u_att.shape}")
    if gallery_seq.data.ndim != 2 or gallery_seq.shape[1] != n:
        raise ShapeError(
            f"gallery rows {gallery_seq.shape} do not match u_att {params.u_att.shape}"
        )
    return graph.attend(probe_seq, gallery_seq, params.u_att)
