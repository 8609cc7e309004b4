"""Network building blocks: conv stack, spatial pyramid pooling, recurrence,
and the two-way attentive temporal pooling head.

All forwards take an explicit Graph so the same code serves training and
gradient-free extraction. Frame inputs are (T,C,H,W) stacks only: the
per-frame convolutional work of a whole sequence runs through single tape ops.
"""

from __future__ import annotations

import numpy as np

from .tensor import Graph, Tensor

CONV_CHANNELS = (16, 32, 32)
CONV_KERNEL = 5
POOL_WINDOW = (2, 2)
DEFAULT_BINS = ((8, 8), (4, 4), (2, 2), (1, 1))
RNN_OUTPUTS = ("pre_tanh", "post_tanh")


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    """Uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], the classic small-net init."""
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape))


def conv_stack_output_hw(hw: tuple[int, int]) -> tuple[int, int]:
    """Spatial extents after conv+pool, conv+pool, conv: each conv (a full
    correlation) grows an extent by CONV_KERNEL - 1, each pool halves it."""
    grow = CONV_KERNEL - 1
    out = []
    for e in hw:
        for _ in range(2):
            e = (e + grow) // 2
        out.append(e + grow)
    return tuple(out)


def conv_stack_forward(graph: Graph, frames: Tensor, kernels: list[Tensor],
                       biases: list[Tensor]) -> Tensor:
    """Run a (T,Cin,H,W) stack through the three conv layers, one
    Graph.conv2d node each: a full correlation (zero padding of kernel size
    - 1), a 2x2 max pool (stride 2) in the first two layers only, then tanh.
    """
    h = frames
    for i in range(3):
        h = graph.conv2d(h, kernels[i], biases[i], pool=i < 2)
    return h


def spp_forward(graph: Graph, fmap: Tensor, bins=DEFAULT_BINS) -> Tensor:
    """Spatial pyramid max pooling of a (T,C,H,W) map to one fixed-length
    descriptor per frame, (T, C * sum(rows*cols)): one Graph.region_maxpool
    node. bins are pyramid grids (rows, cols), finest first, and the output
    keeps their order; a grid's first number cuts the map's height, its
    second the width. Graph.region_maxpool raises ShapeError for grids that
    do not halve level by level (check_bins) and for a map smaller than the
    finest grid. A gradient reaches the map position a max over each cell
    would pick, except on exact ties between sub-cells of a coarser cell: it
    then goes to the first sub-cell, in row-major scan, that holds the max.
    """
    return graph.region_maxpool(fmap, bins)


def rnn_forward(graph: Graph, reps: Tensor, u_in: Tensor, w_rec: Tensor,
                output: str = "pre_tanh") -> Tensor:
    """Run per-frame descriptors through the recurrence.

    reps is a (T, L) Tensor. Each step computes o_t = U_in r_t + W_rec s_{t-1}
    with s_t = tanh(o_t) and s_0 = 0, all in one Graph.rnn node. Returns a
    (T, N) matrix whose row t is o_t, or s_t when output="post_tanh".
    """
    if output not in RNN_OUTPUTS:
        raise ValueError(f"unknown rnn output mode {output!r}")
    return graph.rnn(reps, u_in, w_rec, post_tanh=output == "post_tanh")


def attentive_summary(graph: Graph, probe_seq: Tensor, gallery_seq: Tensor,
                      u_att: Tensor) -> tuple[Tensor, Tensor]:
    """Jointly pool both sequences' (T, N) rows with the two-way attentive
    head, Graph.attend; a zero U weighs every frame 1/T."""
    return graph.attend(probe_seq, gallery_seq, u_att)
