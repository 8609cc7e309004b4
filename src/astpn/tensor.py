"""Dense float64 tensors with taped reverse-mode differentiation.

Every operation is a method on Graph, which records the calls it executes so
that Graph.backward can replay them once, in reverse order, and accumulate
gradients. Image ops take (T,C,H,W) frame stacks only. All arithmetic is
64-bit and deterministic: identical inputs give bitwise identical outputs
and gradients.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from pathlib import Path

import numpy as np

__all__ = ["Tensor", "Graph", "ShapeError"]


def _pin_heap() -> None:
    """Keep glibc from handing freed buffers back to the kernel.

    A step frees and reallocates the same few buffers of up to tens of MiB.
    By default glibc may serve them by mmap or trim them off the heap, and
    each reuse then faults its pages in afresh. Buffers under 32 MiB (glibc's
    own ceiling for its dynamic threshold) come from the heap, and the heap
    is trimmed only past 1 GiB of free top: a train step at 128x64 crops
    frees about 93 MiB at its end, and would otherwise fault it all back in
    on the next step. glibc keeps one arena: a buffer a worker thread of
    Graph.branches frees then goes back to the pinned main heap, where the
    next step's buffers are carved from resident pages, not to an arena of
    that thread, which dies with the step. Other C libraries are left alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold, m_arena_max = -1, -3, -8  # glibc's <malloc.h>
    mallopt(m_mmap_threshold, 32 * 2**20)
    mallopt(m_trim_threshold, 2**30)
    mallopt(m_arena_max, 1)


_pin_heap()


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy loaded, or
    None where numpy's BLAS is some other library or has no such control."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS at one thread for the block, its previous count restored
    after; BLAS is left alone where it has no control."""
    control = _openblas_threads()
    if control is None:
        yield
        return
    get, put = control
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _cpu_runs(n: int) -> list[slice]:
    """range(n) cut into contiguous runs in order, one per CPU this process
    may run on (its affinity mask, where the platform has one), never more
    runs than items and never none: zero items make one empty run."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    runs = max(1, min(cpus, n))
    cuts = [n * k // runs for k in range(runs + 1)]
    return [slice(t0, t1) for t0, t1 in zip(cuts, cuts[1:])]


def _at_once(calls: list) -> list:
    """Results of the calls in order, run at the same time: the first on the
    calling thread, each other on a thread of its own, OpenBLAS at one thread
    each. Every thread is joined before this returns or raises; an exception
    is raised after all calls end, the first call's first."""
    results, errors = [None] * len(calls), [None] * len(calls)

    def run(i):
        try:
            results[i] = calls[i]()
        except BaseException as exc:  # re-raised on the calling thread
            errors[i] = exc

    workers = []
    with _one_blas_thread():
        try:
            for i in range(1, len(calls)):
                worker = threading.Thread(target=run, args=(i,))
                worker.start()
                workers.append(worker)
            run(0)
        finally:
            for worker in workers:
                worker.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an operation."""


class Tensor:
    """A dense float64 array plus an optional gradient buffer of the same shape.

    requires_grad=False marks a constant, such as a stack of input frames:
    Graph.backward never writes its grad, and ops whose vjp would spend real
    work on its gradient (conv2d) skip that work.
    """

    __slots__ = ("data", "grad", "requires_grad", "__weakref__")

    def __init__(self, data, requires_grad: bool = True):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def clear_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        self.grad = np.array(g, dtype=np.float64) if self.grad is None else self.grad + g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class _Node:
    """One taped op: its output, its inputs and its vjp. out is a tuple for a
    node with several outputs (Graph.branches, Graph.attend), whose vjp takes
    a list with one gradient, or None, per output."""

    __slots__ = ("out", "inputs", "vjp")

    def __init__(self, out, inputs, vjp):
        self.out = out
        self.inputs = inputs
        self.vjp = vjp


# Bytes one conv2d block may hold in its lowered rows and accumulators on a
# recorded graph; a single frame forms a block even when it exceeds this.
# A block's GEMMs then read its lowering from cache: on a 2-core x86 host
# with 2 MiB of L2 per core, blocks of 1-4 MiB ran each layer alike and 8 MiB
# no faster. An unrecorded forward takes one frame per block (see
# _frame_blocks).
CONV_BLOCK_BYTES = 2 * 2**20


def _lower(a: np.ndarray, k: int, axis: int, buf: np.ndarray) -> np.ndarray:
    """A (T,C,H,W) stack lowered along its height (axis 2) or width (axis 3)
    by windows of k: row (c, j) and column (y, t, x) hold a[t, c, y + j, x]
    or a[t, c, y, x + j]. Columns go image row first, so those of image rows
    y0 on are the 2-D view's columns from y0*T*(row width) on: a strided
    matrix that BLAS reads without a copy. Written into the front of the
    flat buffer buf."""
    win = np.lib.stride_tricks.sliding_window_view(a, k, axis=axis)
    win = win.transpose(1, 4, 2, 0, 3)  # (C, k, rows, T, row width)
    cols = buf[:win.size].reshape(win.shape)
    cols[...] = win
    return cols.reshape(a.shape[1] * k, -1)


def _row_sum(slabs: np.ndarray, cols: np.ndarray, row: int, n: int,
             acc_buf: np.ndarray, part_buf: np.ndarray) -> np.ndarray:
    """The sum over kernel rows i of slabs[i] times n columns of cols from
    column i*row on: with cols lowered along one axis by _lower, a
    correlation along the other. One GEMM per kernel row; the (rows of a
    slab x n) sum is written into the front of acc_buf, and each product
    but the first into the front of part_buf before it is added."""
    m = slabs.shape[1]
    acc, part = acc_buf[:m * n].reshape(m, n), part_buf[:m * n].reshape(m, n)
    np.matmul(slabs[0], cols[:, :n], out=acc)
    for i in range(1, len(slabs)):
        np.matmul(slabs[i], cols[:, i * row:i * row + n], out=part)
        acc += part
    return acc


def _tanh_grad(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(1 - s^2) g as a new array: the gradient of tanh's input, given its
    output s and that output's gradient g."""
    d = s * s
    np.subtract(1.0, d, out=d)
    d *= g
    return d


def _frame_blocks(t_n: int, frame_bytes: int, even: bool = False,
                  recorded: bool = True) -> list[tuple[int, int]]:
    """Split T frames into runs of whole frames of at most CONV_BLOCK_BYTES;
    with even, into as few runs, of lengths as near equal as whole frames
    allow (16 frames of 12 per block are then 8 + 8, not 12 + 4).

    A forward no tape records (recorded=False) takes one frame per run, so
    one frame's products round the same whichever frames a caller passes
    with it (OpenBLAS rounds a product's columns by where its register tiles
    end).
    """
    step = max(1, CONV_BLOCK_BYTES // frame_bytes) if recorded else 1
    if even:
        step = -(-t_n // -(-t_n // step))
    return [(t0, min(t0 + step, t_n)) for t0 in range(0, t_n, step)]


def _cell_bounds(extent: int, cells: int) -> list[tuple[int, int]]:
    # cell i covers [floor(i*extent/cells), ceil((i+1)*extent/cells)); for
    # extent >= 2*cells it is exactly the union of cells 2i and 2i+1 of 2*cells
    return [
        (i * extent // cells, ((i + 1) * extent + cells - 1) // cells)
        for i in range(cells)
    ]


def check_bins(bins) -> None:
    """Raise ShapeError unless bins is one or more pyramid grids (rows, cols)
    of at least 1x1, finest first, each exactly half the one before in both
    axes, as in (8,8), (4,4), (2,2), (1,1): every coarser level is then a
    2x2 max of the level before it."""
    if not bins or any(min(b) < 1 for b in bins):
        raise ShapeError(f"spp bins must be one or more grids of at least 1x1, got {bins}")
    for (rows, cols), (n_rows, n_cols) in zip(bins, bins[1:]):
        if (2 * n_rows, 2 * n_cols) != (rows, cols):
            raise ShapeError(f"spp bins must halve from level to level, got "
                             f"{(n_rows, n_cols)} after {(rows, cols)}")


def _window_taps(h: int, w: int, window: tuple[int, int]) -> list[tuple]:
    """The cells (i, j) of the tiling windows of an (..., h, w) array,
    stride equal to the window, each as the index of one strided view (a
    tap), row-major; rows and columns past the last whole window are
    dropped."""
    wh, ww = window
    ho, wo = h // wh, w // ww
    return [(..., slice(i, ho * wh, wh), slice(j, wo * ww, ww))
            for i in range(wh) for j in range(ww)]


def _tap_map(shape: tuple[int, ...], window: tuple[int, int]) -> np.ndarray:
    """An unfilled tap map for _window_max, of the smallest dtype that holds
    the tap count."""
    return np.empty(shape, np.min_scalar_type(window[0] * window[1]))


def _window_max(xb: np.ndarray, window: tuple[int, int], first=None) -> np.ndarray:
    """Max over the tiling windows of a (T,C,H,W) array, stride equal to the
    window: np.maximum over the taps (_window_taps). With first, a _tap_map
    of the max's shape, also write there the index of the first tap that
    holds each window's max (the sum of the chained masks "no tap up to this
    one holds it"), or the tap count where the max is nan."""
    taps = _window_taps(*xb.shape[2:], window)
    best = xb[taps[0]].copy()
    for tap in taps[1:]:
        np.maximum(best, xb[tap], out=best)
    if first is not None:
        held = np.not_equal(xb[taps[0]], best)
        first[...] = held.view(np.uint8)
        differs = np.empty_like(held)
        for tap in taps[1:]:
            held &= np.not_equal(xb[tap], best, out=differs)
            first += held.view(np.uint8)
    return best


def _scatter_taps(g: np.ndarray, first: np.ndarray, shape, window) -> np.ndarray:
    """g, a gradient of _window_max, taken back onto its input of the given
    shape: each tap's view of a zeroed array takes g where the tap map first
    names that tap, and 0 g elsewhere (all taps of a nan max)."""
    dx = np.zeros(shape)
    for k, tap in enumerate(_window_taps(*shape[2:], window)):
        np.multiply(first == k, g, out=dx[tap])
    return dx


class Graph:
    """Tape of executed operations.

    A Graph and the tensors flowing through it form one forward pass. Calling
    backward(root) replays the tape once in reverse execution order and adds
    d(root)/d(leaf) into the grad buffer of every leaf tensor reachable from
    the root. Each node leaves the tape as its vjp runs, so the buffers it
    saved are freed as soon as they are used; a replayed tape is empty and a
    second backward raises. Construct with record=False to run the same
    operations without keeping a tape (useful for feature extraction, where
    no gradients are needed).
    """

    def __init__(self, record: bool = True):
        self.record = record
        self._tape: list[_Node] = []

    def __len__(self) -> int:
        return len(self._tape)

    def _push(self, out: Tensor, inputs: tuple, vjp) -> Tensor:
        if self.record:
            self._tape.append(_Node(out, inputs, vjp))
        return out

    def backward(self, root: Tensor) -> None:
        """Accumulate gradients of a scalar root, starting from its own,
        _seed(root), into every reachable leaf, consuming the tape.

        A tensor with requires_grad=False receives nothing: its grad stays as
        it was, and no gradient flows back through it.
        """
        start = self._seed(root)
        if not self._tape:
            raise RuntimeError("backward needs a recorded tape; a tape is replayed once")
        pending: dict[int, tuple[Tensor, np.ndarray]] = {id(root): (root, start)}
        tape = self._tape
        while tape:
            node = tape.pop()
            if type(node.out) is tuple:  # several outputs: a gradient or None for each
                g_out = [pending.pop(id(out), (None, None))[1] for out in node.out]
                if all(g is None for g in g_out):
                    continue
            else:
                entry = pending.pop(id(node.out), None)
                if entry is None:
                    continue
                g_out = entry[1]
            for t, g in zip(node.inputs, node.vjp(g_out)):
                if g is None or not t.requires_grad:
                    continue
                key = id(t)
                if key in pending:
                    pending[key] = (t, pending[key][1] + g)
                else:
                    pending[key] = (t, g)
        # whatever was never popped belongs to leaves (tensors no op produced)
        self._deposit(pending)

    def _seed(self, root: Tensor) -> np.ndarray:
        if root.data.shape != ():
            raise ShapeError(f"backward needs a scalar root, got shape {root.shape}")
        return np.ones((), dtype=np.float64)

    def _deposit(self, leaf_grads: dict) -> None:
        for t, g in leaf_grads.values():
            t.accumulate_grad(g)

    # ---- concurrency ----

    def branches(self, fn, args: list) -> list[Tensor]:
        """fn(graph, arg) for every arg at the same time, as independent
        branches of this graph; their outputs in args order.

        The first arg runs on the calling thread and each other on a thread
        of its own, OpenBLAS at one thread each (see _at_once); an exception
        is raised after every branch has ended. On a graph that records
        nothing, every branch runs on this graph itself, and its output is
        returned as it is. On a recording graph, each branch records on a
        sub-tape of its own, and the graph records one node whose vjp
        replays the sub-tapes at the same time, each through Graph.backward
        from its output, starting from that output's gradient. A sub-tape
        keeps its leaf gradients; the vjp adds them last branch first, the
        order in which one tape holding the branches in sequence would
        reach them, and returns them as gradients of the leaves the branches
        read. fn must not write to tensors the branches share.
        """
        subs = [_Branch() if self.record else self for _ in args]
        outs = _at_once([functools.partial(fn, sub, arg) for sub, arg in zip(subs, args)])
        if not self.record:
            return outs
        leaves = {}
        for sub in subs:
            made = {id(node.out) for node in sub._tape}
            for node in sub._tape:
                for t in node.inputs:
                    if t.requires_grad and id(t) not in made:
                        leaves.setdefault(id(t), t)
        inputs = tuple(leaves.values())

        def vjp(gs):
            calls = []
            for sub, out, g in zip(subs, outs, gs):
                if g is not None:
                    sub.start = g
                    calls.append(functools.partial(sub.backward, out))
            _at_once(calls)
            grads = []
            for t in inputs:
                parts = [sub.leaf_grads[id(t)][1] for sub in reversed(subs)
                         if id(t) in sub.leaf_grads]
                grads.append(functools.reduce(np.add, parts) if parts else None)
            return grads

        self._tape.append(_Node(tuple(outs), inputs, vjp))
        return outs

    # ---- linear algebra ----

    def matvec(self, a: Tensor, x: Tensor) -> Tensor:
        if a.data.ndim != 2 or x.data.ndim != 1:
            raise ShapeError(f"matvec needs a matrix and a vector, got {a.shape} and {x.shape}")
        if a.shape[1] != x.shape[0]:
            raise ShapeError(f"matvec: inner extents differ, {a.shape} vs {x.shape}")
        ad, xd = a.data, x.data
        out = Tensor(ad @ xd)

        def vjp(g):
            return np.outer(g, xd), ad.T @ g

        return self._push(out, (a, x), vjp)

    def rnn(self, reps: Tensor, u_in: Tensor, w_rec: Tensor, post_tanh: bool = False) -> Tensor:
        """The (T, N) rows o_t = U_in r_t + W_rec s_{t-1}, s_t = tanh(o_t),
        s_0 = 0, for the rows r_t of reps, or with post_tanh the kept states
        s_t: one GEMM for every U_in r_t, one matvec per step. The vjp takes
        g_t to (1 - s_t*s_t) g_t with post_tanh, runs back through time on the
        states, do_t = g_t + (1 - s_t*s_t) * (W_rec^T do_{t+1}), then one GEMM per input.
        """
        if reps.data.ndim != 2 or reps.shape[0] < 1:
            raise ShapeError(f"rnn needs a (T, L) input with T >= 1, got {reps.shape}")
        if u_in.data.ndim != 2 or u_in.shape[1] != reps.shape[1]:
            raise ShapeError(f"rnn: u_in {u_in.shape} does not match rows of {reps.shape}")
        if w_rec.shape != (u_in.shape[0],) * 2:
            raise ShapeError(f"rnn: w_rec {w_rec.shape} does not match u_in {u_in.shape}")
        rd, ud, wd = reps.data, u_in.data, w_rec.data
        o = rd @ ud.T
        s = np.empty_like(o)
        np.tanh(o[0], out=s[0])
        for t in range(1, len(o)):
            o[t] += wd @ s[t - 1]
            np.tanh(o[t], out=s[t])
        out = Tensor(s if post_tanh else o)

        def vjp(g):
            do = _tanh_grad(s, g) if post_tanh else np.array(g)  # g may be shared
            for t in range(len(do) - 2, -1, -1):
                do[t] += _tanh_grad(s[t], wd.T @ do[t + 1])
            return do @ ud, do.T @ rd, do[1:].T @ s[:-1]

        return self._push(out, (reps, u_in, w_rec), vjp)

    def attend(self, p: Tensor, g: Tensor, u: Tensor) -> tuple[Tensor, Tensor]:
        """Two-way attentive pooling of probe rows p (Tp, N) and gallery rows
        g (Tg, M) under a bilinear u (N, M), as one node with two outputs.

        A = tanh(p u g^T) scores every pair of frames. The probe weights a_p
        are a softmax over A's row maxima, the gallery weights a_g one over
        its column maxima, and the outputs are (p^T a_p, g^T a_g). A tied max
        takes its first position. The vjp counts an output that got no
        gradient as getting zeros, and gives a constant u no gradient.
        """
        pd, gd, ud = p.data, g.data, u.data
        if not (pd.ndim == gd.ndim == 2 and ud.shape == (pd.shape[1], gd.shape[1])
                and len(pd) and len(gd)):
            raise ShapeError(f"attend needs (Tp, N) and (Tg, M) rows with Tp, Tg >= 1 and "
                             f"an (N, M) u, got {p.shape}, {g.shape} and {u.shape}")

        def softmax(x):
            z = np.exp(x - x.max())
            return z / z.sum()

        pu = pd @ ud
        a = np.tanh(pu @ gd.T)
        rows, cols = np.arange(len(pd)), np.arange(len(gd))
        at_p, at_g = a.argmax(axis=1), a.argmax(axis=0)
        w_p, w_g = softmax(a[rows, at_p]), softmax(a[at_g, cols])
        outs = (Tensor(pd.T @ w_p), Tensor(gd.T @ w_g))

        def vjp(gs):
            d_p, d_g = (np.zeros(x.shape[1]) if d is None else d for x, d in zip((pd, gd), gs))
            e_p, e_g = pd @ d_p, gd @ d_g  # the weights' gradients
            # each max passes its softmax gradient to its first position
            da_g = np.zeros(a.shape)
            da_g[at_g, cols] = w_g * (e_g - np.dot(e_g, w_g))
            da_p = np.zeros(a.shape)
            da_p[rows, at_p] = w_p * (e_p - np.dot(e_p, w_p))
            ds = _tanh_grad(a, da_g + da_p)
            dpu = ds @ gd
            return (np.outer(w_p, d_p) + dpu @ ud.T, np.outer(w_g, d_g) + ds.T @ pu,
                    pd.T @ dpu if u.requires_grad else None)

        return self._push(outs, (p, g, u), vjp)

    # ---- convolution and pooling ----

    def conv2d(self, x: Tensor, kernel: Tensor, bias: Tensor, pool: bool = False) -> Tensor:
        """One conv layer of the network as one node: the full
        cross-correlation of a (T,Cin,H,W) stack of at least one frame with
        kernel, at stride 1, then with pool a 2x2 max pool (stride 2), then
        tanh.

        kernel is (Cout,Cin,kh,kw) and bias is (Cout,). Full: the frames are
        zero-padded by kh-1 rows and kw-1 columns on each side, so the
        correlation is (H + kh - 1) by (W + kw - 1); the pool halves each
        extent (floor). The frames are taken in blocks of at most
        CONV_BLOCK_BYTES of lowered rows and accumulators on a recorded
        graph, and one frame at a time on an unrecorded one, so the output
        does not depend on how a caller cuts the frames into calls (see
        _frame_blocks and model.extract_feature). Each block is copied into
        one zero-padded stack and lowered along its width only (see _lower);
        its correlation is the sum of kh GEMMs, kernel row i times the
        lowered rows from row i on.

        Each block is pooled and tanh'd in its accumulator's layout while it
        is still in cache, so no full-resolution map outlives its block; a
        recorded graph also writes the block's tap map (_window_max). The
        pool runs before the tanh: np.tanh never decreases, so the values are
        those of pooling after it, and tanh runs on a quarter of the cells. A
        gradient can land on another cell of a window only where two
        different pre-activations have the same tanh.

        The vjp keeps x, the output s and the tap map: no lowered buffer and
        no full-resolution map. It takes g to (1 - s^2) g and, with pool,
        zeroes that at a nan max and scatters it (_scatter_taps). dx is the
        valid correlation of the result with the flipped kernel: each block
        lowers it along its width and sums kh GEMMs, as the forward does.
        dkernel is one GEMM per block, that same lowering times x lowered
        along its height, whether or not x takes a gradient.
        """
        if x.data.ndim != 4 or x.shape[0] == 0:
            raise ShapeError(f"conv2d needs a (T,C,H,W) input of at least one frame, "
                             f"got shape {x.shape}")
        if kernel.data.ndim != 4:
            raise ShapeError(f"conv2d kernel must be 4-d, got {kernel.shape}")
        if bias.data.ndim != 1 or bias.shape[0] != kernel.shape[0]:
            raise ShapeError(f"conv2d bias shape {bias.shape} does not match kernel {kernel.shape}")
        t_n, cin, h, w = x.shape
        cout, kcin, kh, kw = kernel.shape
        if kcin != cin:
            raise ShapeError(f"conv2d: input has {cin} channels but kernel expects {kcin}")
        hp, wp = h + 2 * (kh - 1), w + 2 * (kw - 1)
        ho, wo = hp - kh + 1, wp - kw + 1
        if pool and min(ho, wo) < 2:
            raise ShapeError(f"conv2d: a 2x2 pool needs a map of at least 2x2, got {ho}x{wo}")

        kd = kernel.data
        # a forward block holds x's width lowering, hp rows of it, and two
        # accumulators; one zero-ringed stack and one buffer of each kind,
        # sized for the first (largest) block, serve every block
        blocks = _frame_blocks(t_n, (cin * kw * hp + 2 * cout * ho) * wo * 8,
                               recorded=self.record)
        n_max = blocks[0][1]
        xp = np.zeros((n_max, cin, hp, wp))
        cols_buf = np.empty(cin * kw * hp * n_max * wo)
        acc_buf, part_buf = np.empty(cout * ho * n_max * wo), np.empty(cout * ho * n_max * wo)
        # row i of the kernel as a (Cout x Cin*kw) slab
        kslabs = kd.transpose(2, 0, 1, 3).reshape(kh, cout, cin * kw)
        out_d = np.empty((t_n, cout) + ((ho // 2, wo // 2) if pool else (ho, wo)))
        first = _tap_map(out_d.shape, (2, 2)) if pool and self.record else None
        for t0, t1 in blocks:
            xb = xp[:t1 - t0]
            xb[:, :, kh - 1:kh - 1 + h, kw - 1:kw - 1 + w] = x.data[t0:t1]
            cols = _lower(xb, kw, 3, cols_buf)
            row = (t1 - t0) * wo
            acc = _row_sum(kslabs, cols, row, ho * row, acc_buf, part_buf)
            acc += bias.data[:, None]
            y = acc.reshape(cout, ho, t1 - t0, wo).transpose(0, 2, 1, 3)  # (Cout, T, ho, wo)
            if pool:
                y = _window_max(y, (2, 2),
                                None if first is None else first[t0:t1].transpose(1, 0, 2, 3))
            np.tanh(y, out=y)
            out_d[t0:t1] = y.transpose(1, 0, 2, 3)
        out = Tensor(out_d)

        def vjp(g):
            g = _tanh_grad(out_d, g)
            if pool:
                g[first == 4] = 0.0  # a nan max passes nothing
                g = _scatter_taps(g, first, (t_n, cout, ho, wo), (2, 2))
            dbias = g.reshape(t_n, cout, ho * wo).sum(axis=(0, 2))
            # g's width lowering has row (co, j) and column (r, t, x) holding
            # g[t, co, r, x+j]. dx sums, over kernel rows i, row i of the
            # flipped kernel (Cin x Cout*kw) times the lowering's columns of
            # rows y+i. dkernel is the lowering times x lowered along its
            # height, x padded by kh-1 rows: row (ci, i) and column (r, t, x)
            # then hold the x that kernel entry (i, kw-1-j) met at g[t, co, r, x+j].
            # a block counts dx's two accumulators whether or not x takes a
            # gradient, so dkernel's blocks, and its bits, do not depend on it
            blocks = _frame_blocks(t_n, ((cout * kw + cin * kh) * ho + 2 * cin * h) * w * 8,
                                   even=True)
            n_max = blocks[0][1]
            gbuf = np.empty(cout * kw * ho * n_max * w)
            xbuf = np.empty(cin * kh * ho * n_max * w)
            xh = np.zeros((n_max, cin, hp, w))
            dk = np.zeros((cout * kw, cin * kh))
            dx = None
            if x.requires_grad:
                kslabs = kd[:, :, ::-1, ::-1].transpose(2, 1, 0, 3).reshape(kh, cin, cout * kw)
                dx = np.empty((t_n, cin, h, w))
                acc_buf, part_buf = np.empty(cin * h * n_max * w), np.empty(cin * h * n_max * w)
            for t0, t1 in blocks:
                gcols = _lower(g[t0:t1], kw, 3, gbuf)
                xb = xh[:t1 - t0]
                xb[:, :, kh - 1:kh - 1 + h] = x.data[t0:t1]
                dk += gcols @ _lower(xb, kh, 2, xbuf).T
                if dx is not None:
                    row = (t1 - t0) * w
                    acc = _row_sum(kslabs, gcols, row, h * row, acc_buf, part_buf)
                    dx[t0:t1] = acc.reshape(cin, h, t1 - t0, w).transpose(2, 0, 1, 3)
            # dk is (co, j, ci, i) with j flipped: reorder into the kernel
            dkernel = dk.reshape(cout, kw, cin, kh).transpose(0, 2, 3, 1)[:, :, :, ::-1]
            return dx, dkernel, dbias

        return self._push(out, (x, kernel, bias), vjp)

    def maxpool2d(self, x: Tensor, window: tuple[int, int]) -> Tensor:
        """Max over the tiling windows of a (T,C,H,W) stack, stride equal to
        the window; rows and columns past the last whole window are dropped.
        A recorded graph keeps the tap map (_window_max), and the vjp sends
        each window's gradient to the first cell in row-major scan that holds
        its max (_scatter_taps). The conv layers pool inside conv2d; this
        serves atpn_only's 2x2 head (model.frame_reps) and max_pool's max
        over time (model.pool_pair).
        """
        wh, ww = window
        if min(wh, ww) < 1:
            raise ShapeError(f"maxpool2d needs a positive window, got {window}")
        if x.data.ndim != 4:
            raise ShapeError(f"maxpool2d needs a (T,C,H,W) input, got shape {x.shape}")
        t_n, c, h, w = x.shape
        if wh > h or ww > w:
            raise ShapeError(f"maxpool2d window {window} larger than input {h}x{w}")
        first = _tap_map((t_n, c, h // wh, w // ww), window) if self.record else None
        out = Tensor(_window_max(x.data, window, first))

        def vjp(g):
            return (_scatter_taps(g, first, (t_n, c, h, w), window),)

        return self._push(out, (x,), vjp)

    def region_maxpool(self, x: Tensor, bins) -> Tensor:
        """Spatial pyramid max pooling of a (T,C,H,W) map over halving grids
        (rows, cols), finest first (check_bins), as one node. A grid cuts the
        height into rows bands and the width into cols (_cell_bounds). The
        output is (T, C * sum(rows*cols)): levels in bin order, each
        channel-major with its cells row-major.

        Only the finest level reads the map, in one gather through a
        (size, R) table of flat positions, each cell's column listing its
        positions row-major, padded with its last one; ties go to the first.
        On a map no smaller than the finest grid the cells nest, so each
        coarser level is the 2x2 _window_max of the level before, and a
        recorded graph keeps each one's tap map. The vjp walks from the
        coarsest level down, adding each level's slice of g to what the
        level above scatters back through its tap map (_scatter_taps), then
        scatters onto the map in one bincount over the finest level's
        first-max positions.
        """
        if x.data.ndim != 4:
            raise ShapeError(f"region_maxpool needs a (T,C,H,W) input, got shape {x.shape}")
        check_bins(bins)
        xb = x.data
        t_n, c, h, w = xb.shape
        rows, cols = bins[0]
        if h < rows or w < cols:
            raise ShapeError(f"spp bin {(rows, cols)} needs a map of at least {rows}x{cols}, "
                             f"got {h}x{w}")
        r0, r1, c0, c1 = np.array([(r0, r1, c0, c1) for r0, r1 in _cell_bounds(h, rows)
                                   for c0, c1 in _cell_bounds(w, cols)]).T
        widths = c1 - c0
        areas = (r1 - r0) * widths
        size = int(areas.max())
        k = np.minimum(np.arange(size)[:, None], areas - 1)  # (size, R)
        table = (r0 + k // widths) * w + c0 + k % widths
        block = xb.reshape(t_n, c, h * w)[:, :, table]  # (T, C, size, R)
        vals = block.max(axis=2)
        levels, firsts = [vals.reshape(t_n, c, rows, cols)], []
        for shape in bins[1:]:
            firsts.append(_tap_map((t_n, c, *shape), (2, 2)) if self.record else None)
            levels.append(_window_max(levels[-1], (2, 2), firsts[-1]))
        out = Tensor(np.concatenate([level.reshape(t_n, -1) for level in levels], axis=1))
        if not self.record:
            return out  # no vjp reads the first-max positions
        # the first cell holding the max; a nan max matches no cell and takes cell 0
        first = (block == vals[:, :, None]).argmax(axis=2)
        # flat index of each cell's first max in the whole (T,C,H,W) input
        pos = table[first, np.arange(rows * cols)] + np.arange(t_n * c).reshape(t_n, c, 1) * (h * w)
        starts = np.cumsum([0] + [level[0].size for level in levels])

        def vjp(g):
            grad = g[:, starts[-2]:].reshape(levels[-1].shape)
            for i in reversed(range(len(firsts))):
                grad = _scatter_taps(grad, firsts[i], levels[i].shape, (2, 2))
                grad += g[:, starts[i]:starts[i + 1]].reshape(levels[i].shape)
            # one scatter; overlapping cells may share a position, so add
            dx = np.bincount(pos.ravel(), weights=grad.ravel(), minlength=xb.size)
            return (dx.reshape(t_n, c, h, w),)

        return self._push(out, (x,), vjp)

    # ---- elementwise ----

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ShapeError(f"add: shapes differ, {a.shape} vs {b.shape}")
        out = Tensor(a.data + b.data)

        def vjp(g):
            return g, g

        return self._push(out, (a, b), vjp)

    # ---- shape plumbing ----

    def reshape(self, x: Tensor, shape) -> Tensor:
        old = x.data.shape
        out = Tensor(x.data.reshape(shape))

        def vjp(g):
            return (g.reshape(old),)

        return self._push(out, (x,), vjp)

    # ---- losses ----

    def hinge(self, a: Tensor, b: Tensor, same: bool, margin: float) -> Tensor:
        """The contrastive hinge on the squared distance d = |a - b|^2: d
        itself for a matching pair (same), max(0, margin - d) otherwise. The
        gradient at the kink d == margin is taken as 0, and margin, a
        constant, gets none.
        """
        if a.shape != b.shape:
            raise ShapeError(f"hinge: shapes differ, {a.shape} vs {b.shape}")
        diff = a.data - b.data
        dist = np.asarray((diff * diff).sum())
        slack = np.float64(margin) - dist
        out = Tensor(dist if same else np.maximum(slack, 0.0))

        def vjp(g):
            if not same:
                g = -(g * (slack > 0.0))
            d = g * diff
            d += d  # each factor of diff * diff passes g * diff
            return d, -d

        return self._push(out, (a, b), vjp)

    def cross_entropy(self, logits: Tensor, label: int) -> Tensor:
        """Negative log softmax probability of the labelled class."""
        if logits.data.ndim != 1 or logits.size < 1:
            raise ShapeError(f"cross_entropy needs a non-empty vector, got {logits.shape}")
        if not 0 <= label < logits.size:
            raise ValueError(f"label {label} out of range for {logits.size} classes")
        xd = logits.data
        m = xd.max()
        lse = m + np.log(np.exp(xd - m).sum())
        out = Tensor(np.asarray(lse - xd[label]))
        probs = np.exp(xd - lse)

        def vjp(g):
            d = probs.copy()
            d[label] -= 1.0
            return (g * d,)

        return self._push(out, (logits,), vjp)


class _Branch(Graph):
    """The sub-graph of one Graph.branches branch. Its backward starts from
    start, the gradient Graph.branches hands the branch's output, and keeps
    the leaf gradients in leaf_grads instead of adding them to the leaves,
    which the other branches share."""

    def __init__(self):
        super().__init__()
        self.start: np.ndarray | None = None
        self.leaf_grads: dict[int, tuple[Tensor, np.ndarray]] = {}

    def _seed(self, root: Tensor) -> np.ndarray:
        return self.start

    def _deposit(self, leaf_grads: dict) -> None:
        self.leaf_grads = leaf_grads
