"""Dense float64 tensors with taped reverse-mode differentiation.

Every operation is a method on Graph, which records the calls it executes so
that Graph.backward can replay them once, in reverse order, and accumulate
gradients. Image ops take (T,C,H,W) frame stacks only. All arithmetic is 64-bit and deterministic: identical inputs give bitwise
identical outputs and gradients.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
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
    frees more than 128 MiB at its end, and would otherwise fault it all back
    in on the next step. glibc keeps one arena: a buffer a worker thread of
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


# Bytes one conv2d block may hold in its lowered columns (and, for dx, its
# two accumulators); a single frame forms a block even when it exceeds this.
# A block is lowered and multiplied while it is still in cache, and the tape
# keeps only the last block's columns.
CONV_BLOCK_BYTES = 16 * 2**20


def _im2col(xp: np.ndarray, kh: int, kw: int, buf: np.ndarray) -> np.ndarray:
    """Columns of a (T,C,H,W) stack, one per output position of every frame,
    rows in a kernel's (C, kh, kw) order: a correlation is then one GEMM.
    They are written into the front of the flat buffer buf, and the result
    is a 2-D view of it."""
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win.transpose(1, 4, 5, 0, 2, 3)  # (C, kh, kw, T, Ho, Wo)
    cols = buf[:win.size].reshape(win.shape)
    cols[...] = win
    return cols.reshape(xp.shape[1] * kh * kw, -1)


def _width_cols(gp: np.ndarray, kw: int, buf: np.ndarray) -> np.ndarray:
    """A (T,C,Hg,Wg) stack lowered along its width only: row (c, j) and
    column (y, t, x) hold gp[t, c, y, x + j], for x below Wg - kw + 1.
    Columns go image row first, so those of image rows y0 on are the 2-D
    view's columns from y0*T*(Wg-kw+1) on: a strided matrix that BLAS reads
    without a copy. Written into the front of the flat buffer buf."""
    win = np.lib.stride_tricks.sliding_window_view(gp, kw, axis=3)
    win = win.transpose(1, 4, 2, 0, 3)  # (C, kw, Hg, T, Wo)
    cols = buf[:win.size].reshape(win.shape)
    cols[...] = win
    return cols.reshape(gp.shape[1] * kw, -1)


def _pad_or_crop(a: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """a with ph zero rows added at top and bottom (|ph| rows cut when ph is
    negative) and pw columns likewise at left and right; a itself when both
    are 0."""
    cut_h, cut_w = max(-ph, 0), max(-pw, 0)
    a = a[:, :, cut_h:a.shape[2] - cut_h, cut_w:a.shape[3] - cut_w]
    if ph <= 0 and pw <= 0:
        return a
    return np.pad(a, ((0, 0), (0, 0), (max(ph, 0),) * 2, (max(pw, 0),) * 2))


def _frame_blocks(t_n: int, frame_bytes: int, even: bool = False) -> list[tuple[int, int]]:
    """Split T frames into runs of whole frames of at most CONV_BLOCK_BYTES;
    with even, into as few runs, of lengths as near equal as whole frames
    allow (16 frames of 12 per block are then 8 + 8, not 12 + 4)."""
    step = max(1, CONV_BLOCK_BYTES // frame_bytes)
    if even:
        step = -(-t_n // -(-t_n // step))
    return [(t0, min(t0 + step, t_n)) for t0 in range(0, t_n, step)]


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
        """Accumulate gradients of a scalar root into every reachable leaf,
        consuming the tape.

        A tensor with requires_grad=False receives nothing: its grad stays as
        it was, and no gradient flows back through it.
        """
        if root.data.shape != ():
            raise ShapeError(f"backward needs a scalar root, got shape {root.shape}")
        if not self._tape:
            raise RuntimeError("backward needs a recorded tape; a tape is replayed once")
        pending: dict[int, tuple[Tensor, np.ndarray]] = {
            id(root): (root, np.ones((), dtype=np.float64))
        }
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

    def _deposit(self, leaf_grads: dict) -> None:
        for t, g in leaf_grads.values():
            t.accumulate_grad(g)

    # ---- concurrency ----

    def branches(self, fn, args: list) -> list[Tensor]:
        """fn(graph, arg) for every arg at the same time, as independent
        branches of this graph; their outputs in args order.

        The first arg runs on the calling thread and each other on a thread
        of its own, OpenBLAS at one thread each (see _at_once). Each branch
        records on a sub-tape of its own, and the graph records one node
        whose vjp replays the sub-tapes at the same time, each through
        Graph.backward from the scalar sum(out * g). A sub-tape keeps its
        leaf gradients; the vjp adds them last branch first, the order in
        which one tape holding the branches in sequence would reach them, and
        returns them as gradients of the leaves the branches read. fn must
        not write to tensors the branches share.

        An unrecorded graph runs the branches one after the other on the
        calling thread, at the BLAS thread count it finds, as feature
        extraction runs its one branch. OpenBLAS may round a product at one
        thread differently from one at more, so a recorded graph's values
        can differ from an unrecorded one's in the last bits.
        """
        if not self.record:
            return [fn(self, arg) for arg in args]
        subs = [_Branch() for _ in args]
        outs = _at_once([functools.partial(fn, sub, arg) for sub, arg in zip(subs, args)])
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
                    root = sub.sum_all(sub.mul(out, Tensor(g, requires_grad=False)))
                    calls.append(functools.partial(sub.backward, root))
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

    def rnn(self, reps: Tensor, u_in: Tensor, w_rec: Tensor) -> Tensor:
        """The (T, N) rows o_t = U_in r_t + W_rec s_{t-1}, s_t = tanh(o_t),
        s_0 = 0, for the rows r_t of reps: one GEMM for every U_in r_t, one
        matvec per step. The vjp runs back through time on the kept states,
        do_t = g_t + (1 - s_t*s_t) * (W_rec^T do_{t+1}), then one GEMM per input.
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
        out = Tensor(o)

        def vjp(g):
            do = np.array(g)  # a copy: another node may hold g too
            for t in range(len(do) - 2, -1, -1):
                d = s[t] * s[t]
                np.subtract(1.0, d, out=d)
                d *= wd.T @ do[t + 1]
                do[t] += d
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
            ds = a * a
            np.subtract(1.0, ds, out=ds)
            ds *= da_g + da_p
            dpu = ds @ gd
            return (np.outer(w_p, d_p) + dpu @ ud.T, np.outer(w_g, d_g) + ds.T @ pu,
                    pd.T @ dpu if u.requires_grad else None)

        return self._push(outs, (p, g, u), vjp)

    # ---- convolution and pooling ----

    def conv2d(self, x: Tensor, kernel: Tensor, bias: Tensor, pad: int) -> Tensor:
        """Cross-correlate a (T,Cin,H,W) stack with kernel under zero padding,
        at stride 1.

        kernel is (Cout,Cin,kh,kw) and bias is (Cout,). The output is
        (H + 2*pad - kh + 1) by (W + 2*pad - kw + 1). The frames are taken in
        blocks whose im2col columns fill at most CONV_BLOCK_BYTES (16 MiB):
        each block is copied into one zero-padded stack, lowered into one
        column buffer and multiplied by the kernel in one GEMM, so a stack
        that fits one block is one GEMM. The buffer ends the forward holding
        the last block's columns, which backward keeps; it rebuilds the others
        into the same buffer for dkernel, then frees it. dx correlates the output gradient,
        padded by kh-1-pad and kw-1-pad (cropped where negative), with the
        flipped kernel: each block lowers it along its width only, into one
        buffer of its own, and sums kh GEMMs, one per kernel row, each over
        the columns from that row on.
        """
        if x.data.ndim != 4:
            raise ShapeError(f"conv2d needs a (T,C,H,W) input, got shape {x.shape}")
        if kernel.data.ndim != 4:
            raise ShapeError(f"conv2d kernel must be 4-d, got {kernel.shape}")
        if bias.data.ndim != 1 or bias.shape[0] != kernel.shape[0]:
            raise ShapeError(f"conv2d bias shape {bias.shape} does not match kernel {kernel.shape}")
        if pad < 0:
            raise ShapeError(f"conv2d needs pad >= 0, got pad={pad}")
        t_n, cin, h, w = x.shape
        cout, kcin, kh, kw = kernel.shape
        if kcin != cin:
            raise ShapeError(f"conv2d: input has {cin} channels but kernel expects {kcin}")
        hp, wp = h + 2 * pad, w + 2 * pad
        if kh > hp or kw > wp:
            raise ShapeError(
                f"conv2d: kernel {kh}x{kw} does not fit input {h}x{w} padded by {pad}"
            )
        ho, wo = hp - kh + 1, wp - kw + 1

        kd = kernel.data
        k2 = kd.reshape(cout, -1)
        blocks = _frame_blocks(t_n, k2.shape[1] * ho * wo * 8)
        # one zero-ringed stack and one column buffer, sized for the first
        # (largest) block, serve every block of the forward and the vjp
        xp = np.zeros((blocks[0][1], cin, hp, wp))
        buf = np.empty(k2.shape[1] * blocks[0][1] * ho * wo)

        def lowered(t0, t1):
            xb = xp[:t1 - t0]
            xb[:, :, pad:pad + h, pad:pad + w] = x.data[t0:t1]
            return _im2col(xb, kh, kw, buf)

        out_d = np.empty((t_n, cout, ho, wo))
        for t0, t1 in blocks:
            last_cols = lowered(t0, t1)
            prod = k2 @ last_cols
            prod += bias.data[:, None]
            out_d[t0:t1] = prod.reshape(cout, t1 - t0, ho, wo).transpose(1, 0, 2, 3)
        if len(blocks) == 1:
            xp = None  # no block to rebuild: the tape need not keep the padded stack
        out = Tensor(out_d)

        def vjp(g):
            nonlocal xp, buf, last_cols
            dbias = g.reshape(t_n, cout, ho * wo).sum(axis=(0, 2))
            dkernel = None
            for t0, t1 in reversed(blocks):
                cols = last_cols if t1 == t_n else lowered(t0, t1)
                part = g[t0:t1].transpose(1, 0, 2, 3).reshape(cout, -1) @ cols.T
                dkernel = part if dkernel is None else dkernel + part
            dkernel = dkernel.reshape(kd.shape)
            xp = buf = last_cols = cols = None  # free the columns before dx's buffers
            if not x.requires_grad:
                return None, dkernel, dbias
            # gp is (T, Cout, h+kh-1, w+kw-1): dx[t, :, y, x] sums, over
            # kernel rows i, row i of the flipped kernel (Cin x Cout*kw)
            # times the width-lowered gp rows y+i
            gp = _pad_or_crop(g, kh - 1 - pad, kw - 1 - pad)
            kslabs = kd[:, :, ::-1, ::-1].transpose(2, 1, 0, 3).reshape(kh, cin, cout * kw)
            dx = np.empty((t_n, cin, h, w))
            dblocks = _frame_blocks(t_n, (cout * kw * (h + kh - 1) + 2 * cin * h) * w * 8,
                                    even=True)
            n_max = dblocks[0][1] * h * w
            gbuf = np.empty(cout * kw * (h + kh - 1) * dblocks[0][1] * w)
            acc_buf, part_buf = np.empty(cin * n_max), np.empty(cin * n_max)
            for t0, t1 in dblocks:
                gcols = _width_cols(gp[t0:t1], kw, gbuf)
                row, n = (t1 - t0) * w, (t1 - t0) * h * w
                acc = acc_buf[:cin * n].reshape(cin, n)
                part = part_buf[:cin * n].reshape(cin, n)
                np.matmul(kslabs[0], gcols[:, :n], out=acc)
                for i in range(1, kh):
                    np.matmul(kslabs[i], gcols[:, i * row:i * row + n], out=part)
                    acc += part
                dx[t0:t1] = acc.reshape(cin, h, t1 - t0, w).transpose(2, 0, 1, 3)
            return dx, dkernel, dbias

        return self._push(out, (x, kernel, bias), vjp)

    def maxpool2d(self, x: Tensor, window: tuple[int, int]) -> Tensor:
        """Max over the tiling windows of a (T,C,H,W) stack, stride equal to
        the window; rows and columns past the last whole window are dropped.
        Ties go to the first cell in row-major scan.

        Each window cell (i, j) is one strided view of the input (a tap). The
        max is np.maximum over the taps. The windows are disjoint, so backward
        assigns g into each tap's view of a zeroed dx where that tap was the
        first to hold the max.
        """
        wh, ww = window
        if min(wh, ww) < 1:
            raise ShapeError(f"maxpool2d needs a positive window, got {window}")
        if x.data.ndim != 4:
            raise ShapeError(f"maxpool2d needs a (T,C,H,W) input, got shape {x.shape}")
        xb = x.data
        t_n, c, h, w = xb.shape
        if wh > h or ww > w:
            raise ShapeError(f"maxpool2d window {window} larger than input {h}x{w}")
        ho, wo = h // wh, w // ww
        taps = [(slice(None), slice(None), slice(i, ho * wh, wh), slice(j, wo * ww, ww))
                for i in range(wh) for j in range(ww)]
        best = xb[taps[0]].copy()
        for tap in taps[1:]:
            np.maximum(best, xb[tap], out=best)
        out = Tensor(best)

        def vjp(g):
            dx = np.zeros((t_n, c, h, w))
            taken = np.zeros(best.shape, dtype=bool)
            for tap in taps:
                # first: this tap holds the max and no earlier tap does
                first = xb[tap] == best
                first &= ~taken
                taken |= first
                np.multiply(first, g, out=dx[tap])
            return (dx,)

        return self._push(out, (x,), vjp)

    def region_maxpool(self, x: Tensor, regions: list[tuple[int, int, int, int]]) -> Tensor:
        """Max over explicit rectangular regions (r0, r1, c0, c1), half-open.

        A (T,C,H,W) input yields a (T, C*len(regions)) matrix whose rows are
        laid out channel-major: all regions of channel 0, then channel 1, and
        so on. Ties go to the first cell in row-major scan. One gather reads
        every region through a (size, R) table of flat positions, each
        region's column listing its cells row-major, padded with its last one.
        """
        if x.data.ndim != 4:
            raise ShapeError(f"region_maxpool needs a (T,C,H,W) input, got shape {x.shape}")
        xb = x.data
        t_n, c, h, w = xb.shape
        n_r = len(regions)
        if n_r == 0:
            raise ShapeError("region_maxpool needs at least one region")
        r0, r1, c0, c1 = np.array(regions, dtype=np.int64).T
        bad = ~((0 <= r0) & (r0 < r1) & (r1 <= h) & (0 <= c0) & (c0 < c1) & (c1 <= w))
        if bad.any():
            raise ShapeError(f"region {tuple(regions[int(bad.argmax())])} out of bounds "
                             f"for {h}x{w} input")
        widths = c1 - c0
        areas = (r1 - r0) * widths
        size = int(areas.max())
        k = np.minimum(np.arange(size)[:, None], areas - 1)  # (size, R)
        table = (r0 + k // widths) * w + c0 + k % widths
        block = xb.reshape(t_n, c, h * w)[:, :, table]  # (T, C, size, R)
        vals = block.max(axis=2)
        out = Tensor(vals.reshape(t_n, c * n_r))
        if not self.record:
            return out  # no vjp reads the first-max positions
        # the first cell holding the max; a nan max matches no cell and takes cell 0
        first = (block == vals[:, :, None]).argmax(axis=2)
        # flat index of each region's first max in the whole (T,C,H,W) input
        pos = table[first, np.arange(n_r)] + np.arange(t_n * c).reshape(t_n, c, 1) * (h * w)

        def vjp(g):
            # one scatter; overlapping regions may share a position, so add
            dx = np.bincount(pos.ravel(), weights=g.ravel(), minlength=xb.size)
            return (dx.reshape(t_n, c, h, w),)

        return self._push(out, (x,), vjp)

    # ---- elementwise ----

    def tanh(self, x: Tensor) -> Tensor:
        out = Tensor(np.tanh(x.data))
        od = out.data

        def vjp(g):
            d = od * od
            np.subtract(1.0, d, out=d)
            d *= g
            return (d,)

        return self._push(out, (x,), vjp)

    def relu(self, x: Tensor) -> Tensor:
        """max(0, x); the subgradient at exactly 0 is taken as 0."""
        xd = x.data
        out = Tensor(np.maximum(xd, 0.0))

        def vjp(g):
            return (g * (xd > 0.0),)

        return self._push(out, (x,), vjp)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ShapeError(f"add: shapes differ, {a.shape} vs {b.shape}")
        out = Tensor(a.data + b.data)

        def vjp(g):
            return g, g

        return self._push(out, (a, b), vjp)

    def sub(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ShapeError(f"sub: shapes differ, {a.shape} vs {b.shape}")
        out = Tensor(a.data - b.data)

        def vjp(g):
            return g, -g

        return self._push(out, (a, b), vjp)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ShapeError(f"mul: shapes differ, {a.shape} vs {b.shape}")
        ad, bd = a.data, b.data
        out = Tensor(ad * bd)

        def vjp(g):
            return g * bd, g * ad

        return self._push(out, (a, b), vjp)

    # ---- shape plumbing ----

    def reshape(self, x: Tensor, shape) -> Tensor:
        old = x.data.shape
        out = Tensor(x.data.reshape(shape))

        def vjp(g):
            return (g.reshape(old),)

        return self._push(out, (x,), vjp)

    def concat(self, xs: list[Tensor], axis: int = 0) -> Tensor:
        if not xs:
            raise ShapeError("concat needs at least one tensor")
        out = Tensor(np.concatenate([x.data for x in xs], axis=axis))
        sizes = [x.data.shape[axis] for x in xs]
        splits = np.cumsum(sizes)[:-1]

        def vjp(g):
            return tuple(np.split(g, splits, axis=axis))

        return self._push(out, tuple(xs), vjp)

    # ---- reductions ----

    def sum_all(self, x: Tensor) -> Tensor:
        out = Tensor(x.data.sum())
        xshape = x.data.shape

        def vjp(g):
            return (np.full(xshape, g),)

        return self._push(out, (x,), vjp)

    # ---- probability ----

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
    """The sub-graph of one Graph.branches branch. Its backward keeps the
    leaf gradients in leaf_grads instead of adding them to the leaves, which
    the other branches share."""

    def __init__(self):
        super().__init__()
        self.leaf_grads: dict[int, tuple[Tensor, np.ndarray]] = {}

    def _deposit(self, leaf_grads: dict) -> None:
        self.leaf_grads = leaf_grads
