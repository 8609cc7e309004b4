"""Outside-in span tracer for the astpn benchmark.

The tracer rebinds public functions of the astpn modules to timing wrappers.
A function imported by name into another module (``from .layers import
rnn_forward``) is looked up in that module's namespace, so every module
attribute that holds the original function object is rebound, not only the
defining one. Graph ops are class attributes and are wrapped on the class.
During ``Graph.backward`` each taped node's vjp closure is wrapped too, which
splits backward into per-op vjp time and the tape bookkeeping left over.

Spans live in memory as tuples and are written once, by ``write``. A span is
``(span_id, parent_id, op_id, name, start_ns, end_ns, note)``; all spans of
one train step or eval invocation share ``op_id``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name) for every plain function the benchmark times.
FUNCTION_SPANS = (
    ("astpn.layers", "conv_stack_forward", "layers.conv_stack"),
    ("astpn.layers", "spp_forward", "layers.spp"),
    ("astpn.layers", "rnn_forward", "layers.rnn"),
    ("astpn.layers", "attentive_summary", "layers.attention"),
    ("astpn.model", "forward_pair", "model.forward_pair"),
    ("astpn.model", "hinge_loss", "model.loss"),
    ("astpn.model", "identity_loss", "model.loss"),
    ("astpn.model", "sgd_step", "model.sgd_step"),
    ("astpn.model", "extract_feature", "model.extract_feature"),
    ("astpn.model", "load_checkpoint", "model.checkpoint_load"),
    ("astpn.datapipe", "load_dataset", "datapipe.load_dataset"),
    ("astpn.datapipe", "preprocess_dataset", "datapipe.preprocess"),
    ("astpn.datapipe", "read_frame", "datapipe.read_frame"),
    ("astpn.datapipe", "rgb_to_yuv", "datapipe.yuv"),
    ("astpn.datapipe", "lucas_kanade_flow", "datapipe.flow"),
    ("astpn.evalkit", "compute_cmc", "evalkit.compute_cmc"),
    ("astpn.evalkit", "cmc_from_features", "evalkit.ranking"),
    ("astpn.evalkit", "emit_report", "evalkit.report"),
)

# Graph methods timed as tensor-layer spans.
GRAPH_SPANS = ("conv2d", "maxpool2d", "region_maxpool", "matvec", "backward")

OP_SPAN = "op"
PAIR_DRAW_SPAN = "datapipe.pair_draw"


def content_key(array) -> str:
    """Digest of an array's bytes: equal keys mean the same input sequence."""
    return hashlib.blake2b(memoryview(np.ascontiguousarray(array)), digest_size=12).hexdigest()


def _note_conv_stack(args):
    return content_key(args[1].data)


def _note_extract(args):
    return content_key(args[0].frames)


NOTES = {"layers.conv_stack": _note_conv_stack, "model.extract_feature": _note_extract}


class Tracer:
    """Span recorder plus the patch set that feeds it.

    ``install`` rebinds the functions listed above; ``uninstall`` restores
    every original, so untraced code runs with no wrapper at all.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._op_id: str | None = None
        self._patches: list[tuple[object, str, object]] = []

    # ---- recording ----

    def _open(self, name: str, note=None) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter_ns(), note])

    def _close(self) -> None:
        end = time.perf_counter_ns()
        span_id, name, start, note = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((span_id, parent, self._op_id, name, start, end, note))

    def op(self, op_id: str, fn):
        """Run fn, one step or invocation, as the root span of op_id."""
        self._op_id = op_id
        self._open(OP_SPAN)
        try:
            return fn()
        finally:
            self._close()
            self._op_id = None

    def _wrapped(self, fn, name: str):
        tracer = self
        note_fn = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._open(name, note_fn(args) if note_fn else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()

        return traced

    def _wrapped_backward(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(graph, root):
            tape = getattr(graph, "_tape", ())
            for node in tape:
                op_name = node.vjp.__qualname__.split(".")[1]
                node.vjp = tracer._wrapped(node.vjp, f"tensor.{op_name}.vjp")
            tracer._open("tensor.backward", len(tape))
            try:
                return fn(graph, root)
            finally:
                tracer._close()

        return traced

    # ---- patching ----

    def wrap_attribute(self, owner, attr: str, name: str) -> None:
        """Time every call through owner.attr as a span called name."""
        self._rebind(owner, attr, self._wrapped(getattr(owner, attr), name))

    def _rebind(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        from astpn.tensor import Graph

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "astpn" or n.startswith("astpn."))]
        for module_name, attr, span in FUNCTION_SPANS:
            original = getattr(sys.modules[module_name], attr)
            traced = self._wrapped(original, span)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, traced)
        for method in GRAPH_SPANS:
            original = getattr(Graph, method)
            if method == "backward":
                self._rebind(Graph, method, self._wrapped_backward(original))
            else:
                self._rebind(Graph, method, self._wrapped(original, f"tensor.{method}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---- output ----

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _useful_ratio(groups: dict) -> float:
    """Distinct inputs over calls, summed over groups; 1.0 when nothing was called."""
    calls = sum(len(keys) for keys in groups.values())
    if calls == 0:
        return 1.0
    return sum(len(set(keys)) for keys in groups.values()) / calls


def summarize(spans: list[tuple], op_ids: list[str]) -> dict:
    """Per-layer figures from the spans of the traced ops in op_ids.

    Times are milliseconds per op, except datapipe spans, which are per
    dataset load (train workloads load in set-up, eval loads per invocation).
    ``self_ms`` subtracts the time of direct children. Span names that occur
    on only some workloads are also given as ``share``, their time over the
    mean op time.
    """
    ops = set(op_ids)
    n_ops = len(op_ids)
    by_id = {s[0]: s for s in spans}
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s[1] is not None:
            child_ns[s[1]] += s[5] - s[4]

    total = defaultdict(int)
    self_total = defaultdict(int)
    calls = defaultdict(int)
    pipe_total = defaultdict(int)
    pipe_calls = defaultdict(int)
    tape_nodes = 0
    branch_groups: dict = defaultdict(list)
    feature_groups: dict = defaultdict(list)
    for s in spans:
        span_id, parent, op_id, name, start, end, note = s
        dur = end - start
        if name.startswith("datapipe.") and name != PAIR_DRAW_SPAN:
            pipe_total[name] += dur
            pipe_calls[name] += 1
            continue
        if op_id not in ops:
            continue
        total[name] += dur
        self_total[name] += dur - child_ns[span_id]
        calls[name] += 1
        if name == "tensor.backward":
            tape_nodes += note
        elif name == "layers.conv_stack":
            scope = parent
            while scope is not None and by_id[scope][3] != "model.forward_pair":
                scope = by_id[scope][1]
            branch_groups[(op_id, scope)].append(note)
        elif name == "model.extract_feature":
            feature_groups[op_id].append(note)

    op_ms = total[OP_SPAN] / n_ops / 1e6
    loads = max(pipe_calls["datapipe.load_dataset"], 1)
    spans_out = {}
    for name in sorted(total):
        spans_out[name] = {
            "ms": total[name] / n_ops / 1e6,
            "self_ms": self_total[name] / n_ops / 1e6,
            "calls": calls[name] / n_ops,
            "share": total[name] / n_ops / 1e6 / op_ms,
        }
    for name in sorted(pipe_total):
        spans_out[name] = {"ms": pipe_total[name] / loads / 1e6,
                           "calls": pipe_calls[name] / loads}
    ingest_ns = pipe_total["datapipe.load_dataset"] + pipe_total["datapipe.preprocess"]
    vjp_ms = sum(v["ms"] for k, v in spans_out.items() if k.endswith(".vjp"))
    return {
        "op_ms": op_ms,
        "n_ops": n_ops,
        "spans": spans_out,
        "tape_nodes": tape_nodes / n_ops,
        "vjp_ms": vjp_ms,
        "ingest_frames_per_s": (pipe_calls["datapipe.read_frame"] / (ingest_ns / 1e9)
                                if ingest_ns else 0.0),
        "branch_useful_ratio": _useful_ratio(branch_groups),
        "feature_useful_ratio": _useful_ratio(feature_groups),
    }


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """The named per-layer metrics, each as (value, unit)."""
    spans = summary["spans"]
    op_ms = summary["op_ms"]

    def ms(name):
        return spans.get(name, {}).get("ms", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0.0)

    def share(name):
        return ms(name) / op_ms

    out = {}
    for name in ("tensor.conv2d", "tensor.maxpool2d", "tensor.region_maxpool",
                 "tensor.matvec", "layers.conv_stack", "layers.spp", "layers.rnn",
                 "layers.attention", "model.forward_pair", "datapipe.read_frame",
                 "datapipe.yuv", "datapipe.flow"):
        out[f"{name}.ms"] = (ms(name), "ms")
    for name in ("tensor.conv2d", "tensor.region_maxpool", "tensor.matvec"):
        out[f"{name}.calls"] = (calls(name), "count")
    out["tensor.tape_nodes"] = (summary["tape_nodes"], "count")
    out["tensor.backward.share"] = (share("tensor.backward"), "ratio")
    out["tensor.backward.self.share"] = (
        spans.get("tensor.backward", {}).get("self_ms", 0.0) / op_ms, "ratio")
    out["tensor.vjp.share"] = (summary["vjp_ms"] / op_ms, "ratio")
    for name in ("model.loss", "model.sgd_step", "datapipe.pair_draw",
                 "model.extract_feature", "model.checkpoint_load",
                 "evalkit.compute_cmc", "evalkit.ranking", "evalkit.report"):
        out[f"{name}.share"] = (share(name), "ratio")
    # time of the op outside every traced child: cli.overhead on eval-cli
    out["op.overhead.share"] = (spans[OP_SPAN]["self_ms"] / op_ms, "ratio")
    out["model.branch_useful_ratio"] = (summary["branch_useful_ratio"], "ratio")
    out["evalkit.feature_useful_ratio"] = (summary["feature_useful_ratio"], "ratio")
    out["datapipe.ingest_frames_per_s"] = (summary["ingest_frames_per_s"], "1/s")
    return out
