"""The names the benchmark's span tracer (perfbench/tracing.py) hooks into.

The tracer rebinds the functions and Graph methods it lists by name, notes
some spans from their calls' positional arguments, and names each backward
node's span after its vjp's qualname. A refactor that breaks any of these
breaks `perfbench/run.py --trace 1` without failing any other test. This
file checks them against astpn; it reads the tracer and changes nothing in
it.
"""

import importlib
import importlib.util
import inspect
import itertools
from pathlib import Path

import numpy as np
import pytest

from astpn import evalkit, model
from astpn.datapipe import PairBatch, RawSequence, preprocess_dataset
from astpn.evalkit import eval_sequence
from astpn.model import VARIANTS, LossConfig, init_params, total_loss
from astpn.tensor import Graph, Tensor

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_function_span_names_an_astpn_function(tracing):
    for module_name, attr, span in tracing.FUNCTION_SPANS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr} ({span})"


def test_every_graph_span_names_a_graph_method(tracing):
    for method in tracing.GRAPH_SPANS:
        assert inspect.isfunction(getattr(Graph, method, None)), f"Graph.{method}"


def test_backward_takes_the_root_as_its_one_positional_argument():
    # the tracer calls the original as fn(graph, root)
    inspect.signature(Graph.backward).bind(Graph(), Tensor(np.float64(0.0)))
    graph = Graph()
    x = Tensor(np.array([3.0]))
    Graph.backward(graph, graph.hinge(x, Tensor(np.zeros(1)), True, 0.0))  # x^2
    np.testing.assert_array_equal(x.grad, [6.0])


TOY_BINS = ((2, 2), (1, 1))


def toy_sequence(rng, pid, cam, hw=(20, 16)):
    """A stored sample of three random frames; eval crops 4 pixels off
    every side, leaving 12x8."""
    frames = list(rng.integers(0, 256, size=(3,) + hw + (3,), dtype=np.uint8))
    return preprocess_dataset([RawSequence(pid, cam, frames)])[0]


def test_notes_digest_the_arguments_of_real_calls(tracing, monkeypatch, rng):
    # the tracer notes the conv stack by args[1].data and extract_feature by
    # args[0].frames; capture each from the call site that runs it
    captured = {}

    def capture(module, attr, span):
        original = getattr(module, attr)

        def record(*args, **kwargs):
            captured.setdefault(span, args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, record)

    capture(model, "conv_stack_forward", "layers.conv_stack")  # called by frame_reps
    capture(evalkit, "extract_feature", "model.extract_feature")  # called by compute_cmc
    cfg = LossConfig(spp_bins=TOY_BINS)
    params = init_params(0, 2, cfg, feature_dim=4)
    index = {pid: {cam: toy_sequence(rng, pid, cam) for cam in ("cam0", "cam1")}
             for pid in ("a", "b")}
    evalkit.compute_cmc(index, ["a", "b"], params, cfg)
    assert set(captured) == set(tracing.NOTES)
    for span, args in captured.items():
        note = tracing.NOTES[span](args)
        assert isinstance(note, str) and len(note) == 24, span


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_taped_vjp_is_named_for_a_graph_method(monkeypatch, rng, variant):
    # at the start of every backward, the step's and each branch's, the
    # tracer names each node's span tensor.<op>.vjp, op the second part of
    # the vjp's qualname (Graph.<op>.<locals>.vjp)
    tapes = []
    original = Graph.backward

    def walking(graph, root):
        tapes.append([node.vjp.__qualname__ for node in graph._tape])
        return original(graph, root)

    monkeypatch.setattr(Graph, "backward", walking)
    cfg = LossConfig(variant=variant, spp_bins=TOY_BINS)
    params = init_params(0, 2, cfg, feature_dim=4, frame_hw=(12, 8))
    pair = PairBatch(eval_sequence(toy_sequence(rng, "a", "c0"), None),
                     eval_sequence(toy_sequence(rng, "b", "c1"), None), False, 0, 1)
    graph = Graph()
    graph.backward(total_loss(graph, pair, params, cfg))
    assert len(tapes) == 3  # the step's tape, then both branches' sub-tapes
    for qualname in itertools.chain(*tapes):
        op = qualname.split(".")[1]
        assert inspect.isfunction(getattr(Graph, op, None)), qualname
