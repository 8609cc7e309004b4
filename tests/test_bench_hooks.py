"""The names the benchmark's span tracer (perfbench/tracing.py) hooks into.

The tracer rebinds the functions and Graph methods it lists by name, so a
refactor that renames or drops one breaks `perfbench/run.py --trace 1`
without failing any other test. This file checks the lists against astpn;
it reads the tracer and changes nothing in it.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

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
    Graph.backward(graph, graph.sum_all(graph.mul(x, x)))
    np.testing.assert_array_equal(x.grad, [6.0])
