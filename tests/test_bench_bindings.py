"""The benchmark's tracer wraps ``tot`` functions by name.

``bench/`` is not on the test path, so a renamed or deleted function that
the benchmark traces would otherwise break only the traced benchmark runs.
These checks read the names from ``bench/`` without importing its test
module (which sets up output directories on import).
"""

import ast
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import tot
import tot.cli  # noqa: F401  (the benchmark imports the CLI too)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()


@pytest.mark.parametrize("module, attr", TRACER.TARGETS,
                         ids=[".".join(t) for t in TRACER.TARGETS])
def test_every_traced_target_resolves(module, attr):
    home = getattr(tot, module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer wraps the method on its own class
        assert meth in vars(getattr(home, cls_name))
    else:
        assert callable(getattr(home, attr))


def test_every_traced_layer_is_a_module():
    for layer in TRACER.LAYERS:
        if layer != "fft":
            assert hasattr(tot, layer), layer


def test_repeatability_bindings_resolve():
    # run bench/test_repeatability.bindings() against tot itself
    path = BENCH / "test_repeatability.py"
    source = ast.parse(path.read_text(encoding="utf-8"))
    (definition,) = [node for node in source.body
                     if isinstance(node, ast.FunctionDef)
                     and node.name == "bindings"]
    namespace = {"TOT": tot, "np": np}
    exec(compile(ast.Module([definition], []), str(path), "exec"), namespace)
    assert all(callable(binding) for binding in namespace["bindings"]())
