"""The benchmark calls ``tot`` by its public names, and its tracer wraps
``tot`` functions by name.

``bench/`` is not on the test path, so a renamed or deleted name that the
benchmark uses would otherwise break only the benchmark runs.  These
checks read the names from ``bench/`` without importing its runner,
workloads or test module (which sets up output directories on import).
"""

import ast
import importlib.util
import sys
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


def _tot_attributes(path):
    """Every dotted name read as ``tot.<name>...`` or ``self.tot.<name>...``
    in the source file ``path``, as a tuple of attribute names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            chain.insert(0, node.id)
            for prefix in (["tot"], ["self", "tot"]):
                rest = chain[len(prefix):]
                if chain[:len(prefix)] == prefix and rest:
                    names.add(tuple(rest))
    return names


BENCH_NAMES = sorted(set().union(*(_tot_attributes(BENCH / name)
                                   for name in ("workloads.py", "run.py"))))


def test_bench_names_are_collected():
    assert ("newton_correct",) in BENCH_NAMES
    assert ("cli", "main") in BENCH_NAMES


@pytest.mark.parametrize("names", BENCH_NAMES,
                         ids=[".".join(n) for n in BENCH_NAMES])
def test_every_bench_binding_resolves(names):
    target = tot
    for name in names:
        assert hasattr(target, name), ".".join(names)
        target = getattr(target, name)


def test_a_nested_run_exercises_the_counters_the_benchmark_requires(
        monkeypatch):
    # bench/test_repeatability.py requires, on its CLI workload, PCG solves
    # that solve_linearized_small_t makes (linearized.small_t_fallbacks)
    # and iterations of newton_correct_split: a nested run at 128^2 must
    # reach both, or those counters read 0 and the benchmark's self-test
    # fails outside the test path
    small_t = tot.linearized.solve_linearized_small_t.__code__
    solve = tot.linearized.solve_linearized
    inside_small_t = []

    def spied_solve(*args, **kwargs):
        inside_small_t.append(sys._getframe(1).f_code is small_t)
        return solve(*args, **kwargs)

    correct = tot.continuation.newton_correct_split
    corrections = []

    def spied_correct(*args, **kwargs):
        corrections.append(args[0])
        return correct(*args, **kwargs)

    monkeypatch.setattr(tot.linearized, "solve_linearized", spied_solve)
    monkeypatch.setattr(tot.continuation, "newton_correct_split",
                        spied_correct)
    pair = tot.standard_pair(tot.build_grid(128, 128))
    traj = tot.run(pair, options=tot.ContinuationOptions(steps=4))
    assert len(traj.records) == 5
    assert any(inside_small_t)
    assert corrections
