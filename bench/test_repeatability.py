"""Self-checks of the benchmark: seeded inputs and exactly repeatable work.

    python3 -m pytest bench/test_repeatability.py

Two traced runs of one instance must give exactly equal work counters
(every per-layer metric that is not a time) and, for the CLI workload,
byte-identical ``trajectory.csv`` and ``compare.csv``.  A mismatch fails;
nothing is averaged.
"""

import json
import math
import os

import numpy as np
import pytest

import run
from tracer import Tracer, layer_metrics
from workloads import TOTAL_AMPLITUDE, WAVEVECTORS, WORKLOADS, pair_modes

TOT, _ = run.import_tot()
SCRATCH = os.path.join(run.OUT, "tmp")
os.makedirs(SCRATCH, exist_ok=True)
SEED = 3
TIME_UNITS = ("s", "s/s")
# counters each workload must exercise, so that equal counts are not vacuous
EXERCISED = {
    "compare-128": ("continuation.newton_correct.iters",
                    "continuation.newton_correct_split.iters",
                    "linearized.pcg.iters", "linearized.small_t_fallbacks",
                    "continuation.accepted_steps",
                    "transport1d.invert_lifted_cdf.calls"),
    "knothe-256": ("transport1d.invert_lifted_cdf.calls",),
    "brenier-256": ("continuation.newton_correct.iters", "linearized.pcg.iters"),
}


def traced_instance(name):
    workload = WORKLOADS[name](TOT, SCRATCH)
    tracer = Tracer()
    tracer.current_instance = 0
    tracer.install(TOT)
    try:
        inst = workload.setup(SEED, 0)
        try:
            workload.solve(inst)
        finally:
            inst.cleanup()
    finally:
        tracer.uninstall()
    assert all(c.ok for c in inst.checks), inst.checks
    counters = {key: value for key, (value, unit) in
                layer_metrics(tracer, 1).items() if unit not in TIME_UNITS}
    return counters, inst.outputs


def test_pairs_are_seeded_and_keep_the_amplitude_budget():
    assert pair_modes(SEED, 1) == pair_modes(SEED, 1)
    assert pair_modes(SEED, 1) != pair_modes(SEED + 1, 1)
    for density in pair_modes(SEED, 1):
        assert len({(k1, k2) for k1, k2, _, _ in density}) == 3
        assert all(max(abs(k1), abs(k2)) == 1 for k1, k2, _, _ in density)
        assert math.isclose(sum(a for _, _, a, _ in density), TOTAL_AMPLITUDE)


def test_each_block_leaves_out_every_wavevector_once():
    for which in (0, 1):
        left_out = {frozenset(WAVEVECTORS) - {(k1, k2) for k1, k2, _, _ in
                                             pair_modes(SEED, i)[which]}
                    for i in range(4, 8)}
        assert left_out == {frozenset([k]) for k in WAVEVECTORS}


def bindings():
    return (TOT.newton_correct, TOT.continuation.newton_correct,
            TOT.linearized.solve_linearized, TOT.continuation.deriv_values,
            TOT.trig.TrigPoly1D.__dict__["__call__"], np.fft.rfft2)


def test_uninstall_restores_every_binding():
    before = bindings()
    tracer = Tracer()
    tracer.install(TOT)
    try:
        assert all(a is not b for a, b in zip(bindings(), before))
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(bindings(), before))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_runs_of_one_seed_do_identical_work(name):
    first, first_out = traced_instance(name)
    second, second_out = traced_instance(name)
    assert first == second
    assert all(first[key] > 0 for key in EXERCISED[name])
    assert first_out == second_out
    if name == "compare-128":
        assert {"trajectory.csv", "compare.csv"} <= set(first_out)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_every_metric_of_benchmark_json(trace, key, capsys):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert run.main(["--workload", "brenier-256", "--seed", str(SEED),
                     "--seconds", "0.1", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
