"""Seeded inputs, instance runners and output checks of the tot benchmark.

Every instance is one density pair drawn from ``(seed, index)``.  Each
density is the constant 1 plus three of the four cosine wavevectors with
|k|_inf <= 1, each of amplitude 0.15 and uniform random phase: the
amplitudes sum to 0.45, the total amplitude of the shipped
``standard_f``/``standard_g`` pair, so every density stays above 0.55.
Instances come in blocks of four in which f and g each leave out every
wavevector once, in a seeded order.  The left-out wavevector sets how many
modes each Knothe fiber carries, so blocking keeps a run's mix of easy and
hard pairs the same for every seed while the phases still vary.

The program only ever sees these modes: as a ``DensitySpec`` for the
library workloads and as ``f.modes``/``g.modes`` lines of a config file
for the CLI workload.  An instance has a set-up phase (build the grid,
validate the pair, write the config file) and a solve phase, which runs
from the public call to its checked result.  Checks use the acceptance
suite's thresholds; a missed check is reported, never retried or filtered.
"""

from __future__ import annotations

import csv
import io
import math
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field

WAVEVECTORS = ((1, 0), (0, 1), (1, 1), (1, -1))
TOTAL_AMPLITUDE = 0.45
BLOCK = len(WAVEVECTORS)


def density_modes(left_out, rng):
    """Every wavevector but ``left_out``, equal amplitudes, random phases."""
    kept = [k for i, k in enumerate(WAVEVECTORS) if i != left_out]
    amplitude = TOTAL_AMPLITUDE / len(kept)
    return tuple((k1, k2, amplitude, rng.uniform(0.0, 2.0 * math.pi))
                 for k1, k2 in kept)


def pair_modes(seed, index):
    """(f modes, g modes) of instance ``index`` of a seed; every workload
    draws the same pairs for the same seed, only the grid differs."""
    block, slot = divmod(index, BLOCK)
    order = random.Random(f"tot-bench:{seed}:block{block}")
    f_left = order.sample(range(BLOCK), BLOCK)[slot]
    g_left = order.sample(range(BLOCK), BLOCK)[slot]
    rng = random.Random(f"tot-bench:{seed}:{index}")
    return density_modes(f_left, rng), density_modes(g_left, rng)


def modes_text(modes):
    # repr keeps every digit, so the CLI parses the same floats
    return "; ".join(f"({k1},{k2},{a!r},{p!r})" for k1, k2, a, p in modes)


class InstanceFailed(Exception):
    """The CLI ended with a nonzero exit code (a typed failure)."""


@dataclass
class Check:
    name: str
    value: float
    limit: str
    ok: bool


@dataclass
class Instance:
    f_modes: tuple
    g_modes: tuple
    grid: object = None
    pair: object = None
    workdir: str | None = None
    checks: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)     # file name -> bytes

    def check(self, name, value, ok, limit):
        self.checks.append(Check(name, float(value), limit, bool(ok)))

    def cleanup(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


class Workload:
    """One workload: its grid size, set-up and checked solve."""

    name = ""
    n = 0
    # nominal seconds of one untraced plus one traced instance; fixes the
    # traced run's instance count from --seconds, never from the clock
    traced_pair_s = 1.0

    def __init__(self, tot, scratch_dir):
        self.tot = tot
        self.scratch_dir = scratch_dir

    def setup(self, seed, index):
        f_modes, g_modes = pair_modes(seed, index)
        inst = Instance(f_modes, g_modes)
        tot = self.tot
        inst.grid = tot.build_grid(self.n, self.n)
        inst.pair = tot.make_density_pair(tot.DensitySpec(f_modes),
                                          tot.DensitySpec(g_modes), inst.grid)
        return inst

    def solve(self, inst):
        raise NotImplementedError


class Compare128(Workload):
    """``tot compare`` in-process at 128^2 with the default options."""

    name = "compare-128"
    n = 128
    traced_pair_s = 14.0

    def setup(self, seed, index):
        inst = super().setup(seed, index)
        inst.workdir = tempfile.mkdtemp(prefix="compare-", dir=self.scratch_dir)
        with open(os.path.join(inst.workdir, "run.cfg"), "w",
                  encoding="utf-8") as fh:
            fh.write(f"f.modes = {modes_text(inst.f_modes)}\n"
                     f"g.modes = {modes_text(inst.g_modes)}\n"
                     f"grid.n1 = {self.n}\n"
                     f"grid.n2 = {self.n}\n"
                     f"out = {os.path.join(inst.workdir, 'out')}\n")
        return inst

    def solve(self, inst):
        cfg = os.path.join(inst.workdir, "run.cfg")
        code = self.tot.cli.main(["compare", "--config", cfg, "--quiet"])
        if code != 0:
            raise InstanceFailed(f"tot compare exited with code {code}")
        out = os.path.join(inst.workdir, "out")
        for name in ("trajectory.csv", "compare.csv", "brenier_diagnostics.csv"):
            with open(os.path.join(out, name), "rb") as fh:
                inst.outputs[name] = fh.read()
        rows = _rows(inst.outputs["trajectory.csv"])
        sup = max(float(r["sup_residual"]) for r in rows)
        margin = min(float(r["margin"]) for r in rows)
        inst.check("trajectory.sup_residual", sup, sup <= 1e-10, "<= 1e-10")
        inst.check("trajectory.margin", margin, margin > 0.0, "> 0")
        diff = float(_rows(inst.outputs["compare.csv"])[0]["sup_diff"])
        inst.check("compare.sup_diff", diff, diff <= 1e-8, "<= 1e-8")
        diag = _rows(inst.outputs["brenier_diagnostics.csv"])[0]
        pf = float(diag["pushforward_residual"])
        inst.check("brenier.pushforward_residual", pf, pf <= 1e-7, "<= 1e-7")


class Knothe256(Workload):
    """Knothe rearrangement and its fiber certificate at 256^2."""

    name = "knothe-256"
    n = 256
    traced_pair_s = 10.0

    def solve(self, inst):
        tot = self.tot
        sol = tot.knothe_solution(inst.pair)
        fiber = tot.fiber_pushforward_error(inst.pair, sol)
        inst.check("fiber_pushforward_error", fiber, fiber <= 1e-9, "<= 1e-9")
        pf = tot.pushforward_residual(sol.map_field(), inst.pair, 8)
        inst.check("pushforward_residual_k8", pf, pf <= 1e-6, "<= 1e-6")


class Brenier256(Workload):
    """Cold Newton at A = I from zero, then its map's certificate, at 256^2."""

    name = "brenier-256"
    n = 256
    traced_pair_s = 2.0

    def solve(self, inst):
        tot = self.tot
        cost = tot.identity_cost()
        res = tot.newton_correct(cost, tot.zero_field(inst.grid), inst.pair)
        inst.check("sup_residual", res.sup_residual,
                   res.sup_residual <= 1e-10, "<= 1e-10")
        inst.check("margin", res.margin, res.margin > 0.0, "> 0")
        inst.check("newton_iters", res.iterations, res.iterations <= 12, "<= 12")
        tmap = tot.transport_map(cost, res.potential)
        pf = tot.pushforward_residual(tmap, inst.pair, 8)
        inst.check("pushforward_residual_k8", pf, pf <= 1e-7, "<= 1e-7")


WORKLOADS = {cls.name: cls for cls in (Compare128, Knothe256, Brenier256)}


def _rows(data):
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
