"""Command-line front end.

    tot <knothe|brenier|continue|compare> --config <path>
        [--out <dir>] [--grid N] [--t0 X] [--steps K] [--quiet]

Each flag's text is the value of the configuration keys it overrides
(``--grid N`` sets grid.n1 and grid.n2, ``--quiet`` sets quiet = true) and
is parsed and validated exactly as a file line of those keys.  Exit codes:
0 success, 2 configuration error, 3 solver nonconvergence, 4 I/O error.
All iteration orders are fixed and nothing is seeded from the clock, so
identical configurations produce bit-identical CSV output.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import load_config
from .continuation import (newton_correct, newton_text, run,
                           trajectory_summary_csv)
from .errors import (ConfigError, ConvergenceError, StepCollapseError,
                     TransportError)
from .fieldio import write_field_binary, write_field_csv
from .grid import ScalarField, zero_field
from .knothe import fiber_pushforward_error, knothe_solution
from .monge_ampere import identity_cost, pushforward_residual

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _emit_field(cfg, out_dir, name, field):
    if cfg.emit_binary:
        write_field_binary(field, os.path.join(out_dir, name + ".totf"))
    if cfg.emit_csv:
        write_field_csv(field, os.path.join(out_dir, name + ".csv"))


def _write_csv_row(path, header, values):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                          for v in values) + "\n")


def _say(cfg, message):
    if not cfg.quiet:
        print(message)


def _broadcast(grid, values_1d):
    return ScalarField(grid, np.broadcast_to(values_1d[:, None],
                                             grid.shape).copy())


def cmd_knothe(cfg, out_dir):
    pair = cfg.pair
    grid = pair.grid
    sol = knothe_solution(pair)
    _emit_field(cfg, out_dir, "knothe_r1_displacement",
                _broadcast(grid, sol.r1.displacement))
    _emit_field(cfg, out_dir, "knothe_r2_displacement",
                ScalarField(grid, sol.r2_displacement))
    _emit_field(cfg, out_dir, "knothe_u1",
                _broadcast(grid, sol.potentials.u1))
    _emit_field(cfg, out_dir, "knothe_u2", sol.potentials.u2)
    fiber_err = fiber_pushforward_error(pair, sol)
    u2_x1_variation = float(np.max(np.ptp(sol.potentials.u2.values, axis=0)))
    _write_csv_row(os.path.join(out_dir, "diagnostics.csv"),
                   ("fiber_pushforward_max_error", "u2_x1_variation"),
                   (fiber_err, u2_x1_variation))
    _say(cfg, f"[knothe] fiber pushforward max error {fiber_err:.3g}, "
              f"u2 variation along x1 {u2_x1_variation:.3g}")
    if fiber_err > 1e-9:        # the criteria's bound; also under --quiet
        print(f"tot: warning: fiber pushforward max error {fiber_err:.3g} "
              "exceeds 1e-9; a finer grid resolves the fibers", file=sys.stderr)


def cmd_brenier(cfg, out_dir):
    """Cold Newton at A = I from zero; returns the potential."""
    pair, cost = cfg.pair, identity_cost()
    result = newton_correct(cost, zero_field(pair.grid), pair,
                            tol=cfg.options.newton_tol,
                            max_iter=cfg.options.max_newton)
    psi = result.potential
    tmap = result.tmap
    _emit_field(cfg, out_dir, "brenier_psi", psi)
    _emit_field(cfg, out_dir, "brenier_map1", tmap.v1)
    _emit_field(cfg, out_dir, "brenier_map2", tmap.v2)
    _emit_field(cfg, out_dir, "brenier_residual",
                ScalarField(pair.grid, result.residual))
    pf = pushforward_residual(tmap, pair, cfg.options.pushforward_k)
    _write_csv_row(os.path.join(out_dir, "brenier_diagnostics.csv"),
                   ("sup_residual", "margin", "pushforward_residual",
                    "newton_iters"),
                   (result.sup_residual, result.margin, pf,
                    result.iterations))
    _say(cfg, f"[brenier] newton iters {newton_text(result.levels)}, "
              f"sup residual {result.sup_residual:.3g}, pushforward {pf:.3g}")
    return psi


def cmd_continue(cfg, out_dir):
    """Continuation run; records keep their fields only for step files, and
    a collapsed run writes the rows it certified before it raises."""
    summary = os.path.join(out_dir, "trajectory.csv")
    try:
        traj = run(cfg.pair, cfg.schedule, cfg.options,
                   keep_potentials=cfg.emit_steps)
    except StepCollapseError as exc:
        trajectory_summary_csv(exc.trajectory, summary)
        raise
    trajectory_summary_csv(traj, summary)
    final = traj.final
    _emit_field(cfg, out_dir, "final_psi", final.psi)
    tmap = final.tmap
    _emit_field(cfg, out_dir, "final_map1", tmap.v1)
    _emit_field(cfg, out_dir, "final_map2", tmap.v2)
    if cfg.emit_steps:
        for index, rec in enumerate(traj.records):
            write_field_binary(rec.psi,
                               os.path.join(out_dir, f"step_{index:04d}_psi.totf"))
    per_grid = {}
    for rec in traj.records:
        for shape, iters in rec.levels:
            per_grid[shape] = per_grid.get(shape, 0) + iters
    _say(cfg, f"[continue] {len(traj.records)} states, final t {final.t:g}, "
              f"newton iters {newton_text(sorted(per_grid.items()))}, "
              f"sup residual {final.sup_residual:.3g}")
    return traj


def cmd_compare(cfg, out_dir):
    # only the final potential is held while the cold solve runs
    psi = cmd_continue(cfg, out_dir).final.psi
    cold = cmd_brenier(cfg, out_dir)
    diff = psi.values - cold.values
    sup_diff = float(np.max(np.abs(diff)))
    l2_diff = float(np.sqrt(np.mean(diff ** 2)))
    _write_csv_row(os.path.join(out_dir, "compare.csv"),
                   ("sup_diff", "l2_diff"), (sup_diff, l2_diff))
    _say(cfg, f"[compare] continuation vs cold newton: sup {sup_diff:.3g}, "
              f"l2 {l2_diff:.3g}")


_COMMANDS = {
    "knothe": cmd_knothe,
    "brenier": cmd_brenier,
    "continue": cmd_continue,
    "compare": cmd_compare,
}


# flag -> the configuration keys its text sets
_FLAG_KEYS = {
    "out": ("out",),
    "grid": ("grid.n1", "grid.n2"),
    "t0": ("t0",),
    "steps": ("steps",),
    "quiet": ("quiet",),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tot",
        description="Optimal transport on the 2-torus: Knothe rearrangement, "
                    "Brenier map, and the continuation between them.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="configuration file")
    parser.add_argument("--out", help="output directory (overrides 'out')")
    parser.add_argument("--grid", help="grid size N for an N x N grid")
    parser.add_argument("--t0", help="continuation start time")
    parser.add_argument("--steps", help="step count or 'adaptive'")
    parser.add_argument("--quiet", action="store_const", const="true",
                        help="suppress progress output")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    overrides = {}
    for flag, keys in _FLAG_KEYS.items():
        text = getattr(args, flag)
        if text is not None:
            overrides.update(dict.fromkeys(keys, text))
    try:
        cfg = load_config(args.config, overrides)
        os.makedirs(cfg.out_dir, exist_ok=True)
        _COMMANDS[args.command](cfg, cfg.out_dir)
        return EXIT_OK
    except ConfigError as exc:
        print(f"tot: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"tot: solver did not converge: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except TransportError as exc:
        print(f"tot: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"tot: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
