import re
import subprocess
import sys

import numpy as np
import pytest

import tot
from tot import continuation
from tot.cli import _FLAG_KEYS, _build_parser, cmd_continue, main
from tot.config import _SCHEMA, load_config
from tot.errors import ConfigError
from tot.fieldio import read_field_binary
from tot.grid import deriv_values


MINIMAL = """
f.modes = (1, 0, 0.3, 0)
g.modes = (0, 1, 0.2, 0)
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, MINIMAL))
    assert cfg.pair.grid.shape == (128, 128)
    assert cfg.schedule.lam(0.25) == 0.25
    assert cfg.options.t0 == 1e-3
    assert cfg.options.steps == 32
    assert cfg.options == tot.ContinuationOptions()
    assert cfg.out_dir == "out"


def test_config_rejects_negative_density(tmp_path):
    cfg_path = write_cfg(tmp_path, """
f.modes = (1, 0, 2.0, 0)
g.modes = (0, 1, 0.2, 0)
""")
    with pytest.raises(ConfigError, match="density not positive: min") as info:
        load_config(cfg_path)
    assert info.value.key == "f.modes"
    # the key names the refused density and the form it was given in
    cfg_path = write_cfg(tmp_path, """
f.name = standard_f
g.modes = (0, 1, 0.96, 0)
""")
    with pytest.raises(ConfigError, match=r"density not positive.*\(g\)$") as info:
        load_config(cfg_path)
    assert info.value.key == "g.modes"


def test_config_suggests_close_key(tmp_path):
    cfg_path = write_cfg(tmp_path, MINIMAL + "lamda = t\n")
    with pytest.raises(ConfigError, match="did you mean 'lambda'"):
        load_config(cfg_path)


def test_config_parse_error_carries_line_number(tmp_path):
    cfg_path = write_cfg(tmp_path, "f.modes = (1,0,0.3,0)\nnot a key value line\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_config(cfg_path)


def test_config_duplicate_key(tmp_path):
    cfg_path = write_cfg(tmp_path, MINIMAL + "t0 = 1e-3\nt0 = 1e-2\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        load_config(cfg_path)


def test_config_name_and_modes_exclusive(tmp_path):
    cfg_path = write_cfg(tmp_path, MINIMAL + "f.name = standard_f\n")
    with pytest.raises(ConfigError, match="exclusive"):
        load_config(cfg_path)


def test_config_unknown_catalog_name(tmp_path):
    cfg_path = write_cfg(tmp_path, """
f.name = standard_ff
g.name = standard_g
""")
    with pytest.raises(ConfigError, match="did you mean 'standard_f'"):
        load_config(cfg_path)


def test_config_power_schedule(tmp_path):
    cfg = load_config(write_cfg(tmp_path, MINIMAL + "lambda = t^2\n"))
    assert cfg.schedule.lam(0.5) == 0.25
    assert cfg.schedule.lam_dot(0.5) == 1.0
    with pytest.raises(ConfigError, match="lambda"):
        load_config(write_cfg(tmp_path, MINIMAL + "lambda = exp(t)\n", "b.cfg"))


def test_config_overrides(tmp_path):
    cfg = load_config(write_cfg(tmp_path, MINIMAL),
                      overrides={"grid.n1": "64", "grid.n2": "64", "t0": "1e-2"})
    assert cfg.pair.grid.n1 == 64
    assert cfg.options.t0 == 1e-2


# ---------------------------------------------------------------------------
# commands (driven through main() for the exit-code contract)

def run_cli(*args):
    return main(list(args))


def test_cmd_knothe_equal_densities(tmp_path):
    cfg = write_cfg(tmp_path, """
f.name = standard_f
g.name = standard_f
grid.n1 = 64
grid.n2 = 64
quiet = true
""")
    out = tmp_path / "out"
    assert run_cli("knothe", "--config", str(cfg), "--out", str(out)) == 0
    for name in ("knothe_r1_displacement", "knothe_r2_displacement",
                 "knothe_u1", "knothe_u2"):
        field = read_field_binary(out / f"{name}.totf")
        assert np.max(np.abs(field.values)) < 1e-11


def test_cmd_knothe_product_diagnostics(tmp_path):
    cfg = write_cfg(tmp_path, """
f.name = product_f
g.name = product_g
grid.n1 = 64
grid.n2 = 64
quiet = true
""")
    out = tmp_path / "out"
    assert run_cli("knothe", "--config", str(cfg), "--out", str(out)) == 0
    header, row = (out / "diagnostics.csv").read_text().splitlines()
    names = header.split(",")
    values = dict(zip(names, map(float, row.split(","))))
    assert values["fiber_pushforward_max_error"] < 1e-9
    assert values["u2_x1_variation"] < 1e-11


def test_cmd_knothe_warns_of_an_unresolved_fiber_certificate(tmp_path,
                                                            capsys):
    # the fibers of g resolve at 256^2: the certificate reads 5.4e-6 at 64^2
    cfg = write_cfg(tmp_path, """
f.modes = (0, 1, 0.25, 0)
g.modes = (0, 1, 0.75, 0)
quiet = true
""")
    assert run_cli("knothe", "--config", str(cfg), "--grid", "64",
                   "--out", str(tmp_path / "a")) == 0
    out, err = capsys.readouterr()
    row = (tmp_path / "a" / "diagnostics.csv").read_text().splitlines()[1]
    error = float(row.split(",")[0])
    assert 1e-6 < error < 1e-5 and out == ""
    assert err == (f"tot: warning: fiber pushforward max error {error:.3g} "
                   "exceeds 1e-9; a finer grid resolves the fibers\n")
    assert run_cli("knothe", "--config", str(cfg), "--grid", "256",
                   "--out", str(tmp_path / "b")) == 0
    assert capsys.readouterr() == ("", "")


def test_cmd_knothe_takes_a_mode_aliased_onto_the_coarse_fibers(tmp_path,
                                                               capsys):
    # k2 = 64 falls on the mean of the 64 nodes of each fiber: the closed
    # form keeps its unit mass, so Glift(y + 1) = Glift(y) + 1 holds, the
    # fiber maps solve, and the unresolved mode shows in the certificate's
    # warning
    cfg = write_cfg(tmp_path, """
f.name = standard_f
g.modes = (1, 64, 0.2, 0.0); (0, 1, 0.1, 0.0)
quiet = true
""")
    assert run_cli("knothe", "--config", str(cfg), "--grid", "64",
                   "--out", str(tmp_path / "a")) == 0
    out, err = capsys.readouterr()
    row = (tmp_path / "a" / "diagnostics.csv").read_text().splitlines()[1]
    error = float(row.split(",")[0])
    assert 1e-4 < error < 1e-2 and out == ""
    assert err.startswith("tot: warning: fiber pushforward max error")


def test_cmd_knothe_standard_pair_writes_no_warning(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "f.name = standard_f\ng.name = standard_g\n")
    assert run_cli("knothe", "--config", str(cfg), "--grid", "128",
                   "--out", str(tmp_path / "out")) == 0
    assert capsys.readouterr().err == ""


def test_cmd_brenier_equal_densities(tmp_path):
    cfg = write_cfg(tmp_path, """
f.name = standard_g
g.name = standard_g
grid.n1 = 64
grid.n2 = 64
quiet = true
""")
    out = tmp_path / "out"
    assert run_cli("brenier", "--config", str(cfg), "--out", str(out)) == 0
    psi = read_field_binary(out / "brenier_psi.totf")
    assert np.max(np.abs(psi.values)) < 1e-10


def test_cmd_brenier_reports_iterations_per_level(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
f.name = standard_f
g.name = standard_g
emit.csv = false
""")
    out = tmp_path / "out"
    assert run_cli("brenier", "--config", str(cfg), "--out", str(out)) == 0
    message = capsys.readouterr().out
    levels = message.split("(", 1)[1].split(")", 1)[0]
    counts = dict(level.split(": ") for level in levels.split(", "))
    assert list(counts) == ["64x64", "128x128"]
    total = int(message.split("newton iters ", 1)[1].split(" ", 1)[0])
    assert total == sum(int(c) for c in counts.values())
    # the diagnostics row carries the same all-level count
    row = (out / "brenier_diagnostics.csv").read_text().splitlines()[1]
    assert int(row.split(",")[3]) == total


def test_cmd_continue_reports_iterations_per_level(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
f.name = standard_f
g.name = standard_g
steps = 4
emit.csv = false
""")
    out = tmp_path / "out"
    assert run_cli("continue", "--config", str(cfg), "--out", str(out)) == 0
    message = capsys.readouterr().out
    assert message.startswith("[continue] 5 states")
    levels = message.split("(", 1)[1].split(")", 1)[0]
    counts = dict(level.split(": ") for level in levels.split(", "))
    assert list(counts) == ["64x64", "128x128"]
    total = int(message.split("newton iters ", 1)[1].split(" ", 1)[0])
    assert total == sum(int(c) for c in counts.values())
    # trajectory.csv's newton_iters column sums to the same all-level count
    lines = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert total == sum(int(line.rsplit(",", 1)[1]) for line in lines)


def test_cmd_compare_product(tmp_path):
    cfg = write_cfg(tmp_path, """
f.name = product_f
g.name = product_g
grid.n1 = 64
grid.n2 = 64
steps = 8
quiet = true
""")
    out = tmp_path / "out"
    assert run_cli("compare", "--config", str(cfg), "--out", str(out)) == 0
    header, row = (out / "compare.csv").read_text().splitlines()
    values = dict(zip(header.split(","), map(float, row.split(","))))
    assert values["sup_diff"] <= 1e-8
    # product pair: the optimal map equals the rearrangement at every t
    lines = (out / "trajectory.csv").read_text().splitlines()
    l2_column = [float(line.split(",")[4]) for line in lines[1:]]
    assert max(l2_column) <= 1e-8


def test_final_map_keeps_its_precision_at_small_t1(tmp_path):
    # the map of the assembled potential loses about 5e-16 / t1 in its x2
    # component; the final record's decomposed pair loses nothing
    cfg = load_config(write_cfg(tmp_path, """
f.name = standard_f
g.name = standard_g
grid.n1 = 128
grid.n2 = 128
t0 = 1e-4
t1 = 1e-3
steps = 4
quiet = true
emit.csv = false
"""), {"out": str(tmp_path / "out")})
    (tmp_path / "out").mkdir()
    pair = cfg.pair
    final = cmd_continue(cfg, cfg.out_dir).final
    assert final.t == 1e-3
    map1, map2 = (read_field_binary(tmp_path / "out" / f"final_map{i}.totf")
                  for i in (1, 2))
    x2 = pair.grid.mesh()[1]
    oracle = x2 - deriv_values(final.psi2.values, 1)
    assert np.max(np.abs(map2.values - oracle)) <= 1e-14
    # the x1 component is the assembled potential's, to rounding
    ref = tot.transport_map(cfg.schedule.matrix(final.t), final.psi)
    assert np.max(np.abs(map1.values - ref.v1.values)) <= 1e-13


def test_cmd_continue_step_counts_agree(tmp_path):
    base = """
f.name = standard_f
g.name = standard_g
grid.n1 = 64
grid.n2 = 64
quiet = true
"""
    cfg = write_cfg(tmp_path, base)
    out8 = tmp_path / "out8"
    out16 = tmp_path / "out16"
    assert run_cli("continue", "--config", str(cfg), "--out", str(out8),
                   "--steps", "8") == 0
    assert run_cli("continue", "--config", str(cfg), "--out", str(out16),
                   "--steps", "16") == 0
    a = read_field_binary(out8 / "final_psi.totf")
    b = read_field_binary(out16 / "final_psi.totf")
    assert np.max(np.abs(a.values - b.values)) <= 1e-7


def test_step_files_are_the_records_of_the_default_run(tmp_path):
    # emit.steps keeps every record's field; the step files match a run
    # that keeps them by default, record by record
    cfg_path = write_cfg(tmp_path, """
f.name = standard_f
g.name = standard_g
grid.n1 = 64
grid.n2 = 64
steps = 4
emit.csv = false
emit.steps = true
quiet = true
""")
    out = tmp_path / "out"
    assert run_cli("continue", "--config", str(cfg_path), "--out",
                   str(out)) == 0
    cfg = load_config(cfg_path)
    traj = tot.run(cfg.pair, cfg.schedule, cfg.options)
    steps = sorted(out.glob("step_*_psi.totf"))
    assert len(steps) == len(traj.records) == 5
    for path, rec in zip(steps, traj.records):
        assert np.array_equal(read_field_binary(path).values, rec.psi.values)


def test_collapsed_run_writes_the_rows_it_certified(tmp_path, capsys):
    # lambda = t^10 initializes at t0 = 1e-3, then its first step collapses
    cfg = write_cfg(tmp_path, """
f.name = standard_f
g.name = standard_g
grid.n1 = 64
grid.n2 = 64
lambda = t^10
steps = 8
quiet = true
""")
    out = tmp_path / "out"
    assert run_cli("continue", "--config", str(cfg), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("tot: solver did not converge: continuation step "
                          "collapsed to dt = ")
    header, *rows = (out / "trajectory.csv").read_text().splitlines()
    assert header == continuation.SUMMARY_HEADER
    assert len(rows) == 1
    t, sup, margin = map(float, rows[0].split(",")[:3])
    assert t == 1e-3 and sup <= 1e-10 and margin > 0.0
    assert sorted(p.name for p in out.iterdir()) == ["trajectory.csv"]


def test_cli_outputs_are_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, """
f.name = standard_f
g.name = standard_g
grid.n1 = 64
grid.n2 = 64
quiet = true
""")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli("knothe", "--config", str(cfg), "--out", str(out_a)) == 0
    assert run_cli("knothe", "--config", str(cfg), "--out", str(out_b)) == 0
    for name in ("knothe_u2.csv", "knothe_r2_displacement.csv",
                 "diagnostics.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_exit_code_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "f.modes = (1,0,2.0,0)\ng.modes = (0,1,0.2,0)\n")
    assert run_cli("brenier", "--config", str(cfg)) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["pushforward_k = 0", "pushforward_k = -1",
                                   "max_newton = 0",
                                   # non-finite values: an infinite tolerance
                                   # would certify any state
                                   "t0 = nan", "t1 = inf", "newton_tol = inf",
                                   "newton_tol = nan",
                                   # t0 >= t1, with t1 left at its default
                                   # and with t1 set
                                   "t0 = 5", "t1 = 0.0001"])
def test_exit_code_invalid_option(tmp_path, capsys, entry):
    key = entry.split()[0]
    # the message words t0 >= t1 from t1's side; the key is the entry set
    named = "t1" if entry == "t0 = 5" else key
    cfg = write_cfg(tmp_path, MINIMAL + "grid.n1 = 16\ngrid.n2 = 16\n" + entry + "\n")
    assert run_cli("continue", "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 2
    assert f"options: {named}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError) as info:
        load_config(cfg)
    assert info.value.key == key


# (9, 9) is what --grid 9 sets: both sides fail, and n1 is named
@pytest.mark.parametrize("n1, n2, key", [(64, 7, "grid.n2"), (7, 64, "grid.n1"),
                                         (6, 64, "grid.n1"), (64, 4, "grid.n2"),
                                         (9, 9, "grid.n1")])
def test_grid_error_names_the_side_that_failed(tmp_path, n1, n2, key):
    cfg = write_cfg(tmp_path, MINIMAL + f"grid.n1 = {n1}\ngrid.n2 = {n2}\n")
    with pytest.raises(ConfigError, match="grid size must be even") as info:
        load_config(cfg)
    assert info.value.key == key


@pytest.mark.parametrize("k", [8, 100000000])
def test_exit_code_pushforward_k_above_the_grid(tmp_path, capsys, k):
    # 2K >= min(n1, n2): the grid's trapezoid rule resolves no such test
    # function, and K = 10^8 would ask for exabytes of powers
    cfg = write_cfg(tmp_path, MINIMAL + "grid.n1 = 16\ngrid.n2 = 24\n"
                    f"pushforward_k = {k}\n")
    assert run_cli("brenier", "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"tot: config error: pushforward_k: {k} needs 2K < "
                          "min(n1, n2) = 16")
    assert not (tmp_path / "out").exists()
    assert load_config(write_cfg(tmp_path, MINIMAL + "grid.n1 = 16\n"
                                 "grid.n2 = 24\npushforward_k = 7\n",
                                 "ok.cfg")).options.pushforward_k == 7


# keys of settings that are gone: the run no longer switches
# representation (t_switch), every step after the second extrapolates
# (predictor), the fixed ladder is always geometric (step_grading,
# grading_ratio) and the velocity solve has one tolerance (solver_tol)
@pytest.mark.parametrize("entry", ["t_switch = 0.01", "predictor = heun",
                                   "step_grading = uniform",
                                   "grading_ratio = 2", "solver_tol = 1e-11"])
def test_exit_code_removed_key(tmp_path, capsys, entry):
    cfg = write_cfg(tmp_path, MINIMAL + entry + "\n")
    assert run_cli("continue", "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 2
    assert f"unknown key '{entry.split()[0]}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_code_schedule_that_vanishes_at_t0(tmp_path, capsys):
    # lambda = t^110 underflows to 0.0 at t0 = 1e-3: A_t0 is no cost
    cfg = write_cfg(tmp_path, MINIMAL + "grid.n1 = 16\ngrid.n2 = 16\n"
                    "lambda = t^110\n")
    assert run_cli("continue", "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("tot: config error: lambda: lambda(t0) = 0")
    assert not (tmp_path / "out").exists()


def test_exit_code_schedule_too_steep_to_initialize(tmp_path, capsys):
    # lambda = t^60 is positive at t0 = 1e-3 (1e-180), but the correction of
    # the Knothe pair breaks down there, and t0 is tried once
    cfg = write_cfg(tmp_path, MINIMAL + "grid.n1 = 16\ngrid.n2 = 16\n"
                    "lambda = t^60\nsteps = 2\n")
    assert run_cli("continue", "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("tot: solver error: could not initialize from the "
                          "rearrangement at t0 = 0.001 (lambda = 1e-180): ")
    assert "larger grid" in err and "Traceback" not in err


@pytest.mark.parametrize("flag, text", [("--steps", "abc"), ("--steps", "1.5"),
                                        ("--t0", "abc"), ("--grid", "x"),
                                        ("--grid", "9")])
def test_exit_code_invalid_flag(tmp_path, capsys, flag, text):
    cfg = write_cfg(tmp_path, MINIMAL + "grid.n1 = 16\ngrid.n2 = 16\n")
    assert run_cli("continue", "--config", str(cfg),
                   "--out", str(tmp_path / "out"), flag, text) == 2
    err = capsys.readouterr().err
    assert err.startswith("tot: config error") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_flags_are_schema_entries():
    # a flag's text reaches the schema parser untyped, so no flag can
    # bypass the validation of the keys it overrides
    options = [action for action in _build_parser()._actions
               if action.option_strings and action.dest not in ("config", "help")]
    assert sorted(action.dest for action in options) == sorted(_FLAG_KEYS)
    for action in options:
        assert action.type is None
        assert action.const is None or isinstance(action.const, str)
        assert set(_FLAG_KEYS[action.dest]) <= set(_SCHEMA)


def test_exit_code_density_not_positive_on_the_configured_grid(tmp_path, capsys):
    # the minimum 0.0499999 lies between the nodes of every oversampled
    # grid but 1024^2; the certified bound sees it on each of them
    cfg = write_cfg(tmp_path, """
f.modes = (0, 1, 0.9500001, 0.0061359231515425647)
g.modes = (0, 1, 0.2, 0)
""")
    for grid in ("64", "128", "256"):
        assert run_cli("knothe", "--config", str(cfg), "--grid", grid,
                       "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("tot: config error") and "density not positive" in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["brenier", "knothe"])
def test_exit_code_density_negative_between_all_nodes(tmp_path, capsys, command):
    # cos(2 pi 256 x2 + pi/2) vanishes on every node i/m with m | 512, so
    # g reads 1 on every grid a 16^2 run scans while its minimum is -0.5
    cfg = write_cfg(tmp_path, """
f.modes = (1, 0, 0.3, 0)
g.modes = (0, 256, 1.5, 1.5707963267948966)
grid.n1 = 16
grid.n2 = 16
""")
    assert run_cli(command, "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("tot: config error") and "density not positive" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("phase,grid", [
    ("0.0061359231515425647", "256"),   # the minimum on a node of 1024^2
    ("0", "128"),                       # and on a node of 512^2
])
def test_positivity_message_shows_the_real_minimum(tmp_path, capsys, phase,
                                                   grid):
    # the minimum 0.0499999 misses the 0.05 margin by 1e-7: at 3 digits it
    # would read as 0.05
    cfg = write_cfg(tmp_path, f"""
f.modes = (0, 1, 0.9500001, {phase})
g.modes = (0, 1, 0.2, 0)
""")
    assert run_cli("knothe", "--config", str(cfg), "--grid", grid,
                   "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    lowest = float(re.search(r"min\W+([-+.\deE]+)", err).group(1))
    assert lowest < 0.05
    assert abs(lowest - (1.0 - 0.9500001)) < 1e-12


def test_brenier_residual_field_is_the_certified_residual(tmp_path):
    cfg = write_cfg(tmp_path, """
f.name = standard_f
g.name = standard_g
emit.csv = false
quiet = true
""")
    out = tmp_path / "out"
    assert run_cli("brenier", "--config", str(cfg), "--out", str(out)) == 0
    row = (out / "brenier_diagnostics.csv").read_text().splitlines()[1]
    residual = read_field_binary(out / "brenier_residual.totf")
    assert np.max(np.abs(residual.values)) == float(row.split(",")[0])


def test_exit_code_solver_failure(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
f.name = standard_f
g.name = standard_g
grid.n1 = 64
grid.n2 = 64
max_newton = 1
quiet = true
""")
    assert run_cli("brenier", "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 3
    assert "converge" in capsys.readouterr().err


def test_exit_code_io_error(tmp_path, capsys):
    assert run_cli("brenier", "--config", str(tmp_path / "missing.cfg")) == 4
    assert "i/o error" in capsys.readouterr().err

    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    cfg = write_cfg(tmp_path, MINIMAL + "grid.n1 = 64\ngrid.n2 = 64\n")
    assert run_cli("knothe", "--config", str(cfg), "--out", str(blocker)) == 4


def test_console_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL + "grid.n1 = 64\ngrid.n2 = 64\nquiet = true\n")
    proc = subprocess.run(
        [sys.executable, "-m", "tot.cli", "knothe", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0
