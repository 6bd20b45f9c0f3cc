import subprocess
import sys

import numpy as np
import pytest

import tot
from tot.cli import main
from tot.config import load_config
from tot.errors import ConfigError
from tot.fieldio import read_field_binary


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
    assert cfg.grid_n1 == 128 and cfg.grid_n2 == 128
    assert cfg.schedule.kind == "linear"
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
    with pytest.raises(ConfigError, match="density not positive: min"):
        load_config(cfg_path)


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
                      overrides={"grid.n1": 64, "grid.n2": 64, "t0": 1e-2})
    assert cfg.grid_n1 == 64
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
                                   "max_newton = 0", "solver_tol = 0",
                                   "solver_tol = -1e-11",
                                   # non-finite values: an infinite tolerance
                                   # would certify any state
                                   "t0 = nan", "t1 = inf", "newton_tol = inf",
                                   "newton_tol = nan", "solver_tol = inf",
                                   "grading_ratio = inf"])
def test_exit_code_invalid_option(tmp_path, capsys, entry):
    cfg = write_cfg(tmp_path, MINIMAL + "grid.n1 = 16\ngrid.n2 = 16\n" + entry + "\n")
    assert run_cli("continue", "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 2
    assert f"options: {entry.split()[0]}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_code_removed_t_switch_key(tmp_path, capsys):
    # the run no longer switches representation, so the key is unknown
    cfg = write_cfg(tmp_path, MINIMAL + "t_switch = 0.01\n")
    assert run_cli("continue", "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 2
    assert "unknown key 't_switch'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_code_removed_predictor_key(tmp_path, capsys):
    # every step after the second extrapolates, so there is nothing to pick
    cfg = write_cfg(tmp_path, MINIMAL + "predictor = heun\n")
    assert run_cli("continue", "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 2
    assert "unknown key 'predictor'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("entry", ["step_grading = uniform",
                                   "steps = adaptive"])
def test_exit_code_grading_ratio_ignored(tmp_path, capsys, entry):
    cfg = write_cfg(tmp_path, MINIMAL + "grid.n1 = 16\ngrid.n2 = 16\n"
                    + entry + "\ngrading_ratio = 2\n")
    assert run_cli("continue", "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 2
    assert "options: grading_ratio" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
