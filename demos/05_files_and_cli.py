"""File formats and the command-line front end.

Fields serialize to a 16-byte-header binary format (magic TOTF, sizes,
zero-mean flag, row-major float64) and to x1,x2,value CSV with 17
significant digits.  The ``tot`` command exposes four subcommands -
knothe, brenier, continue, compare - driven by a line-oriented key=value
configuration.  Everything is written to a temporary directory that the
demo removes when it ends.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import tot

CONFIG = """
# the shipped non-product test pair
f.name = standard_f
g.name = standard_g
grid.n1 = 64
grid.n2 = 64
steps = 8
quiet = true
"""

with tempfile.TemporaryDirectory(prefix="tot_demo_") as tmp:
    workdir = Path(tmp)

    # -----------------------------------------------------------------------
    # binary round trip
    grid = tot.build_grid(64, 64)
    x1, x2 = grid.mesh()
    field = tot.field(grid, np.sin(2 * np.pi * (x1 + 2 * x2)))
    path = workdir / "wave.totf"
    tot.write_field_binary(field, path)
    back = tot.read_field_binary(path)
    print(f"binary round trip: bit-identical = "
          f"{np.array_equal(back.values, field.values)}  "
          f"({path.stat().st_size} bytes)")

    # -----------------------------------------------------------------------
    # a configuration file and the four subcommands
    config = workdir / "run.cfg"
    config.write_text(CONFIG, encoding="utf-8")

    for command in ("knothe", "brenier", "continue", "compare"):
        out = workdir / command
        proc = subprocess.run(
            [sys.executable, "-m", "tot.cli", command,
             "--config", str(config), "--out", str(out)],
            capture_output=True, text=True)
        files = sorted(p.name for p in out.iterdir())
        print(f"tot {command}: exit {proc.returncode}, {len(files)} files "
              f"-> {', '.join(files[:4])}{' ...' if len(files) > 4 else ''}")

    summary = (workdir / "compare" / "compare.csv").read_text().splitlines()
    print(f"compare.csv: {summary[0]} = {summary[1]}")
    table = (workdir / "compare" / "trajectory.csv").read_text().splitlines()
    print(f"trajectory.csv: {len(table) - 1} records, columns {table[0]}")
