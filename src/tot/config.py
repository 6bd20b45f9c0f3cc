"""Run configuration: a small line-oriented key = value format.

Lines are ``key = value`` with ``#`` comments; keys are dotted paths from
the schema below.  Densities come either from the shipped catalog
(``f.name = standard_f``) or as explicit mode lists
(``f.modes = (k1,k2,amp,phase); (k1,k2,amp,phase)``).  The schedule key
``lambda`` accepts ``t`` (linear, the default) or ``t^P`` with P >= 1.

Overrides (the command-line flags) are ``key -> text`` like a file line
and go through the same parsers.  The configuration builds the grid and
the density pair, so every input is validated here; the pair's certified
lower bound (``make_density_pair``) is its only positivity test.  Every
violated constraint is reported with its key path; unknown keys get a
closest-match suggestion.  Parse errors carry the line number.
"""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass, fields

from .continuation import ContinuationOptions
from .densities import CATALOG, DensityPair, DensitySpec, make_density_pair
from .errors import ConfigError, PositivityError
from .grid import build_grid
from .monge_ampere import CostSchedule


def _parse_bool(text):
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_steps(text):
    if text == "adaptive":
        return "adaptive"
    return int(text)


_MODE_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*([^,\s]+)\s*,\s*([^,\s)]+)\s*\)")


def _parse_modes(text):
    matches = _MODE_RE.findall(text)
    stripped = _MODE_RE.sub("", text).replace(";", "").strip()
    if stripped:
        raise ValueError(
            f"could not parse mode list near {stripped!r}; expected "
            "(k1,k2,amplitude,phase) tuples separated by ';'")
    return tuple((int(k1), int(k2), float(a), float(p))
                 for k1, k2, a, p in matches)


# parser of each ContinuationOptions field, which is the key of that name
_OPTION_PARSERS = dict(
    t0=float, t1=float, steps=_parse_steps, newton_tol=float, max_newton=int,
    pushforward_k=int)
_OPTIONS = fields(ContinuationOptions)

# key -> (parser, default); None default means "no entry unless given".
# The continuation keys take their defaults from ContinuationOptions.
_SCHEMA = {
    "grid.n1": (int, 128),
    "grid.n2": (int, 128),
    "f.name": (str, None),
    "f.modes": (_parse_modes, None),
    "g.name": (str, None),
    "g.modes": (_parse_modes, None),
    "lambda": (str, "t"),
    **{f.name: (_OPTION_PARSERS[f.name], f.default) for f in _OPTIONS},
    "out": (str, "out"),
    "emit.csv": (_parse_bool, True),
    "emit.binary": (_parse_bool, True),
    "emit.steps": (_parse_bool, False),
    "quiet": (_parse_bool, False),
}


@dataclass
class RunConfig:
    """Validated settings for one command invocation."""

    pair: DensityPair
    schedule: CostSchedule
    options: ContinuationOptions
    out_dir: str
    emit_csv: bool
    emit_binary: bool
    emit_steps: bool
    quiet: bool


def _parse_lines(text):
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {lineno}: expected 'key = value', got {raw.strip()!r}",
                line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}",
                              line=lineno, key=key)
        entries[key] = _parse_value(key, value, f"line {lineno}", lineno)
    return entries


def _parse_value(key, text, where, line=None):
    """Parse ``text`` as the value of schema key ``key``; the message of a
    ConfigError starts with ``where``, the line or the override."""
    if key not in _SCHEMA:
        hint = difflib.get_close_matches(key, _SCHEMA.keys(), n=1)
        suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
        raise ConfigError(f"{where}: unknown key {key!r}{suggestion}",
                          line=line, key=key)
    parser, _ = _SCHEMA[key]
    try:
        return parser(text)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{where}: invalid value for {key!r}: {exc}",
                          line=line, key=key) from exc


def _density_from_entries(entries, which):
    name = entries.get(f"{which}.name")
    modes = entries.get(f"{which}.modes")
    if name is not None and modes is not None:
        raise ConfigError(f"{which}.name and {which}.modes are exclusive",
                          key=f"{which}.name")
    if name is not None:
        if name not in CATALOG:
            hint = difflib.get_close_matches(name, CATALOG.keys(), n=1)
            suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ConfigError(
                f"{which}.name: unknown catalog density {name!r}{suggestion}",
                key=f"{which}.name")
        return CATALOG[name]
    if modes is None:
        raise ConfigError(f"missing density: set {which}.name or {which}.modes",
                          key=f"{which}.name")
    return DensitySpec(modes)


def _schedule_from_entry(text):
    match = re.fullmatch(r"t(?:\^(\d+(?:\.\d+)?))?", text)
    if match is None:
        raise ConfigError(
            f"lambda: expected 't' or 't^P', got {text!r}", key="lambda")
    power = float(match.group(1) or 1.0)
    if power == 1.0:
        return CostSchedule.linear()
    try:
        return CostSchedule.power(power)
    except ValueError as exc:
        raise ConfigError(f"lambda: {exc}", key="lambda") from exc


def config_from_entries(entries):
    merged = {key: default for key, (_, default) in _SCHEMA.items()}
    merged.update(entries)

    f_spec = _density_from_entries(merged, "f")
    g_spec = _density_from_entries(merged, "g")

    schedule = _schedule_from_entry(merged["lambda"])
    try:
        grid = build_grid(merged["grid.n1"], merged["grid.n2"])
    except Exception as exc:
        raise ConfigError(f"grid: {exc}", key="grid.n1") from exc
    options = ContinuationOptions(**{f.name: merged[f.name] for f in _OPTIONS})
    try:
        options.validated()
    except ValueError as exc:
        raise ConfigError(f"options: {exc}") from exc
    if not schedule.lam(options.t0) > 0.0:
        raise ConfigError(f"lambda: lambda(t0) = {schedule.lam(options.t0):g} "
                          f"at t0 = {options.t0:g} is not a cost", key="lambda")
    try:
        pair = make_density_pair(f_spec, g_spec, grid)
    except PositivityError as exc:
        raise ConfigError(f"grid {grid.n1}x{grid.n2}: {exc}") from exc
    return RunConfig(pair, schedule, options, merged["out"], merged["emit.csv"],
                     merged["emit.binary"], merged["emit.steps"],
                     merged["quiet"])


def load_config(path, overrides=None):
    """Parse and validate a configuration file and build its density pair.

    ``overrides`` maps schema keys to value text, parsed exactly as a file
    line of that key would be; the command-line flags pass their text
    here, and it takes precedence over the file's entries.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    entries = _parse_lines(text)
    for key, value in (overrides or {}).items():
        entries[key] = _parse_value(key, value, "override")
    return config_from_entries(entries)
