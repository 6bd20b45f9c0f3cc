"""Run configuration: a small line-oriented key = value format.

Lines are ``key = value`` with ``#`` comments; keys are dotted paths from
the schema below.  Densities come either from the shipped catalog
(``f.name = standard_f``) or as explicit mode lists
(``f.modes = (k1,k2,amp,phase); (k1,k2,amp,phase)``).  The schedule key
``lambda`` accepts ``t`` (linear, the default) or ``t^P`` with P >= 1.

Every violated constraint is reported with its key path; unknown keys
get a closest-match suggestion.  Parse errors carry the line number.
"""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass, fields

from .continuation import ContinuationOptions
from .densities import CATALOG, DELTA_MIN, DensitySpec
from .errors import ConfigError
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
    step_grading=str, grading_ratio=float, solver_tol=float, pushforward_k=int)
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

    grid_n1: int
    grid_n2: int
    f_spec: DensitySpec
    g_spec: DensitySpec
    schedule: CostSchedule
    options: ContinuationOptions
    out_dir: str
    emit_csv: bool
    emit_binary: bool
    emit_steps: bool
    quiet: bool

    def grid(self):
        return build_grid(self.grid_n1, self.grid_n2)


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
        if key not in _SCHEMA:
            hint = difflib.get_close_matches(key, _SCHEMA.keys(), n=1)
            suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ConfigError(f"line {lineno}: unknown key {key!r}{suggestion}",
                              line=lineno, key=key)
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}",
                              line=lineno, key=key)
        parser, _ = _SCHEMA[key]
        try:
            entries[key] = parser(value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(
                f"line {lineno}: invalid value for {key!r}: {exc}",
                line=lineno, key=key) from exc
    return entries


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
    if text == "t":
        return CostSchedule.linear()
    match = re.fullmatch(r"t\^(\d+(?:\.\d+)?)", text)
    if match is None:
        raise ConfigError(
            f"lambda: expected 't' or 't^P', got {text!r}", key="lambda")
    power = float(match.group(1))
    if power < 1.0:
        raise ConfigError("lambda: power must be >= 1", key="lambda")
    return CostSchedule.linear() if power == 1.0 else CostSchedule.power(power)


def config_from_entries(entries, overrides=None):
    merged = {key: default for key, (_, default) in _SCHEMA.items()}
    merged.update(entries)
    if overrides:
        merged.update(overrides)

    f_spec = _density_from_entries(merged, "f")
    g_spec = _density_from_entries(merged, "g")
    for which, spec in (("f", f_spec), ("g", g_spec)):
        lowest = spec.min_value()
        if lowest < DELTA_MIN:
            raise ConfigError(
                f"{which}: density not positive: min ≈ {lowest:.3g} "
                f"< {DELTA_MIN:g}", key=f"{which}.modes")

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
    return RunConfig(grid.n1, grid.n2, f_spec, g_spec, schedule, options,
                     merged["out"], merged["emit.csv"], merged["emit.binary"],
                     merged["emit.steps"], merged["quiet"])


def load_config(path, overrides=None):
    """Parse and validate a configuration file.

    ``overrides`` maps schema keys to already-parsed values (used by the
    command line flags, which take precedence over file entries).
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return config_from_entries(_parse_lines(text), overrides)
