"""Module boundaries of ``tot``: the program calls the public forms.

A module that imports another module's underscore name runs a second,
private form of an operator beside the public one, and the tests of the
public form then check a wrapper rather than the code the program runs.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import tot

SRC = Path(tot.__file__).resolve().parent


def _private_imports(path):
    """(module, name) for each underscore name that ``path`` imports from
    another ``tot`` module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("tot"):
            continue
        found += [(node.module, alias.name) for alias in node.names
                  if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    private = {path.name: _private_imports(path) for path in modules}
    assert {name: found for name, found in private.items() if found} == {}


def test_the_check_sees_a_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .linearized import _kernels, coefficient_arrays\n"
                     "from tot.continuation import _sequenced\n"
                     "from numpy import _globals\n", encoding="utf-8")
    assert _private_imports(probe) == [("linearized", "_kernels"),
                                       ("tot.continuation", "_sequenced")]


# ---------------------------------------------------------------------------
# exports: every public name of ``tot`` is code that something runs

ROOT = SRC.parents[1]

# exports that only the acceptance criteria call, each with its criterion
CRITERIA_NAMES = {
    "apply_linearized": "criteria 2 and 3: the operator against central "
                        "differences, and the solve's residual",
    "project_zero_mean": "criteria 3 and 4: zero-mean right-hand sides",
    "apply_linearized_t0": "criterion 4: the t = 0 forward recovery",
}


def _exports():
    """Every name that ``tot/__init__.py`` imports from a ``tot`` module."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


def _used_names(path):
    """Identifiers and attribute names that ``path`` loads, outside the
    top-level definition of the name itself (a function calling itself or
    a class naming itself is not a use)."""
    used = set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else None)
            if (name is not None and name != own
                    and isinstance(node.ctx, ast.Load)):
                used.add(name)
    return used


def _tracer_targets(path):
    """The names in the ``TARGETS`` strings of the benchmark's tracer:
    module, class and function."""
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        if (isinstance(stmt, ast.Assign)
                and [t.id for t in stmt.targets] == ["TARGETS"]):
            return {part for module, attr in ast.literal_eval(stmt.value)
                    for part in (module, *attr.split("."))}
    return set()


def _program_names():
    """Names that ``src/tot`` (its ``__init__`` aside), ``demos/`` and
    ``bench/`` use."""
    used = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            used |= _used_names(path)
    for folder in ("demos", "bench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            used |= _used_names(path)
    return used | _tracer_targets(ROOT / "bench" / "tracer.py")


def test_every_export_is_used_by_the_program():
    exports = _exports()
    assert len(exports) > 50
    unused = set(exports) - _program_names() - set(CRITERIA_NAMES)
    assert sorted(unused) == []


def _public_members(cls):
    """The public methods and properties that the body of ``cls`` defines
    (dataclass fields are data, not members)."""
    return sorted(name for name, member in vars(cls).items()
                  if not name.startswith("_") and (
                      callable(member)
                      or isinstance(member, (property, classmethod, staticmethod))))


def _exported_classes():
    return [cls for cls in (getattr(tot, name) for name in _exports())
            if isinstance(cls, type) and cls.__module__.startswith("tot.")]


def test_every_member_of_an_exported_class_is_used_by_the_program():
    used = _program_names()
    unused = [f"{cls.__name__}.{name}" for cls in _exported_classes()
              for name in _public_members(cls) if name not in used]
    assert unused == []


def test_the_member_census_sees_methods_and_properties():
    assert len(_exported_classes()) > 20
    assert _public_members(tot.TrigPoly1D) == [
        "antiderivative", "from_modes", "normalized", "take",
        "value_and_primitive"]
    assert _public_members(tot.CircleDensity) == ["values"]
    assert _public_members(tot.CostSchedule) == ["linear", "matrix", "power"]


def test_criteria_names_are_exports_the_criteria_call():
    exports = _exports()
    calls = _used_names(ROOT / "tests" / "test_acceptance.py")
    for name in CRITERIA_NAMES:
        assert name in exports and name in calls, name


def test_the_export_census_sees_uses(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def alone(x):\n    return alone(x - 1)\n\n"
                     "def caller():\n    return tot.used(alone)\n"
                     "TARGETS = ((\"grid\", \"Poly.__call__\"),)\n"
                     "stored = 1\n", encoding="utf-8")
    assert _used_names(probe) == {"tot", "used", "alone", "x"}
    assert _tracer_targets(probe) == {"grid", "Poly", "__call__"}


# ---------------------------------------------------------------------------
# parameters: every optional parameter of a public function is a setting
# that some call of the program makes

# optional parameters that no call sets, each with its reason
UNSET_PARAMETERS = {
    ("velocity", "schedule"): "ROADMAP item 3 deletes velocity once the "
                              "benchmark's tracer no longer wraps it",
    ("velocity", "tol"): "ROADMAP item 3, as velocity's schedule",
}


def _optional_parameters(path):
    """{(function, parameter): position} for each parameter with a default
    of a public function, or of a public method of a public class, that
    ``path`` defines.  A method's position does not count its ``self`` or
    ``cls``; the position of a keyword-only parameter is None."""
    found = {}

    def visit(fn, method):
        if fn.name.startswith("_"):
            return
        args = fn.args.posonlyargs + fn.args.args
        static = any(getattr(d, "id", None) == "staticmethod"
                     for d in fn.decorator_list)
        if method and not static:
            args = args[1:]
        for i, arg in enumerate(args[len(args) - len(fn.args.defaults):],
                                len(args) - len(fn.args.defaults)):
            found[fn.name, arg.arg] = i
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                found[fn.name, arg.arg] = None

    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(stmt, ast.FunctionDef):
            visit(stmt, False)
        elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
            for node in stmt.body:
                if isinstance(node, ast.FunctionDef):
                    visit(node, True)
    return found


def _set_parameters(path):
    """(function name, keyword) for each keyword that a call in ``path``
    passes, and (function name, position) for each positional argument;
    a call with ``*args`` or ``**kwargs`` sets every parameter (keyword
    and position None)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        name = (node.func.id if isinstance(node.func, ast.Name) else
                node.func.attr if isinstance(node.func, ast.Attribute)
                else None)
        if name is None:
            continue
        for i, arg in enumerate(node.args):
            found.add((name, None if isinstance(arg, ast.Starred) else i))
        found |= {(name, kw.arg) for kw in node.keywords}
    return found


def _unset_parameters():
    """The optional parameters of ``src/tot`` that no call in ``src/tot``,
    ``demos/`` or ``bench/`` sets."""
    params, calls = {}, set()
    for path in sorted(SRC.glob("*.py")):
        params.update(_optional_parameters(path))
    for path in [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"),
                 *(ROOT / "bench").glob("*.py")]:
        calls |= _set_parameters(path)
    return sorted((fn, param) for (fn, param), pos in params.items()
                  if not {(fn, param), (fn, pos), (fn, None)} & calls)


def test_every_optional_parameter_is_set_by_the_program():
    assert _unset_parameters() == sorted(UNSET_PARAMETERS)


def test_the_parameter_census_sees_keywords_and_positions(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def solve(a, tol=1e-10, steps=3, *, scale=1.0, quiet=False):\n"
        "    return solve(a, 1e-12, quiet=True)\n\n"
        "class Poly:\n"
        "    def take(self, rows, copy=True, view=None):\n"
        "        return self.take(rows, False)\n\n"
        "    @staticmethod\n"
        "    def power(p, q=2):\n"
        "        return Poly.power(p, *p)\n\n"
        "    def _private(self, x=1):\n"
        "        return x\n",
        encoding="utf-8")
    assert _optional_parameters(probe) == {
        ("solve", "tol"): 1, ("solve", "steps"): 2, ("solve", "scale"): None,
        ("solve", "quiet"): None, ("take", "copy"): 1, ("take", "view"): 2,
        ("power", "q"): 1}
    assert _set_parameters(probe) == {
        ("solve", 0), ("solve", 1), ("solve", "quiet"), ("take", 0),
        ("take", 1), ("power", 0), ("power", None)}


# ---------------------------------------------------------------------------
# dependencies: numpy is the one third-party package that ``tot`` imports

NO_SCIPY = """
import sys
sys.modules["scipy"] = None         # any import of scipy now fails
import tot, tot.cli
pair = tot.standard_pair(tot.build_grid(16, 16))
# 16^2 resolves the standard pair to about 2e-4, so the tolerance is loose
res = tot.newton_correct(tot.identity_cost(), tot.zero_field(pair.grid), pair,
                         tol=1e-3)
assert res.iterations > 0 and res.sup_residual <= 1e-3, res
"""


def test_tot_solves_without_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
