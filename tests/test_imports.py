"""Module boundaries of ``tot``: the program calls the public forms.

A module that imports another module's underscore name runs a second,
private form of an operator beside the public one, and the tests of the
public form then check a wrapper rather than the code the program runs.
"""

import ast
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
                     "from tot.continuation import _damped_newton\n"
                     "from numpy import _globals\n", encoding="utf-8")
    assert _private_imports(probe) == [("linearized", "_kernels"),
                                       ("tot.continuation", "_damped_newton")]
