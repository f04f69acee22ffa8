"""The package's exception types stay few.

Every type in ``errors.py`` below the ``VPBanditError`` base is raised
somewhere in the package, and no other module defines an exception type.
"""

import ast
import importlib
import pathlib
import types

import pytest

from vpbandit import errors

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "vpbandit"


def raised_names(source):
    """The names that ``source`` raises by calling them, as in ``raise Name(...)``."""
    return {
        node.exc.func.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
    }


def exception_types(module):
    """The names of the exception classes defined at the top level of ``module``."""
    return sorted(
        name
        for name, obj in vars(module).items()
        if isinstance(obj, type)
        and obj.__module__ == module.__name__
        and issubclass(obj, BaseException)
    )


def test_every_error_type_is_raised():
    raised = set().union(*(raised_names(p.read_text()) for p in SRC.glob("*.py")))
    defined = set(exception_types(errors)) - {"VPBanditError"}
    assert sorted(defined - raised) == []


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "errors.py"), ids=lambda p: p.name
)
def test_only_errors_defines_exception_types(path):
    name = "vpbandit" if path.stem == "__init__" else f"vpbandit.{path.stem}"
    assert exception_types(importlib.import_module(name)) == []


def test_the_checks_see_raises_and_definitions():
    source = (
        "class Odd(ValueError):\n"
        "    pass\n"
        "def f(x):\n"
        "    if x:\n"
        "        raise Odd('x')\n"
        "    raise ValueError\n"
    )
    assert raised_names(source) == {"Odd"}
    module = types.ModuleType("probe")
    exec(source, vars(module))
    assert exception_types(module) == ["Odd"]
