"""Every name a package module imports is used in that module.

An import kept on purpose, for a name that other code patches or reads
through the module, is marked ``# noqa: F401`` on its line.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "vpbandit"


def unused_imports(source):
    """The names ``source`` imports but never reads, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if "# noqa: F401" not in lines[alias.lineno - 1]
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_unused_and_marked_imports():
    source = (
        "import math\n"
        "import os.path\n"
        "from .game import (\n"
        "    IntrusionTrace,\n"
        "    run_game,  # noqa: F401 -- kept for patching\n"
        "    GameConfig as Config,\n"
        ")\n"
        "x = math.pi + Config(os)\n"
    )
    assert unused_imports(source) == ["IntrusionTrace"]
