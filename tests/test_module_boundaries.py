"""No module of ``wpi`` imports another module's private names.

A name that starts with one underscore belongs to its module: another
module that imports it depends on what the owner may change at will.  Each
``src/wpi/*.py`` is parsed, and every ``from ... import`` of a ``wpi``
module (relative, or by the package's name) must bind only public names or
dunders such as ``__version__``.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "wpi").glob("*.py"))


def private_imports(tree: ast.Module) -> list[str]:
    """``module.name`` of each private name that ``tree`` imports from a ``wpi`` module."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if not (node.level or module == "wpi" or module.startswith("wpi.")):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{'.' * node.level}{module}.{name}")
    return found


def test_the_check_finds_a_private_import():
    tree = ast.parse("from .markov import _PathTally, sample_trajectories\n"
                     "from wpi.report import _verdicts\nfrom . import __version__\n"
                     "from numpy import _private\n")
    assert private_imports(tree) == [".markov._PathTally", "wpi.report._verdicts"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_private_name_crosses_a_module(path):
    assert private_imports(ast.parse(path.read_text(encoding="utf-8"))) == []
