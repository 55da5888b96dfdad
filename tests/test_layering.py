"""Layering: no module of the package reads a private name of a sibling,
and the public names are real and documented.

A name that starts with ``_`` belongs to its own module.  The CLI
parses, calls the library and writes reports through public functions
only, and the library modules keep to each other's public names, so a
tracer that wraps public module attributes sees every call between
them.  Each module's syntax tree is walked for ``sibling._name``
attribute reads and ``from .sibling import _name`` imports.  Every name
in a module's ``__all__`` must resolve (a tracer that walks ``__all__``
would pass over a stale entry in silence), and every public name the
package exports must appear in the README as code.
"""

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

import koopmanrom

SIBLINGS = ("dmd", "rom", "snapshots", "swe", "cli")
PACKAGE = Path(koopmanrom.__file__).parent


def private_reads(source: str) -> list[str]:
    """``sibling._name`` reads and ``from .sibling import _name`` imports
    in ``source``, as the text they name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in SIBLINGS and node.attr.startswith("_")):
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
        elif (isinstance(node, ast.ImportFrom) and node.level > 0
              and node.module in SIBLINGS):
            found += [f"from .{node.module} import {alias.name} (line {node.lineno})"
                      for alias in node.names if alias.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_of_a_sibling(path):
    assert private_reads(path.read_text()) == []


def test_checker_finds_each_form():
    source = ("from . import dmd\nfrom .rom import _residuals, mode_weights\n"
              "dmd._qr_solve(x)\nswe.simulate\nfoo._bar\n")
    assert private_reads(source) == ["from .rom import _residuals (line 2)",
                                     "dmd._qr_solve (line 3)"]


def test_every_sibling_is_a_module_of_the_package():
    assert {p.stem for p in PACKAGE.glob("*.py")} >= set(SIBLINGS)


@pytest.mark.parametrize("name", ["dmd", "rom", "snapshots", "swe"])
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"koopmanrom.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_exported_name_is_in_the_readme():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    exported = sorted(name for name, value in vars(koopmanrom).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    # at the start of a code span, or called through the package in a sketch
    missing = [name for name in exported
               if not re.search(rf"(`|\bkr\.){re.escape(name)}\b", readme)]
    assert missing == []
