"""Layering: no module of the package reads a private name of a sibling.

A name that starts with ``_`` belongs to its own module.  The CLI
parses, calls the library and writes reports through public functions
only, and the library modules keep to each other's public names, so a
tracer that wraps public module attributes sees every call between
them.  Each module's syntax tree is walked for ``sibling._name``
attribute reads and ``from .sibling import _name`` imports.
"""

import ast
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
