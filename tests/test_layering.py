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

Every output file lands through one writer, ``_files.Replacement``: no
other module renames a file into place or opens one for writing.
``_lw`` is the exception, since the compiler writes its library by
path, under a name that is the digest of what it wrote.
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


WRITER_MODULES = ("_files.py", "_lw.py")


def file_writes(source: str) -> list[str]:
    """Calls in ``source`` that write a file other than through the
    writer: ``os.replace``, ``os.open`` with ``O_CREAT`` in its flags,
    and ``open`` (or a method ``open``) whose mode is not a constant
    free of "w", "a", "x" and "+"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        on_os = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os"
        if on_os and name == "replace":
            found.append(f"os.replace (line {node.lineno})")
        elif on_os and name == "open":
            flags = node.args[1] if len(node.args) > 1 else None
            if flags is None or any(getattr(n, "attr", getattr(n, "id", None)) == "O_CREAT"
                                    for n in ast.walk(flags)):
                found.append(f"os.open (line {node.lineno})")
        elif name == "open":
            # open(file, mode) is a builtin; path.open(mode) a method
            place = 1 if isinstance(func, ast.Name) else 0
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        node.args[place] if len(node.args) > place else ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")):
                found.append(f"open (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name not in WRITER_MODULES),
                         ids=lambda p: p.name)
def test_every_output_goes_through_the_writer(path):
    assert file_writes(path.read_text()) == []


def test_write_checker_finds_each_form():
    source = ("os.replace(a, b)\nos.open(p, os.O_WRONLY | os.O_CREAT, 0o666)\n"
              "open(p, 'w', newline='')\nopen(p, mode='ab')\nPath(p).open('r+')\n"
              "open(p, mode)\nopen(p)\nopen(p, 'rb')\nos.open(p, os.O_RDONLY)\n"
              "text.replace('a', 'b')\n")
    assert file_writes(source) == ["os.replace (line 1)", "os.open (line 2)",
                                   "open (line 3)", "open (line 4)", "open (line 5)",
                                   "open (line 6)"]
