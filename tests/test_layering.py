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

The README keeps to what a user runs and reads, in at most 250 lines:
every config key, subcommand and option of the command line appears in
it, its option table gives each subcommand the options the parser gives
it, and its command lines and library sketch run as written.

Every output file lands through one writer, ``_files.Replacement``: no
other module renames a file into place or opens one for writing.
``_lw`` is the exception, since the compiler writes its library by
path, under a name that is the digest of what it wrote.
"""

import argparse
import ast
import csv
import importlib
import re
import shlex
import shutil
import types
from pathlib import Path

import pytest

import koopmanrom
from koopmanrom import cli

SIBLINGS = ("dmd", "rom", "snapshots", "swe", "cli")
PACKAGE = Path(koopmanrom.__file__).parent
ROOT = Path(__file__).parents[1]
README = ROOT / "README.md"


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
    readme = README.read_text()
    exported = sorted(name for name, value in vars(koopmanrom).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    # at the start of a code span, or called through the package in a sketch
    missing = [name for name in exported
               if not re.search(rf"(`|\bkr\.){re.escape(name)}\b", readme)]
    assert missing == []


def test_the_readme_fits_its_line_budget():
    assert len(README.read_text().splitlines()) <= 250


def test_every_config_key_is_in_the_readme():
    readme = README.read_text()
    assert len(cli._KEYS) == 18
    assert [key for key in cli._KEYS if f"`{key}`" not in readme] == []


def test_every_command_and_option_is_in_the_readme():
    readme = README.read_text()
    parser = cli.build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = {option for command in commands.values() for action in command._actions
               for option in action.option_strings if option.startswith("--")}
    assert len(commands) == 4 and len(options - {"--help"}) == 7
    # a command on a command line or as code, an option at the start of a code span
    assert [c for c in commands if not re.search(rf"koopmanrom +{c}\b|`{c}`", readme)] == []
    assert sorted(o for o in options if not re.search(rf"`{o}\b", readme)) == []


def test_the_option_table_is_the_parser():
    """Each row of the README's ``| command | options |`` table names,
    as code spans, exactly the options ``build_parser`` gives that
    subcommand."""
    table = re.search(r"^\| command \| options \|\n((?:\|.*\n)+)", README.read_text(),
                      flags=re.M)
    assert table, "no option table"
    rows = {}
    for line in table.group(1).splitlines()[1:]:
        command, options = re.fullmatch(r"\| `(\w+)` \|(.*)\|", line).groups()
        rows[command] = set(re.findall(r"`(--[a-z]+)`", options))
    parser = cli.build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    offered = {name: {option for action in command._actions if action.dest != "help"
                      for option in action.option_strings}
               for name, command in commands.items()}
    assert rows == offered


def readme_block(section: str, language: str) -> str:
    """The first ``language`` code block under the README heading ``section``."""
    found = re.search(rf"^#+ {section}\n.*?^```{language}\n(.*?)^```", README.read_text(),
                      flags=re.M | re.S)
    assert found, f"no {language} block under {section!r}"
    return found.group(1)


def test_the_readme_examples_run(tmp_path, monkeypatch, capsys):
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    lines = [shlex.split(line) for line in readme_block("Command line", "sh").splitlines()]
    assert [line[0] for line in lines] == ["koopmanrom"] * 4
    for line in lines:
        assert cli.main(line[1:]) == 0, shlex.join(line)

    capsys.readouterr()
    exec(compile(readme_block("Library sketch", "python"), "README.md", "exec"), {})
    n_dmd, error, reduction = capsys.readouterr().out.split()
    # the sketch runs the desk channel's h in metres, the command line in
    # scaled units: the same selection, and an error that moves in its
    # tenth digit with the scaling
    with open(tmp_path / "out_desk" / "summary.csv", newline="") as fh:
        row = next(row for row in csv.DictReader(fh) if row["field"] == "h")
    assert (n_dmd, f"{float(reduction):.2f}") == (row["n_dmd"], row["reduction_percent"])
    assert float(error) == pytest.approx(float(row["achieved_error"]), rel=1e-6)


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
