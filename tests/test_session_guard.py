"""The session guard of ``conftest.py``: a run whose ``PYTHONPATH`` names
another tree's package first stops before it collects anything, since
pytest's ``pythonpath`` setting would import this checkout's instead."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def collect(tmp_path, pythonpath):
    """A child pytest run from this checkout that only collects
    ``tests/test_step_time.py``, with ``pythonpath`` as ``PYTHONPATH``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, pythonpath)),
               XDG_CACHE_HOME=str(tmp_path / "cache"))
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--collect-only", "tests/test_step_time.py"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


@pytest.fixture
def other(tmp_path):
    """A copy of this checkout's ``src``, as another tree's."""
    other = tmp_path / "other" / "src"
    shutil.copytree(ROOT / "src", other, ignore=shutil.ignore_patterns("__pycache__"))
    return other


def test_another_trees_package_first_stops_the_session(tmp_path, other):
    done = collect(tmp_path, [other, ROOT / "src"])
    assert done.returncode == 4, done.stdout + done.stderr
    assert str(other.resolve()) in done.stdout
    assert str((ROOT / "src").resolve()) in done.stdout
    assert "collected" not in done.stdout


def test_this_checkouts_package_first_runs(tmp_path, other):
    for pythonpath in ([], ["src", other]):   # the second as tier-1 sets it
        done = collect(tmp_path, pythonpath)
        assert done.returncode == 0, done.stdout + done.stderr
