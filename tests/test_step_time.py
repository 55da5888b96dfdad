"""Smoke test of ``tools/step_time.py``, the paired timer of the compiled
step: this checkout against itself on a small grid for a few steps."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) to build the step")
def test_checkout_against_itself_is_bit_identical(tmp_path):
    """A row per entry, each bit-identical, and nothing built into the
    user's cache."""
    user_cache = tmp_path / "user-cache"
    env = dict(os.environ, XDG_CACHE_HOME=str(user_cache), TMPDIR=str(tmp_path))
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "step_time.py"), str(ROOT),
                           str(ROOT), "--grid", "16x8", "--steps", "3", "--blocks", "2"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[2:]]
    assert "lw_step" in [row[1] for row in rows]
    assert all(row[0] == "16x8" and row[-1] == "yes" for row in rows)
    assert not user_cache.exists()
    assert list(tmp_path.iterdir()) == []
