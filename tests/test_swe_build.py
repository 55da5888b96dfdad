"""Building, caching and selecting the compiled sub-step, and falling
back to the numpy step when it cannot be had."""

import contextlib
import ctypes
import io
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from koopmanrom import _lw, swe
from koopmanrom.cli import main

SRC = Path(__file__).parents[1] / "src"
needs_cc = pytest.mark.skipif(shutil.which(_lw._CC) is None,
                              reason=f"no C compiler ({_lw._CC})")
CPUINFO = Path("/proc/cpuinfo")

HILLY_CFG = """\
nx = 16
ny = 8
snapshot_dt = 1800
n_snapshots = 6
orography_amplitude = 20
mean_depth = 2000
shear_depth = 220
wave_depth = 133
channel_length = 6000e3
channel_width = 4400e3
"""


@pytest.fixture
def unselected(monkeypatch):
    """No step implementation picked yet, as at the start of a process."""
    monkeypatch.setattr(swe, "_step", None)
    monkeypatch.setattr(swe, "_kernel", None)


def simulate(tmp_path, name):
    """`koopmanrom simulate` on the hilly 16 x 8 channel: (exit code,
    stdout, stderr, {file: bytes})."""
    cfg = tmp_path / "hilly.cfg"
    cfg.write_text(HILLY_CFG)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / name)])
    files = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
    return code, out.getvalue().replace(str(tmp_path / name), "OUT"), err.getvalue(), files


@needs_cc
def test_compiled_path_is_selected_where_a_compiler_exists(unselected):
    assert swe._select_step() is swe._compiled_step


def test_missing_compiler_falls_back_to_the_same_output(tmp_path, monkeypatch, unselected):
    monkeypatch.setattr(swe, "_step", swe._numpy_step)
    want = simulate(tmp_path, "numpy")
    monkeypatch.setattr(swe, "_step", None)
    monkeypatch.setattr(_lw, "_CC", str(tmp_path / "no-such-cc"))
    got = simulate(tmp_path, "fallback")
    assert swe._step is swe._numpy_step
    assert got == want
    code, _, err, files = got
    assert code == 0 and err == "" and sorted(files) == ["h.ksnp", "u.ksnp", "v.ksnp"]


def test_compiled_output_matches_numpy_byte_for_byte(tmp_path, monkeypatch, compiled_step):
    got = simulate(tmp_path, "compiled")
    monkeypatch.setattr(swe, "_step", swe._numpy_step)
    assert got == simulate(tmp_path, "numpy")


def test_portable_output_matches_numpy_byte_for_byte(tmp_path, monkeypatch, portable_step):
    test_compiled_output_matches_numpy_byte_for_byte(tmp_path, monkeypatch, None)


@needs_cc
def test_kernel_builds_without_warnings(tmp_path):
    cc = shutil.which(_lw._CC)
    build = subprocess.run([cc, *_lw._FLAGS, "-Wall", "-Wextra", "-Werror",
                            "-o", str(tmp_path / "lw.so"), str(_lw._SOURCE)],
                           stdin=subprocess.DEVNULL, capture_output=True, text=True,
                           timeout=_lw._BUILD_TIMEOUT_S)
    assert build.returncode == 0, build.stderr


@needs_cc
@pytest.mark.skipif(platform.machine() != "x86_64" or not CPUINFO.exists(),
                    reason="no x86-64 /proc/cpuinfo to read the CPU's flags from")
def test_kernel_binds_the_avx2_entry_where_the_cpu_has_it():
    flags = next(line for line in CPUINFO.read_text().splitlines()
                 if line.startswith("flags")).split()
    assert _lw.load().entry == ("lw_step_avx2" if "avx2" in flags else "lw_step")


@needs_cc
def test_a_kernel_that_disagrees_is_not_selected(monkeypatch, unselected):
    real = _lw.load()

    class Off:
        def bind(self, w):
            step = real.bind(w)

            def off(dt):
                speed = step(dt)
                w.p[1, w.width + 3] += 1e-12
                return speed

            return off

    monkeypatch.setattr(_lw, "load", Off)
    assert swe._select_step() is swe._numpy_step


@needs_cc
@pytest.mark.parametrize("n", [1, 2, 3, 8, 130, 8450])
def test_speed_maximum_is_numpys_and_a_nan_wins(n):
    # the fold that ends each step, on each entry's instruction set
    lib = _lw.load().lib
    entries = ["lw_max_or_nan"] + (["lw_max_or_nan_avx2"] if _lw.Kernel(lib).entry
                                   == "lw_step_avx2" else [])
    rng = np.random.default_rng(n)
    cases = [rng.uniform(0.0, 300.0, n), np.full(n, 212.5),
             np.where(rng.random(n) < 0.5, -0.0, 0.0)]
    for index in sorted({0, n // 2, n - 1}):
        s = rng.uniform(0.0, 300.0, n)
        s[index] = np.nan
        cases.append(s)
    for name in entries:
        fold = getattr(lib, name)
        fold.argtypes, fold.restype = (ctypes.c_long, ctypes.c_void_p), ctypes.c_double
        for s in cases:
            scratch = s.copy()   # the fold overwrites it
            got = fold(n, scratch.ctypes.data)
            if np.isnan(s).any():
                assert np.isnan(got), (name, s)
            else:
                assert got == np.max(s), (name, s)


def garbage(path):
    path.write_bytes(b"not a shared library\n" * 40)


def truncated(path):
    fd = os.open(path, os.O_RDWR)
    os.ftruncate(fd, os.fstat(fd).st_size // 3)
    os.close(fd)


@needs_cc
@pytest.mark.parametrize("damage", [garbage, truncated])
def test_damaged_cache_file_is_rebuilt(tmp_path, monkeypatch, damage):
    # a library built elsewhere, damaged in a copy at the cached path
    cc = shutil.which(_lw._CC)
    good = _lw._build(cc, tmp_path, _lw.library_key(cc))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cached = _lw.cache_dir() / good.name
    cached.parent.mkdir()
    shutil.copy(good, cached)
    damage(cached)
    assert _lw.load() is not None
    assert cached.read_bytes() == good.read_bytes()


@needs_cc
def test_a_build_removes_only_libraries_unloaded_for_a_week(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    directory = _lw.cache_dir()
    directory.mkdir()
    now = time.time()
    planted = {days: directory / f"_lw-{str(days) * 32}-{'ab' * 8}.so" for days in (8, 1)}
    for days, path in planted.items():
        path.write_bytes(b"a library of another source or compiler")
        os.utime(path, (now - days * 86400,) * 2)
    # the cache holds no library of this key: the load builds one
    assert _lw.load() is not None
    assert not planted[8].exists() and planted[1].exists()
    assert len(list(directory.glob(f"_lw-{_lw.library_key(_lw._CC)}-*.so"))) == 1


@needs_cc
def test_a_load_moves_the_library_mtime_forward(tmp_path, monkeypatch):
    cc = shutil.which(_lw._CC)
    good = _lw._build(cc, tmp_path, _lw.library_key(cc))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cached = _lw.cache_dir() / good.name
    cached.parent.mkdir()
    shutil.copy(good, cached)
    before = time.time() - 8 * 86400
    os.utime(cached, (before, before))
    assert _lw.load() is not None
    assert cached.stat().st_mtime > before + 7 * 86400
    assert sorted(cached.parent.iterdir()) == [cached]


@needs_cc
def test_unusable_cache_builds_for_the_process(tmp_path, monkeypatch, unselected):
    # the cache root is a file, so no cache directory can be made
    (tmp_path / "file").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    assert swe._select_step() is swe._compiled_step
    assert sorted(tmp_path.iterdir()) == [tmp_path / "file"]


@needs_cc
def test_concurrent_first_builds_leave_one_library(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(tmp_path))
    code = ("from koopmanrom import swe; "
            "assert swe._select_step() is swe._compiled_step")
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env) for _ in range(2)]
    assert [p.wait(timeout=120) for p in procs] == [0, 0]
    files = sorted((tmp_path / "koopmanrom").iterdir())
    assert [p.suffix for p in files] == [".so"]
    assert _lw._open(files[0]) is not None


def test_import_builds_nothing():
    # the loader and the compiler wait for the first sub-step (numpy
    # itself imports ctypes)
    code = """if True:
        import subprocess, sys

        def refuse(*args, **kwargs):
            raise AssertionError("a process was started at import")

        subprocess.Popen.__init__ = refuse
        import koopmanrom, koopmanrom.cli
        assert "koopmanrom._lw" not in sys.modules
        assert koopmanrom.swe._step is None
        """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


@needs_cc
def test_binding_checks_the_workspace_layout(classic_constants):
    grid = swe.Grid.for_channel(16, 8, classic_constants)
    kernel = _lw.load()

    def refused(name, **arrays):
        w = swe._Workspace(classic_constants, grid)
        vars(w).update(arrays)
        with pytest.raises(ValueError, match=f"array {name} "):
            kernel.bind(w)

    ring = swe._Workspace(classic_constants, grid).ring
    refused("q", q=np.zeros((3, grid.ny * (grid.nx + 1) + 1)))   # one value too many
    refused("ring", ring=ring[:-1])                               # one slot too few
    refused("ring", ring=ring[:, :-8])                            # one row length short
    raw = np.zeros(ring.size + 16)
    start = -raw.ctypes.data % 64 // 8 + 1
    refused("ring", ring=raw[start:start + ring.size].reshape(ring.shape))   # not aligned
