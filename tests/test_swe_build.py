"""Building, caching and selecting the compiled sub-step, and falling
back to the numpy step when it cannot be had."""

import contextlib
import ctypes
import dataclasses
import io
import json
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

from conftest import ENTRIES, runnable, traced_peak
from test_swe_halo import GRIDS, HILLY

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
    assert isinstance(swe._select_step().__self__, _lw.Kernel)


def test_missing_compiler_falls_back_to_the_same_output(tmp_path, monkeypatch, unselected):
    monkeypatch.setattr(swe, "_step", swe._numpy_bind)
    want = simulate(tmp_path, "numpy")
    monkeypatch.setattr(swe, "_step", None)
    monkeypatch.setattr(_lw, "_CC", str(tmp_path / "no-such-cc"))
    got = simulate(tmp_path, "fallback")
    assert swe._step is swe._numpy_bind
    assert got == want
    code, _, err, files = got
    assert code == 0 and err == "" and sorted(files) == ["h.ksnp", "u.ksnp", "v.ksnp"]


def test_compiled_output_matches_numpy_byte_for_byte(tmp_path, monkeypatch, compiled_step):
    got = simulate(tmp_path, "compiled")
    monkeypatch.setattr(swe, "_step", swe._numpy_bind)
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
def test_kernel_binds_the_fastest_entry_the_cpu_has():
    flags = next(line for line in CPUINFO.read_text().splitlines()
                 if line.startswith("flags")).split()
    if {"avx512f", "avx512vl"} <= set(flags):
        want = "lw_step_avx512"
    else:
        want = "lw_step_avx2" if "avx2" in flags else "lw_step"
    assert _lw.load().entry == want


# Stands in for the CPU query of __builtin_cpu_supports in a test build of
# _lw.c: the CPU has the features that lw_fake_features names.
FAKE_CPU = """#include <string.h>
char lw_fake_features[64];
static void lw_fake_init(void) {}
static int lw_fake_supports(const char *feature)
{
    const char *at = strstr(lw_fake_features, feature);
    return at != NULL && (at[strlen(feature)] == ' ' || at[strlen(feature)] == 0);
}
"""


@needs_cc
@pytest.mark.skipif(platform.machine() != "x86_64", reason="the entries past lw_step are x86's")
@pytest.mark.parametrize("features, want", [
    ("avx512f avx512vl avx2", "lw_step_avx512"),
    ("avx512f avx2", "lw_step_avx2"),
    ("avx512vl avx2", "lw_step_avx2"),
    ("avx512f avx512vl", "lw_step_avx512"),
    ("avx2", "lw_step_avx2"),
    ("avx sse4_2", "lw_step"),
    ("", "lw_step"),
])
def test_the_entry_query_asks_for_each_entrys_target_features(tmp_path, features, want):
    # lw_entry() of a build whose CPU query reads the features a test sets
    header = tmp_path / "fake_cpu.h"
    header.write_text(FAKE_CPU)
    cc, lib = shutil.which(_lw._CC), tmp_path / "lw_fake_cpu.so"
    build = subprocess.run([cc, *_lw._FLAGS, "-O0", "-include", str(header),
                            "-D__builtin_cpu_init=lw_fake_init",
                            "-D__builtin_cpu_supports=lw_fake_supports",
                            "-o", str(lib), str(_lw._SOURCE)],
                           stdin=subprocess.DEVNULL, capture_output=True, text=True,
                           timeout=_lw._BUILD_TIMEOUT_S)
    assert build.returncode == 0, build.stderr
    fake = ctypes.CDLL(str(lib))
    (ctypes.c_char * 64).in_dll(fake, "lw_fake_features").value = features.encode()
    assert _lw.Kernel(fake).entry == want


@needs_cc
def test_a_kernel_binds_the_entry_the_query_names(monkeypatch):
    lib = _lw.load().lib
    for entry in ENTRIES:
        if hasattr(lib, entry):   # lw_step alone off x86
            monkeypatch.setattr(lib, "lw_entry", lambda entry=entry: entry.encode())
            kernel = _lw.Kernel(lib)
            assert kernel.entry == entry and kernel._fn is getattr(lib, entry)


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
    assert swe._select_step() is swe._numpy_bind


@needs_cc
@pytest.mark.parametrize("n", [1, 2, 3, 8, 130, 8450])
def test_speed_maximum_is_numpys_and_a_nan_wins(n):
    # the fold that ends each step, on each entry's instruction set
    lib = _lw.load().lib
    entries = [name.replace("lw_step", "lw_max_or_nan") for name in runnable(lib)]
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


@pytest.fixture
def stub_source(tmp_path_factory, monkeypatch):
    """A two-line source exporting ``lw_entry`` and ``lw_step`` in place
    of ``_lw.c``, so a test of the cache's mechanics builds in hundredths
    of a second, not the seconds of the solver's -O3 build.  Its kernel loads, but cannot
    pass ``swe._select_step``'s match with the numpy step."""
    source = tmp_path_factory.mktemp("stub") / "stub.c"
    source.write_text('const char *lw_entry(void) { return "lw_step"; }\n'
                      "int lw_step(void) { return 0; }\n")
    monkeypatch.setattr(_lw, "_SOURCE", source)
    return source


def garbage(path):
    path.write_bytes(b"not a shared library\n" * 40)


def truncated(path):
    fd = os.open(path, os.O_RDWR)
    os.ftruncate(fd, os.fstat(fd).st_size // 3)
    os.close(fd)


@needs_cc
@pytest.mark.parametrize("damage", [garbage, truncated])
def test_damaged_cache_file_is_rebuilt(tmp_path, monkeypatch, stub_source, damage):
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
def test_a_build_removes_every_entry_untouched_for_a_week(tmp_path, monkeypatch, stub_source):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    directory = _lw.cache_dir()
    directory.mkdir()
    key = _lw.library_key(shutil.which(_lw._CC))
    now = time.time()
    planted = {   # days since the entry was last written or loaded
        directory / f"_lw-{'8' * 32}-{'ab' * 8}.so": 8,   # another source or compiler
        directory / f"_lw-{'1' * 32}-{'ab' * 8}.so": 1,
        directory / f"_lw-{key}-{'cd' * 8}.so": 8,   # this key, damaged
        directory / f"_lw-{key}-killed.tmp": 8,   # a build that died
        directory / f"_lw-{key}-running.tmp": 1,   # a build still running
    }
    for path, days in planted.items():
        path.write_bytes(b"not the library its name promises")
        os.utime(path, (now - days * 86400,) * 2)
    # the cache holds no library of this key that loads: the load builds one
    assert _lw.load() is not None
    built = sorted(directory.glob(f"_lw-{key}-*.so"))
    assert len(built) == 1 and _lw._open(built[0]) is not None
    kept = [path for path, days in planted.items() if days < 7]
    assert sorted(directory.iterdir()) == sorted(kept + built)


@needs_cc
def test_the_key_reads_the_code_and_not_its_comments(tmp_path, monkeypatch):
    cc = shutil.which(_lw._CC)
    want, text = _lw.library_key(cc), _lw._SOURCE.read_text()

    def key(source):
        path = tmp_path / f"{len(list(tmp_path.iterdir()))}.c"
        path.write_text(source)
        monkeypatch.setattr(_lw, "_SOURCE", path)
        return _lw.library_key(cc)

    line_1, block, code = "/* One fused", " * lw_step does", 'return "lw_step_avx2";'
    entry, include = "const char *lw_entry", "#include <math.h>\n"
    assert text.startswith(line_1) and text.count(block) == text.count(code) == 1
    assert text.count(entry) == text.count(include) == 1
    assert key(text.replace(line_1, "/* A fused", 1)) == want
    assert key(text.replace(block, " * (see README)\n" + block)) == want
    # whole comments and blanks added or removed
    assert key("/* new */\n" + text) == want
    assert key(text.replace(entry, "/* x */ " + entry)) == want
    assert key(text.replace(include, include.replace("\n", "  \n"))) == want
    assert key(text.replace(code, 'return "lw_step";')) != want
    # a line end ends a directive
    assert key(text.replace(include, include.replace("\n", " "))) != want
    # a comment separates tokens: it reads as a space, not as nothing
    assert key("a/* x */b") == key("a/**/b") != key("ab")


@needs_cc
def test_a_load_moves_the_library_mtime_forward(tmp_path, monkeypatch, stub_source):
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
def test_unusable_cache_builds_for_the_process(tmp_path, monkeypatch, stub_source):
    # the cache root is a file, so no cache directory can be made
    (tmp_path / "file").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    assert isinstance(_lw.load(), _lw.Kernel)
    assert sorted(tmp_path.iterdir()) == [tmp_path / "file"]


@needs_cc
def test_concurrent_first_builds_leave_one_library(tmp_path, stub_source):
    env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(tmp_path))
    # each child loads once both have imported, so the builds overlap
    code = f"""if True:
        import sys
        from pathlib import Path
        from koopmanrom import _lw
        _lw._SOURCE = Path({str(stub_source)!r})
        print(flush=True)
        sys.stdin.readline()
        assert isinstance(_lw.load(), _lw.Kernel)
        """
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env, stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE) for _ in range(2)]
    for p in procs:
        p.stdout.readline()
        p.stdout.close()
    for p in procs:
        p.stdin.close()
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
    w = swe._Workspace(classic_constants, grid)
    w.q = np.zeros((3, grid.ny * (grid.nx + 1) + 1))   # one value too many
    with pytest.raises(ValueError, match="array q "):
        _lw.load().bind(w)


@pytest.mark.parametrize("e", [5, 8, 9, 16, 17, 130])
def test_row_ring_has_every_slot_of_the_kernel_aligned(e):
    ring = _lw._row_ring(e)
    assert _lw._slot(e) % 8 == 0 and e <= _lw._slot(e) < e + 8
    assert ring.shape == (_lw._RING_SLOTS, _lw._slot(e)) and ring.dtype == np.float64
    assert ring.flags.c_contiguous and ring.ctypes.data % 64 == 0
    assert not ring.any()


def first_step(constants, grid, state):
    """A new workspace on ``state`` after one step of half the CFL limit."""
    w = swe._Workspace(constants, grid)
    w.load(state)
    speed = swe.max_signal_speed(state, constants)
    swe._advance(w, 0.0, 0.5 * min(grid.dx, grid.dy) / speed, speed)
    return w


def test_a_workspace_holds_only_the_state_and_the_bound_step(classic_constants, step_path):
    # each step's scratch belongs to its binding: the compiled step's ring
    # to the kernel's, the numpy stacks to _numpy_bind's
    grid = swe.Grid.for_channel(16, 8, classic_constants)
    w = first_step(classic_constants, grid, swe.initial_state(classic_constants, grid))
    assert [name for name, a in vars(w).items() if isinstance(a, np.ndarray)] == ["p", "q"]
    assert callable(w.step)


def test_a_compiled_workspace_allocates_no_numpy_stacks(classic_constants, compiled_step):
    # p, q and the source tables of 129 x 65 are 1.0 MiB, and building
    # the tables takes 0.4 MiB more at its peak; the numpy step's stacks,
    # which the compiled step never reads, would add 1.35 MiB
    grid = swe.Grid.for_channel(129, 65, classic_constants)
    state = swe.initial_state(classic_constants, grid)
    _, peak = traced_peak(lambda: first_step(classic_constants, grid, state))
    assert peak < 1.6 * 2**20


SANITIZED_STEP = """if True:
    import ctypes, json, sys
    import numpy as np
    from koopmanrom import _lw, swe

    lib = ctypes.CDLL(sys.argv[1])
    entries = json.loads(sys.argv[4])   # fastest first
    binders = [swe._numpy_bind]
    for name in entries[entries.index(_lw.Kernel(lib).entry):]:   # the CPU runs these
        lib.lw_entry = lambda name=name: name.encode()
        binders.append(_lw.Kernel(lib).bind)
    constants = swe.PhysicalConstants(**json.loads(sys.argv[2]))
    for nx, ny in json.loads(sys.argv[3]):
        grid = swe.Grid.for_channel(nx, ny, constants)
        state = swe.initial_state(constants, grid)
        dt = 0.8 * min(grid.dx, grid.dy) / swe.max_signal_speed(state, constants)
        got = []
        for bind in binders:
            w = swe._Workspace(constants, grid)
            w.load(state)
            speed = bind(w)(dt)
            got.append((speed, w.p.tobytes()))
        assert got[0][0] is not None and got.count(got[0]) == len(got), (nx, ny)
    """


@needs_cc
def test_kernel_steps_clean_under_address_and_undefined_sanitizers(tmp_path):
    # every edge grid of test_swe_halo and the full grid, on every entry
    cc = shutil.which(_lw._CC)
    asan = subprocess.run([cc, "-print-file-name=libasan.so"], stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=60).stdout.strip()
    if not os.path.isabs(asan):
        pytest.skip(f"{cc} has no libasan")
    lib = tmp_path / "lw_sanitized.so"
    build = subprocess.run([cc, *_lw._FLAGS, "-O1", "-fsanitize=address,undefined",
                            "-fno-sanitize-recover=all", "-o", str(lib), str(_lw._SOURCE)],
                           stdin=subprocess.DEVNULL, capture_output=True, text=True,
                           timeout=_lw._BUILD_TIMEOUT_S)
    assert build.returncode == 0, build.stderr
    grids = [*GRIDS, (16, 8), (129, 65)]
    env = dict(os.environ, PYTHONPATH=str(SRC), LD_PRELOAD=asan,
               ASAN_OPTIONS="detect_leaks=0")
    run = subprocess.run([sys.executable, "-c", SANITIZED_STEP, str(lib),
                          json.dumps(dataclasses.asdict(HILLY)), json.dumps(grids),
                          json.dumps(ENTRIES)],
                         env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
