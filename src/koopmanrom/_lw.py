"""Build, cache and bind the compiled solver sub-step in ``_lw.c``.

``load()`` returns a :class:`Kernel` around one step entry of a shared
library built from ``_lw.c``, or None when no library can be built or
loaded.  On x86 the library has three entries compiled from the same
source, ``lw_step_avx512`` for CPUs with AVX-512F and AVX-512VL,
``lw_step_avx2`` for CPUs with AVX2 and the portable ``lw_step``;
elsewhere it has ``lw_step`` alone.  The library's ``lw_entry()`` names
the fastest entry the CPU runs, and the kernel binds it, so one cached
library serves every x86-64 machine that shares it.  Every entry gives
the same bits; the AVX-512 one divides by the grid spacings with FMA,
exactly (see the header of ``_lw.c``).

The library is built with the C compiler ``cc`` and fixed flags: ``-O3``
with FMA contraction off, no fast-math and no errno from ``sqrt``, so
every floating-point operation rounds as numpy's does.  It is kept in
``${XDG_CACHE_HOME:-~/.cache}/koopmanrom/`` under a name keyed by the
sha256 of the code, the flags, ``cc --version`` and the machine, so
changed code, flags or compiler build anew and later processes load the
cached file.  The code is the source with each ``/* */`` comment read
as a space, each line stripped, its runs of spaces and tabs read as one
and blank lines dropped: an edit to comments or blanks keeps the key,
while ``a/**/b`` and ``ab``, or a directive joined to the next line,
still differ.  The name also holds the digest of the library itself,
and a file whose bytes do not match it is never loaded: a truncated
library can crash the loader.  A build goes to a temporary file that is
renamed into place, so concurrent first builds leave one complete
library.  A cached file that does not match or load is rebuilt; an
unwritable cache directory gives a build in a per-process temporary
directory.  Each load sets the library's mtime, and a build removes
every ``_lw-*`` file untouched for a week: an unloaded or damaged
library of any key, or a dead build's temporary.

``Kernel.bind`` is a step binder of ``swe``; the step it returns holds
the block of row rings in which the kernel keeps its intermediates.

Nothing here runs at import of the package: ``swe`` imports this module
and builds the library at the first sub-step of a process.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import re
import shutil
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_lw.c")
_CC = "cc"
_FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")
_BUILD_TIMEOUT_S = 120
_EVICT_AFTER_S = 7 * 24 * 3600

_ARRAYS = ("p", "q", "ring", "cell_f", "cell_g", "mx_g", "my_f", "my_g")
_RING_SLOTS = 45   # RING_SLOTS of _lw.c


class _Work(ctypes.Structure):
    """The ``lw_work`` struct of ``_lw.c``."""
    _fields_ = ([("ny", ctypes.c_long), ("e", ctypes.c_long), ("g", ctypes.c_double),
                 ("dx", ctypes.c_double), ("dy", ctypes.c_double)]
                + [(name, ctypes.c_void_p) for name in _ARRAYS])


def _slot(e: int) -> int:
    """The values a ring slot holds for rows of e values: e padded to a
    multiple of 8."""
    return -(-e // 8) * 8


def _row_ring(e: int) -> np.ndarray:
    """A zeroed ring block for the kernel's rows of e values:
    ``_RING_SLOTS`` slots of ``_slot(e)`` values, 64-byte aligned."""
    size = _RING_SLOTS * _slot(e)
    raw = np.zeros(size + 8)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + size].reshape(_RING_SLOTS, _slot(e))


def cache_dir() -> Path:
    """The per-user directory of built libraries."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "koopmanrom"


class Kernel:
    """The step entry of a loaded library that this CPU runs fastest, the
    one the library's ``lw_entry()`` names, with its argument types bound
    once; ``entry`` names it."""

    def __init__(self, lib: ctypes.CDLL):
        self.lib = lib
        query = lib.lw_entry
        query.restype = ctypes.c_char_p
        self.entry = query().decode()
        self._fn = getattr(lib, self.entry)
        self._fn.argtypes = (ctypes.POINTER(_Work), ctypes.c_double,
                             ctypes.POINTER(ctypes.c_double))
        self._fn.restype = ctypes.c_int

    def bind(self, w):
        """A function ``step(dt) -> speed`` on the buffers of ``w``, which outlive it.

        It advances ``w.p`` in place and returns the next signal speed,
        or returns None, leaving ``w.p`` unchanged and the new conserved
        state in ``w.q``, when the new depth is not finite and positive.
        """
        n, e = w.ny * w.width, w.width
        arrays = dict(p=w.p, q=w.q, cell_f=w.tab.cell[0], cell_g=w.tab.cell[1],
                      mx_g=w.tab.mx[1], my_f=w.tab.my[0], my_g=w.tab.my[1])
        # the kernel reads rows of these lengths at these strides
        rows = dict(cell_f=(2, n, n), cell_g=(2, n, n), mx_g=(2, n - 1, n),
                    my_f=(2, n - e, n - e), my_g=(2, n - e, n - e))
        for name, a in arrays.items():
            count, length, stride = rows.get(name, (3, n, n))
            if (a.dtype != np.float64 or a.shape != (count, length)
                    or a.strides != (8 * stride, 8)):
                raise ValueError(f"workspace array {name} does not have the kernel's layout")
        arrays["ring"] = _row_ring(e)
        work = _Work(w.ny, e, w.gravity, w.dx, w.dy,
                     *(arrays[name].ctypes.data for name in _ARRAYS))
        speed = ctypes.c_double()
        fn, work_ref, speed_ref = self._fn, ctypes.byref(work), ctypes.byref(speed)

        def step(dt: float):
            if fn(work_ref, dt, speed_ref):
                return None
            return speed.value

        step.ring = arrays["ring"]   # alive as long as the step
        return step


def _build(cc: str, directory: Path, key: str) -> Path:
    """Compile the source into ``directory`` under a name holding ``key``
    and the digest of the library, through a temporary file there.
    OSError when the directory is not writable; SubprocessError when the
    compiler fails."""
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f"_lw-{key}-", suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run([cc, *_FLAGS, "-o", tmp, str(_SOURCE)], check=True,
                       stdin=subprocess.DEVNULL, capture_output=True,
                       timeout=_BUILD_TIMEOUT_S)
        target = directory / f"_lw-{key}-{_digest(tmp)}.so"
        os.replace(tmp, target)
        return target
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def _open(path: Path):
    """The kernel in the library at ``path``, or None when its bytes do
    not match the digest in its name (a truncated library can crash the
    loader) or it does not load."""
    try:
        if _digest(path) != path.stem.rsplit("-", 1)[-1]:
            return None
        kernel = Kernel(ctypes.CDLL(str(path)))
    except (OSError, AttributeError):   # unreadable, foreign
        return None
    with contextlib.suppress(OSError):   # a read-only cache
        os.utime(path)
    return kernel


def library_key(cc: str) -> str:
    """The cache key of the library the compiler ``cc`` builds."""
    version = subprocess.run([cc, "--version"], check=True, stdin=subprocess.DEVNULL,
                             capture_output=True, timeout=_BUILD_TIMEOUT_S).stdout
    code = re.sub(rb"/\*.*?\*/", b" ", _SOURCE.read_bytes(), flags=re.S)
    # the line ends stay: they end preprocessor directives
    code = b"\n".join(filter(None, (re.sub(rb"[ \t]+", b" ", line).strip()
                                    for line in code.splitlines())))
    return hashlib.sha256(b"\0".join([code, " ".join(_FLAGS).encode(),
                                      version, platform.machine().encode()])).hexdigest()[:32]


def load():
    """The compiled kernel, loaded from the cache or built, or None."""
    cc = shutil.which(_CC)
    if cc is None:
        return None
    try:
        key = library_key(cc)
    except (OSError, subprocess.SubprocessError):
        return None
    directory = cache_dir()
    for path in sorted(directory.glob(f"_lw-{key}-*.so")):
        kernel = _open(path)
        if kernel is not None:
            return kernel
    try:
        directory.mkdir(parents=True, exist_ok=True)
        built = _build(cc, directory, key)
    except subprocess.SubprocessError:
        return None
    except OSError:
        # no writable cache: build for this process alone; the mapped
        # library outlives its file
        with tempfile.TemporaryDirectory() as tmp:
            try:
                return _open(_build(cc, Path(tmp), key))
            except (OSError, subprocess.SubprocessError):
                return None
    # a mapped library outlives its file, and a build ends in _BUILD_TIMEOUT_S
    for path in directory.glob("_lw-*"):
        with contextlib.suppress(OSError):   # removed meanwhile
            if path.stat().st_mtime < time.time() - _EVICT_AFTER_S:
                path.unlink()
    return _open(built)
