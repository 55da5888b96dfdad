"""The LAPACK of numpy's own wheel, bound for ``dmd``'s least-squares solves.

numpy's wheels bundle scipy-openblas, built with 64-bit integers, in
``numpy.libs/libscipy_openblas64_*.so``, and load it at import; its
LAPACK routines carry the ``scipy_`` prefix and the ``64_`` suffix.
``load()`` binds ``dgeqrf``, ``zgeqrf``, ``dtrtri`` and ``ztrtri`` of
that library, looked up among the libraries the process has already
loaded (``RTLD_NOLOAD``: it never loads one), or returns None when the
library or any of the routines is missing; ``dmd`` then runs
``np.linalg``.  The routines numpy calls through its gufuncs are
the same code, so the same call gives the same bits.

``one_thread()`` runs a block, or a function it decorates, on one
thread of that library and then restores the caller's count, so a BLAS
reduction (a dot product, a QR) sums in one order whatever
``OPENBLAS_NUM_THREADS`` is: ``dmd`` and ``rom`` give the same bits at
every thread count.  Where the library is not loaded, or lacks the
thread calls, it runs the block as it is.  The count is process-wide:
Python threads that pin at once may restore it out of order.

``blas_id()`` names the BLAS here for the decomposition store's key:
OpenBLAS picks its kernels by CPU, and a kernel moves the last bits.

Nothing here runs at import of the package: the library is looked up at
the first solve or pinned call, once per process.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from pathlib import Path

import numpy as np

_INT = ctypes.c_int64


def _bind(lib: ctypes.CDLL, name: str, n_args: int, n_flags: int):
    """The Fortran subroutine ``name``: ``n_args`` arguments by reference,
    INFO the last, then the hidden lengths of its ``n_flags`` flags."""
    fn = getattr(lib, name)
    fn.argtypes = [ctypes.c_void_p] * n_args + [ctypes.c_size_t] * n_flags
    fn.restype = None
    return fn


def _call(fn, *args) -> int:
    """Call the routine ``fn`` on ``args`` (ints, arrays and one-letter
    flags), with INFO and the flags' lengths appended; returns INFO."""
    for a in args:
        if isinstance(a, np.ndarray) and not (a.flags.f_contiguous and a.flags.writeable
                                              and a.dtype.isnative):
            raise ValueError("LAPACK takes writable, native, Fortran-ordered arrays")
    info = _INT(0)
    refs = [a.ctypes.data if isinstance(a, np.ndarray)
            else a if isinstance(a, bytes) else ctypes.byref(_INT(a)) for a in args]
    fn(*refs, ctypes.byref(info), *(1 for a in args if isinstance(a, bytes)))
    return info.value


class Lapack:
    """The bound routines, on Fortran-ordered float64 or complex128 arrays."""

    def __init__(self, lib: ctypes.CDLL):
        self._geqrf = {np.float64: _bind(lib, "scipy_dgeqrf_64_", 8, 0),
                       np.complex128: _bind(lib, "scipy_zgeqrf_64_", 8, 0)}
        self._trtri = {np.float64: _bind(lib, "scipy_dtrtri_64_", 6, 2),
                       np.complex128: _bind(lib, "scipy_ztrtri_64_", 6, 2)}

    def geqrf(self, a: np.ndarray) -> None:
        """Factor ``a`` = QR in place: R in its upper triangle, the
        reflectors below.  The workspace is the one numpy's QR asks for,
        max(1, n, the size a query returns), since the block size of the
        factorization, and so its bits, depend on it."""
        fn, (m, n) = self._geqrf[a.dtype.type], a.shape
        tau, query = np.zeros(min(m, n), a.dtype), np.zeros(1, a.dtype)
        if _call(fn, m, n, a, max(1, m), tau, query, -1) == 0:
            work = np.empty(max(1, n, int(query[0].real)), a.dtype)
            if _call(fn, m, n, a, max(1, m), tau, work, work.size) == 0:
                return
        raise np.linalg.LinAlgError("Incorrect argument found while performing QR factorization")

    def trtri(self, a: np.ndarray) -> bool:
        """Invert the upper triangle of the square ``a`` in place; False,
        with ``a`` part inverted, when a diagonal entry is zero."""
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("trtri inverts a square triangle")
        return _call(self._trtri[a.dtype.type], b"U", b"N", n, a, max(1, n)) == 0


@functools.cache
def _library() -> ctypes.CDLL | None:
    """The bundled library, when numpy has loaded it; else None."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            return ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
        except OSError:   # not loaded
            continue
    return None


@functools.cache
def load() -> Lapack | None:
    """The routines of the bundled library numpy has loaded, or None."""
    lib = _library()
    try:
        return None if lib is None else Lapack(lib)
    except AttributeError:   # a routine missing
        return None


@functools.cache
def _threads():
    """(get, set) of the bundled library's thread count, or None."""
    lib = _library()
    try:
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except AttributeError:   # no library (None), or no thread calls
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@functools.cache
def blas_id() -> str:
    """The bundled library's core type and config string, read once per
    process; else numpy's BLAS entry (``np.show_config``) or version."""
    lib = _library()
    try:
        calls = [lib.scipy_openblas_get_corename64_, lib.scipy_openblas_get_config64_]
    except AttributeError:   # no library (None), or no such calls
        with contextlib.suppress(TypeError, KeyError):   # numpy < 1.26 takes no mode
            return repr(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
        return f"numpy {np.__version__}"
    for call in calls:
        call.argtypes, call.restype = [], ctypes.c_char_p
    return " ".join(call().decode() for call in calls)


@contextlib.contextmanager
def one_thread():
    """Run the block on one BLAS thread, restoring the caller's count
    after it; as a decorator, ``@one_thread()``, each call of the
    function (``functools.wraps`` keeps its name and module)."""
    bound = _threads()
    count = bound[0]() if bound else 1
    if count == 1:
        yield
        return
    bound[1](1)
    try:
        yield
    finally:
        bound[1](count)
