"""Mode weighting, reconstruction error and leading-mode selection.

Each mode gets a nonnegative weight, the time-quadrature of its
contribution magnitude: w_j = dt * sum_{i=1..Nt} |a_j| |lambda_j|^(i-1).
Modes are then admitted greedily in descending weight order (conjugate
partners together, so reconstructions stay real) until the aggregate
relative reconstruction error drops below the requested threshold.

Every reconstruction error runs in snapshot coordinates (see ``dmd``):
one kernel, ``_residuals``, forms the coordinate residual T - Re(B C),
whose column norms equal those of the full-space residual: the
quadratic form that sparsity-promoting DMD optimises over (Jovanovic,
Schmid & Nichols, Phys. Fluids 26, 2014).  It subtracts one real
product per conjugate group g, [Re B_g, Im B_g] (Nt x 2|g|) times
[Re C_g; -Im C_g], the groups read from the mode sequence: j then
j + 1 with Im lambda_j > 0 is a pair, any other mode stands alone.  So
one mode sequence gives the same bits however a caller splits it, as
long as no split falls between a pair's partners: ``relative_error``
and ``per_time_errors`` of a selection equal its curve entry and its
``time_errors`` bit for bit.  The reference norms are those of T, the
snapshot coordinates (R for the decomposed window, else from one QR of
[V0 | X]), so no error forms the mode matrix or an Nx x Nt temporary.  A
mode subset must name distinct modes (IndexOutOfRange otherwise).

Selection curve: one ``_residuals`` pass over every conjugate group in
admission order gives the aggregate error after each group.  The
selection at any epsilon is the first prefix whose error is at most
epsilon, the same floats and the same comparison as a loop that stops
there, so a curve computed once serves every threshold.

Decomposition store: ``reduced_model(matrix, epsilon, store)`` keeps a
field's decomposition and its selection curve in one file at ``store``
and reads it back while the snapshot bytes are unchanged, so a later
selection at any epsilon runs no residual pass and no Vandermonde.  The
file (format 10; format 9 held the curve of the per-mode kernel) is
flat, not a zip: a header (the magic ``KROMDMD`` and a NUL byte, then
u32 LE: the format, the key length, the decomposed snapshots n, a
complex flag, 0 or 1, the number of conjugate groups and the
``zlib.crc32`` of everything after the header), the ASCII key, then the
little-endian arrays at the 64-byte aligned offsets the header fixes
(``_store_layout``): the eigenvalues, amplitudes, R, B and z of
``dmd.DmdDecomposition`` and the curve, all float64 but the four that
``dmd`` makes complex128 with the spectrum (the flag).  The exponents,
weights and admission order are derived from them, on a hit as on a
miss.  It is read whole with one ``readinto`` into a buffer of its
checked size, and the arrays are views of that buffer; nothing is
unpickled.  The key is the store format, the dtype and shape of the
payload row block, the bits of dt, the sha256 of its rows and the BLAS
(``_lapack.blas_id``); a path, a size or an mtime never enters it.  A
load checks the file's size against the snapshots, its magic, format,
key, 2 <= n <= the snapshots and the flag, that its size is its
layout's, its checksum before it views an array, and that the curve has
one entry per conjugate group of the eigenvalues.  The checksum makes a
damaged store (any flipped bit: CRC-32 detects every error burst of up
to 32 bits) a miss; it is no defence against a forger, who can write the
key too.  A file that fails a check, a store of an older format (a
format 3 zip among them) included, is a miss, which decomposes again and
overwrites the file (``_files.Replacement``); arrays of other dtypes (of
a float32 matrix) are never written.

Consuming path: nothing ``rom`` writes reads V0 after the fit, so
``reduced_model(..., reload=...)`` lets ``dmd.decompose`` factor the
matrix's payload in place instead of on a copy, the same bits with one
payload-sized buffer fewer; a rank-deficiency retry refits the payload
``reload()`` reads again, once its store key is checked against the one
already taken.  ``cli``'s ``rom`` takes this path; ``reconstruct`` and
``vorticity``, which read V0 after the fit, and every call without
``reload`` keep the copy.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import struct
import zlib
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import _files, _lapack, dmd
from .errors import InvalidValue, ZeroNormData
from .snapshots import SnapshotMatrix

# decomposition store (module docstring): format version, also part of
# the key, header and array alignment
_STORE_VERSION = 10
_STORE_MAGIC = b"KROMDMD\0"
# magic, format, key bytes, n, complex, groups, crc32 of the rest
_STORE_HEAD = struct.Struct("<8s6I")
_STORE_ALIGN = 64
# the float64 entries in one row block of the weight terms (``_ranking``)
_RANKING_BLOCK = 2 ** 17


@dataclass(frozen=True)
class RomModel:
    """A leading-mode subset and the error it achieves.

    ``selected`` is ordered by descending weight (conjugate partners
    adjacent); ``converged`` is False when no prefix reached epsilon, in
    which case all modes are selected and achieved_error is the best
    (full-set) error.  ``weights`` holds the weight of every mode of the
    decomposition, by mode index, ``order`` its conjugate groups in
    admission order and ``curve`` the aggregate relative error after
    each group of ``order`` is admitted.  ``time_errors`` holds the
    relative error of each reconstructed snapshot under the selection,
    what ``per_time_errors`` returns for ``selected``.
    """

    selected: tuple[int, ...]
    lambdas: np.ndarray
    amplitudes: np.ndarray
    n_dmd: int
    achieved_error: float
    epsilon: float
    full_rank: int
    converged: bool
    weights: Optional[np.ndarray] = None
    order: tuple[tuple[int, ...], ...] = ()
    time_errors: Optional[np.ndarray] = None
    curve: Optional[np.ndarray] = None


def mode_weights(dec: dmd.DmdDecomposition, n_steps: int) -> np.ndarray:
    """Weight of every mode over a horizon of n_steps >= 1 (ValueError
    otherwise), a float64 array indexed by mode: ``_ranking``'s weights.

    Memory stays bounded at any horizon, but the time grows with
    n_steps: each of the n_steps x m powers is formed once."""
    if n_steps < 1:
        raise ValueError(f"n_steps = {n_steps} < 1")
    return _ranking(dec, n_steps)[0]


def _ranking(dec: dmd.DmdDecomposition, n_steps: int):
    """(weights, order) over an n_steps horizon: each mode's weight, dt
    times its sum_{i < n_steps} |a_j| |lambda_j|^i, inf where that
    product overflows, and the conjugate groups sorted by descending
    weight, read from the sums, which a large dt cannot overflow; ties
    break toward the lower |frequency|, then the lower index.

    The terms are formed in blocks of rows of about 1 MiB, so the memory
    is bounded at any horizon.  A horizon within one block sums its
    table as numpy's ``sum(axis=0)`` does; each later block is summed
    below a first row that carries the running sums, so every row is
    added into one running sum in order, as ``sum(axis=0)`` of the whole
    table adds its rows when there are two modes or more.  A mode of zero
    amplitude weighs 0 at every horizon, and never enters the blocks,
    where 0 times an overflowing power would be NaN.  A mode leaves the
    blocks once its power underflows to 0, which it stays at every later
    step, or once its sum is not finite, which it stays too; the blocks
    end when no mode is left.
    """
    mag, amp = np.abs(dec.lambdas), np.abs(dec.amplitudes)
    rows = max(1, _RANKING_BLOCK // max(1, mag.size))
    sums, live, carry = np.zeros(mag.size), np.flatnonzero(amp), 0
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, rows):
            steps = np.arange(start, min(start + rows, n_steps))
            block = np.zeros((carry + steps.size, mag.size))
            block[:carry] = sums
            powers = mag[live] ** steps[:, None]
            block[carry:, live] = amp[live] * powers
            sums, carry = block.sum(axis=0), 1
            moving = (powers[-1] != 0.0) & np.isfinite(sums[live])
            if not moving.any():
                break
            if not moving.all():
                live = np.arange(mag.size)[live][moving]
        weights = dec.dt * sums
    freq = np.abs(dec.exponents.imag)
    # partners share their weight and |frequency|; group[0] is the lower index
    order = sorted(dmd.conjugate_groups(dec.lambdas),
                   key=lambda group: (-sums[group[0]], freq[group[0]], group[0]))
    return weights, tuple(tuple(group) for group in order)


def _vandermonde(lambdas: np.ndarray, n_steps: int) -> np.ndarray:
    """lambda_j^k in row j, column k < n_steps, by one cumulative product
    in place: columns 0 and 1 are exactly 1 and lambda_j."""
    powers = np.empty((lambdas.shape[0], n_steps), dtype=lambdas.dtype)
    powers[:, :1] = 1.0
    powers[:, 1:] = lambdas[:, None]
    return np.cumprod(powers, axis=1, out=powers)


def _reference_norm(t: np.ndarray) -> float:
    """Frobenius norm of the snapshots, from their coordinates ``t``."""
    ref = np.linalg.norm(t)
    if ref == 0.0:
        raise ZeroNormData("reference snapshots have zero norm")
    return ref


def _residuals(t: np.ndarray, b: np.ndarray, dec: dmd.DmdDecomposition, groups):
    """Yield the coordinate residual T - Re(B C) of the reconstruction of
    the snapshots with coordinates ``t``, mode coordinates ``b``, after
    each group of modes is added, C[j, k] = a_j lambda_j^k.

    Modes enter in conjugate groups read from the mode sequence: j
    followed by j + 1 in one group, Im lambda_j > 0, is a pair (the
    layout of ``dmd.conjugate_groups``), and any other mode, a pair's
    partners listed apart or reversed among them, stands alone.  Each
    such group g enters as one real product, Re(B_g C_g) =
    [Re B_g, Im B_g] [Re C_g; -Im C_g], into one buffer subtracted in
    place, so a mode sequence gives bit-identical residuals however it
    is split into groups, as long as no split falls between a pair's
    partners.  One array is updated in place and yielded each time.
    """
    idx = np.asarray([j for group in groups for j in group], dtype=int)
    coef = dec.amplitudes[idx, None] * _vandermonde(dec.lambdas[idx], t.shape[1])
    b_sel = b[:, idx]  # column p: coordinates of mode idx[p]
    upper = (dec.lambdas.imag > 0).tolist()
    res = np.array(t, dtype=float)
    buf = np.empty_like(res)
    end = 0
    for group in groups:
        p, end = end, end + len(group)
        while p < end:
            pair = p + 1 < end and upper[idx[p]] and idx[p + 1] == idx[p] + 1
            q = p + 2 if pair else p + 1
            x = np.hstack([b_sel[:, p:q].real, b_sel[:, p:q].imag])
            y = np.vstack([coef[p:q].real, -coef[p:q].imag])
            res -= np.matmul(x, y, out=buf)
            p = q
        yield res


@_lapack.one_thread()
def relative_error(matrix: SnapshotMatrix, dec: dmd.DmdDecomposition,
                   subset) -> float:
    """Frobenius-aggregate relative error of the subset reconstruction
    over every reconstructible snapshot."""
    idx = dec._mode_index(subset)
    t, b = dec.coordinates(matrix.v0)
    ref = _reference_norm(t)
    (res,) = _residuals(t, b, dec, [idx])
    return float(np.linalg.norm(res) / ref)


@_lapack.one_thread()
def per_time_errors(matrix: SnapshotMatrix, dec: dmd.DmdDecomposition,
                    subset) -> np.ndarray:
    """Relative error of each reconstructed snapshot separately.

    Entry k corresponds to snapshot index i = k + 1 (source column k).
    """
    idx = dec._mode_index(subset)
    t, b = dec.coordinates(matrix.v0)
    (res,) = _residuals(t, b, dec, [idx])
    return _column_errors(res, t)


def _column_errors(res: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Column norms of the residual ``res`` over those of ``t``; inf
    where a snapshot is zero."""
    num = np.linalg.norm(res, axis=0)
    den = np.linalg.norm(t, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0.0, num / den, np.inf)


def check_epsilon(epsilon: float) -> None:
    """Raise ValueError unless the threshold lies in (0, 1)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon = {epsilon} outside (0, 1)")


@_lapack.one_thread()
def select_leading_modes(matrix: SnapshotMatrix, dec: dmd.DmdDecomposition,
                         epsilon: float) -> RomModel:
    """Admit whole conjugate groups in descending weight order until the
    aggregate relative error reaches epsilon.

    Returns the first (smallest) selection that achieves the threshold;
    if none does, returns all modes flagged as not converged with the
    best error achieved.  The error of each prefix is exactly what
    ``relative_error`` reports for it, and ``time_errors`` is exactly
    what ``per_time_errors`` reports for the selection.  The one residual
    pass runs over every group, so the model carries the whole selection
    curve; the per-time errors are taken from that pass where the curve
    first reaches epsilon.
    """
    check_epsilon(epsilon)
    weights, order = _ranking(dec, matrix.n_snapshots - 1)
    t, b = dec.coordinates(matrix.v0)
    ref = _reference_norm(t)

    curve = np.empty(len(order))
    time_errors = None
    for k, res in enumerate(_residuals(t, b, dec, order)):
        curve[k] = np.linalg.norm(res) / ref
        if time_errors is None and curve[k] <= epsilon:
            time_errors = _column_errors(res, t)
    if time_errors is None:  # not converged: the errors of the full set
        time_errors = _column_errors(res, t)
    return _select(dec, weights, order, curve, epsilon, time_errors)


def _select(dec: dmd.DmdDecomposition, weights: np.ndarray, order, curve: np.ndarray,
            epsilon: float, time_errors=None) -> RomModel:
    """The model at ``epsilon`` on the selection curve ``curve`` of
    ``order``: its first prefix whose error is at most epsilon, else
    every group, not converged."""
    reached = np.flatnonzero(curve <= epsilon)
    count = int(reached[0]) + 1 if reached.size else len(order)
    selected = tuple(j for group in order[:count] for j in group)
    achieved = float(curve[count - 1])
    sel_arr = np.asarray(selected, dtype=int)
    return RomModel(
        selected=selected,
        lambdas=dec.lambdas[sel_arr],
        amplitudes=dec.amplitudes[sel_arr],
        n_dmd=len(selected),
        achieved_error=achieved,
        epsilon=epsilon,
        full_rank=dec.lambdas.shape[0],
        converged=achieved <= epsilon,
        weights=weights,
        order=order,
        time_errors=time_errors,
        curve=curve,
    )


def reduced_model(matrix: SnapshotMatrix, epsilon: float, store, *,
                  time_errors: bool = True, reload=None):
    """``dmd.decompose`` and ``select_leading_modes`` through the
    decomposition store at the path ``store`` (module docstring).

    Returns (matrix decomposed, decomposition, model) as those two give
    them.  When ``store`` holds the decomposition of the same bytes, the
    matrix is ``matrix`` or its truncated window, ``v0`` a view of it,
    and the model is read off the stored selection curve with no
    residual pass, its weights and order derived by ``_ranking`` as a
    fresh selection derives them; only ``time_errors`` then takes one
    pass over the selected modes, bit-identical to the errors a fresh
    selection reports.  Otherwise the matrix is decomposed and selected,
    and the store written there; a decomposition that raises writes
    nothing.
    With ``time_errors`` False the model holds None there.  Deleting the
    file forces a recompute.

    With ``reload``, a callable that returns the same snapshots again
    (``cli`` passes ``lambda: snapshots.load(path)``), a miss hands
    ``matrix`` over to ``dmd.decompose(..., reload=...)``, which factors
    its payload in place, and the matrix and decomposition returned are
    consumed: V0 is no longer readable.  The model, the store and every
    other array are those of the copying call.  A rank-deficiency retry
    refits ``reload()``'s payload, whose store key must be the one taken
    here: InvalidValue, naming the field, otherwise, and no store.
    """
    check_epsilon(epsilon)
    key = _store_key(matrix)
    stored = _load_store(store, key, matrix)
    if stored is None:
        if reload is not None:
            reload = functools.partial(_reloaded, reload, key)
        used, dec = dmd.decompose(matrix, reload=reload)
        model = select_leading_modes(used, dec, epsilon)
        _save_store(store, key, used, dec, model.curve)
        if not time_errors:
            model = replace(model, time_errors=None)
        return used, dec, model
    used, dec, curve = stored
    weights, order = _ranking(dec, used.n_snapshots - 1)
    # a copy: a view of the store's buffer would keep all of it alive in
    # the model after the decomposition is dropped
    model = _select(dec, weights, order, curve.copy(), epsilon)
    if time_errors:
        model = replace(model, time_errors=per_time_errors(used, dec, model.selected))
    return used, dec, model


def _reloaded(reload, key: str) -> SnapshotMatrix:
    """``reload()``, refused unless its store key is ``key``."""
    matrix = reload()
    if _store_key(matrix) != key:
        raise InvalidValue(f"field {matrix.field_tag.name}: the snapshots read again "
                           "differ from the ones decomposed; the input changed while "
                           "it was read")
    return matrix


def _store_key(matrix: SnapshotMatrix) -> str:
    """The store key of ``matrix``: format version, dtype and shape of its
    payload row block, the bits of dt, the sha256 of the rows, the BLAS.

    The rows are hashed one snapshot at a time through the buffer
    protocol: sha256 is a stream, so that is the digest of the whole
    block, and in the ``assemble``/``load`` layout each row is a view, so
    no payload is copied.
    """
    rows = matrix.data.T
    digest = hashlib.sha256()
    for row in rows:
        digest.update(np.ascontiguousarray(row))
    dt_bits = struct.pack("<d", matrix.dt).hex()
    return (f"koopmanrom-dmd {_STORE_VERSION} {rows.dtype.str} {rows.shape[0]}x{rows.shape[1]} "
            f"{dt_bits} {digest.hexdigest()} {_lapack.blas_id()}")


def _store_layout(key_len: int, n: int, is_complex: int, groups: int):
    """({array: (offset, shape, dtype)}, file size) of a store with that
    header; every array but the curve is the decomposition's attribute
    of that name."""
    nt = n - 1
    either = "<c16" if is_complex else "<f8"
    arrays = (("lambdas", (nt,), either), ("amplitudes", (nt,), either),
              ("r", (nt, nt), "<f8"), ("mode_coords", (nt, nt), either),
              ("z", (nt, nt), either), ("curve", (groups,), "<f8"))
    layout, end = {}, _STORE_HEAD.size + key_len
    for name, shape, dtype in arrays:
        offset = -(-end // _STORE_ALIGN) * _STORE_ALIGN
        layout[name] = offset, shape, np.dtype(dtype)
        end = offset + math.prod(shape) * layout[name][2].itemsize
    return layout, end


def _load_store(path, key: str, matrix: SnapshotMatrix):
    """(matrix, decomposition, curve) stored at ``path`` under ``key``,
    or None when the file is missing, unreadable, foreign, stale or
    malformed."""
    nsnap = matrix.n_snapshots
    key = key.encode()
    # the largest layout the snapshots allow, checked before allocating
    _, bound = _store_layout(len(key), nsnap, 1, nsnap - 1)
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if not _STORE_HEAD.size + len(key) <= size <= bound:
                return None
            buf = np.empty(size, dtype=np.uint8)
            if fh.readinto(buf) != size:
                return None
    except OSError:  # a store that does not read back is a miss, never an error
        return None
    magic, version, key_len, n, is_complex, groups, crc = _STORE_HEAD.unpack_from(buf)
    if (magic != _STORE_MAGIC or version != _STORE_VERSION or key_len != len(key)
            or buf[_STORE_HEAD.size:][:key_len].tobytes() != key
            or not 2 <= n <= nsnap or is_complex not in (0, 1)):
        return None
    layout, end = _store_layout(key_len, n, is_complex, groups)
    if size != end or zlib.crc32(buf[_STORE_HEAD.size:]) != crc:
        return None
    arrays = {name: np.frombuffer(buf, dtype, math.prod(shape), offset).reshape(shape)
              for name, (offset, shape, dtype) in layout.items()}
    curve = arrays.pop("curve")
    if groups != len(dmd.conjugate_groups(arrays["lambdas"])):
        return None
    if n < nsnap:
        matrix = replace(matrix, data=matrix.data[:, :n])
    dec = dmd.DmdDecomposition(dt=matrix.dt, v0=matrix.v0, **arrays)
    return matrix, dec, curve


def _save_store(path, key: str, matrix: SnapshotMatrix, dec: dmd.DmdDecomposition,
                curve: np.ndarray) -> None:
    """Write the store of ``dec`` and its curve to ``path`` (``_files``);
    one that cannot be written, or whose arrays have other dtypes than
    its layout, is skipped, and the next call decomposes again."""
    key = key.encode()
    head = (len(key), matrix.n_snapshots, int(np.iscomplexobj(dec.lambdas)), len(curve))
    parts = [key]
    at = _STORE_HEAD.size + len(key)
    for name, (offset, _, dtype) in _store_layout(*head)[0].items():
        a = curve if name == "curve" else getattr(dec, name)
        if a.dtype.newbyteorder("<") != dtype:
            return
        parts += [bytes(offset - at), np.ascontiguousarray(a, dtype=dtype)]
        at = offset + a.nbytes
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.insert(0, _STORE_HEAD.pack(_STORE_MAGIC, _STORE_VERSION, *head, crc))
    try:
        with _files.Replacement(path) as fh:
            fh.writelines(parts)
    except OSError:
        pass


def reduction_percentage(rom: RomModel) -> float:
    """Percentage of modes dropped, truncated to two decimals."""
    if rom.full_rank <= 0:
        raise ValueError("full_rank must be positive")
    pct = 100.0 * (rom.full_rank - rom.n_dmd) / rom.full_rank
    return math.floor(pct * 100.0) / 100.0


__all__ = [
    "RomModel",
    "mode_weights", "relative_error", "per_time_errors", "check_epsilon",
    "select_leading_modes", "reduced_model", "reduction_percentage",
]
