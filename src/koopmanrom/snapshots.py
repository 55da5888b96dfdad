"""Snapshot matrices and their binary/CSV persistence.

A snapshot matrix stacks flattened (ny, nx) fields as columns, one per
sampling instant.  Flattening is fixed: linear index = iy * nx + ix.
The on-disk format (KSNP v1) is sealed and bit-exact:

    bytes 0-3   ASCII "KSNP"
    u32 LE      version (= 1)
    u32 LE      field tag (0 = h, 1 = u, 2 = v, 3 = other)
    u32 LE      flags (bit 0 = nondimensional)
    u32 LE      nx
    u32 LE      ny
    u32 LE      nsnap
    f64 LE      dt (sampling interval)
    f64 LE      dx
    f64 LE      dy
    payload     nsnap snapshots, each nx*ny f64 LE, flattening order

In memory ``assemble`` and ``load`` fill one C-ordered (nsnap, nx*ny)
payload block; ``SnapshotMatrix.data`` is its transpose, the column-major
block [V0 | u_N] that LAPACK factors, written and read with no copy.
Non-finite values have no place in a snapshot matrix: ``assemble`` and
``load`` reject them with NonFiniteData instead of letting them reach
the decomposition.  ``read_header`` reads and checks a file's header
alone, its size included, as ``load`` does before it reads the payload.

Every KSNP file is written by one ``KsnpWriter``: it packs the header,
nsnap included, then takes the payload rows in order, one snapshot or a
whole row block at a time, so a solver can stream its output to disk
without holding the run.  By default each row is checked for non-finite
values (the error names the snapshot and cell) and then divided in
place by a reference scale, if one is given.  ``commit`` lands the file
(``_files.Replacement``) once all nsnap rows are in.  ``save`` is that
writer fed a matrix's whole row block.
"""

from __future__ import annotations

import enum
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import _files
from .errors import (BadMagic, CorruptHeader, IndexOutOfRange, InvalidValue,
                     NonFiniteData, ShapeMismatch, TooFewColumns, UnsupportedVersion)
from .swe import Grid

_MAGIC = b"KSNP"
_VERSION = 1
_HEADER = struct.Struct("<4s6I3d")
_U32_MAX = 2 ** 32 - 1


class FieldTag(enum.IntEnum):
    h = 0
    u = 1
    v = 2
    other = 3


@dataclass(frozen=True)
class SnapshotMatrix:
    """Space-time data matrix, shape (nx*ny, nsnap), plus sampling metadata;
    ``assemble`` and ``load`` give ``data`` as a row block's transpose."""

    data: np.ndarray
    nx: int
    ny: int
    dt: float
    dx: float
    dy: float
    field_tag: FieldTag
    nondimensional: bool = False

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[0] != self.nx * self.ny:
            raise ShapeMismatch(
                f"data shape {self.data.shape} does not match nx*ny = {self.nx * self.ny}")
        if self.data.shape[1] < 2:
            raise TooFewColumns("snapshot matrix needs at least 2 columns")

    @property
    def n_snapshots(self) -> int:
        return self.data.shape[1]

    @property
    def v0(self) -> np.ndarray:
        """V0, the view of every column but the last: the last snapshot is
        the fit target, which the companion fit expresses in V0 and no
        reconstruction covers."""
        return self.data[:, :-1]

    def field(self, index: int) -> np.ndarray:
        """Un-flatten snapshot ``index`` back to a (ny, nx) array."""
        if not 0 <= index < self.n_snapshots:
            raise IndexOutOfRange(f"snapshot index {index} not in [0, {self.n_snapshots})")
        return self.data[:, index].reshape(self.ny, self.nx)


def assemble(fields: Sequence[np.ndarray], dt: float, tag: FieldTag, grid: Grid,
             nondimensional: bool = False) -> SnapshotMatrix:
    """Stack (ny, nx) fields, ordered by time, into a snapshot matrix."""
    if len(fields) < 2:
        raise TooFewColumns("need at least 2 fields to assemble")
    shape = (grid.ny, grid.nx)
    for i, f in enumerate(fields):
        if f.shape != shape:
            raise ShapeMismatch(f"field {i} has shape {f.shape}, expected {shape}")
    rows = np.stack(fields, dtype=np.float64).reshape(len(fields), -1)
    _require_finite(rows, "assembled fields")
    return SnapshotMatrix(data=rows.T, nx=grid.nx, ny=grid.ny, dt=dt,
                          dx=grid.dx, dy=grid.dy, field_tag=FieldTag(tag),
                          nondimensional=nondimensional)


def _require_finite(snapshots: np.ndarray, what, first: int = 0) -> None:
    """Raise NonFiniteData naming the first non-finite value of a
    (nsnap, nx*ny) row block, the layout ``assemble`` and ``load`` fill,
    whose row 0 is snapshot ``first``."""
    finite = np.isfinite(snapshots)
    if not finite.all():
        snap, cell = np.unravel_index(np.argmin(finite), finite.shape)
        raise NonFiniteData(f"{what}: {finite.size - finite.sum()} non-finite values, "
                            f"first {snapshots[snap, cell]} at snapshot {first + snap}, "
                            f"cell {cell}")


class KsnpWriter:
    """A KSNP v1 file of ``nsnap`` snapshots, written row by row.

    The header is written on construction; ``append`` adds payload rows
    in snapshot order and ``commit`` lands the file at ``path`` once
    exactly nsnap rows are in (``_files.Replacement``).  ``abort``, or
    leaving a ``with`` block without a commit, leaves ``path`` as it was.

    With ``check_finite`` each row is checked before it is written, and
    NonFiniteData names its snapshot and cell; with a ``scale`` each row
    is then divided by it in place, so the caller's array holds the
    scaled values afterwards.
    """

    def __init__(self, path, nsnap: int, *, nx: int, ny: int, dt: float, dx: float,
                 dy: float, field_tag: FieldTag, nondimensional: bool = False,
                 scale: float | None = None, check_finite: bool = True):
        if nsnap < 2:
            raise TooFewColumns("a KSNP file needs at least 2 snapshots")
        for name, count in (("nx", nx), ("ny", ny), ("nsnap", nsnap)):
            if not 0 < count <= _U32_MAX:
                raise InvalidValue(f"{path}: {name} = {count} outside 1..{_U32_MAX}: load "
                                   "refuses an empty grid, and the header holds no more")
        if not _positive_spacings(dt, dx, dy):
            raise InvalidValue(f"{path}: dt = {dt}, dx = {dx} and dy = {dy} must be "
                               "finite and positive, with a finite reciprocal, or load would "
                               "refuse the file")
        header = _HEADER.pack(_MAGIC, _VERSION, int(field_tag), 1 if nondimensional else 0,
                              nx, ny, nsnap, dt, dx, dy)
        self.path = Path(path)
        self.nsnap, self.written = nsnap, 0
        self._cells, self._scale, self._check = nx * ny, scale, check_finite
        self._out = _files.Replacement(self.path)
        self._out.write(header)   # into an empty buffer: no call that can fail

    def __enter__(self) -> "KsnpWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.abort()

    def append(self, rows) -> None:
        """Write the next snapshot(s): a field, or a (k, nx*ny) row block."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.size % self._cells:
            raise ShapeMismatch(f"{self.path}: {rows.size} values are not whole "
                                f"snapshots of {self._cells} cells")
        rows = rows.reshape(-1, self._cells)
        if self.written + len(rows) > self.nsnap:
            raise ShapeMismatch(f"{self.path}: more than {self.nsnap} snapshots")
        if self._check:
            _require_finite(rows, self.path, first=self.written)
        if self._scale is not None:
            np.divide(rows, self._scale, out=rows)
        self._out.write(np.ascontiguousarray(rows, dtype="<f8"))
        self.written += len(rows)

    def commit(self) -> None:
        """Land the complete file at ``path``."""
        if self.written != self.nsnap:
            raise ShapeMismatch(f"{self.path}: {self.written} of {self.nsnap} snapshots "
                                "written")
        self._out.commit()

    def abort(self) -> None:
        """Discard the file, unless committed; safe to repeat."""
        self._out.abort()


def save(matrix: SnapshotMatrix, path) -> None:
    """Write a KSNP v1 file; load(save(m)) is bit-identical to m.

    Any matrix is written as it is, non-finite values included:
    ``load`` is the gate that rejects them.
    """
    with KsnpWriter(path, matrix.n_snapshots, nx=matrix.nx, ny=matrix.ny, dt=matrix.dt,
                    dx=matrix.dx, dy=matrix.dy, field_tag=matrix.field_tag,
                    nondimensional=matrix.nondimensional, check_finite=False) as writer:
        writer.append(matrix.data.T)
        writer.commit()


def _positive_spacings(*values: float) -> bool:
    """Whether each sampling interval or grid spacing is finite and
    positive, with a finite reciprocal: one below about 5.6e-309, as
    5e-324, has none, and would make a rate or a quotient inf or nan."""
    return all(0.0 < v < np.inf and 1.0 / float(v) < np.inf for v in values)


@dataclass(frozen=True)
class KsnpHeader:
    """What the header of a KSNP file says of its payload, named as
    ``SnapshotMatrix`` names it."""

    field_tag: FieldTag
    nondimensional: bool
    nx: int
    ny: int
    n_snapshots: int
    dt: float
    dx: float
    dy: float


def _read_header(fh, path) -> KsnpHeader:
    """The header of the open file, checked against its size."""
    head = fh.read(_HEADER.size)
    if len(head) < 4:
        raise CorruptHeader(f"{path}: file shorter than the magic")
    if head[:4] != _MAGIC:
        raise BadMagic(f"{path}: expected {_MAGIC!r}, found {head[:4]!r}")
    if len(head) < _HEADER.size:
        raise CorruptHeader(f"{path}: truncated header ({len(head)} bytes)")
    _, version, tag, flags, nx, ny, nsnap, dt, dx, dy = _HEADER.unpack(head)
    if version != _VERSION:
        raise UnsupportedVersion(f"{path}: version {version}, expected {_VERSION}")
    if tag > 3 or nx == 0 or ny == 0 or nsnap < 2 or not _positive_spacings(dt, dx, dy):
        raise CorruptHeader(f"{path}: implausible header (tag={tag}, nx={nx}, "
                            f"ny={ny}, nsnap={nsnap}, dt={dt}, dx={dx}, dy={dy})")
    expected = _HEADER.size + 8 * nx * ny * nsnap
    size = os.fstat(fh.fileno()).st_size
    if size != expected:
        raise CorruptHeader(f"{path}: {size} bytes, expected {expected}")
    return KsnpHeader(FieldTag(tag), bool(flags & 1), nx, ny, nsnap, dt, dx, dy)


def read_header(path) -> KsnpHeader:
    """The header of a KSNP file, read without its payload and checked as
    :func:`load` checks it, the file size included."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def load(path) -> SnapshotMatrix:
    """Read a KSNP v1 file written by :func:`save`.

    BadMagic or UnsupportedVersion for another format.  CorruptHeader for
    a field tag above 3, an empty grid, fewer than 2 snapshots, a dt, dx
    or dy that is not finite and positive with a finite reciprocal, or
    sizes that disagree with the file size, which is checked before
    anything is allocated.  A payload that does not fit in memory raises
    MemoryError naming the file, and one holding NaN or infinite values
    NonFiniteData naming the first such snapshot and cell.
    """
    with open(path, "rb") as fh:
        head = _read_header(fh, path)
        try:
            payload = np.empty((head.n_snapshots, head.nx * head.ny), dtype="<f8")
        except MemoryError as exc:
            raise MemoryError(f"{path}: {head.n_snapshots} snapshots of {head.ny}x{head.nx} "
                              "do not fit in the memory available") from exc
        if fh.readinto(payload) != payload.nbytes:
            raise CorruptHeader(f"{path}: payload shorter than {payload.nbytes} bytes")
    _require_finite(payload, path)
    return SnapshotMatrix(data=payload.T, nx=head.nx, ny=head.ny, dt=head.dt, dx=head.dx,
                          dy=head.dy, field_tag=head.field_tag,
                          nondimensional=head.nondimensional)


def write_field_csv(field: np.ndarray, path) -> None:
    """Write a 2D field as bare CSV: one line per y-row, LF endings,
    17 significant digits (lossless for doubles)."""
    rows = np.asarray(field)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with _files.Replacement(path, text=True) as fh:
        fh.writelines(line % tuple(row) for row in rows.tolist())


def export_csv(matrix: SnapshotMatrix, snapshot_index: int, path) -> None:
    """Export one snapshot as an ny x nx CSV grid, no header."""
    write_field_csv(matrix.field(snapshot_index), path)


__all__ = [
    "FieldTag", "SnapshotMatrix", "KsnpWriter",
    "assemble", "save", "load", "export_csv", "write_field_csv",
]
