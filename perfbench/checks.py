"""Output checks against reference values recorded from the initial toolkit.

Each check returns a list of problems; an empty list means the output is
correct.  Files are read here with struct and numpy alone, never through
koopmanrom, so a check neither depends on the code it checks nor adds
spans to a traced run.  ``reference.json`` is written by
``record_reference.py``.

Tolerances:

* ``n_dmd``, ``full_rank`` and the KSNP shape must match exactly.
* ``achieved_error`` must be <= epsilon and within ``ERROR_RTOL``
  (relative) of the reference; the selection rewrite planned in the
  roadmap reproduces it to 7 printed digits.
* the printed relative mass drift must satisfy |drift| <= ``MASS_DRIFT_BOUND``
  (the initial toolkit prints 0.0 on full and 1.5e-16 on desk).
* the Frobenius norm of each KSNP file must be within ``NORM_RTOL``
  (relative) of the reference; a solver rewrite must stay within 1e-12
  relative per snapshot.
* errors printed with 7 significant digits (``reconstruct``,
  ``vorticity``) must be within ``PRINTED_RTOL`` of their reference.
"""

from __future__ import annotations

import json
import re
import struct
from pathlib import Path

import numpy as np

ERROR_RTOL = 1e-6
MASS_DRIFT_BOUND = 1e-12
NORM_RTOL = 1e-9
PRINTED_RTOL = 1e-5

REFERENCE = Path(__file__).resolve().parent / "reference.json"
FIELDS = ("h", "u", "v")

_HEADER = struct.Struct("<4s6I3d")
_DRIFT = re.compile(r"relative drift (\S+)")
_RECON = re.compile(r"per-time relative error = (\S+)")
_VORT = re.compile(r"relative difference = (\S+)")


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def read_ksnp(path) -> tuple[dict, np.ndarray]:
    """Header fields and the (nsnap, ny*nx) payload of a KSNP v1 file."""
    raw = Path(path).read_bytes()
    magic, version, tag, flags, nx, ny, nsnap, dt, dx, dy = _HEADER.unpack_from(raw)
    if magic != b"KSNP" or version != 1:
        raise ValueError(f"{path}: not a KSNP v1 file")
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(nsnap, ny * nx)
    return {"nx": nx, "ny": ny, "nsnap": nsnap, "dt": dt}, data


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


def ksnp_files(directory, ref: dict) -> list[str]:
    """Each field's KSNP file has the reference shape and Frobenius norm."""
    problems = []
    for name in FIELDS:
        path = Path(directory) / f"{name}.ksnp"
        try:
            header, data = read_ksnp(path)
        except (OSError, ValueError, struct.error) as exc:
            problems.append(f"{path}: {exc}")
            continue
        shape = [header["nx"], header["ny"], header["nsnap"]]
        if shape != ref["shape"]:
            problems.append(f"{path}: shape {shape} != {ref['shape']}")
            continue
        norm = float(np.linalg.norm(data))
        if not _close(norm, ref["norms"][name], NORM_RTOL):
            problems.append(f"{path}: norm {norm!r} != {ref['norms'][name]!r}")
    return problems


def simulate(stdout: str, outdir, ref: dict) -> list[str]:
    """``simulate`` printed a small mass drift and wrote the reference data."""
    match = _DRIFT.search(stdout)
    if match is None:
        return ["simulate printed no mass drift"]
    drift = float(match.group(1))
    problems = [] if abs(drift) <= MASS_DRIFT_BOUND else [f"mass drift {drift}"]
    return problems + ksnp_files(outdir, ref)


def rom(outdir, ref: dict) -> list[str]:
    """``rom`` wrote the reference summary and consistent per-field reports."""
    outdir = Path(outdir)
    try:
        lines = (outdir / "summary.csv").read_text().splitlines()[1:]
    except OSError as exc:
        return [str(exc)]
    rows = {line.split(",")[0]: line.split(",") for line in lines}
    if sorted(rows) != sorted(FIELDS):
        return [f"summary.csv fields {sorted(rows)}"]
    problems = []
    eps = ref["epsilon"]
    for name in FIELDS:
        _, full_rank, n_dmd, _, achieved, converged = rows[name]
        want = ref["rom"][name]
        achieved = float(achieved)
        if int(full_rank) != want["full_rank"] or int(n_dmd) != want["n_dmd"]:
            problems.append(f"{name}: full_rank/n_dmd {full_rank}/{n_dmd} != "
                            f"{want['full_rank']}/{want['n_dmd']}")
        if converged != "1" or not achieved <= eps:
            problems.append(f"{name}: achieved_error {achieved} not <= {eps}")
        if not _close(achieved, want["achieved_error"], ERROR_RTOL):
            problems.append(f"{name}: achieved_error {achieved!r} != "
                            f"{want['achieved_error']!r}")
        try:
            spectrum = (outdir / f"spectrum_{name}.csv").read_text().splitlines()[1:]
            errors = (outdir / f"errors_{name}.csv").read_text().splitlines()[1:]
        except OSError as exc:
            problems.append(str(exc))
            continue
        selected = sum(int(line.split(",")[6]) for line in spectrum)
        if len(spectrum) != want["full_rank"] or selected != want["n_dmd"]:
            problems.append(f"spectrum_{name}.csv: {len(spectrum)} rows, "
                            f"{selected} selected")
        if len(errors) != ref["shape"][2] - 1:
            problems.append(f"errors_{name}.csv: {len(errors)} rows")
    return problems


def _printed(pattern, stdout: str) -> float | None:
    match = pattern.search(stdout)
    return float(match.group(1)) if match else None


def grid_error(full_csv, model_csv) -> float:
    full = np.loadtxt(full_csv, delimiter=",")
    model = np.loadtxt(model_csv, delimiter=",")
    return float(np.linalg.norm(full - model) / np.linalg.norm(full))


def reconstruct(stdout: str, outdir, k: int, snapshot: np.ndarray) -> list[str]:
    """``reconstruct --field h --index k`` printed the error that ``rom``
    wrote in row k of errors_h.csv, and its grids agree with it.

    ``snapshot`` is column k of h.ksnp as a flat array.
    """
    outdir = Path(outdir)
    err = _printed(_RECON, stdout)
    if err is None:
        return ["reconstruct printed no per-time error"]
    try:
        row = (outdir / "errors_h.csv").read_text().splitlines()[1 + k].split(",")
        full = np.loadtxt(outdir / f"full_h_{k}.csv", delimiter=",")
        grid_err = grid_error(outdir / f"full_h_{k}.csv", outdir / f"rom_h_{k}.csv")
    except (OSError, IndexError, ValueError) as exc:
        return [str(exc)]
    problems = []
    if int(row[0]) != k or not _close(err, float(row[2]), PRINTED_RTOL):
        problems.append(f"reconstruct {k}: printed {err} vs errors_h.csv {row}")
    if not np.array_equal(full.reshape(-1), snapshot):
        problems.append(f"full_h_{k}.csv differs from h.ksnp column {k}")
    if not _close(grid_err, err, PRINTED_RTOL):
        problems.append(f"rom_h_{k}.csv error {grid_err} vs printed {err}")
    return problems


def vorticity(stdout: str, outdir, k: int, ref: dict) -> list[str]:
    """``vorticity --index k`` printed the reference relative difference
    and its grids agree with it."""
    err = _printed(_VORT, stdout)
    if err is None:
        return ["vorticity printed no relative difference"]
    want = ref["vorticity_error"][k]
    problems = [] if _close(err, want, PRINTED_RTOL) else [
        f"vorticity {k}: {err} != {want}"]
    try:
        grid_err = grid_error(Path(outdir) / f"vort_full_{k}.csv",
                              Path(outdir) / f"vort_rom_{k}.csv")
    except (OSError, ValueError) as exc:
        return problems + [str(exc)]
    if not _close(grid_err, err, PRINTED_RTOL):
        problems.append(f"vort_rom_{k}.csv error {grid_err} vs printed {err}")
    return problems
