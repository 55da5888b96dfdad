"""Command-line orchestration: simulate, rom, reconstruct, vorticity.

Reads a flat ``key = value`` config file, runs the solver and the mode
selection pipeline, and writes KSNP snapshot files plus CSV reports
(spectrum, per-time errors, summary table, field and vorticity grids).
Every command that decomposes a field keeps its decomposition and
selection curve in ``dmd_<field>.npz`` in the output directory and
reuses them while the field's snapshot bytes are unchanged; the
exponents, weights and admission order of the spectrum report are
derived from them as a fresh run derives them (``rom.reduced_model``).

Exit codes: 0 success, 1 selection did not converge (or decomposition
failure), 2 solver failure, 3 usage, I/O, config or input-data failure,
an input beyond memory among them.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import _files, _lapack, dmd, rom, snapshots, swe
from .errors import (BadMagic, CflViolation, CorruptHeader, IndexOutOfRange,
                     InvalidValue, NonFiniteData, NonPositiveDepth, ParseError,
                     ToolkitError, UnknownKey, UnsupportedVersion)

_FIELDS = ("h", "u", "v")


@dataclass(frozen=True)
class ExperimentConfig:
    nx: int = 129
    ny: int = 65
    constants: swe.PhysicalConstants = swe.PhysicalConstants()
    snapshot_dt: float = 1800.0
    n_snapshots: int = 289
    cfl: float = 0.8
    epsilon: float = 1e-3
    fields: tuple[str, ...] = _FIELDS
    output_dir: str = "."
    nondimensionalize: bool = True


# each config key's declared type: ExperimentConfig's fields, then the constants'
_TYPES = {f.name: f.type for cls in (ExperimentConfig, swe.PhysicalConstants)
          for f in fields(cls) if f.name != "constants"}
_KEYS = tuple(_TYPES)
_CONSTANT_KEYS = tuple(f.name for f in fields(swe.PhysicalConstants))


def _parse_value(key: str, text: str):
    try:
        if _TYPES[key] == "int":
            return int(text)
        if _TYPES[key] == "float":
            return float(text)
        if _TYPES[key] == "bool":
            low = text.lower()
            if low in ("true", "false"):
                return low == "true"
            raise ValueError("expected true or false")
        if key == "fields":
            names = tuple(p.strip() for p in text.split(",") if p.strip())
            if not names or any(n not in _FIELDS for n in names):
                raise ValueError(f"fields must be a non-empty subset of {_FIELDS}")
            repeated = sorted({n for n in names if names.count(n) > 1})
            if repeated:
                raise ValueError(f"field {', '.join(repeated)} named more than once")
            return names
        return text  # output_dir
    except ValueError as exc:
        raise InvalidValue(f"{key} = {text!r}: {exc}") from exc


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    if not 0.0 < cfg.epsilon < 1.0:
        raise InvalidValue(f"epsilon = {cfg.epsilon} outside (0, 1)")
    if cfg.n_snapshots < 2:
        raise InvalidValue(f"n_snapshots = {cfg.n_snapshots} < 2")
    if cfg.nx < 4 or cfg.ny < 4:
        raise InvalidValue(f"grid {cfg.nx}x{cfg.ny} below the 4x4 minimum")
    if not cfg.cfl > 0:
        raise InvalidValue(f"cfl = {cfg.cfl} must be positive")
    try:
        horizon = (cfg.n_snapshots - 1) * cfg.snapshot_dt
    except OverflowError:  # a snapshot count beyond the float range
        horizon = np.inf
    if not (cfg.snapshot_dt > 0 and np.isfinite(horizon)):
        raise InvalidValue(f"snapshot_dt = {cfg.snapshot_dt} must be positive, with a "
                           f"finite horizon (n_snapshots - 1) * snapshot_dt")
    for key in _CONSTANT_KEYS:
        val = getattr(cfg.constants, key)
        if not np.isfinite(val):
            raise InvalidValue(f"{key} = {val} is not finite")
    return cfg


def parse_config(path) -> ExperimentConfig:
    """Parse ``key = value`` lines; '#' starts a comment; unknown keys fail."""
    raw_bytes = Path(path).read_bytes()
    try:
        content = raw_bytes.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw_bytes.count(b"\n", 0, exc.start) + 1
        raise ParseError(path, line_no, f"not UTF-8 text: {exc.reason}") from exc
    values = {}
    for line_no, raw in enumerate(io.StringIO(content, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(path, line_no, f"expected 'key = value', got {raw.strip()!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in _KEYS:
            raise UnknownKey(f"{path}:{line_no}: unknown key {key!r}")
        if not text:
            raise ParseError(path, line_no, f"empty value for {key!r}")
        values[key] = _parse_value(key, text)

    const_kwargs = {k: values.pop(k) for k in list(values) if k in _CONSTANT_KEYS}
    try:
        constants = swe.PhysicalConstants(**const_kwargs)
    except ValueError as exc:
        raise InvalidValue(str(exc)) from exc
    return _validate(ExperimentConfig(constants=constants, **values))


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config else _validate(ExperimentConfig())
    if args.eps is not None:
        cfg = _validate(replace(cfg, epsilon=args.eps))
    return replace(cfg, output_dir=args.out or cfg.output_dir,
                   fields=(args.field,) if args.field else cfg.fields)


# --- pipeline pieces ---

class _KsnpSink:
    """Output sink of ``swe.simulate``: each state's fields ``cfg.fields``
    become one row of their KSNP files as the solver reaches it.

    The first state, the initial condition, sets the reference scales,
    creates the output directory and opens one writer per field.  The
    first and last states give the dimensional masses, taken before the
    writers divide the fields in place.  ``commit`` renames the complete
    files into place; leaving the ``with`` block without it removes them.
    """

    def __init__(self, cfg: ExperimentConfig, grid: swe.Grid):
        self.cfg, self.grid = cfg, grid
        self.writers: dict[str, snapshots.KsnpWriter] = {}
        self.masses: list[float] = []
        self.count = 0

    def __enter__(self) -> "_KsnpSink":
        return self

    def __exit__(self, *exc) -> None:
        for writer in self.writers.values():
            writer.abort()

    def append(self, state: swe.SweState) -> None:
        if self.count == 0:
            self._open(state)
        if self.count in (0, self.cfg.n_snapshots - 1):
            self.masses.append(swe.total_mass(state, self.grid))
        for name, writer in self.writers.items():
            writer.append(getattr(state, name))
        self.count += 1

    def _open(self, initial: swe.SweState) -> None:
        cfg, grid, dt = self.cfg, self.grid, self.cfg.snapshot_dt
        refs = dict.fromkeys(_FIELDS)
        if cfg.nondimensionalize:
            scales = swe.ScaleSet.from_initial_state(initial, cfg.constants)
            grid = grid.scaled(scales.l_ref)
            dt = cfg.snapshot_dt / scales.t_ref
            refs = {"h": scales.h_ref, "u": scales.u_ref, "v": scales.u_ref}
        outdir = Path(cfg.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for name in cfg.fields:
            self.writers[name] = snapshots.KsnpWriter(
                outdir / f"{name}.ksnp", cfg.n_snapshots, nx=grid.nx, ny=grid.ny, dt=dt,
                dx=grid.dx, dy=grid.dy, field_tag=snapshots.FieldTag[name],
                nondimensional=cfg.nondimensionalize, scale=refs[name])


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    grid = swe.Grid.for_channel(cfg.nx, cfg.ny, cfg.constants)
    with _KsnpSink(cfg, grid) as sink:
        # the solver's config-dependent ValueErrors: a Coriolis parameter
        # that vanishes on a grid row, still water (no velocity scale,
        # raised by the sink at the first state) and a horizon that float
        # time cannot resolve; all come before the first sub-step
        try:
            swe.simulate(cfg.constants, grid, cfg.snapshot_dt, cfg.n_snapshots,
                         cfl=cfg.cfl, out=sink)
        except ValueError as exc:
            raise InvalidValue(str(exc)) from exc
        except MemoryError as exc:
            raise InvalidValue(f"grid {cfg.nx}x{cfg.ny}: the solver's arrays do not "
                               "fit in the memory available") from exc
        mass0, mass1 = sink.masses
        drift = (mass1 - mass0) / mass0
        print(f"mass: initial {mass0:.10e}, final {mass1:.10e}, relative drift {drift:.3e}")
        for writer in sink.writers.values():
            writer.commit()
            print(f"wrote {writer.path} ({writer.nsnap} snapshots of {grid.ny}x{grid.nx})")
    return 0


def _dirs(cfg: ExperimentConfig, args) -> tuple[Path, Path]:
    """The output directory, created if missing, and the directory of the
    KSNP inputs (--data, default the output directory)."""
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir, Path(args.data) if args.data else outdir


def _reduce(matrix: snapshots.SnapshotMatrix, outdir: Path, name: str, epsilon: float,
            time_errors: bool):
    """rom.reduced_model with the store ``dmd_<name>.npz`` in ``outdir``,
    echoing a rank-deficiency truncation of the window."""
    used, dec, model = rom.reduced_model(matrix, epsilon, outdir / f"dmd_{name}.npz",
                                         time_errors=time_errors)
    if used.n_snapshots < matrix.n_snapshots:
        print(f"rank {used.n_snapshots - 1} < {matrix.n_snapshots - 1}: truncating "
              f"window to the first {used.n_snapshots} snapshots")
    return used, dec, model


def _write_spectrum(path, dec, model):
    """One row per mode, in the admission order ``model.order``."""
    chosen = set(model.selected)
    with _files.Replacement(path, text=True) as fh:
        fh.write("index,re_lambda,im_lambda,sigma,omega,weight,selected,amp_abs\n")
        for j in (j for group in model.order for j in group):
            lam, s = dec.lambdas[j], dec.exponents[j]
            fh.write(f"{j},{lam.real:.17g},{lam.imag:.17g},{s.real:.17g},{s.imag:.17g},"
                     f"{model.weights[j]:.17g},{int(j in chosen)},"
                     f"{abs(dec.amplitudes[j]):.17g}\n")


def _write_errors(path, matrix, errors):
    with _files.Replacement(path, text=True) as fh:
        fh.write("snapshot,time,rel_error\n")
        for k, err in enumerate(errors):
            fh.write(f"{k},{k * matrix.dt:.17g},{err:.17g}\n")


def _rom_field(path: Path, outdir: Path, epsilon: float):
    """Load, decompose and select the input ``path`` and write its
    spectrum and errors reports; returns (field name, model).  Only the
    model outlives the call, so ``rom`` holds one payload at a time."""
    matrix = snapshots.load(path)
    name = matrix.field_tag.name
    matrix, dec, model = _reduce(matrix, outdir, name, epsilon, time_errors=True)
    _write_spectrum(outdir / f"spectrum_{name}.csv", dec, model)
    _write_errors(outdir / f"errors_{name}.csv", matrix, model.time_errors)
    return name, model


def cmd_rom(args) -> int:
    cfg = _load_config(args)
    outdir, datadir = _dirs(cfg, args)
    paths = [Path(p) for p in args.paths] if args.paths else \
        [datadir / f"{name}.ksnp" for name in cfg.fields]

    # every report and store of an input is named by its field tag
    tagged = {}
    for path in paths:
        name = snapshots.field_tag(path).name
        if name in tagged:
            raise InvalidValue(f"{tagged[name]} and {path} are both tagged {name}: "
                               "their reports would overwrite each other")
        tagged[name] = path

    models = [_rom_field(path, outdir, cfg.epsilon) for path in paths]

    with _files.Replacement(outdir / "summary.csv", text=True) as fh:
        fh.write("field,full_rank,n_dmd,reduction_percent,achieved_error,converged\n")
        print(f"{'field':>6} {'rank':>5} {'n_dmd':>6} {'reduction':>10} {'error':>12}")
        for name, m in models:
            pct = rom.reduction_percentage(m)
            fh.write(f"{name},{m.full_rank},{m.n_dmd},{pct:.2f},"
                     f"{m.achieved_error:.17g},{int(m.converged)}\n")
            mark = "" if m.converged else "  (not converged)"
            print(f"{name:>6} {m.full_rank:>5} {m.n_dmd:>6} {pct:>9.2f}% "
                  f"{m.achieved_error:>12.3e}{mark}")
    return 0 if all(m.converged for _, m in models) else 1


def _snapshot_index(args, matrix, cfg) -> int:
    """Map --time (hours, against the dimensional sampling interval) or
    --index to a source snapshot index; echo the mapping."""
    n = matrix.n_snapshots
    if args.index is not None:
        k = args.index
        if not 0 <= k < n:
            raise IndexOutOfRange(f"snapshot {k} outside the sampled range [0, {n})")
        print(f"snapshot index {k} (t = {k * matrix.dt:.6g} in data units)")
        return k
    position = args.time * 3600.0 / cfg.snapshot_dt
    # compared as a float first: NaN, inf and 1e300 never become an integer
    k = round(position) if -1.0 < position < n else -1
    if not 0 <= k < n:
        raise IndexOutOfRange(f"T = {args.time:g} h outside the sampled range "
                              f"[0, {(n - 1) * cfg.snapshot_dt / 3600.0:g}] h")
    print(f"T = {args.time:g} h -> snapshot {k} "
          f"(nearest multiple of {cfg.snapshot_dt:g} s)")
    return k


def _reduced_field(matrix: snapshots.SnapshotMatrix, outdir: Path, name: str,
                   epsilon: float, k: int):
    """Decompose ``matrix``, select its leading modes at ``epsilon`` and
    reconstruct snapshot ``k``; returns that (ny, nx) grid and the model."""
    _, dec, model = _reduce(matrix, outdir, name, epsilon, time_errors=False)
    rec = dmd.reconstruct(dec, model.selected, k + 1).reshape(matrix.ny, matrix.nx)
    return rec, model


@_lapack.one_thread()   # a grid of 10^4 cells or more is a threaded dot
def _write_comparison(outdir: Path, pattern: str, full: np.ndarray, rec: np.ndarray) -> float:
    """Write ``full``, ``rec`` and their difference as the grids ``pattern``
    names with "full", "rom" and "diff"; returns ||full - rec|| / ||full||,
    for a zero ``full`` 0 if ``rec`` is zero too, else inf."""
    diff = full - rec
    for label, grid in (("full", full), ("rom", rec), ("diff", diff)):
        snapshots.write_field_csv(grid, outdir / pattern.format(label))
    ref, err = float(np.linalg.norm(full)), float(np.linalg.norm(diff))
    return err / ref if ref > 0.0 else (0.0 if err == 0.0 else float("inf"))


def cmd_reconstruct(args) -> int:
    cfg = _load_config(args)
    name = cfg.fields[0]
    outdir, datadir = _dirs(cfg, args)
    matrix = snapshots.load(datadir / f"{name}.ksnp")
    k = _snapshot_index(args, matrix, cfg)

    rec, model = _reduced_field(matrix, outdir, name, cfg.epsilon, k)
    err = _write_comparison(outdir, f"{{}}_{name}_{k}.csv", matrix.field(k), rec)
    conv = "" if model.converged else " (selection not converged)"
    print(f"field {name}, snapshot {k}: n_dmd = {model.n_dmd}, "
          f"per-time relative error = {err:.6e}{conv}")
    return 0 if model.converged else 1


def cmd_vorticity(args) -> int:
    cfg = _load_config(args)
    outdir, datadir = _dirs(cfg, args)
    mu = snapshots.load(datadir / "u.ksnp")
    mv = snapshots.load(datadir / "v.ksnp")
    if any(getattr(mu, a) != getattr(mv, a)
           for a in ("dt", "nx", "ny", "dx", "dy", "nondimensional")):
        raise InvalidValue("u.ksnp and v.ksnp disagree on sampling or grid")
    try:
        grid = swe.Grid(nx=mu.nx, ny=mu.ny, dx=mu.dx, dy=mu.dy)
    except ValueError as exc:  # load has checked the spacings: the grid is too small
        raise InvalidValue(f"u.ksnp and v.ksnp: grid {mu.nx}x{mu.ny}: {exc}") from exc
    k = _snapshot_index(args, mu, cfg)

    def vort(ufield, vfield):
        state = swe.SweState(h=np.ones_like(ufield), u=ufield, v=vfield, t=0.0)
        return swe.vorticity(state, grid)

    u_rec, model_u = _reduced_field(mu, outdir, "u", cfg.epsilon, k)
    v_rec, model_v = _reduced_field(mv, outdir, "v", cfg.epsilon, k)
    err = _write_comparison(outdir, f"vort_{{}}_{k}.csv", vort(mu.field(k), mv.field(k)),
                            vort(u_rec, v_rec))
    conv = model_u.converged and model_v.converged
    note = "" if conv else " (selection not converged)"
    print(f"vorticity at snapshot {k}: relative difference = {err:.6e}{note}")
    return 0 if conv else 1


def _add_common(p, with_time=False):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--out", help="output directory (default from config)")
    p.add_argument("--eps", type=float, help="selection threshold override")
    p.add_argument("--data", help="directory holding .ksnp inputs (default: --out)")
    p.add_argument("--field", choices=_FIELDS, help="field override")
    if with_time:
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--time", type=float, help="instant in hours")
        g.add_argument("--index", type=int, help="snapshot index")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koopmanrom",
        description="Shallow-water snapshot generation and Koopman-mode "
                    "reduced-order modelling")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("simulate", help="run the solver and write KSNP snapshots")
    _add_common(p)

    p = sub.add_parser("rom", help="decompose snapshots and select leading modes")
    _add_common(p)
    p.add_argument("paths", nargs="*", help="explicit .ksnp inputs")

    p = sub.add_parser("reconstruct", help="compare a snapshot with its reduced model")
    _add_common(p, with_time=True)

    p = sub.add_parser("vorticity", help="full versus reduced-order vorticity field")
    _add_common(p, with_time=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: parsing leaves
    it as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:   # argparse exits 2 after a usage error, 0 after --help
        if exc.code != 2:
            raise
        return 3
    # looked up by name at each call, so a wrapper set on the module runs
    command = globals()[f"cmd_{args.cmd}"]
    try:
        return command(args)
    except (CflViolation, NonPositiveDepth) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, ParseError, UnknownKey, InvalidValue, IndexOutOfRange,
            BadMagic, UnsupportedVersion, CorruptHeader, NonFiniteData,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
