"""Command-line orchestration: simulate, rom, reconstruct, vorticity.

Reads a flat ``key = value`` config file, which vets itself by the
library's own checks as it is built, runs the solver and the mode
selection pipeline, and writes KSNP snapshot files plus CSV reports
(spectrum, per-time errors, summary table, field and vorticity grids).
Every command that decomposes a field keeps its decomposition and
selection curve in ``dmd_<field>.npz`` in the output directory and
reuses them while the field's snapshot bytes are unchanged; the
exponents, weights and admission order of the spectrum report are
derived from them as a fresh run derives them (``rom.reduced_model``).
``reconstruct`` and ``vorticity`` share one query path, ``_query``, and
each subcommand offers only the options it reads.

Exit codes: 0 success, 1 selection did not converge (or decomposition
failure), 2 solver failure, 3 usage, I/O, config or input-data failure,
an input beyond memory among them; 130 and 143 a run ended by SIGINT or
SIGTERM, whose ``with`` blocks have removed its unfinished outputs.
"""

from __future__ import annotations

import argparse
import functools
import io
import signal
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

    def __post_init__(self):
        try:
            rom.check_epsilon(self.epsilon)
            swe.Grid.for_channel(self.nx, self.ny, self.constants)
            swe.sampling_horizon(self.snapshot_dt, self.n_snapshots, self.cfl)
        except ValueError as exc:
            raise InvalidValue(str(exc)) from exc


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
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise UnknownKey(f"{path}:{line_no}: unknown key {key!r}")
        if not text:
            raise ParseError(path, line_no, f"empty value for {key!r}")
        values[key] = _parse_value(key, text)

    const_kwargs = {k: values.pop(k) for k in list(values) if k in _CONSTANT_KEYS}
    try:   # the constants refuse with ValueError, the config with InvalidValue
        return ExperimentConfig(constants=swe.PhysicalConstants(**const_kwargs), **values)
    except ValueError as exc:
        raise InvalidValue(str(exc)) from exc


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    eps, field = getattr(args, "eps", None), getattr(args, "field", None)
    return replace(cfg, epsilon=cfg.epsilon if eps is None else eps,
                   output_dir=args.out or cfg.output_dir,
                   fields=(field,) if field else cfg.fields)


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
        # the solver's config-dependent ValueErrors, all before the first sub-step:
        # a Coriolis parameter vanishing on a grid row, an initial state beyond
        # floats, still water (the sink's, at the first state), 2**53+ sub-steps
        try:
            swe.simulate(cfg.constants, grid, cfg.snapshot_dt, cfg.n_snapshots,
                         cfl=cfg.cfl, out=sink)
        except ValueError as exc:
            raise InvalidValue(str(exc)) from exc
        except MemoryError as exc:
            raise InvalidValue(f"grid {cfg.nx}x{cfg.ny}: the solver's arrays do not "
                               "fit in the memory available") from exc
        mass0, mass1 = sink.masses
        drift = (mass1 - mass0) / mass0 if mass0 > 0 else float("nan")  # 0 if it underflows
        print(f"mass: initial {mass0:.10e}, final {mass1:.10e}, relative drift {drift:.3e}")
        # every file lands before the next line, so a stdout that fails
        # there leaves the new files as a set, not beside older ones
        for writer in sink.writers.values():
            writer.commit()
        for writer in sink.writers.values():
            print(f"wrote {writer.path} ({writer.nsnap} snapshots of {grid.ny}x{grid.nx})")
    return 0


def _dirs(cfg: ExperimentConfig, args) -> tuple[Path, Path]:
    """The output directory, created if missing, and the directory of the
    KSNP inputs (--data, default the output directory)."""
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir, Path(args.data) if args.data else outdir


def _reduce(matrix: snapshots.SnapshotMatrix, outdir: Path, name: str, epsilon: float,
            time_errors: bool, reload=None):
    """rom.reduced_model with the store ``dmd_<name>.npz`` in ``outdir``,
    echoing a rank-deficiency truncation of the window."""
    used, dec, model = rom.reduced_model(matrix, epsilon, outdir / f"dmd_{name}.npz",
                                         time_errors=time_errors, reload=reload)
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


def _rom_field(path: Path, name: str, outdir: Path, epsilon: float):
    """Load, decompose and select the input ``path``, tagged ``name``, and
    write its spectrum and errors reports; returns (name, model).  Only the
    model outlives the call, so ``rom`` holds one payload at a time; nothing
    reads V0 after the fit, so the fit factors that payload in place
    (``reload``)."""
    matrix, dec, model = _reduce(snapshots.load(path), outdir, name, epsilon,
                                 time_errors=True, reload=lambda: snapshots.load(path))
    _write_spectrum(outdir / f"spectrum_{name}.csv", dec, model)
    with _files.Replacement(outdir / f"errors_{name}.csv", text=True) as fh:
        fh.write("snapshot,time,rel_error\n")
        fh.writelines(f"{k},{k * matrix.dt:.17g},{err:.17g}\n"
                      for k, err in enumerate(model.time_errors))
    return name, model


def cmd_rom(args) -> int:
    if args.paths and (args.field or args.data):
        raise InvalidValue("rom takes explicit .ksnp paths or --data/--field, not both")
    cfg = _load_config(args)
    outdir, datadir = _dirs(cfg, args)
    paths = [Path(p) for p in args.paths] if args.paths else \
        [datadir / f"{name}.ksnp" for name in cfg.fields]

    # every report and store of an input is named by its field tag
    tagged = {}
    for path in paths:
        name = snapshots.read_header(path).field_tag.name
        if name in tagged:
            raise InvalidValue(f"{tagged[name]} and {path} are both tagged {name}: "
                               "their reports would overwrite each other")
        tagged[name] = path

    models = [_rom_field(path, name, outdir, cfg.epsilon) for name, path in tagged.items()]

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


def _query(cfg: ExperimentConfig, args, names):
    """(output directory, paths, header) of the KSNP inputs ``names`` in
    --data, refused before any payload is read if their headers differ in
    more than the field tag; ``_reduced_field`` then reads one at a time."""
    outdir, datadir = _dirs(cfg, args)
    paths = [datadir / f"{name}.ksnp" for name in names]
    head, *others = map(snapshots.read_header, paths)
    if any(replace(other, field_tag=head.field_tag) != head for other in others):
        raise InvalidValue(f"{' and '.join(p.name for p in paths)} disagree on sampling or grid")
    return outdir, paths, head


def _snapshot_index(args, head: snapshots.KsnpHeader, cfg) -> int:
    """Map --time (hours, against the dimensional sampling interval) or
    --index to a source snapshot index; echo the mapping."""
    n = head.n_snapshots
    if args.index is not None:
        k = args.index
        if not 0 <= k < n:
            raise IndexOutOfRange(f"snapshot {k} outside the sampled range [0, {n})")
        print(f"snapshot index {k} (t = {k * head.dt:.6g} in data units)")
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


def _reduced_field(path: Path, outdir: Path, name: str, epsilon: float, k: int):
    """(snapshot k, its reconstruction, model) of the input ``path``, the
    grids (ny, nx) arrays of their own: the payload dies with the call."""
    matrix = snapshots.load(path)
    _, dec, model = _reduce(matrix, outdir, name, epsilon, time_errors=False)
    rec = dmd.reconstruct(dec, model.selected, k + 1).reshape(matrix.ny, matrix.nx)
    return matrix.field(k).copy(), rec, model


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
    outdir, (path,), head = _query(cfg, args, (name,))
    k = _snapshot_index(args, head, cfg)

    full, rec, model = _reduced_field(path, outdir, name, cfg.epsilon, k)
    err = _write_comparison(outdir, f"{{}}_{name}_{k}.csv", full, rec)
    conv = "" if model.converged else " (selection not converged)"
    print(f"field {name}, snapshot {k}: n_dmd = {model.n_dmd}, "
          f"per-time relative error = {err:.6e}{conv}")
    return 0 if model.converged else 1


def cmd_vorticity(args) -> int:
    cfg = _load_config(args)
    outdir, paths, head = _query(cfg, args, ("u", "v"))
    try:
        grid = swe.Grid(nx=head.nx, ny=head.ny, dx=head.dx, dy=head.dy)
    except ValueError as exc:  # the header's spacings are checked: the grid is too small
        raise InvalidValue(f"u.ksnp and v.ksnp: grid {head.nx}x{head.ny}: {exc}") from exc
    k = _snapshot_index(args, head, cfg)

    (u, u_rec, model_u), (v, v_rec, model_v) = (
        _reduced_field(path, outdir, name, cfg.epsilon, k) for name, path in zip("uv", paths))

    def vort(ufield, vfield):
        state = swe.SweState(h=np.ones_like(ufield), u=ufield, v=vfield, t=0.0)
        return swe.vorticity(state, grid)

    err = _write_comparison(outdir, f"vort_{{}}_{k}.csv", vort(u, v), vort(u_rec, v_rec))
    conv = model_u.converged and model_v.converged
    note = "" if conv else " (selection not converged)"
    print(f"vorticity at snapshot {k}: relative difference = {err:.6e}{note}")
    return 0 if conv else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koopmanrom",
        description="Shallow-water snapshot generation and Koopman-mode "
                    "reduced-order modelling")
    sub = parser.add_subparsers(dest="cmd", required=True)
    # each subcommand offers the options it reads, and no others
    for cmd, text in (("simulate", "run the solver and write KSNP snapshots"),
                      ("rom", "decompose snapshots and select leading modes"),
                      ("reconstruct", "compare a snapshot with its reduced model"),
                      ("vorticity", "full versus reduced-order vorticity field")):
        p = sub.add_parser(cmd, help=text)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="output directory (default from config)")
        if cmd != "simulate":   # reads KSNP inputs and selects modes
            p.add_argument("--eps", type=float, help="selection threshold override")
            p.add_argument("--data", help="directory holding .ksnp inputs (default: --out)")
        if cmd != "vorticity":  # which reads u and v
            p.add_argument("--field", choices=_FIELDS, help="field override")
        if cmd == "rom":
            p.add_argument("paths", nargs="*", help="explicit .ksnp inputs (no --data, --field)")
        elif cmd in ("reconstruct", "vorticity"):
            g = p.add_mutually_exclusive_group(required=True)
            g.add_argument("--time", type=float, help="instant in hours")
            g.add_argument("--index", type=int, help="snapshot index")
    return parser


class _Terminated(KeyboardInterrupt):
    """SIGTERM while a command runs, raised as SIGINT raises
    KeyboardInterrupt, so both unwind through the ``with`` blocks that
    remove unfinished outputs."""


def _terminate(signum, frame):
    raise _Terminated


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
    try:   # signals reach the main thread only, and only there take a handler
        caller = signal.signal(signal.SIGTERM, _terminate)
    except ValueError:
        caller = _terminate
    try:
        return command(args)
    except KeyboardInterrupt as exc:   # SIGINT, or SIGTERM as _Terminated
        signum = signal.SIGTERM if isinstance(exc, _Terminated) else signal.SIGINT
        print(f"interrupted by {signum.name}", file=sys.stderr)
        return 128 + signum
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
    finally:
        if caller is not _terminate:
            signal.signal(signal.SIGTERM, caller)


if __name__ == "__main__":
    sys.exit(main())
