"""One workload of the benchmark, in its own process.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and the BLAS thread count fixed.  Modes:

``--probe``     import everything, make the first BLAS call, print ``ready``
                and the wall-clock time, and exit (``run.py`` reports the
                median start-to-ready time as ``setup_s``);
``--prepare``   write the full-config KSNP inputs of ``full_rom`` (untimed);
default         run the workload's iterations for ``--seconds`` seconds and
                write the measurements to ``--result`` as JSON.

Every operation is one ``koopmanrom.cli.main([...])`` call, run in this
process.  An operation fails on a non-zero exit code, an exception, or a
failed output check (``checks.py``); checks run outside the timed
interval.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import koopmanrom
from koopmanrom import cli

import checks
from spans import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
FULL_CFG = "configs/full_channel.cfg"
DESK_CFG = "configs/desk_channel.cfg"
QUERIES = 3      # reconstruct + vorticity pairs per desk_loop iteration
UNIQUE_CELLS = {"full": 128 * 65, "desk": 63 * 32}
MODEL_HOURS = {"full": 288 * 1800 / 3600, "desk": 144 * 1800 / 3600}


def first_blas_call() -> None:
    np.linalg.qr(np.eye(64) + 1.0)


def fresh(directory: Path) -> Path:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


class Runner:
    """Runs CLI commands, sums their wall and CPU time, counts failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0
        self.cpu = 0.0

    def command(self, argv, check) -> None:
        """Run ``koopmanrom argv``; ``check(stdout)`` returns problems."""
        out = io.StringIO()
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main([str(a) for a in argv])
        except SystemExit as exc:       # argparse rejected the arguments
            rc = exc.code
        except Exception:               # a traceback is a failed operation
            traceback.print_exc()
            rc = None
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        self.wall += wall
        self.cpu += (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime)
        self.attempted += 1
        problems = check(out.getvalue()) if rc == 0 else [f"exit code {rc}"]
        if problems:
            self.failed += 1
            print(f"FAILED {' '.join(map(str, argv))}: {'; '.join(problems)}",
                  file=sys.stderr)


class FullSimulate:
    cell_hours = UNIQUE_CELLS["full"] * MODEL_HOURS["full"]

    def __init__(self, work: Path, ref: dict, seed: int):
        self.work, self.ref = work, ref["full"]

    def iteration(self, run: Runner) -> None:
        out = fresh(self.work / "full")
        run.command(["simulate", "--config", FULL_CFG, "--out", out],
                    lambda s: checks.simulate(s, out, self.ref))


class FullRom:
    cell_hours = 0.0

    def __init__(self, work: Path, ref: dict, seed: int):
        self.work, self.ref = work, ref["full"]
        self.input_problems = checks.ksnp_files(work / "data", self.ref)

    def iteration(self, run: Runner) -> None:
        out = fresh(self.work / "rom")
        run.command(["rom", "--config", FULL_CFG, "--out", out,
                     "--data", self.work / "data"],
                    lambda s: self.input_problems + checks.rom(out, self.ref))


class DeskLoop:
    cell_hours = UNIQUE_CELLS["desk"] * MODEL_HOURS["desk"]

    def __init__(self, work: Path, ref: dict, seed: int):
        self.work, self.ref = work, ref["desk"]
        self.rng = random.Random(seed)

    def iteration(self, run: Runner) -> None:
        out = fresh(self.work / "desk")
        common = ["--config", DESK_CFG, "--out", out]
        run.command(["simulate", *common], lambda s: checks.simulate(s, out, self.ref))
        run.command(["rom", *common], lambda s: checks.rom(out, self.ref))
        # the last snapshot is the fit target and has no errors_h.csv row
        for k in self.rng.sample(range(self.ref["shape"][2] - 1), QUERIES):
            run.command(["reconstruct", *common, "--field", "h", "--index", k],
                        lambda s: checks.reconstruct(s, out, k, self._h_column(out, k)))
            run.command(["vorticity", *common, "--index", k],
                        lambda s: checks.vorticity(s, out, k, self.ref))

    @staticmethod
    def _h_column(out: Path, k: int) -> np.ndarray:
        try:
            return checks.read_ksnp(out / "h.ksnp")[1][k]
        except (OSError, ValueError):
            return np.empty(0)


WORKLOADS = {"full_simulate": FullSimulate, "full_rom": FullRom, "desk_loop": DeskLoop}


def machine() -> dict:
    """The hardware and software a measurement was taken on."""
    model, caches = platform.processor(), {}
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            if (index / "type").read_text().strip() != "Instruction":
                level = (index / "level").read_text().strip()
                caches[f"L{level}"] = (index / "size").read_text().strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def measure(workload, seconds: float, trace: bool) -> dict:
    """Run iterations for ``seconds``; with ``trace``, alternate untraced and
    traced iterations (at least one of each) and finish with one
    tracemalloc pass."""
    run = Runner()
    walls, cpus, traced_walls, traced_ids = [], [], [], []
    tracer = Tracer()
    if trace:
        tracer.patch(koopmanrom)
    try:
        start = time.perf_counter()
        i = 0
        while i < (2 if trace else 1) or time.perf_counter() - start < seconds:
            traced = trace and i % 2 == 1
            tracer.mode = "spans" if traced else None
            tracer.run_id = f"T{i}"
            run.wall = run.cpu = 0.0
            workload.iteration(run)
            if traced:
                traced_walls.append(run.wall)
                traced_ids.append(tracer.run_id)
            else:
                walls.append(run.wall)
                cpus.append(run.cpu)
            i += 1
        if trace:
            tracer.mode = "alloc"
            workload.iteration(run)
    finally:
        tracer.restore()

    result = {"attempted": run.attempted, "failed": run.failed,
              "iterations": len(walls), "walls": walls, "cpus": cpus}
    if trace:
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        result["metrics"] = layer_metrics(tracer.spans, traced_ids, workload.cell_hours,
                                          tracer.alloc_peaks, overhead)
        result["spans"] = tracer.spans
    else:
        result["metrics"] = {
            "wall_s": statistics.median(walls),
            "cpu_per_wall": sum(cpus) / sum(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return result


def prepare(work: Path) -> None:
    """Write full-config h/u/v KSNP files into ``work/data``."""
    run = Runner()
    data = fresh(work / "data")
    run.command(["simulate", "--config", FULL_CFG, "--out", data], lambda s: [])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--probe", action="store_true")
    p.add_argument("--prepare", action="store_true")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path)
    p.add_argument("--result", type=Path)
    args = p.parse_args(argv)

    first_blas_call()
    if args.probe:
        print(f"ready {time.time()!r}", flush=True)
        return 0
    source = Path(koopmanrom.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"error: koopmanrom imported from {source}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.prepare:
        prepare(args.workdir)
        return 0
    workload = WORKLOADS[args.workload](args.workdir, checks.load_reference(), args.seed)
    result = measure(workload, args.seconds, bool(args.trace))
    result["machine"] = machine()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
