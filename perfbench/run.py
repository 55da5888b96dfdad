"""koopmanrom benchmark: one workload per call, checked, metrics as JSON.

    python3 perfbench/run.py --workload full_simulate --seed 1 --seconds 20 --trace 0

Workloads: ``full_simulate``, ``full_rom``, ``desk_loop`` (see README.md).
With ``--trace 0`` the last stdout line carries the end-to-end metrics
(``wall_s``, ``cpu_per_wall``, ``peak_rss_mb``, ``setup_s``); with ``--trace 1``
it carries the per-layer metrics of a traced run.  The lines before it
give the machine record and every metric with its unit, including
``failed_share``.  A full record, with the spans of a traced run, is
written to ``perfbench/results/``.

This script uses the standard library only.  It times ``setup_s`` over
several fresh interpreters, prepares the ``full_rom`` inputs once in a
process of their own, and runs the measured workload in one more fresh process
(``worker.py``) so that its peak RSS is its own.  Every child is waited
for; the whole call ends within ``DEADLINE_S``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
FULL_CONFIG = ROOT / "configs" / "full_channel.cfg"
WORKLOADS = ("full_simulate", "full_rom", "desk_loop")

# One BLAS thread: with two, `rom` on the full config ran 9.3-10.7 s wall
# for 18.5-21.3 s CPU (idle threads spin); with one, CPU equals wall.  The
# same value holds on both sides of any comparison.
BLAS_THREADS = 1
SETUP_PROBES = 5
DEADLINE_S = 175.0

END_TO_END = {
    "wall_s": ("s", "median wall time of one iteration's CLI commands"),
    "cpu_per_wall": ("ratio", "user+sys CPU of the worker / wall time, over the same commands"),
    "peak_rss_mb": ("MiB", "peak RSS of the worker process"),
    "setup_s": ("s", "median time from interpreter start to imports and first BLAS call done"),
}


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(1.0, self.end - time.monotonic())


def probe_setup(env, deadline: Deadline) -> float:
    """Seconds from starting a fresh worker to the time on its ``ready`` line."""
    t0 = time.time()
    done = subprocess.run([sys.executable, str(WORKER), "--probe"], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=deadline.left())
    word, stamp = done.stdout.split()
    if word != "ready":
        raise RuntimeError(f"setup probe printed {done.stdout!r}")
    return float(stamp) - t0


def run_worker(args: list[str], env, deadline: Deadline) -> None:
    # the worker's own output goes to stderr: stdout ends with the result line
    subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                   stdout=sys.stderr, check=True, timeout=deadline.left())


def prepared_inputs(env, deadline: Deadline) -> Path:
    """Directory of the full-config KSNP inputs of ``full_rom``.

    They are written once per version of the sources and config (the
    directory name carries a hash of both) by a worker of their own, and
    renamed into place only when complete.  Runs copy them, so a run can
    never alter them.
    """
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "koopmanrom").glob("*.py")) + [FULL_CONFIG]:
        digest.update(path.read_bytes())
    cache = HERE / "work" / f"full_rom-inputs-{digest.hexdigest()[:16]}"
    if not cache.is_dir():
        partial = cache.with_name(f"{cache.name}.{os.getpid()}.partial")
        try:
            run_worker(["--prepare", "--workdir", str(partial)], env, deadline)
            (partial / "data").rename(cache)
        finally:
            shutil.rmtree(partial, ignore_errors=True)
    return cache


def perturb_ksnp(path: Path) -> None:
    """Add 1 to one value in the middle of a KSNP payload (check trip test)."""
    header = 52
    n_values = (path.stat().st_size - header) // 8
    offset = header + 8 * (n_values // 2)
    with open(path, "r+b") as fh:
        fh.seek(offset)
        (value,) = struct.unpack("<d", fh.read(8))
        fh.seek(offset)
        fh.write(struct.pack("<d", value + 1.0))


def report(args, result: dict, metrics: dict, units: dict) -> None:
    """Human-readable lines, then the record file, then the result line."""
    machine = dict(result["machine"], seed=args.seed, workload=args.workload,
                   trace=args.trace, seconds=args.seconds)
    print("machine: " + json.dumps(machine))
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload}: {result['iterations']} untraced iteration(s), "
          f"{attempted} operation(s)")
    for name, value in metrics.items():
        unit, what = units[name]
        print(f"  {name:28s} {value:14.6g} {unit:6s} {what}")
    print(f"  {'failed_share':28s} {failed / attempted:14.6g} {'ratio':6s} "
          f"failed operations / attempted ({failed}/{attempted})")

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}-{int(time.time())}-{os.getpid()}"
    record = dict(result, machine=machine, metrics=metrics)
    with open(results / f"{stem}.json", "w") as fh:
        json.dump(record, fh)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
    }))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="koopmanrom benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True,
                   help="picks the desk_loop query indices")
    p.add_argument("--seconds", type=float, required=True,
                   help="measure iterations for this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--perturb-ksnp", action="store_true",
                   help="full_rom only: alter one prepared input value, "
                        "which the output checks must catch")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "koopmanrom" / "cli.py").is_file():
        print(f"error: no koopmanrom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = Deadline(DEADLINE_S)
    env = child_env()
    work = HERE / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        setup = [] if args.trace else [probe_setup(env, deadline)
                                       for _ in range(SETUP_PROBES)]
        if args.workload == "full_rom":
            shutil.copytree(prepared_inputs(env, deadline), work / "data")
            if args.perturb_ksnp:
                perturb_ksnp(work / "data" / "h.ksnp")
        run_worker(["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--workdir", str(work), "--result", str(work / "result.json")],
                   env, deadline)
        with open(work / "result.json") as fh:
            result = json.load(fh)
    except (OSError, ValueError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        units, metrics = LAYER_METRICS, result["metrics"]
    else:
        units = END_TO_END
        metrics = dict(result["metrics"], setup_s=statistics.median(setup))
    report(args, result, {k: metrics[k] for k in units}, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
