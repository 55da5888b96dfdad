"""Paired perfbench runs of two source trees, written as one BENCH file.

    python tools/bench_pairs.py PARENT CHANGE --workloads full_rom desk_loop
                                --seed 31 --seconds 25 --pairs 10 --out BENCH_37.json
                                [--what TEXT] [--notes TEXT]

PARENT and CHANGE are checkouts of this repository (the same one twice
gives the noise floor).  Each run is the tree's own
``perfbench/run.py --workload W --seed S --seconds T --trace 0``, so each
side is measured by the benchmark it carries; where the two trees'
``perfbench/`` differ, the file's ``notes`` say so.  Both sides share one
temporary ``XDG_CACHE_HOME``, removed at the end.  Before the first pair,
each side runs every workload once for one second (``warmup``), which
builds the compiled step into that cache and prepares each tree's
``full_rom`` inputs.  Then, pair by pair, every workload runs on both
sides, the side that runs first alternating from pair to pair (the
parent first in pair 0).

The file holds ``what``, ``notes`` and ``machine``; ``runs`` and
``warmup``, one entry per run with the result line that run.py prints
and the record it writes to the tree's ``perfbench/results/``, its
per-iteration ``walls`` included, both verbatim (the record file is
removed once copied); and a ``summary`` per workload and metric: each
side's values, quartiles and median, and in how many pairs the change
read lower and higher.  The verdict lines printed at the end are the
ones the summary holds.  Uses the standard library only; exits 1 when a
run fails to give a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
# run.py ends every call within 175 s
RUN_TIMEOUT_S = 240.0


def perfbench_digest(tree: Path) -> str:
    """sha256 of the tree's benchmark sources, its results and work aside."""
    digest = hashlib.sha256()
    bench = tree / "perfbench"
    for path in sorted(bench.rglob("*")):
        rel = path.relative_to(bench)
        if path.is_file() and rel.parts[0] not in ("results", "work") \
                and "__pycache__" not in rel.parts:
            digest.update(str(rel).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_once(tree: Path, workload: str, seed: int, seconds: float, env: dict) -> dict:
    """One run.py call on ``tree``: its result line and results record."""
    proc = subprocess.Popen([sys.executable, str(tree / "perfbench" / "run.py"),
                             "--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"],
                            cwd=tree, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{tree}: {workload} did not end within {RUN_TIMEOUT_S:g} s")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} exited {proc.returncode}: {err.strip()}")
    # run.py names its record by workload, seed, trace, time and its pid
    found = sorted((tree / "perfbench" / "results").glob(
        f"{workload}-s{seed}-t0-*-{proc.pid}.json"))
    if len(found) != 1:
        raise RuntimeError(f"{tree}: {workload} wrote {len(found)} records")
    record = json.loads(found[0].read_text())
    found[0].unlink()
    return {"returncode": proc.returncode, "result": json.loads(lines[-1]),
            "record": record}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"q1": q1, "median": median, "q3": q3, "values": values}


def summarize(runs: list[dict], workloads, pairs: int) -> dict:
    """Per workload and metric: each side's quartiles, the pair counts and
    the verdict line."""
    summary = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        side = {s: sorted((r for r in mine if r["side"] == s), key=lambda r: r["pair"])
                for s in SIDES}
        metrics = side["parent"][0]["result"]["metrics"]
        summary[workload] = {}
        for name, entry in metrics.items():
            vals = {s: [r["result"]["metrics"][name]["value"] for r in side[s]] for s in SIDES}
            lower = sum(c < p for p, c in zip(vals["parent"], vals["change"]))
            higher = sum(c > p for p, c in zip(vals["parent"], vals["change"]))
            stats = {s: quartiles(vals[s]) for s in SIDES}
            base, new = stats["parent"]["median"], stats["change"]["median"]
            iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
            ratio = f" ({new / base:.3f}x)" if base else ""
            verdict = (f"{workload} {name}: median {base:.4g} -> {new:.4g} {entry['unit']}{ratio}, "
                       f"change lower in {lower} of {pairs} pairs (higher in {higher}); "
                       f"medians {abs(new - base):.3g} apart, parent quartiles "
                       f"{stats['parent']['q1']:.4g}-{stats['parent']['q3']:.4g} "
                       f"(IQR {iqr:.3g}); failed {sum(r['result']['failed'] for r in side['parent'])}"
                       f" -> {sum(r['result']['failed'] for r in side['change'])}")
            summary[workload][name] = {**stats, "unit": entry["unit"], "pairs": pairs,
                                       "change_lower_in": lower, "change_higher_in": higher,
                                       "verdict": verdict}
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="paired perfbench runs of two trees")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--what", default="")
    p.add_argument("--notes", default="")
    args = p.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    notes = [args.notes] if args.notes else []
    if perfbench_digest(trees["parent"]) != perfbench_digest(trees["change"]):
        notes.append("the two trees' perfbench/ differ: each side ran its own")
    cache = tempfile.mkdtemp(prefix="bench-pairs-cache-")
    env = dict(os.environ, XDG_CACHE_HOME=cache)
    warmup, runs = [], []
    try:
        for workload in args.workloads:
            for s in SIDES:
                warmup.append({"workload": workload, "side": s,
                               **run_once(trees[s], workload, args.seed, 1.0, env)})
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in args.workloads:
                for s in order:
                    run = run_once(trees[s], workload, args.seed, args.seconds, env)
                    runs.append({"workload": workload, "pair": pair, "side": s,
                                 "ran_first": s == order[0], **run})
                    print(f"pair {pair} {workload} {s}: wall_s "
                          f"{run['result']['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(cache, ignore_errors=True)

    summary = summarize(runs, args.workloads, args.pairs)
    machine = {k: v for k, v in runs[0]["record"]["machine"].items()
               if k not in ("workload", "trace")}
    notes.append(f"{args.pairs} pairs of {args.seconds:g} s runs on seed {args.seed}, "
                 f"workloads {', '.join(args.workloads)}, the side that runs first "
                 "alternating pair by pair, one shared XDG_CACHE_HOME warmed by one "
                 "1 s run of each workload on each side")
    bench = {"what": args.what, "notes": " ".join(notes), "machine": machine,
             "summary": summary, "runs": runs, "warmup": warmup}
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    for workload in summary.values():
        for metric in workload.values():
            print(metric["verdict"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
