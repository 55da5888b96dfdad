"""Time the compiled solver step of two source trees against each other.

    python tools/step_time.py BASE CHANGE [--grid 129x65 --grid 64x32]
                              [--steps 400] [--blocks 15]

BASE and CHANGE are checkouts of this repository (the same one twice
gives the noise floor).  Each tree's ``src/koopmanrom/_lw.c`` is built
into a temporary ``XDG_CACHE_HOME`` that is removed at the end, never into
the user's cache.  A block runs one child process per tree, the first
tree alternating from block to block; each child imports its own tree's
``swe`` and ``_lw`` and, for every grid and for every step entry that its
library exports and the CPU runs (the entry the loader binds and every
slower one of ``lw_step_avx512``, ``lw_step_avx2`` and ``lw_step``),
loads the balanced initial state of the desk and full channels'
constants, runs a few untimed steps, loads it again and times ``--steps``
steps at Courant number 0.5.

The first line names the entry each tree's loader binds.  For each grid
and entry the table gives the minimum, the lower quartile and the median
ms per step over the blocks on each tree ("-" where a tree has no such
entry), the change of the median, and whether the state after the steps
is bit-identical, in every block, to that of the base tree's first entry
on that grid.  The quartiles are the inclusive ones of
``tools/bench_pairs.py``; the lower quartile shows whether a gain holds
in a tree's fast blocks as well as in its median.
Uses the standard library and numpy only; exits 1 when a tree has no
compiled step (no C compiler, or a build that fails).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WARMUP_STEPS = 10
ENTRIES = ("lw_step_avx512", "lw_step_avx2", "lw_step")   # fastest first

# Run in a child with the tree's src/ first on sys.path: argv[1] is the
# JSON list of grids, argv[2] the number of timed steps.  Prints one JSON
# object {"bound": entry, "grid entry": [ms per step, sha256 of the
# state], ...}.  It binds an entry by the Kernel's bound function, which
# every tree's Kernel has, whatever its way of choosing one.
CHILD = r"""
import hashlib, json, sys, time
from koopmanrom import _lw, swe

ENTRIES = %r
kernel = _lw.load()
if kernel is None:
    sys.exit("no compiled step: no C compiler, or the build failed")
lib = kernel.lib
exported = [name for name in ENTRIES if hasattr(lib, name)]
entries = {}
for name in exported[exported.index(kernel.entry):]:   # the CPU runs these
    fn = getattr(lib, name)
    fn.argtypes, fn.restype = kernel._fn.argtypes, kernel._fn.restype
    entries[name] = fn
constants = swe.PhysicalConstants(orography_amplitude=0.0, mean_depth=2000.0,
                                  shear_depth=220.0, wave_depth=133.0,
                                  channel_length=6000e3, channel_width=4400e3)
steps, result = int(sys.argv[2]), {"bound": kernel.entry}
for nx, ny in json.loads(sys.argv[1]):
    grid = swe.Grid.for_channel(nx, ny, constants)
    state = swe.initial_state(constants, grid)
    for name, fn in entries.items():
        kernel._fn = fn
        w = swe._Workspace(constants, grid)
        w.load(state)
        step = kernel.bind(w)
        dt = 0.5 * min(grid.dx, grid.dy) / w.signal_speed()
        for _ in range(%d):
            step(dt)
        w.load(state)
        start = time.perf_counter()
        for _ in range(steps):
            step(dt)
        ms = (time.perf_counter() - start) * 1e3 / steps
        result[f"{nx}x{ny} {name}"] = [ms, hashlib.sha256(w.p.tobytes()).hexdigest()]
print(json.dumps(result))
""" % (ENTRIES, WARMUP_STEPS)


def run_child(tree: Path, grids, steps: int, cache: Path) -> dict:
    """One child process on ``tree``: {"grid entry": [ms per step, digest]}."""
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(grids), str(steps)],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"step_time: {tree}: {done.stderr.strip().splitlines()[-1]}")
    return json.loads(done.stdout)


def min_q1_median(times: list[float]) -> list[float]:
    """The minimum, the lower quartile and the median of ``times``."""
    q1, median, _ = (statistics.quantiles(times, n=4, method="inclusive")
                     if len(times) > 1 else times * 3)
    return [min(times), q1, median]


def grid_arg(text: str):
    nx, _, ny = text.partition("x")
    return [int(nx), int(ny)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--grid", type=grid_arg, action="append",
                        help="NXxNY (default: 129x65 and 64x32)")
    parser.add_argument("--steps", type=int, default=400)
    parser.add_argument("--blocks", type=int, default=15)
    args = parser.parse_args(argv)
    grids = args.grid or [[129, 65], [64, 32]]
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "koopmanrom" / "_lw.c").is_file():
            parser.error(f"{tree} has no src/koopmanrom/_lw.c")
    if shutil.which("cc") is None:
        print("step_time: no C compiler (cc)", file=sys.stderr)
        return 1
    cache = Path(tempfile.mkdtemp(prefix="step_time-"))
    try:
        for tree in trees.values():   # the builds, untimed
            run_child(tree, grids[:1], 1, cache)
        runs = {name: [] for name in trees}
        for block in range(args.blocks):
            order = list(trees) if block % 2 == 0 else list(trees)[::-1]
            for name in order:
                runs[name].append(run_child(trees[name], grids, args.steps, cache))
    finally:
        shutil.rmtree(cache, ignore_errors=True)

    bound = {name: runs[name][0]["bound"] for name in trees}
    print(f"{args.steps} steps, {args.blocks} blocks; ms per step; the loader binds "
          f"{bound['base']} (base) and {bound['change']} (change)")
    print(f"{'grid':8} {'entry':14} {'base min':>9} {'base q1':>9} {'base med':>9} "
          f"{'change min':>11} {'change q1':>11} {'change med':>11} {'med':>8}  identical")
    for nx, ny in grids:
        grid = f"{nx}x{ny}"
        # the state every entry must give: the base tree's first entry's
        first = next(key for key in runs["base"][0] if key.startswith(grid + " "))
        for entry in ENTRIES:
            key, cells, same = f"{grid} {entry}", [], True
            for name in trees:
                times = [run[key][0] for run in runs[name] if key in run]
                cells += min_q1_median(times) if times else [None] * 3
                same &= all(run[key][1] == base[first][1]
                            for run, base in zip(runs[name], runs["base"]) if key in run)
            if cells == [None] * 6:
                continue
            shift = None if None in cells else 100.0 * (cells[5] / cells[2] - 1.0)
            text = ["-" if c is None else f"{c:.4f}" for c in cells]
            print(f"{grid:8} {entry:14} {text[0]:>9} {text[1]:>9} {text[2]:>9} {text[3]:>11} "
                  f"{text[4]:>11} {text[5]:>11} {'-' if shift is None else f'{shift:+.1f}%':>8}  "
                  f"{'yes' if same else 'NO'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
