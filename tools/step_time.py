"""Time the compiled solver step of two source trees against each other.

    python tools/step_time.py BASE CHANGE [--grid 129x65 --grid 64x32]
                              [--steps 400] [--blocks 15]

BASE and CHANGE are checkouts of this repository (the same one twice
gives the noise floor).  Each tree's ``src/koopmanrom/_lw.c`` is built
into a temporary ``XDG_CACHE_HOME`` that is removed at the end, never into
the user's cache.  A block runs one child process per tree, the first
tree alternating from block to block; each child imports its own tree's
``swe`` and ``_lw`` and, for every grid and for both step entries (the
one the loader binds, ``lw_step_avx2`` on a CPU with AVX2, and the
portable ``lw_step``), loads the balanced initial state of the desk and
full channels' constants, runs a few untimed steps, loads it again and
times ``--steps`` steps at Courant number 0.5.

For each grid and entry the table gives the minimum and the median ms
per step over the blocks, the change of the median, and whether the two
trees' states after the steps are bit-identical in every block.  Uses
the standard library and numpy only; exits 1 when a tree has no
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

# Run in a child with the tree's src/ first on sys.path: argv[1] is the
# JSON list of grids, argv[2] the number of timed steps.  Prints one JSON
# object {"grid entry": [ms per step, sha256 of the state]}.
CHILD = r"""
import hashlib, json, sys, time
from koopmanrom import _lw, swe

kernel = _lw.load()
if kernel is None:
    sys.exit("no compiled step: no C compiler, or the build failed")
lib = kernel.lib
lib.lw_has_avx2 = lambda: 0
entries = {kernel.entry: kernel, "lw_step": _lw.Kernel(lib)}
constants = swe.PhysicalConstants(orography_amplitude=0.0, mean_depth=2000.0,
                                  shear_depth=220.0, wave_depth=133.0,
                                  channel_length=6000e3, channel_width=4400e3)
steps, result = int(sys.argv[2]), {}
for nx, ny in json.loads(sys.argv[1]):
    grid = swe.Grid.for_channel(nx, ny, constants)
    state = swe.initial_state(constants, grid)
    for name, entry in entries.items():
        w = swe._Workspace(constants, grid)
        w.load(state)
        step = entry.bind(w)
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
""" % WARMUP_STEPS


def run_child(tree: Path, grids, steps: int, cache: Path) -> dict:
    """One child process on ``tree``: {"grid entry": [ms per step, digest]}."""
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(grids), str(steps)],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"step_time: {tree}: {done.stderr.strip().splitlines()[-1]}")
    return json.loads(done.stdout)


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

    print(f"{args.steps} steps, {args.blocks} blocks; ms per step")
    print(f"{'grid':8} {'entry':13} {'base min':>9} {'base med':>9} {'change min':>11} "
          f"{'change med':>11} {'med':>8}  identical")
    for key in runs["base"][0]:
        base = [r[key][0] for r in runs["base"]]
        change = [r[key][0] for r in runs["change"]]
        same = all(b[key][1] == c[key][1] for b, c in zip(runs["base"], runs["change"]))
        grid, entry = key.split()
        shift = 100.0 * (statistics.median(change) / statistics.median(base) - 1.0)
        print(f"{grid:8} {entry:13} {min(base):9.4f} {statistics.median(base):9.4f} "
              f"{min(change):11.4f} {statistics.median(change):11.4f} {shift:+7.1f}%  "
              f"{'yes' if same else 'NO'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
