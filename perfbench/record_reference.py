"""Record the reference values the benchmark checks outputs against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs ``simulate`` and ``rom`` on the full and desk configs, plus
``vorticity`` at every desk snapshot index that has a per-time error,
and writes ``perfbench/reference.json``.  Run it only on code whose
answers are the accepted ones: the file defines what "correct" means
for every later measurement.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import sys
from pathlib import Path

import numpy as np

from koopmanrom import cli

import checks

HERE = Path(__file__).resolve().parent
CONFIGS = {"full": "configs/full_channel.cfg", "desk": "configs/desk_channel.cfg"}


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise SystemExit(f"{' '.join(map(str, argv))} exited {rc}")
    return out.getvalue()


def record(name: str, config: str, outdir: Path) -> dict:
    common = ["--config", config, "--out", outdir]
    drift = float(re.search(r"relative drift (\S+)", run(["simulate", *common])).group(1))
    ref = {"mass_drift": drift, "norms": {}, "rom": {}}
    for field in checks.FIELDS:
        header, data = checks.read_ksnp(outdir / f"{field}.ksnp")
        ref["shape"] = [header["nx"], header["ny"], header["nsnap"]]
        ref["norms"][field] = float(np.linalg.norm(data))
    run(["rom", *common])
    for line in (outdir / "summary.csv").read_text().splitlines()[1:]:
        field, full_rank, n_dmd, _, achieved, _ = line.split(",")
        ref["rom"][field] = {"full_rank": int(full_rank), "n_dmd": int(n_dmd),
                             "achieved_error": float(achieved)}
    if name == "desk":
        ref["vorticity_error"] = []
        for k in range(ref["shape"][2] - 1):
            run(["vorticity", *common, "--index", k])
            ref["vorticity_error"].append(checks.grid_error(
                outdir / f"vort_full_{k}.csv", outdir / f"vort_rom_{k}.csv"))
    return ref


def main() -> int:
    work = HERE / "work" / "reference"
    reference = {}
    try:
        for name, config in CONFIGS.items():
            outdir = work / name
            outdir.mkdir(parents=True, exist_ok=True)
            reference[name] = record(name, config, outdir)
            reference[name]["epsilon"] = cli.parse_config(config).epsilon
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(checks.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
