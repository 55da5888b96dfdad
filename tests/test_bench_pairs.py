"""Smoke test of ``tools/bench_pairs.py``, the paired perfbench runner:
this checkout against itself on desk_loop, 2 pairs of 1 s runs, and the
schema of the BENCH file it writes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


@pytest.mark.slow
def test_checkout_against_itself(tmp_path):
    results = ROOT / "perfbench" / "results"
    before = set(results.iterdir()) if results.is_dir() else set()
    out = tmp_path / "BENCH_0.json"
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_pairs.py"), str(ROOT),
                           str(ROOT), "--workloads", "desk_loop", "--seed", "3",
                           "--seconds", "1", "--pairs", "2", "--out", str(out)],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    bench = json.loads(out.read_text())
    assert set(bench) == {"what", "notes", "machine", "summary", "runs", "warmup"}
    assert "perfbench/ differ" not in bench["notes"]
    assert bench["machine"]["seed"] == 3 and bench["machine"]["blas_threads"] == "1"
    assert [(r["workload"], r["side"]) for r in bench["warmup"]] == [
        ("desk_loop", "parent"), ("desk_loop", "change")]
    assert [(r["pair"], r["side"], r["ran_first"]) for r in bench["runs"]] == [
        (0, "parent", True), (0, "change", False), (1, "change", True), (1, "parent", False)]
    for run in bench["runs"] + bench["warmup"]:
        assert run["returncode"] == 0 and run["result"]["failed"] == 0
        assert run["result"]["metrics"]["wall_s"]["value"] == run["record"]["metrics"]["wall_s"]
        assert len(run["record"]["walls"]) == run["record"]["iterations"] >= 1
    summary = bench["summary"]["desk_loop"]
    assert set(summary) == {"wall_s", "cpu_per_wall", "peak_rss_mb", "setup_s"}
    verdicts = done.stdout.splitlines()
    for name, entry in summary.items():
        assert entry["pairs"] == 2 and entry["change_lower_in"] + entry["change_higher_in"] <= 2
        for side in ("parent", "change"):
            stats = entry[side]
            assert len(stats["values"]) == 2
            assert stats["q1"] <= stats["median"] <= stats["q3"]
        assert entry["verdict"] in verdicts and entry["verdict"].startswith(f"desk_loop {name}: ")
    # each record file was moved into the BENCH file
    assert (set(results.iterdir()) if results.is_dir() else set()) == before
