"""Tests of the benchmark itself, not of koopmanrom.

    python3 -m pytest -q perfbench/tests

Each workload is run at minimal length (one iteration; two in a traced
run), so the whole file takes a few minutes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, WORKLOADS  # noqa: E402
from spans import LAYER_METRICS, self_times  # noqa: E402


def bench(workload, trace, *extra, seed=3, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(done):
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            cache[workload, trace] = result(bench(workload, trace))
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_finite_with_unit(runs, workload, trace):
    res = runs(workload, trace)
    units = LAYER_METRICS if trace else END_TO_END
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert set(res["metrics"]) == set(units)
    for name, metric in res["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert metric["unit"] == units[name][0], name
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_failed_share_is_zero_on_correct_code(runs, workload):
    res = runs(workload, 0)
    assert res["attempted"] >= 1
    assert res["failed"] / res["attempted"] == 0
    assert res["correct"] is True


def test_perturbed_input_trips_the_checks():
    res = result(bench("full_rom", 0, "--perturb-ksnp"))
    assert res["failed"] / res["attempted"] > 0
    assert res["correct"] is False


def test_counts_repeat_between_traced_runs(runs):
    first = runs("desk_loop", 1)["metrics"]
    second = result(bench("desk_loop", 1))["metrics"]
    for name in ("dmd.reconstruct_calls", "rom.relative_error_calls",
                 "dmd.fit_calls", "dmd.fit_ok_ratio"):
        assert first[name]["value"] == second[name]["value"], name
    assert first["dmd.reconstruct_calls"]["value"] > 0
    assert first["rom.relative_error_calls"]["value"] > 0


def test_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    done = bench("desk_loop", 0, cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, None, "T1", True, 0],
             ["b", 1.0, 4.0, 0, "T1", True, 0],
             ["c", 2.0, 3.0, 1, "T1", True, 0],
             ["d", 5.0, 6.0, 0, "T1", True, 0]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
