"""The names the benchmark in ``perfbench/`` imports from the package, and
full benchmark runs of two workloads.

The benchmark wraps package functions by name and imports workload helpers
from it. If one of them moves, a benchmark run fails before it prints its
result line, so these tests catch the move first. A run can also fail its
own output checks or print a malformed result line; the smoke runs catch
those.
"""
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Wrap targets allowed to be absent. A change that removes a wrapped function
# on purpose lists it here, and the benchmark then leaves its metrics out.
ALLOWED_MISSING: list[str] = []


@pytest.fixture(scope="module")
def perfbench():
    """The benchmark's modules, imported from ``perfbench/``; the import
    path and module table are restored afterwards."""
    names = ("run", "spans", "speed", "workloads")
    saved_path = list(sys.path)
    saved_modules = {n: sys.modules.pop(n) for n in names if n in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield {n: importlib.import_module(n) for n in ("run", "spans", "workloads")}
    finally:
        sys.path[:] = saved_path
        for n in names:
            sys.modules.pop(n, None)
        sys.modules.update(saved_modules)


def test_every_wrap_target_exists(perfbench):
    missing = perfbench["spans"].Tracer().missing
    assert sorted(set(missing) - set(ALLOWED_MISSING)) == []


def test_declared_metrics_match(perfbench):
    perfbench["run"].check_declared_metrics()


def test_workload_set_up_and_input_size(perfbench, tmp_path):
    workloads = perfbench["workloads"]
    config, corpus = workloads.set_up(workloads.WORKLOADS["grid_tfidf"], 1, tmp_path)
    size = workloads.input_size(config, corpus)
    assert size["docs"] == len(corpus.documents)
    assert set(size["vocabulary"]) == set(config.encodings)


def run_benchmark(workload: str) -> None:
    """One benchmark run of ``workload`` with the minimum two calls; it must
    exit 0, pass its output checks and report no failed cell."""
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=PERFBENCH.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    assert any(line.endswith("checks passed") for line in lines), proc.stdout[-3000:]
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_one_benchmark_run_passes_its_checks():
    """grid_tfidf (about 10 s): the classification grid, the semantified
    row, clustering and the correlation table."""
    run_benchmark("grid_tfidf")


def test_cluster_full_run_passes_its_checks():
    """cluster_full (about 6 s): all five clusterers, Ward and mean shift
    among them, on 350 long documents."""
    run_benchmark("cluster_full")
