"""The names the benchmark in ``perfbench/`` imports from the package.

The benchmark wraps package functions by name and imports workload helpers
from it. If one of them moves, a benchmark run fails before it prints its
result line, so these tests catch the move first.
"""
import importlib
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
