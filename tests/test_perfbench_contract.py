"""The names the benchmark in ``perfbench/`` imports from the package, an
in-process traced run that reaches every count hook, and full benchmark
runs of three workloads, one of them also traced.

The benchmark wraps package functions by name and imports workload helpers
from it. If one of them moves, a benchmark run fails before it prints its
result line, so these tests catch the move first. A run can also fail its
own output checks or print a malformed result line; the smoke runs catch
those.
"""
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
    """A missing target drops its metrics from the result line, which then
    lacks metrics that BENCHMARK.json declares."""
    assert perfbench["spans"].Tracer().missing == []


def test_declared_metrics_match(perfbench):
    perfbench["run"].check_declared_metrics()


def test_traced_run_feeds_every_count_hook(perfbench, tmp_path):
    """A traced grid over the mini corpus plus one malformed document, with an
    embedding row, a lexicon, one classifier and one clusterer, so every
    hook that reads a wrapped call's arguments or result runs. A renamed
    argument would raise here instead of ending a benchmark run malformed."""
    import textmath
    from textmath import ClassifierSpec, ClustererSpec, cli, load_corpus
    from textmath.synth import class_lexicon_tsv

    corpus_dir = tmp_path / "corpus"
    shutil.copytree(Path(textmath.__file__).parent / "data" / "mini_corpus", corpus_dir)
    (corpus_dir / "bad.xml").write_text("<p>unbalanced <math><mi>x</p>", "utf-8")
    manifest = json.loads((corpus_dir / "manifest.json").read_text("utf-8"))
    manifest["entries"].append({"path": "bad.xml", "id": "bad", "label": "math"})
    (corpus_dir / "manifest.json").write_text(json.dumps(manifest), "utf-8")
    class_lexicon_tsv(load_corpus(corpus_dir / "manifest.json"), tmp_path / "lex.tsv")
    config = cli.ExperimentConfig(
        corpus_manifest=corpus_dir / "manifest.json",
        output_dir=tmp_path / "out",
        encodings=["text_tfidf", "math_opid_embedding"],
        classifiers=[ClassifierSpec("knn")],
        clusterers=[ClustererSpec("kmeans", k=3)],
        n_folds=2,
        embedding_params={"size": 8, "window": 2, "min_count": 1, "epochs": 1},
        lexicon=cli.LexiconConfig(tmp_path / "lex.tsv", top_n=2),
    )
    tracer = perfbench["spans"].Tracer()
    assert tracer.missing == []
    tracer.traced(lambda: cli.run_experiment(config))
    values = tracer.layer_metrics(config.output_dir)
    assert values["cli.cell_errors"] == 0
    counted = [
        "corpus.docs",
        "corpus.skipped",
        "encode.fit_calls",
        "embedding.train_positions",
        "embedding.infer_docs",
        "embedding.infer_positions",
        "cluster.kmeans.iterations",
        "evaluate.correlation_pairs",
        "semantify.enrich_docs",
        "classify.fit_calls",
    ]
    assert {name: values[name] > 0 for name in counted} == dict.fromkeys(counted, True)
    # One wrapped ``cli.fit_encoder`` call per row: a run that stops calling
    # the wrapped name fails here, not as a skewed benchmark metric.
    assert values["encode.fit_calls"] == 2
    # The grid scores its encoding rows through ``cli.cross_validate`` and its
    # semantified row through ``cli.cross_validate_bags``, for the same reason.
    assert values["evaluate.cv_s"] > 0
    assert values["evaluate.cv_bags_s"] > 0
    # Every tf-idf matrix, full-corpus or one side of a fold, comes from the
    # wrapped ``encode.transform_tfidf``.
    assert values["encode.transform_s"] > 0


def test_workload_set_up_and_input_size(perfbench, tmp_path):
    workloads = perfbench["workloads"]
    config, corpus = workloads.set_up(workloads.WORKLOADS["grid_tfidf"], 1, tmp_path)
    size = workloads.input_size(config, corpus)
    assert size["docs"] == len(corpus.documents)
    assert set(size["vocabulary"]) == set(config.encodings)


def _reject_constant(name: str) -> None:
    raise ValueError(f"{name} is not JSON")


def run_benchmark(workload: str, trace: int = 0) -> tuple[list[str], dict]:
    """One benchmark run of ``workload`` with the minimum two calls; it must
    exit 0, pass its output checks and report no failed cell. Returns the
    printed lines and the result line, parsed as strict JSON (no NaN or
    Infinity)."""
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=PERFBENCH.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    assert any(line.endswith("checks passed") for line in lines), proc.stdout[-3000:]
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    return lines, result


def test_one_benchmark_run_passes_its_checks():
    """grid_tfidf (about 10 s): the classification grid, the semantified
    row, clustering and the correlation table."""
    run_benchmark("grid_tfidf")


def test_cluster_full_run_passes_its_checks():
    """cluster_full (about 6 s): all five clusterers, Ward and mean shift
    among them, on 350 long documents."""
    run_benchmark("cluster_full")


def test_embed_cv_run_passes_its_checks():
    """embed_cv (about 11 s): the only workload that sets embedding_params,
    so its config goes through the embedding checks at load."""
    run_benchmark("embed_cv")


def test_traced_run_reports_every_declared_metric():
    """grid_tfidf traced (about 30 s): no wrap target is missing, and the
    result line carries exactly the per-layer metrics BENCHMARK.json
    declares."""
    lines, result = run_benchmark("grid_tfidf", trace=1)
    missing = [line.split(" ", 1)[1] for line in lines if line.startswith("trace.missing ")]
    assert missing == ["[]"]
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text("utf-8"))
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared["per_layer"])
