"""Per-layer tracing of one ``run_experiment`` call, from outside the package.

The tracer replaces layer entry points with wrappers at the module-level
names that ``run_experiment`` resolves (``textmath.cli.fit_encoder``,
``textmath.evaluate.fit_classifier``, ...), so no file of the package
changes. Each wrapped call records a span (name, start, end, parent) and,
where the call does countable work, exact counts read from its arguments
and result. Spans stay in memory; self time per layer is a span's duration
minus the time its child spans cover.
"""
from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from textmath.classify import ALGOS as CLASSIFIERS
from textmath.cluster import ALGOS as CLUSTERERS


@dataclass(frozen=True)
class Target:
    """One wrapped name: where it lives, which self-time metric its spans
    feed, and which counts a successful call adds."""

    module: str
    attr: str
    metric: Callable[[dict[str, Any]], str]
    count: Callable[[dict[str, Any], Any, "Tracer"], None] | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


def _const(metric: str) -> Callable[[dict[str, Any]], str]:
    return lambda args: metric


def _count_corpus(args, corpus, tracer):
    tracer.counts["corpus.docs"] += len(corpus.documents)
    tracer.counts["corpus.skipped"] += len(corpus.skipped_ids)


def _count_fit_encoder(args, result, tracer):
    tracer.counts["encode.fit_calls"] += 1
    tracer.fit_keys.add((args["spec"], tuple(d.id for d in args["docs"])))


def _count_train(args, model, tracer):
    in_vocab = sum(1 for s in args["streams"] for t in s if t in model.vocabulary)
    params = args["params"]
    tracer.counts["embedding.train_positions"] += in_vocab * params.epochs * params.iters_per_epoch


def _count_infer(args, vector, tracer):
    vocabulary = args["model"].vocabulary
    in_vocab = sum(1 for t in args["stream"] if t in vocabulary)
    tracer.counts["embedding.infer_docs"] += 1
    tracer.counts["embedding.infer_positions"] += in_vocab * args["steps"]


def _count_cluster(args, assignment, tracer):
    algo = args["spec"].algo
    diag = assignment.diagnostics
    if algo in ("kmeans", "affinity"):
        tracer.counts[f"cluster.{algo}.iterations"] += diag["iterations"]
    elif algo == "gmm":
        tracer.counts["cluster.gmm.iterations"] += len(diag["loglik_history"])
    elif algo == "meanshift":
        tracer.counts["cluster.meanshift.modes"] += diag["modes"]


def _count_one(metric: str) -> Callable[[dict[str, Any], Any, "Tracer"], None]:
    def count(args, result, tracer):
        tracer.counts[metric] += 1

    return count


TARGETS = [
    Target("textmath.cli", "run_experiment", _const("cli.self_s")),
    Target("textmath.cli", "load_corpus", _const("corpus.load_s"), _count_corpus),
    Target("textmath.cli", "fit_encoder", _const("encode.fit_s"), _count_fit_encoder),
    Target(
        "textmath.cli",
        "fit_predict_clusterer",
        lambda a: f"cluster.{a['spec'].algo}.fit_s",
        _count_cluster,
    ),
    Target(
        "textmath.cli",
        "text_math_correlation",
        _const("evaluate.correlation_s"),
        _count_one("evaluate.correlation_pairs"),
    ),
    Target("textmath.cli", "purity", _const("evaluate.purity_s")),
    Target("textmath.cli", "weighted_purity", _const("evaluate.purity_s")),
    Target("textmath.cli", "build_report", _const("evaluate.report_s")),
    Target("textmath.cli", "load_lexicon", _const("semantify.enrich_s")),
    Target("textmath.cli", "enrich", _const("semantify.enrich_s"), _count_one("semantify.enrich_docs")),
    Target("textmath.cli", "cross_validate", _const("evaluate.cv_s")),
    Target("textmath.cli", "cross_validate_bags", _const("evaluate.cv_bags_s")),
    Target("textmath.evaluate", "fit_encoder", _const("encode.fit_s"), _count_fit_encoder),
    Target(
        "textmath.evaluate",
        "fit_classifier",
        lambda a: f"classify.{a['spec'].algo}.fit_s",
        _count_one("classify.fit_calls"),
    ),
    Target("textmath.evaluate", "predict", lambda a: f"classify.{a['model'].spec.algo}.predict_s"),
    Target("textmath.encode", "train_embedding", _const("embedding.train_s"), _count_train),
    Target("textmath.encode", "infer_doc_vector", _const("embedding.infer_s"), _count_infer),
    Target("textmath.encode", "fit_tfidf", _const("encode.fit_s")),
    Target("textmath.encode", "transform_tfidf", _const("encode.transform_s")),
]

# Every per-layer metric, in report order: (name, unit, better, source
# targets). A metric whose source target no longer exists is left out of the
# report. perfbench/baseline.json says which end-to-end metric each one should
# move, and on which workload.
_FIT_ENCODER = ("textmath.cli.fit_encoder", "textmath.evaluate.fit_encoder")
_CLUSTER = ("textmath.cli.fit_predict_clusterer",)
_CORRELATION = ("textmath.cli.text_math_correlation",)
_RUN = ("textmath.cli.run_experiment",)
METRICS: list[tuple[str, str, str, tuple[str, ...]]] = [
    ("corpus.load_s", "s", "lower", ("textmath.cli.load_corpus",)),
    ("corpus.docs", "count", "higher", ("textmath.cli.load_corpus",)),
    ("corpus.skipped", "count", "lower", ("textmath.cli.load_corpus",)),
    ("encode.fit_calls", "count", "lower", _FIT_ENCODER),
    ("encode.reuse_ratio", "ratio", "higher", _FIT_ENCODER),
    ("encode.fit_s", "s", "lower", _FIT_ENCODER + ("textmath.encode.fit_tfidf",)),
    ("encode.transform_s", "s", "lower", ("textmath.encode.transform_tfidf",)),
    ("embedding.train_s", "s", "lower", ("textmath.encode.train_embedding",)),
    ("embedding.train_positions", "count", "lower", ("textmath.encode.train_embedding",)),
    ("embedding.infer_s", "s", "lower", ("textmath.encode.infer_doc_vector",)),
    ("embedding.infer_docs", "count", "lower", ("textmath.encode.infer_doc_vector",)),
    ("embedding.infer_positions", "count", "lower", ("textmath.encode.infer_doc_vector",)),
    ("classify.fit_calls", "count", "lower", ("textmath.evaluate.fit_classifier",)),
    *[
        (f"classify.{algo}.{step}_s", "s", "lower", (f"textmath.evaluate.{entry}",))
        for algo in CLASSIFIERS
        for step, entry in (("fit", "fit_classifier"), ("predict", "predict"))
    ],
    *[(f"cluster.{algo}.fit_s", "s", "lower", _CLUSTER) for algo in CLUSTERERS],
    *[
        (f"cluster.{algo}.iterations", "count", "lower", _CLUSTER)
        for algo in ("kmeans", "gmm", "affinity")
    ],
    ("cluster.meanshift.modes", "count", "higher", _CLUSTER),
    ("evaluate.cv_s", "s", "lower", ("textmath.cli.cross_validate",)),
    ("evaluate.cv_bags_s", "s", "lower", ("textmath.cli.cross_validate_bags",)),
    ("evaluate.purity_s", "s", "lower", ("textmath.cli.purity", "textmath.cli.weighted_purity")),
    ("evaluate.report_s", "s", "lower", ("textmath.cli.build_report",)),
    ("evaluate.correlation_s", "s", "lower", _CORRELATION),
    ("evaluate.correlation_pairs", "count", "lower", _CORRELATION),
    ("semantify.enrich_s", "s", "lower", ("textmath.cli.load_lexicon", "textmath.cli.enrich")),
    ("semantify.enrich_docs", "count", "lower", ("textmath.cli.enrich",)),
    ("cli.self_s", "s", "lower", _RUN),
    ("cli.files_written", "count", "lower", _RUN),
    ("cli.bytes_written", "B", "lower", _RUN),
    ("cli.cell_errors", "count", "lower", _RUN),
    ("trace.overhead_s", "s", "lower", _RUN),
    ("trace.coverage", "ratio", "higher", _RUN),
]

# Metrics that must repeat exactly for one input: counts and ratios of counts.
EXACT_METRICS = {name for name, unit, *_ in METRICS if unit == "count"} | {"encode.reuse_ratio"}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    metric: str
    start: float
    end: float


class Tracer:
    """Wraps the targets that exist at start-up; ``missing`` lists the rest."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.fit_keys: set[tuple[Any, ...]] = set()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._resolved: list[tuple[Any, Target, Callable[..., Any]]] = []
        for target in TARGETS:
            module = importlib.import_module(target.module)
            fn = getattr(module, target.attr, None)
            if callable(fn):
                self._resolved.append((module, target, fn))
            else:
                self.missing.append(target.name)

    def reported_metrics(self) -> list[tuple[str, str, str, tuple[str, ...]]]:
        return [m for m in METRICS if not set(m[3]) & set(self.missing)]

    def traced(self, call: Callable[[], Any]) -> Any:
        """Run ``call`` with every resolved target wrapped, then unwrap.
        ``call`` must look up ``run_experiment`` by name when it runs."""
        self.spans, self.counts, self.fit_keys = [], Counter(), set()
        for module, target, original in self._resolved:
            setattr(module, target.attr, self._wrap(target, original))
        try:
            return call()
        finally:
            for module, target, original in self._resolved:
                setattr(module, target.attr, original)

    def _wrap(self, target: Target, fn: Callable[..., Any]) -> Callable[..., Any]:
        signature = inspect.signature(fn)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans.append(
                    Span(span_id, parent, target.name, target.metric(bound.arguments), start, end)
                )
            if target.count is not None:
                target.count(bound.arguments, result, self)
            return result

        return wrapper

    def layer_metrics(self, out_dir: Path) -> dict[str, float]:
        """Self time per metric, counts and derived ratios for the last
        traced call; ``out_dir`` is that call's output directory."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        values: dict[str, float] = defaultdict(float)
        root = None
        for span in self.spans:
            values[span.metric] += span.end - span.start - child_time[span.id]
            if span.parent is None:
                root = span
        values.update(self.counts)
        if self.counts["encode.fit_calls"]:
            values["encode.reuse_ratio"] = len(self.fit_keys) / self.counts["encode.fit_calls"]
        files = [p for p in out_dir.iterdir() if p.is_file()]
        values["cli.files_written"] = len(files)
        values["cli.bytes_written"] = sum(p.stat().st_size for p in files)
        record = json.loads((out_dir / "run_record.json").read_text("utf-8"))
        values["cli.cell_errors"] = len(record["cell_errors"])
        if root is not None:
            duration = root.end - root.start
            values["trace.coverage"] = child_time[root.id] / duration
        return values
