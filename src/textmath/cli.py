"""End-to-end experiment driver and command-line interface.

A single JSON config describes an experiment grid: corpus manifest, encoding
names, classifier and clusterer specs, fold count, seed, optional lexicon.
``run`` executes the grid and writes the report tables; the other subcommands
expose the individual stages (ingest/encode/classify/cluster/correlate/
semantify) plus a synthetic-corpus generator.

Exit codes: 0 success, 1 config/validation error, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from . import __version__
from .classify import ALGOS as CLASSIFIER_ALGOS
from .classify import ClassifierSpec
from .cluster import ALGOS as CLUSTERER_ALGOS
from .cluster import ClusterAssignment, ClustererSpec, dump_assignment, fit_predict_clusterer
from .corpus import (
    GRANULARITIES,
    Corpus,
    dump_corpus_jsonl,
    load_corpus,
    load_corpus_jsonl,
)
from .embedding import EmbeddingParams
from .encode import EncodingSpec, fit_encoder, parse_encoding_name
from .errors import ConfigError, TextMathError, ZeroVarianceError
from .evaluate import (
    EvaluationReport,
    bag_folds,
    build_report,
    cross_validate,
    cross_validate_bags,  # noqa: F401 -- kept importable here; perfbench/spans.py wraps it
    encoding_folds,
    make_folds,
    normalize_runtimes,
    purity,
    score_folds,
    text_math_correlation,
    weighted_purity,
)
from .semantify import DEFAULT_TOP_N, MODES, enrich, load_lexicon
from .synth import class_lexicon_tsv, generate_synthetic_corpus, write_corpus_markup

SEMANTIFIED_ROW = {"append": "semantified_tfidf", "replace": "semantified_math_tfidf"}


@dataclass(frozen=True)
class LexiconConfig:
    path: Path
    top_n: int = DEFAULT_TOP_N
    mode: str = "append"
    source: str = "custom"


@dataclass
class ExperimentConfig:
    corpus_manifest: Path
    output_dir: Path
    encodings: list[str]
    classifiers: list[ClassifierSpec] = field(default_factory=list)
    clusterers: list[ClustererSpec] = field(default_factory=list)
    granularity: str = "document"
    n_folds: int = 10
    seed: int = 0
    embedding_params: dict[str, Any] = field(default_factory=dict)
    lexicon: LexiconConfig | None = None

    def validate(self) -> None:
        if not self.corpus_manifest.is_file():
            raise ConfigError(f"corpus_manifest: file not found: {self.corpus_manifest}")
        if self.granularity not in GRANULARITIES:
            raise ConfigError(f"granularity: must be one of {GRANULARITIES}")
        if not self.encodings:
            raise ConfigError("encodings: at least one encoding is required")
        for name in self.encodings:
            try:
                parse_encoding_name(name)
            except ValueError as exc:
                raise ConfigError(f"encodings: {exc}") from exc
        if not self.classifiers and not self.clusterers:
            raise ConfigError("classifiers/clusterers: at least one algorithm is required")
        if self.n_folds < 2:
            raise ConfigError("n_folds: must be >= 2")
        if self.lexicon is not None and not self.lexicon.path.is_file():
            raise ConfigError(f"lexicon.path: file not found: {self.lexicon.path}")


def _spec_from_entry(entry: Any, kind: str) -> Any:
    """Build a classifier/clusterer spec from a config entry (name or object)."""
    try:
        if kind == "classifiers":
            if isinstance(entry, str):
                return ClassifierSpec(algo=entry)
            return ClassifierSpec(
                algo=entry.get("algo", ""),
                params=entry.get("params", {}),
                seed=entry.get("seed", 0),
            )
        if isinstance(entry, str):
            return ClustererSpec(algo=entry)
        return ClustererSpec(
            algo=entry.get("algo", ""),
            k=entry.get("k"),
            params=entry.get("params", {}),
            seed=entry.get("seed", 0),
            pca_dims=entry.get("pca_dims"),
        )
    except (ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{kind}: {exc}") from exc


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be an object")
    for key in ("corpus_manifest", "output_dir", "encodings"):
        if key not in raw:
            raise ConfigError(f"{key}: required field is missing")

    lexicon = None
    if raw.get("lexicon") is not None:
        lex = raw["lexicon"]
        if not isinstance(lex, dict) or "path" not in lex:
            raise ConfigError("lexicon: must be an object with a 'path' field")
        mode = lex.get("mode", "append")
        if mode not in MODES:
            raise ConfigError(f"lexicon.mode: must be one of {MODES}")
        top_n = lex.get("top_n", DEFAULT_TOP_N)
        if not isinstance(top_n, int) or top_n < 1:
            raise ConfigError("lexicon.top_n: must be a positive integer")
        lexicon = LexiconConfig(
            path=path.parent / lex["path"],
            top_n=top_n,
            mode=mode,
            source=lex.get("source", "custom"),
        )

    config = ExperimentConfig(
        corpus_manifest=path.parent / raw["corpus_manifest"],
        output_dir=path.parent / raw["output_dir"],
        encodings=list(raw["encodings"]),
        classifiers=[_spec_from_entry(e, "classifiers") for e in raw.get("classifiers", [])],
        clusterers=[_spec_from_entry(e, "clusterers") for e in raw.get("clusterers", [])],
        granularity=raw.get("granularity", "document"),
        n_folds=raw.get("n_folds", 10),
        seed=raw.get("seed", 0),
        embedding_params=dict(raw.get("embedding_params", {})),
        lexicon=lexicon,
    )
    config.validate()
    return config


def _column_names(specs: list[Any]) -> list[str]:
    """Algo names as table columns, suffixed when an algo repeats."""
    names = []
    seen: dict[str, int] = {}
    for spec in specs:
        base = spec.algo
        seen[base] = seen.get(base, 0) + 1
        names.append(base if seen[base] == 1 else f"{base}#{seen[base]}")
    return names


def _embedding_params(config: ExperimentConfig) -> EmbeddingParams:
    overrides = dict(config.embedding_params)
    overrides.setdefault("seed", config.seed)
    try:
        return EmbeddingParams(**overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"embedding_params: {exc}") from exc


def run_experiment(config: ExperimentConfig) -> EvaluationReport:
    """Execute the encoding × algorithm grid and write all report files.

    Per-cell failures leave an empty cell and are listed in the run record;
    a failure that breaks an entire encoding empties its row the same way.
    """
    config.validate()
    started = time.time()
    corpus = load_corpus(config.corpus_manifest, config.granularity)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    emb_params = _embedding_params(config)
    enc_specs = {name: parse_encoding_name(name, emb_params) for name in config.encodings}
    errors: list[dict[str, str]] = []
    written: list[str] = []

    def record_error(stage: str, cell: str, exc: Exception) -> None:
        errors.append({"stage": stage, "cell": cell, "error": f"{type(exc).__name__}: {exc}"})

    # Full-corpus matrices back clustering and the correlation table.
    matrices = {}
    for name, spec in enc_specs.items():
        try:
            _, matrices[name] = fit_encoder(spec, corpus.documents, stopwords=corpus.stopwords)
        except Exception as exc:  # degrade to an empty row
            matrices[name] = None
            record_error("encode", name, exc)

    clf_report = None
    fold_accuracies: dict[str, list[float]] = {}
    if config.classifiers:
        clf_report = _run_classification_grid(
            config, corpus, enc_specs, errors, written, fold_accuracies
        )

    clu_report = None
    cluster_diagnostics: dict[str, dict[str, Any]] = {}
    if config.clusterers:
        clu_report = _run_clustering_grid(
            config, corpus, matrices, errors, written, cluster_diagnostics
        )

    _write_correlations(config, matrices, errors, written)

    record = {
        "version": __version__,
        "seed": config.seed,
        "granularity": config.granularity,
        "n_folds": config.n_folds,
        "corpus_manifest": str(config.corpus_manifest),
        "n_documents": len(corpus.documents),
        "label_set": corpus.label_set,
        "skipped_ids": corpus.skipped_ids,
        "encodings": config.encodings,
        "classifiers": [
            {"algo": s.algo, "params": s.params, "seed": s.seed} for s in config.classifiers
        ],
        "clusterers": [
            {"algo": s.algo, "k": s.k, "params": s.params, "seed": s.seed, "pca_dims": s.pca_dims}
            for s in config.clusterers
        ],
        "lexicon": None
        if config.lexicon is None
        else {
            "path": str(config.lexicon.path),
            "top_n": config.lexicon.top_n,
            "mode": config.lexicon.mode,
        },
        "cell_errors": errors,
        "fold_accuracies": fold_accuracies,
        "cluster_diagnostics": cluster_diagnostics,
        "files": sorted(written),
        "elapsed_seconds": time.time() - started,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    (out / "run_record.json").write_text(
        json.dumps(record, ensure_ascii=False, indent=2) + "\n", "utf-8"
    )

    report = clf_report if clf_report is not None else clu_report
    assert report is not None  # validate() guarantees at least one grid
    return report


def _run_classification_grid(
    config: ExperimentConfig,
    corpus: Corpus,
    enc_specs: dict[str, EncodingSpec],
    errors: list[dict[str, str]],
    written: list[str],
    fold_accuracies: dict[str, list[float]],
) -> EvaluationReport:
    """Cross-validate every classifier on each row's folds. Each row's folds
    are encoded once and shared by its classifiers, so the runtime row times
    classifier fit and predict only."""
    out = config.output_dir
    plan = make_folds(len(corpus.documents), config.n_folds, config.seed)
    col_names = _column_names(config.classifiers)
    cells: dict[tuple[str, str], float | None] = {}
    raw_times: dict[str, float] = {c: 0.0 for c in col_names}

    rows = [(name, encoding_folds(spec, corpus, plan)) for name, spec in enc_specs.items()]
    if config.lexicon is not None:
        lex = load_lexicon(config.lexicon.path, config.lexicon.source)
        bags = [
            enrich(d, lex, config.lexicon.top_n, config.lexicon.mode).tokens
            for d in corpus.documents
        ]
        rows.append((SEMANTIFIED_ROW[config.lexicon.mode], bag_folds(bags, plan)))

    for row_name, folds in rows:
        outcomes = score_folds(config.classifiers, folds, corpus.labels, corpus.label_set)
        for col, outcome in zip(col_names, outcomes):
            cell = f"{row_name}/{col}"
            if isinstance(outcome, Exception):
                cells[(row_name, col)] = None
                errors.append(
                    {"stage": "classify", "cell": cell, "error": f"{type(outcome).__name__}: {outcome}"}
                )
                continue
            cells[(row_name, col)] = 100.0 * outcome.mean_accuracy
            fold_accuracies[cell] = outcome.fold_accuracies
            confusion_path = out / f"confusion_{row_name}_{col}.csv"
            outcome.confusion.to_csv(confusion_path)
            written.append(confusion_path.name)
            raw_times[col] += outcome.fit_predict_seconds

    report = build_report(
        cells,
        normalize_runtimes(raw_times),
        {"task": "classification", "granularity": config.granularity, "seed": config.seed},
    )
    report.to_csv(out / "report_classification.csv")
    report.to_markdown(out / "report_classification.md", title="Classification accuracy [%]")
    written += ["report_classification.csv", "report_classification.md"]
    return report


def _cluster_summary(assignment: ClusterAssignment) -> dict[str, Any]:
    """A clustering cell's cluster count and convergence scalars; the
    histories stay in the assignment sidecar."""
    diag = assignment.diagnostics
    summary: dict[str, Any] = {"n_clusters": assignment.n_clusters}
    algo = assignment.spec.algo
    if algo == "kmeans":
        summary["iterations"] = diag["iterations"]
    elif algo == "gmm":
        summary["converged"] = diag["converged"]
        summary["iterations"] = len(diag["loglik_history"]) - 1
    elif algo == "affinity":
        summary["converged"] = diag["converged"]
        summary["iterations"] = diag["iterations"]
    elif algo == "meanshift":
        summary["bandwidth"] = diag["bandwidth"]
        summary["modes"] = diag["modes"]
    return summary


def _run_clustering_grid(
    config: ExperimentConfig,
    corpus: Corpus,
    matrices: dict[str, Any],
    errors: list[dict[str, str]],
    written: list[str],
    cluster_diagnostics: dict[str, dict[str, Any]],
) -> EvaluationReport:
    """Fit every clusterer on each row's full-corpus matrix. The runtime row
    times ``fit_predict_clusterer`` only, over the cells that succeeded."""
    out = config.output_dir
    col_names = _column_names(config.clusterers)
    cells: dict[tuple[str, str], float | None] = {}
    raw_times: dict[str, float] = {c: 0.0 for c in col_names}

    for enc_name in config.encodings:
        matrix = matrices.get(enc_name)
        for col, spec in zip(col_names, config.clusterers):
            cell = f"{enc_name}/{col}"
            try:
                if matrix is None:
                    raise TextMathError("encoding unavailable")
                start = time.perf_counter()
                assignment = fit_predict_clusterer(spec, matrix)
                seconds = time.perf_counter() - start
                macro = purity(assignment, corpus.labels)
                assignment.diagnostics["macro_purity"] = macro
                assignment.diagnostics["weighted_purity"] = weighted_purity(
                    assignment, corpus.labels
                )
            except Exception as exc:
                cells[(enc_name, col)] = None
                errors.append(
                    {"stage": "cluster", "cell": cell, "error": f"{type(exc).__name__}: {exc}"}
                )
            else:
                cells[(enc_name, col)] = 100.0 * macro
                raw_times[col] += seconds
                cluster_diagnostics[cell] = _cluster_summary(assignment)
                dump_path = out / f"assignments_{enc_name}_{col}.csv"
                dump_assignment(assignment, dump_path)
                written += [dump_path.name, dump_path.name + ".json"]

    report = build_report(
        cells,
        normalize_runtimes(raw_times),
        {"task": "clustering", "granularity": config.granularity, "seed": config.seed},
    )
    report.to_csv(out / "report_clustering.csv")
    report.to_markdown(out / "report_clustering.md", title="Clustering purity (macro) [%]")
    written += ["report_clustering.csv", "report_clustering.md"]
    return report


def _write_correlations(
    config: ExperimentConfig,
    matrices: dict[str, Any],
    errors: list[dict[str, str]],
    written: list[str],
) -> None:
    lines = ["encoding_a,encoding_b,pearson_r"]
    names = [n for n in config.encodings if matrices.get(n) is not None]
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            try:
                r = text_math_correlation(matrices[a], matrices[b])
                lines.append(f"{a},{b},{r:.6f}")
            except (ZeroVarianceError, ValueError) as exc:
                lines.append(f"{a},{b},")
                errors.append(
                    {
                        "stage": "correlate",
                        "cell": f"{a}/{b}",
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                )
    path = config.output_dir / "correlations.csv"
    path.write_text("\n".join(lines) + "\n", "utf-8")
    written.append(path.name)


# --- subcommands ----------------------------------------------------------------


def _load_jsonl_corpus(args: argparse.Namespace) -> Corpus:
    return load_corpus_jsonl(args.corpus, granularity=args.granularity)


def _cmd_ingest(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.manifest, granularity=args.granularity)
    dump_corpus_jsonl(corpus, args.output)
    print(f"{len(corpus.documents)} documents -> {args.output}")
    if corpus.skipped_ids:
        print(f"skipped (malformed): {len(corpus.skipped_ids)}")
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    corpus = _load_jsonl_corpus(args)
    spec = parse_encoding_name(args.encoding, EmbeddingParams(seed=args.seed))
    _, matrix = fit_encoder(spec, corpus.documents, stopwords=corpus.stopwords)
    matrix.to_csv(args.output)
    print(f"{matrix.n_samples} x {matrix.n_features} -> {args.output}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    corpus = _load_jsonl_corpus(args)
    spec = ClassifierSpec(algo=args.algo, seed=args.seed)
    encoding = parse_encoding_name(args.encoding, EmbeddingParams(seed=args.seed))
    plan = make_folds(len(corpus.documents), args.folds, args.seed)
    result = cross_validate(spec, encoding, corpus, plan)
    print(f"mean accuracy: {result.mean_accuracy:.4f}")
    print("fold accuracies: " + " ".join(f"{a:.4f}" for a in result.fold_accuracies))
    if args.output_dir:
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        result.confusion.to_csv(out / f"confusion_{args.encoding}_{args.algo}.csv")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    corpus = _load_jsonl_corpus(args)
    spec = ClustererSpec(algo=args.algo, k=args.k, seed=args.seed, pca_dims=args.pca_dims)
    encoding = parse_encoding_name(args.encoding, EmbeddingParams(seed=args.seed))
    _, matrix = fit_encoder(encoding, corpus.documents, stopwords=corpus.stopwords)
    assignment = fit_predict_clusterer(spec, matrix)
    print(f"clusters: {assignment.n_clusters}")
    print(f"macro purity: {purity(assignment, corpus.labels):.4f}")
    print(f"weighted purity: {weighted_purity(assignment, corpus.labels):.4f}")
    if args.output_dir:
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        dump_assignment(assignment, out / f"assignments_{args.encoding}_{args.algo}.csv")
    return 0


def _cmd_correlate(args: argparse.Namespace) -> int:
    corpus = _load_jsonl_corpus(args)
    mats = []
    for name in (args.encoding_a, args.encoding_b):
        spec = parse_encoding_name(name, EmbeddingParams(seed=args.seed))
        mats.append(fit_encoder(spec, corpus.documents, stopwords=corpus.stopwords)[1])
    r = text_math_correlation(mats[0], mats[1])
    print(f"pearson r({args.encoding_a}, {args.encoding_b}) = {r:.6f}")
    return 0


def _cmd_semantify(args: argparse.Namespace) -> int:
    corpus = _load_jsonl_corpus(args)
    lex = load_lexicon(args.lexicon, args.source)
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        for doc in corpus.documents:
            stream = enrich(doc, lex, args.top_n, args.mode)
            fh.write(
                json.dumps(
                    {"id": stream.doc_id, "label": doc.label, "tokens": stream.tokens},
                    ensure_ascii=False,
                )
                + "\n"
            )
    print(f"{len(corpus.documents)} enriched streams -> {args.output}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_experiment_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.output_dir is not None:
        config.output_dir = Path(args.output_dir)
    report = run_experiment(config)
    best = report.best_cell()
    if best is not None:
        print(f"best cell: {best[0]} / {best[1]} = {report.cells[best]:.1f}")
    print(f"reports written to {config.output_dir}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    corpus = generate_synthetic_corpus(
        n_classes=args.classes,
        docs_per_class=args.docs_per_class,
        vocab_per_class=args.vocab_per_class,
        shared_identifiers=args.shared_identifiers,
        seed=args.seed,
        operator_skew=args.operator_skew,
    )
    manifest = write_corpus_markup(corpus, args.output_dir, args.format)
    print(f"manifest: {manifest}")
    if args.with_lexicon:
        lex_path = Path(args.output_dir) / "lexicon.tsv"
        class_lexicon_tsv(corpus, lex_path)
        print(f"lexicon: {lex_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="textmath",
        description="Classify, cluster, and correlate documents by text and formula markup.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a manifest corpus to canonical JSONL")
    p.add_argument("manifest")
    p.add_argument("--granularity", default="document", choices=GRANULARITIES)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("encode", help="encode a JSONL corpus to a feature matrix CSV")
    p.add_argument("corpus")
    p.add_argument("--granularity", default="document", choices=GRANULARITIES)
    p.add_argument("--encoding", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_encode)

    p = sub.add_parser("classify", help="cross-validate one encoding x classifier cell")
    p.add_argument("corpus")
    p.add_argument("--granularity", default="document", choices=GRANULARITIES)
    p.add_argument("--encoding", required=True)
    p.add_argument("--algo", required=True, choices=CLASSIFIER_ALGOS)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("cluster", help="cluster one encoding and score purity")
    p.add_argument("corpus")
    p.add_argument("--granularity", default="document", choices=GRANULARITIES)
    p.add_argument("--encoding", required=True)
    p.add_argument("--algo", required=True, choices=CLUSTERER_ALGOS)
    p.add_argument("--k", type=int)
    p.add_argument("--pca-dims", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir")
    p.set_defaults(fn=_cmd_cluster)

    p = sub.add_parser("correlate", help="pair-similarity correlation of two encodings")
    p.add_argument("corpus")
    p.add_argument("--granularity", default="document", choices=GRANULARITIES)
    p.add_argument("--encoding-a", required=True)
    p.add_argument("--encoding-b", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_correlate)

    p = sub.add_parser("semantify", help="enrich identifiers with lexicon names")
    p.add_argument("corpus")
    p.add_argument("--granularity", default="document", choices=GRANULARITIES)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--source", default="custom")
    p.add_argument("--top-n", type=int, default=DEFAULT_TOP_N)
    p.add_argument("--mode", default="append", choices=MODES)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_semantify)

    p = sub.add_parser("run", help="run a full experiment grid from a JSON config")
    p.add_argument("config")
    p.add_argument("--seed", type=int)
    p.add_argument("--output-dir")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="upper bound on parallel cells (cells currently run serially)",
    )
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("synth", help="generate a synthetic markup corpus")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--docs-per-class", type=int, default=20)
    p.add_argument("--vocab-per-class", type=int, default=40)
    p.add_argument("--shared-identifiers", type=int, default=8)
    p.add_argument("--operator-skew", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", default="html_math", choices=("html_math", "tei_formula"))
    p.add_argument("--output-dir", required=True)
    p.add_argument("--with-lexicon", action="store_true")
    p.set_defaults(fn=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except TextMathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
