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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Iterator

from . import __version__
from .classify import ALGOS as CLASSIFIER_ALGOS
from .classify import ClassifierSpec
from .cluster import ALGOS as CLUSTERER_ALGOS
from .cluster import ClustererSpec, dump_assignment, fit_predict_clusterer
from .corpus import FORMAT_CONTAINERS, Corpus, dump_corpus_jsonl, load_corpus, load_corpus_jsonl
from .embedding import EmbeddingParams
from .encode import Channels, EncodingSpec, fit_encoder, parse_encoding_name
from .errors import ConfigError, TextMathError, check_int
from .evaluate import (
    CrossValidationResult,
    EvaluationReport,
    build_report,
    cross_validate,
    cross_validate_bags,
    make_folds,
    normalize_runtimes,
    purity,
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


@dataclass
class ExperimentConfig:
    corpus_manifest: Path
    output_dir: Path
    encodings: list[str]
    classifiers: list[ClassifierSpec] = field(default_factory=list)
    clusterers: list[ClustererSpec] = field(default_factory=list)
    n_folds: int = 10
    seed: int = 0
    embedding_params: dict[str, Any] = field(default_factory=dict)
    lexicon: LexiconConfig | None = None

    def validate(self) -> None:
        if not self.corpus_manifest.is_file():
            raise ConfigError(f"corpus_manifest: file not found: {self.corpus_manifest}")
        if not isinstance(self.encodings, list) or not all(
            isinstance(name, str) for name in self.encodings
        ):
            raise ConfigError("encodings: must be a list of encoding names")
        if not self.encodings:
            raise ConfigError("encodings: at least one encoding is required")
        for name in self.encodings:
            with _config_errors("encodings"):
                parse_encoding_name(name)
        if not self.classifiers and not self.clusterers:
            raise ConfigError("classifiers/clusterers: at least one algorithm is required")
        check_int("n_folds", self.n_folds, 2, ConfigError)
        check_int("seed", self.seed, 0, ConfigError)
        if not isinstance(self.embedding_params, dict):
            raise ConfigError("embedding_params: must be an object")
        _embedding_params(self)
        if self.lexicon is not None:
            if self.lexicon.mode not in MODES:
                raise ConfigError(f"lexicon.mode: must be one of {MODES}")
            check_int("lexicon.top_n", self.lexicon.top_n, 1, ConfigError)
            if not self.lexicon.path.is_file():
                raise ConfigError(f"lexicon.path: file not found: {self.lexicon.path}")


@contextmanager
def _config_errors(name: str) -> Iterator[None]:
    """Re-raise a ValueError or TypeError as a ConfigError that names ``name``."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _reject_unknown_keys(obj: dict[str, Any], known: type, prefix: str) -> None:
    """Config objects take exactly the fields of their dataclass; a misspelled
    or retired key is an error, not a silently ignored value."""
    unknown = sorted(set(obj) - {f.name for f in fields(known)})
    if unknown:
        raise ConfigError(", ".join(prefix + key for key in unknown) + ": unknown config key")


def _spec_from_entry(entry: Any, spec_type: type, kind: str) -> Any:
    """A classifier or clusterer spec from a config entry: an algo name, or
    an object of the spec's fields whose omitted fields keep their defaults."""
    if isinstance(entry, str):
        entry = {"algo": entry}
    elif isinstance(entry, dict):
        _reject_unknown_keys(entry, spec_type, f"{kind}.")
    with _config_errors(kind):
        return spec_type(**entry)


def _config_path(config_path: Path, value: Any, name: str) -> Path:
    """Path field ``name``, resolved relative to the config file."""
    if not isinstance(value, str):
        raise ConfigError(f"{name}: must be a path string, got {value!r}")
    return config_path.parent / value


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Read a JSON config. Paths resolve relative to the config file; a
    field the file leaves out keeps its dataclass default."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be an object")
    _reject_unknown_keys(raw, ExperimentConfig, "")
    for key in ("corpus_manifest", "output_dir", "encodings"):
        if key not in raw:
            raise ConfigError(f"{key}: required field is missing")

    obj = {
        **raw,
        "corpus_manifest": _config_path(path, raw["corpus_manifest"], "corpus_manifest"),
        "output_dir": _config_path(path, raw["output_dir"], "output_dir"),
    }
    for kind, spec_type in (("classifiers", ClassifierSpec), ("clusterers", ClustererSpec)):
        if kind in raw:
            if not isinstance(raw[kind], list):
                raise ConfigError(f"{kind}: must be a list of algo names or objects")
            obj[kind] = [_spec_from_entry(e, spec_type, kind) for e in raw[kind]]
    lex = raw.get("lexicon")
    if lex is not None:
        if not isinstance(lex, dict) or "path" not in lex:
            raise ConfigError("lexicon: must be an object with a 'path' field")
        _reject_unknown_keys(lex, LexiconConfig, "lexicon.")
        lex_path = _config_path(path, lex["path"], "lexicon.path")
        obj["lexicon"] = LexiconConfig(**{**lex, "path": lex_path})
    config = ExperimentConfig(**obj)
    config.validate()
    return config


@dataclass
class _RunLog:
    """What one ``run_experiment`` call records besides its tables: each
    empty cell's error, every file written, and the per-cell fold
    accuracies, classifier convergence and cluster diagnostics."""

    out: Path
    errors: list[dict[str, str]] = field(default_factory=list)
    written: list[str] = field(default_factory=list)
    fold_accuracies: dict[str, list[float]] = field(default_factory=dict)
    cluster_diagnostics: dict[str, dict[str, Any]] = field(default_factory=dict)
    classifier_convergence: dict[str, list[dict[str, Any]]] = field(default_factory=dict)

    def error(self, stage: str, cell: str, exc: Exception) -> None:
        """Record the cell that ``exc`` left empty."""
        self.errors.append({"stage": stage, "cell": cell, "error": f"{type(exc).__name__}: {exc}"})

    def file(self, name: str) -> Path:
        """The path of output file ``name``, listed as written."""
        self.written.append(name)
        return self.out / name

    def write_report(
        self,
        task: str,
        title: str,
        cells: dict[tuple[str, str], float | None],
        raw_times: dict[str, float],
    ) -> EvaluationReport:
        """Write a task's grid to ``report_<task>.csv`` and ``.md``; the
        ``Runtime [%]`` row scales ``raw_times`` to the slowest column."""
        report = build_report(cells, normalize_runtimes(raw_times))
        report.to_csv(self.file(f"report_{task}.csv"))
        report.to_markdown(self.file(f"report_{task}.md"), title=title)
        return report


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
    with _config_errors("embedding_params"):
        return EmbeddingParams(**overrides)


def run_experiment(config: ExperimentConfig) -> EvaluationReport:
    """Execute the encoding × algorithm grid and write all report files.

    Per-cell failures leave an empty cell and are listed in the run record;
    a failure that breaks an entire encoding empties its row the same way.
    """
    config.validate()
    started = time.time()
    corpus = load_corpus(config.corpus_manifest)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    emb_params = _embedding_params(config)
    enc_specs = {name: parse_encoding_name(name, emb_params) for name in config.encodings}
    log = _RunLog(out)

    # Full-corpus matrices back clustering and the correlation table. They
    # and the classification folds share one count or stream build per channel.
    channels = Channels(corpus.documents, corpus.stopwords, enc_specs.values())
    matrices = {}
    for name, spec in enc_specs.items():
        try:
            _, matrices[name] = fit_encoder(
                spec, corpus.documents, stopwords=corpus.stopwords, channels=channels
            )
        except Exception as exc:  # degrade to an empty row
            matrices[name] = None
            log.error("encode", name, exc)

    reports = []
    if config.classifiers:
        reports.append(_run_classification_grid(config, corpus, enc_specs, channels, log))
    if config.clusterers:
        reports.append(_run_clustering_grid(config, corpus, matrices, log))
    _write_correlations(config, matrices, log)

    record = {
        "version": __version__,
        # Every config field, with the embedding params the run used.
        **asdict(config),
        "embedding_params": asdict(emb_params),
        "n_documents": len(corpus.documents),
        "label_set": corpus.label_set,
        "skipped_ids": corpus.skipped_ids,
        "cell_errors": log.errors,
        "fold_accuracies": log.fold_accuracies,
        "cluster_diagnostics": log.cluster_diagnostics,
        "classifier_convergence": log.classifier_convergence,
        "files": sorted(log.written),
        "elapsed_seconds": time.time() - started,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    (out / "run_record.json").write_text(
        json.dumps(record, ensure_ascii=False, indent=2, default=str) + "\n", "utf-8"
    )
    return reports[0]  # validate() guarantees at least one grid


def _run_classification_grid(
    config: ExperimentConfig,
    corpus: Corpus,
    enc_specs: dict[str, EncodingSpec],
    channels: Channels,
    log: _RunLog,
) -> EvaluationReport:
    """Cross-validate every classifier on each row's folds, one
    ``cross_validate`` call per encoding and one ``cross_validate_bags`` call
    for the semantified row. Each row's folds are encoded once and shared by
    its classifiers, so the runtime row times classifier fit and predict
    only."""
    plan = make_folds(len(corpus.documents), config.n_folds, config.seed)
    col_names = _column_names(config.classifiers)
    cells: dict[tuple[str, str], float | None] = {}
    raw_times: dict[str, float] = {c: 0.0 for c in col_names}

    def rows() -> Iterator[tuple[str, list[CrossValidationResult | Exception]]]:
        for name, spec in enc_specs.items():
            yield name, cross_validate(config.classifiers, spec, corpus, plan, channels)
        if config.lexicon is not None:
            lex = load_lexicon(config.lexicon.path)
            bags = (
                enrich(d, lex, config.lexicon.top_n, config.lexicon.mode) for d in corpus.documents
            )
            outcomes = cross_validate_bags(
                config.classifiers, bags, corpus.labels, corpus.label_set, plan
            )
            yield SEMANTIFIED_ROW[config.lexicon.mode], outcomes

    for row_name, outcomes in rows():
        for col, outcome in zip(col_names, outcomes):
            cell = f"{row_name}/{col}"
            if isinstance(outcome, Exception):
                cells[(row_name, col)] = None
                log.error("classify", cell, outcome)
                continue
            cells[(row_name, col)] = 100.0 * outcome.mean_accuracy
            log.fold_accuracies[cell] = outcome.fold_accuracies
            if outcome.convergence:
                log.classifier_convergence[cell] = outcome.convergence
            outcome.confusion.to_csv(log.file(f"confusion_{row_name}_{col}.csv"))
            raw_times[col] += outcome.fit_predict_seconds
    return log.write_report("classification", "Classification accuracy [%]", cells, raw_times)


def _run_clustering_grid(
    config: ExperimentConfig, corpus: Corpus, matrices: dict[str, Any], log: _RunLog
) -> EvaluationReport:
    """Fit every clusterer on each row's full-corpus matrix. The runtime row
    times ``fit_predict_clusterer`` only, over the cells that succeeded."""
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
                log.error("cluster", cell, exc)
            else:
                cells[(enc_name, col)] = 100.0 * macro
                raw_times[col] += seconds
                # The convergence scalars each algo reports; the histories
                # stay in the assignment sidecar.
                log.cluster_diagnostics[cell] = {
                    "n_clusters": assignment.n_clusters,
                    **{
                        key: assignment.diagnostics[key]
                        for key in ("converged", "iterations", "bandwidth", "modes")
                        if key in assignment.diagnostics
                    },
                }
                name = f"assignments_{enc_name}_{col}.csv"
                dump_assignment(assignment, log.file(name))
                log.written.append(name + ".json")
    return log.write_report("clustering", "Clustering purity (macro) [%]", cells, raw_times)


def _write_correlations(config: ExperimentConfig, matrices: dict[str, Any], log: _RunLog) -> None:
    lines = ["encoding_a,encoding_b,pearson_r"]
    names = [n for n in config.encodings if matrices.get(n) is not None]
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            try:
                r = text_math_correlation(matrices[a], matrices[b])
                lines.append(f"{a},{b},{r:.6f}")
            except TextMathError as exc:  # a constant series, too few or mismatched samples
                lines.append(f"{a},{b},")
                log.error("correlate", f"{a}/{b}", exc)
    log.file("correlations.csv").write_text("\n".join(lines) + "\n", "utf-8")


# --- subcommands ----------------------------------------------------------------


def _stage_encoding(args: argparse.Namespace, dest: str = "encoding") -> EncodingSpec:
    """The encoding that a stage subcommand's ``--<dest>`` names, seeded by ``--seed``."""
    check_int("--seed", args.seed, 0, ConfigError)
    with _config_errors("--" + dest.replace("_", "-")):
        return parse_encoding_name(getattr(args, dest), EmbeddingParams(seed=args.seed))


def _cmd_ingest(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.manifest)
    dump_corpus_jsonl(corpus, args.output)
    print(f"{len(corpus.documents)} documents -> {args.output}")
    if corpus.skipped_ids:
        print(f"skipped (malformed): {len(corpus.skipped_ids)}")
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    spec = _stage_encoding(args)
    corpus = load_corpus_jsonl(args.corpus)
    _, matrix = fit_encoder(spec, corpus.documents, stopwords=corpus.stopwords)
    matrix.to_csv(args.output)
    print(f"{matrix.n_samples} x {matrix.n_features} -> {args.output}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    encoding = _stage_encoding(args)
    check_int("--folds", args.folds, 2, ConfigError)
    spec = ClassifierSpec(algo=args.algo, seed=args.seed)
    corpus = load_corpus_jsonl(args.corpus)
    plan = make_folds(len(corpus.documents), args.folds, args.seed)
    (result,) = cross_validate([spec], encoding, corpus, plan)
    if isinstance(result, Exception):
        raise result
    print(f"mean accuracy: {result.mean_accuracy:.4f}")
    print("fold accuracies: " + " ".join(f"{a:.4f}" for a in result.fold_accuracies))
    if args.output_dir:
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        result.confusion.to_csv(out / f"confusion_{args.encoding}_{args.algo}.csv")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    encoding = _stage_encoding(args)
    with _config_errors("cluster"):
        spec = ClustererSpec(algo=args.algo, k=args.k, seed=args.seed, pca_dims=args.pca_dims)
    corpus = load_corpus_jsonl(args.corpus)
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
    specs = [_stage_encoding(args, dest) for dest in ("encoding_a", "encoding_b")]
    corpus = load_corpus_jsonl(args.corpus)
    channels = Channels(corpus.documents, corpus.stopwords, specs)
    mats = [
        fit_encoder(spec, corpus.documents, stopwords=corpus.stopwords, channels=channels)[1]
        for spec in specs
    ]
    r = text_math_correlation(mats[0], mats[1])
    print(f"pearson r({args.encoding_a}, {args.encoding_b}) = {r:.6f}")
    return 0


def _cmd_semantify(args: argparse.Namespace) -> int:
    check_int("--top-n", args.top_n, 1, ConfigError)
    corpus = load_corpus_jsonl(args.corpus)
    lex = load_lexicon(args.lexicon)
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        for doc in corpus.documents:
            tokens = enrich(doc, lex, args.top_n, args.mode)
            fh.write(
                json.dumps({"id": doc.id, "label": doc.label, "tokens": tokens}, ensure_ascii=False)
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
    check_int("--seed", args.seed, 0, ConfigError)
    for count in ("classes", "docs_per_class", "vocab_per_class", "shared_identifiers"):
        check_int("--" + count.replace("_", "-"), getattr(args, count), 1, ConfigError)
    with _config_errors("--operator-skew"):  # the one check left to the generator
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
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("encode", help="encode a JSONL corpus to a feature matrix CSV")
    p.add_argument("corpus")
    p.add_argument("--encoding", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_encode)

    p = sub.add_parser("classify", help="cross-validate one encoding x classifier cell")
    p.add_argument("corpus")
    p.add_argument("--encoding", required=True)
    p.add_argument("--algo", required=True, choices=CLASSIFIER_ALGOS)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("cluster", help="cluster one encoding and score purity")
    p.add_argument("corpus")
    p.add_argument("--encoding", required=True)
    p.add_argument("--algo", required=True, choices=CLUSTERER_ALGOS)
    p.add_argument("--k", type=int)
    p.add_argument("--pca-dims", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir")
    p.set_defaults(fn=_cmd_cluster)

    p = sub.add_parser("correlate", help="pair-similarity correlation of two encodings")
    p.add_argument("corpus")
    p.add_argument("--encoding-a", required=True)
    p.add_argument("--encoding-b", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_correlate)

    p = sub.add_parser("semantify", help="enrich identifiers with lexicon names")
    p.add_argument("corpus")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--top-n", type=int, default=DEFAULT_TOP_N)
    p.add_argument("--mode", default="append", choices=MODES)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_semantify)

    p = sub.add_parser("run", help="run a full experiment grid from a JSON config")
    p.add_argument("config")
    p.add_argument("--seed", type=int)
    p.add_argument("--output-dir")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("synth", help="generate a synthetic markup corpus")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--docs-per-class", type=int, default=20)
    p.add_argument("--vocab-per-class", type=int, default=40)
    p.add_argument("--shared-identifiers", type=int, default=8)
    p.add_argument("--operator-skew", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", default="html_math", choices=tuple(FORMAT_CONTAINERS))
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
