"""Workload definitions and their seeded set-up.

Each workload is a synthetic corpus shape plus an experiment config. Set-up
writes the corpus markup, manifest, optional lexicon and config under a
work directory and loads the config, exactly as ``textmath run`` would; the
program under test only ever sees those generated files.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from textmath.classify import ALGOS as CLASSIFIERS
from textmath.cli import SEMANTIFIED_ROW, load_experiment_config
from textmath.cluster import ALGOS as CLUSTERERS
from textmath.cluster import FIXED_K_ALGOS
from textmath.embedding import EmbeddingParams
from textmath.encode import parse_encoding_name, token_stream
from textmath.synth import class_lexicon_tsv, generate_synthetic_corpus, write_corpus_markup

ALL_TFIDF = [
    "text_tfidf",
    "math_op_tfidf",
    "math_id_tfidf",
    "math_opid_tfidf",
    "math_surroundings_tfidf",
    "textmath_opid_tfidf",
    "textmath_surroundings_tfidf",
]
LEXICON = {"path": "corpus/lexicon.tsv", "top_n": 3, "mode": "append"}
SHARED_IDENTIFIERS = 12  # the identifier pool every class draws from, as in the acceptance tests


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_classes: int
    docs_per_class: int
    encodings: list[str]
    classifiers: list[str]
    clusterers: list[str]
    n_folds: int = 10
    tokens_per_doc: tuple[int, int] = (40, 80)
    formulas_per_doc: tuple[int, int] = (3, 8)
    operator_skew: float = 0.0
    vocab_per_class: int = 30
    with_lexicon: bool = False
    embedding_params: dict[str, Any] = field(default_factory=dict)
    cluster_params: dict[str, dict[str, Any]] = field(default_factory=dict)

    def config(self) -> dict[str, Any]:
        """The experiment config, with paths relative to the config file."""
        clusterers = []
        for algo in self.clusterers:
            entry: dict[str, Any] = {"algo": algo}
            if algo in FIXED_K_ALGOS:
                entry["k"] = self.n_classes
            if algo in self.cluster_params:
                entry["params"] = dict(self.cluster_params[algo])
            clusterers.append(entry)
        raw: dict[str, Any] = {
            "corpus_manifest": "corpus/manifest.json",
            "output_dir": "out",
            "encodings": list(self.encodings),
            "classifiers": list(self.classifiers),
            "clusterers": clusterers,
            "n_folds": self.n_folds,
        }
        if self.embedding_params:
            raw["embedding_params"] = dict(self.embedding_params)
        if self.with_lexicon:
            raw["lexicon"] = dict(LEXICON)
        return raw

    def classification_rows(self) -> list[str]:
        """Rows report_classification.csv must hold, in report order."""
        if not self.classifiers:
            return []
        return self.encodings + ([SEMANTIFIED_ROW[LEXICON["mode"]]] if self.with_lexicon else [])

    def clustering_rows(self) -> list[str]:
        """Rows report_clustering.csv must hold."""
        return list(self.encodings) if self.clusterers else []

    def cells_per_run(self) -> int:
        """Classification cells + clustering cells + correlation pairs."""
        n = len(self.encodings)
        return (
            len(self.classification_rows()) * len(self.classifiers)
            + n * len(self.clusterers)
            + n * (n - 1) // 2
        )


# Each run measures one seeded input. Sizes are chosen so one
# ``run_experiment`` call takes about 3-7 s on one core: a 25 s run then
# reports the median of four to eight calls on the same input, and each
# workload keeps the layer mix it is named for.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="grid_tfidf",
            why="paper-shaped tf-idf grid with a semantified row; classifier fits "
            "(mlp, randforest) and per-fold re-encoding do the work",
            n_classes=7,
            docs_per_class=8,
            n_folds=2,
            vocab_per_class=12,
            operator_skew=0.3,
            encodings=ALL_TFIDF,
            classifiers=list(CLASSIFIERS),
            clusterers=list(CLUSTERERS),
            with_lexicon=True,
        ),
        # Default EmbeddingParams need far more text than fits in a run before
        # text_embedding beats chance (at 7x3 docs both rows were at chance).
        # A short window and a constant, doubled learning rate reach 50-70 %
        # on 35 docs of 15-25 tokens; per-position work still dominates.
        Workload(
            name="embed_cv",
            why="paragraph-vector rows under two classifiers; embedding train and "
            "inference dominate and per-classifier re-encoding shows",
            n_classes=7,
            docs_per_class=5,
            n_folds=3,
            tokens_per_doc=(15, 25),
            formulas_per_doc=(2, 5),
            vocab_per_class=10,
            encodings=["text_embedding", "math_id_embedding"],
            classifiers=["logreg", "knn"],
            clusterers=[],
            embedding_params={
                "size": 50,
                "window": 2,
                "min_count": 1,
                "epochs": 10,
                "initial_alpha": 0.05,
                "min_alpha": 0.05,
            },
        ),
        Workload(
            name="cluster_full",
            why="clustering of 350 long documents, where O(n^3) Ward and per-point mean "
            "shift dominate; markup parsing and the similarity correlation ride along",
            n_classes=14,
            docs_per_class=25,
            tokens_per_doc=(150, 300),
            encodings=["text_tfidf", "math_opid_tfidf", "math_surroundings_tfidf",
                       "textmath_surroundings_tfidf"],
            classifiers=[],
            clusterers=list(CLUSTERERS),
        ),
        Workload(
            name="ingest_correlate",
            why="few full-corpus tf-idf fits over many formula-dense documents; markup "
            "parsing, token streams and the n^2 similarity correlation do the work",
            n_classes=14,
            docs_per_class=60,
            tokens_per_doc=(100, 200),
            formulas_per_doc=(6, 16),
            encodings=ALL_TFIDF,
            classifiers=[],
            clusterers=["kmeans"],
            cluster_params={"kmeans": {"n_restarts": 1}},
        ),
    ]
}


def set_up(workload: Workload, seed: int, work_dir: Path) -> tuple[Any, Any]:
    """Generate corpus, markup, manifest, lexicon and config, then load the
    config. Deterministic in ``seed``. Returns the loaded config and the
    in-memory corpus the markup was rendered from."""
    corpus = generate_synthetic_corpus(
        n_classes=workload.n_classes,
        docs_per_class=workload.docs_per_class,
        vocab_per_class=workload.vocab_per_class,
        shared_identifiers=SHARED_IDENTIFIERS,
        seed=seed,
        tokens_per_doc=workload.tokens_per_doc,
        formulas_per_doc=workload.formulas_per_doc,
        operator_skew=workload.operator_skew,
    )
    corpus_dir = work_dir / "corpus"
    write_corpus_markup(corpus, corpus_dir)
    if workload.with_lexicon:
        class_lexicon_tsv(corpus, corpus_dir / "lexicon.tsv")
    raw = workload.config()
    raw["seed"] = seed
    config_path = work_dir / "experiment.json"
    config_path.write_text(json.dumps(raw, indent=2) + "\n", "utf-8")
    return load_experiment_config(config_path), corpus


def input_size(config: Any, corpus: Any) -> dict[str, Any]:
    """Documents, markup bytes and vocabulary size per encoding, computed
    from the generated files and corpus the way the encoders count them."""
    manifest = json.loads(config.corpus_manifest.read_text("utf-8"))
    base = config.corpus_manifest.parent
    min_count = EmbeddingParams(**config.embedding_params).min_count
    vocabulary = {}
    for name in config.encodings:
        spec = parse_encoding_name(name)
        counts = Counter(
            t
            for doc in corpus.documents
            for t in token_stream(doc, spec.content, stopwords=corpus.stopwords)
        )
        floor = min_count if spec.method == "embedding" else 1
        vocabulary[name] = sum(1 for c in counts.values() if c >= floor)
    return {
        "docs": len(manifest["entries"]),
        "markup_bytes": sum((base / e["path"]).stat().st_size for e in manifest["entries"]),
        "vocabulary": vocabulary,
    }
