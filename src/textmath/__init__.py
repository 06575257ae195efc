"""Workbench for classifying, clustering, and correlating documents by
their natural-language text and their formula markup."""

__version__ = "0.1.0"

from .corpus import (
    PLACEHOLDER,
    Corpus,
    Document,
    Formula,
    clean_text,
    default_stopwords,
    dump_corpus_jsonl,
    extract_surroundings,
    load_corpus,
    load_corpus_jsonl,
    parse_document,
)
from .errors import (
    AllBagsEmptyError,
    ConfigError,
    DegenerateInputError,
    DimensionMismatchError,
    EmptyClassError,
    EmptyVocabularyError,
    KExceedsSamplesError,
    LengthMismatchError,
    MalformedLineError,
    MalformedMarkupError,
    MalformedRecordError,
    ManifestError,
    MissingFileError,
    RaggedGridError,
    SingleClassTrainingError,
    TextMathError,
    TooFewSamplesError,
    UnknownFormatError,
    ZeroVarianceError,
)
from .embedding import (
    EmbeddingModel,
    EmbeddingParams,
    infer_doc_vector,
    train_embedding,
)
from .encode import (
    EncodedMatrix,
    EncodingSpec,
    TfidfModel,
    fit_encoder,
    fit_pca,
    fit_tfidf,
    parse_encoding_name,
    pca_reduce,
    token_stream,
    transform_tfidf,
)
from .classify import (
    ClassifierModel,
    ClassifierSpec,
    fit_classifier,
    predict,
)
from .cluster import (
    ClusterAssignment,
    ClustererSpec,
    dump_assignment,
    estimate_bandwidth,
    fit_predict_clusterer,
)
from .evaluate import (
    ConfusionMatrix,
    CrossValidationResult,
    EvaluationReport,
    FoldPlan,
    accuracy_score,
    build_report,
    cross_validate,
    cross_validate_bags,
    make_folds,
    pearson,
    purity,
    text_math_correlation,
    weighted_purity,
)
from .semantify import Lexicon, enrich, enrich_stream, load_lexicon
from .synth import generate_synthetic_corpus, render_markup, write_corpus_markup


def __getattr__(name: str):
    """The names defined in ``textmath.cli`` are imported on first use, so
    ``python -m textmath.cli`` runs a module the package has not imported."""
    if name in ("ExperimentConfig", "load_experiment_config", "run_experiment"):
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "PLACEHOLDER",
    "Corpus",
    "Document",
    "Formula",
    "AllBagsEmptyError",
    "ConfigError",
    "DegenerateInputError",
    "DimensionMismatchError",
    "EmptyClassError",
    "EmptyVocabularyError",
    "KExceedsSamplesError",
    "LengthMismatchError",
    "MalformedLineError",
    "MalformedMarkupError",
    "MalformedRecordError",
    "ManifestError",
    "MissingFileError",
    "RaggedGridError",
    "SingleClassTrainingError",
    "TextMathError",
    "TooFewSamplesError",
    "UnknownFormatError",
    "ZeroVarianceError",
    "clean_text",
    "default_stopwords",
    "dump_corpus_jsonl",
    "extract_surroundings",
    "load_corpus",
    "load_corpus_jsonl",
    "parse_document",
    "EmbeddingModel",
    "EmbeddingParams",
    "infer_doc_vector",
    "train_embedding",
    "EncodedMatrix",
    "EncodingSpec",
    "TfidfModel",
    "fit_encoder",
    "fit_pca",
    "fit_tfidf",
    "parse_encoding_name",
    "pca_reduce",
    "token_stream",
    "transform_tfidf",
    "ClassifierModel",
    "ClassifierSpec",
    "fit_classifier",
    "predict",
    "ClusterAssignment",
    "ClustererSpec",
    "dump_assignment",
    "estimate_bandwidth",
    "fit_predict_clusterer",
    "ConfusionMatrix",
    "CrossValidationResult",
    "EvaluationReport",
    "FoldPlan",
    "accuracy_score",
    "build_report",
    "cross_validate",
    "cross_validate_bags",
    "make_folds",
    "pearson",
    "purity",
    "text_math_correlation",
    "weighted_purity",
    "Lexicon",
    "enrich",
    "enrich_stream",
    "load_lexicon",
    "generate_synthetic_corpus",
    "render_markup",
    "write_corpus_markup",
    "ExperimentConfig",
    "load_experiment_config",
    "run_experiment",
]
