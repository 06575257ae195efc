"""Turn token bags into dense sample-by-feature matrices.

Two encoding methods are supported over seven content channels:

* ``tfidf``: raw term counts weighted by a smoothed inverse document
  frequency, L2-normalized per row.
* ``embedding``: paragraph vectors trained with the distributed-memory
  scheme in :mod:`textmath.embedding`.

Math tokens are namespaced (``op:``/``id:`` prefixes) so that combined
text+math channels can never collide with cleaned text tokens.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Document, extract_surroundings
from .embedding import EmbeddingModel, EmbeddingParams, infer_doc_vector, train_embedding
from .errors import AllBagsEmptyError, DegenerateInputError

CONTENTS = (
    "text",
    "math_op",
    "math_id",
    "math_opid",
    "math_surroundings",
    "textmath_opid",
    "textmath_surroundings",
)
METHODS = ("tfidf", "embedding")


@dataclass(frozen=True)
class EncodingSpec:
    """What to encode (content channel) and how (method)."""

    content: str
    method: str
    embedding_params: EmbeddingParams | None = None

    def __post_init__(self) -> None:
        if self.content not in CONTENTS:
            raise ValueError(f"unknown content {self.content!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "embedding" and self.embedding_params is None:
            object.__setattr__(self, "embedding_params", EmbeddingParams())

    @property
    def name(self) -> str:
        return f"{self.content}_{self.method}"


def parse_encoding_name(name: str, embedding_params: EmbeddingParams | None = None) -> EncodingSpec:
    """Parse a canonical ``<content>_<method>`` encoding name."""
    for method in METHODS:
        suffix = "_" + method
        if name.endswith(suffix) and name[: -len(suffix)] in CONTENTS:
            return EncodingSpec(name[: -len(suffix)], method, embedding_params)
    raise ValueError(f"unknown encoding name {name!r}; expected <content>_<method>")


def token_stream(
    doc: Document,
    content: str,
    window: int = 500,
    stopwords: frozenset[str] | set[str] | None = None,
) -> list[str]:
    """The token sequence a given content channel sees for one document.

    Math symbols are prefixed with ``op:``/``id:`` and interleaved in
    original element order; surroundings tokens are plain cleaned text.
    Combined channels are the text stream followed by the math stream.
    """
    if content == "text":
        return list(doc.text_tokens)
    if content == "math_op":
        return [f"op:{t}" for f in doc.formulas for t in f.operators]
    if content == "math_id":
        return [f"id:{t}" for f in doc.formulas for t in f.identifiers]
    if content == "math_opid":
        return [
            f"op:{t}" if kind == "o" else f"id:{t}"
            for f in doc.formulas
            for kind, t in f.symbols()
        ]
    if content == "math_surroundings":
        return extract_surroundings(doc, window=window, stopwords=stopwords)
    if content == "textmath_opid":
        return token_stream(doc, "text") + token_stream(doc, "math_opid")
    if content == "textmath_surroundings":
        return token_stream(doc, "text") + token_stream(
            doc, "math_surroundings", window=window, stopwords=stopwords
        )
    raise ValueError(f"unknown content {content!r}")


@dataclass(eq=False)
class EncodedMatrix:
    """Dense sample-by-feature matrix with provenance metadata. Compared by
    identity: ``==`` on the array field would be elementwise."""

    spec: EncodingSpec | None
    sample_ids: list[str]
    features: np.ndarray
    feature_names: list[str] | None = None
    # (features the cosines were computed from, the cosines); reassigning
    # ``features`` makes the memo stale.
    _pair_cosines: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False
    )
    # (features the fits were computed from, k-means fits keyed by k, seed,
    # pca_dims and params); kept by ``cluster.fit_predict_clusterer`` so a
    # row's GMM starts from its k-means column's fit.
    _kmeans_fits: tuple[np.ndarray, dict[tuple, tuple]] | None = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.features.shape[0] != len(self.sample_ids):
            raise ValueError("row count does not match sample_ids")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain NaN or Inf")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def pair_cosines(self) -> np.ndarray:
        """Cosine similarity of every unordered row pair (i < j), row-major;
        all-zero rows have similarity 0. Computed once per features array."""
        if self._pair_cosines is None or self._pair_cosines[0] is not self.features:
            X = self.features
            norms = np.linalg.norm(X, axis=1)
            safe = np.where(norms > 0, norms, 1.0)
            normalized = X / safe[:, None]
            sims = normalized @ normalized.T
            self._pair_cosines = (X, sims[np.triu_indices(X.shape[0], k=1)])
        return self._pair_cosines[1]

    def to_csv(self, path: str | Path) -> None:
        """Dump as ``sample_id,f0,...,fN`` CSV plus a JSON sidecar."""
        path = Path(path)
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write("sample_id," + ",".join(f"f{i}" for i in range(self.n_features)) + "\n")
            for sid, row in zip(self.sample_ids, self.features):
                fh.write(sid + "," + ",".join(repr(float(v)) for v in row) + "\n")
        sidecar = {
            "spec": None
            if self.spec is None
            else {"content": self.spec.content, "method": self.spec.method},
            "feature_names": self.feature_names,
        }
        path.with_suffix(path.suffix + ".json").write_text(
            json.dumps(sidecar, ensure_ascii=False, indent=2) + "\n", "utf-8"
        )


# --- tf-idf ---------------------------------------------------------------


@dataclass
class TfidfModel:
    """Vocabulary and smoothed idf weights fitted on a set of token bags."""

    vocabulary: dict[str, int]
    idf: np.ndarray


def fit_tfidf(bags: list[list[str]]) -> TfidfModel:
    """Fit vocabulary and idf weights: idf(t) = ln((1+N)/(1+df(t))) + 1.

    Columns are assigned in sorted token order so repeated runs produce
    identical matrices.
    """
    if not bags:
        raise ValueError("bags must be non-empty")
    df: Counter[str] = Counter()
    for bag in bags:
        df.update(set(bag))
    if not df:
        raise AllBagsEmptyError("all token bags are empty")
    vocabulary = {tok: i for i, tok in enumerate(sorted(df))}
    n = len(bags)
    idf = np.empty(len(vocabulary))
    for tok, col in vocabulary.items():
        idf[col] = math.log((1 + n) / (1 + df[tok])) + 1.0
    return TfidfModel(vocabulary=vocabulary, idf=idf)


def transform_tfidf(
    model: TfidfModel,
    bags: list[list[str]],
    sample_ids: list[str] | None = None,
    spec: EncodingSpec | None = None,
) -> EncodedMatrix:
    """Encode bags as L2-normalized count × idf rows; unseen tokens ignored."""
    if sample_ids is None:
        sample_ids = [str(i) for i in range(len(bags))]
    mat = np.zeros((len(bags), len(model.vocabulary)))
    for row, bag in enumerate(bags):
        for tok, count in Counter(bag).items():
            col = model.vocabulary.get(tok)
            if col is not None:
                mat[row, col] = count * model.idf[col]
    norms = np.linalg.norm(mat, axis=1)
    nonzero = norms > 0
    mat[nonzero] /= norms[nonzero, None]
    names = sorted(model.vocabulary, key=model.vocabulary.get)
    return EncodedMatrix(spec=spec, sample_ids=list(sample_ids), features=mat, feature_names=names)


# --- PCA ------------------------------------------------------------------


@dataclass
class PCA:
    """Principal components of centered data, via singular value decomposition."""

    mean: np.ndarray
    components: np.ndarray  # target_dims x n_features, orthonormal rows
    explained_variance: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean) @ self.components.T


def fit_pca(X: np.ndarray, target_dims: int) -> PCA:
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if not 1 <= target_dims <= min(n, d):
        raise ValueError(f"target_dims must be in [1, {min(n, d)}]")
    mean = X.mean(axis=0)
    centered = X - mean
    if not np.any(np.var(centered, axis=0) > 0):
        raise DegenerateInputError("all features have zero variance")
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:target_dims]
    # Sign convention: largest-magnitude loading of each component positive.
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    explained = (svals[:target_dims] ** 2) / max(n - 1, 1)
    return PCA(mean=mean, components=components, explained_variance=explained)


def pca_reduce(m: EncodedMatrix, target_dims: int) -> EncodedMatrix:
    """Project rows onto the top principal components (descending variance)."""
    pca = fit_pca(m.features, target_dims)
    return EncodedMatrix(
        spec=m.spec,
        sample_ids=list(m.sample_ids),
        features=pca.transform(m.features),
        feature_names=None,
    )


# --- fitted encoder facade -------------------------------------------------


@dataclass
class FittedEncoder:
    """A fitted tf-idf or embedding encoder that can project new token streams."""

    spec: EncodingSpec | None
    tfidf: TfidfModel | None = None
    embedding: EmbeddingModel | None = None

    def transform(self, streams: list[list[str]], sample_ids: list[str]) -> EncodedMatrix:
        if self.embedding is None:
            return transform_tfidf(self.tfidf, streams, sample_ids=sample_ids, spec=self.spec)
        rows = np.stack([infer_doc_vector(self.embedding, s) for s in streams]) if streams else (
            np.zeros((0, self.embedding.params.size))
        )
        return EncodedMatrix(spec=self.spec, sample_ids=list(sample_ids), features=rows)


def fit_streams(
    spec: EncodingSpec | None, streams: list[list[str]], sample_ids: list[str]
) -> tuple[FittedEncoder, EncodedMatrix]:
    """Fit an encoder on token streams and return it with the training matrix.

    ``spec=None`` fits plain tf-idf over pre-built bags (e.g. enriched
    streams). For embeddings the training matrix holds the trained document
    vectors; held-out streams are later inferred with frozen word vectors.
    """
    encoder = FittedEncoder(spec=spec)
    if spec is None or spec.method == "tfidf":
        encoder.tfidf = fit_tfidf(streams)
        return encoder, transform_tfidf(encoder.tfidf, streams, sample_ids=sample_ids, spec=spec)
    encoder.embedding = train_embedding(streams, spec.embedding_params)
    vectors = encoder.embedding.doc_vectors.copy()
    return encoder, EncodedMatrix(spec=spec, sample_ids=list(sample_ids), features=vectors)


def fit_encoder(
    spec: EncodingSpec,
    docs: list[Document],
    stopwords: frozenset[str] | set[str] | None = None,
) -> tuple[FittedEncoder, EncodedMatrix]:
    """Fit an encoder on the token streams of ``docs``; see ``fit_streams``."""
    streams = [token_stream(d, spec.content, stopwords=stopwords) for d in docs]
    return fit_streams(spec, streams, [d.id for d in docs])
