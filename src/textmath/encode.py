"""Turn token bags into dense sample-by-feature matrices.

Two encoding methods are supported over seven content channels:

* ``tfidf``: raw term counts weighted by a smoothed inverse document
  frequency, L2-normalized per row.
* ``embedding``: paragraph vectors trained with the distributed-memory
  scheme in :mod:`textmath.embedding`.

Math tokens are namespaced (``op:``/``id:`` prefixes) so that combined
text+math channels can never collide with cleaned text tokens.

Tf-idf is a reweighting of term counts, and it has one implementation:
``fit_tfidf`` fits the vocabulary and idf on rows of a ``TokenCounts`` and
``transform_tfidf`` weighs rows of one. A run counts each of four base
channels once (text, ``op:``, ``id:`` and surroundings; ``Channels``), as
an integer matrix whose columns are the sorted tokens. A combined content's
counts are its parts' counts summed over the union vocabulary, and every
tf-idf matrix, full-corpus or one side of a fold, is taken from them. New
token streams are counted first (``count_streams``).
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable

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
    # (features the entries were computed from, the entries); see ``memo``.
    _memo: tuple[np.ndarray, dict[Any, Any]] | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.features.shape[0] != len(self.sample_ids):
            raise ValueError("row count does not match sample_ids")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain NaN or Inf")

    def memo(self) -> dict[Any, Any]:
        """Values computed from the current ``features`` array and kept with
        it: the PCA projections and k-means fits of
        ``cluster.fit_predict_clusterer``, so a row's clusterers share one
        projection per dimension and its GMM starts from its k-means column's
        fit, and the text-math correlation's own terms of this matrix, so a
        matrix paired with several others computes them once. Reassigning
        ``features`` starts a new memo."""
        if self._memo is None or self._memo[0] is not self.features:
            self._memo = (self.features, {})
        return self._memo[1]

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

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


@dataclass(eq=False)
class TokenCounts:
    """Term counts of token streams: ``counts[i, j]`` is how often
    ``names[j]`` occurs in stream i. Names are sorted, so every tf-idf matrix
    taken from the counts has its columns in sorted token order."""

    names: list[str]
    counts: np.ndarray  # n_streams x len(names), int32

    def __len__(self) -> int:
        return self.counts.shape[0]

    @cached_property
    def column(self) -> dict[str, int]:
        """Each name's column."""
        return {tok: j for j, tok in enumerate(self.names)}


def count_streams(streams: Iterable[list[str]]) -> TokenCounts:
    """Count each stream's tokens. Each stream is read once and not kept, so
    ``streams`` may be a generator that builds them one at a time."""
    tokens: list[str] = []
    counts: list[int] = []
    sizes: list[int] = []
    for stream in streams:
        tally = Counter(stream)
        tokens += tally
        counts += tally.values()
        sizes.append(len(tally))
    names = sorted(set(tokens))
    result = TokenCounts(names, np.zeros((len(sizes), len(names)), dtype=np.int32))
    column = result.column
    result.counts[np.repeat(np.arange(len(sizes)), sizes), [column[t] for t in tokens]] = counts
    return result


def merge_counts(parts: list[TokenCounts]) -> TokenCounts:
    """The counts of each row's streams concatenated: the parts' counts,
    summed over the union of their vocabularies."""
    names = sorted(set().union(*(part.names for part in parts)))
    result = TokenCounts(names, np.zeros((len(parts[0]), len(names)), dtype=np.int32))
    for part in parts:
        result.counts[:, [result.column[t] for t in part.names]] += part.counts
    return result


@dataclass
class TfidfModel:
    """Vocabulary and smoothed idf weights fitted on rows of token counts."""

    vocabulary: dict[str, int]
    idf: np.ndarray


def fit_tfidf(counts: TokenCounts, rows: np.ndarray) -> TfidfModel:
    """Fit vocabulary and idf weights on ``rows`` of ``counts``. The
    vocabulary is the tokens that occur in those rows, in sorted order, so
    repeated runs produce identical matrices; over their N rows,
    idf(t) = ln((1+N)/(1+df(t))) + 1, by ``math.log``."""
    fitted = counts.counts[rows]
    n = fitted.shape[0]
    if n == 0:
        raise ValueError("bags must be non-empty")
    df = np.count_nonzero(fitted, axis=0)
    columns = np.flatnonzero(df)
    if columns.size == 0:
        raise AllBagsEmptyError("all token bags are empty")
    idf = np.array([math.log((1 + n) / (1 + d)) + 1.0 for d in df[columns].tolist()])
    return TfidfModel({counts.names[j]: i for i, j in enumerate(columns.tolist())}, idf)


def transform_tfidf(
    model: TfidfModel,
    counts: TokenCounts,
    rows: np.ndarray,
    sample_ids: list[str],
    spec: EncodingSpec | None = None,
) -> EncodedMatrix:
    """Encode ``rows`` of ``counts`` as L2-normalized count × idf rows over
    the model's vocabulary; ``sample_ids`` covers all rows of ``counts``. The
    model's tokens are found in ``counts`` by name: tokens the model does not
    know are ignored, and a model token ``counts`` lacks is a zero column. An
    all-zero row stays zero."""
    names = sorted(model.vocabulary, key=model.vocabulary.get)
    columns = [counts.column.get(tok, -1) for tok in names]
    source = counts.counts[rows]
    if -1 in columns:  # column -1 of the padded counts is all zeros
        source = np.hstack([source, np.zeros((len(source), 1), dtype=source.dtype)])
    # ``take`` returns a C-ordered copy. The row norms of a Fortran-ordered
    # matrix (a column slice) differ from a C-ordered one's in the last bit.
    mat = source.take(columns, axis=1) * model.idf
    norms = np.linalg.norm(mat, axis=1)
    nonzero = norms > 0
    mat[nonzero] /= norms[nonzero, None]
    return EncodedMatrix(
        spec=spec, sample_ids=[sample_ids[i] for i in rows], features=mat, feature_names=names
    )


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
    """A fitted tf-idf or embedding encoder. ``transform`` encodes new token
    streams; ``transform_rows`` encodes rows of a source (counts for tf-idf,
    token streams for an embedding)."""

    spec: EncodingSpec | None
    tfidf: TfidfModel | None = None
    embedding: EmbeddingModel | None = None

    def transform(self, streams: list[list[str]], sample_ids: list[str]) -> EncodedMatrix:
        source = count_streams(streams) if self.embedding is None else streams
        return self.transform_rows(source, np.arange(len(source)), sample_ids)

    def transform_rows(
        self, source: Source, rows: np.ndarray, sample_ids: list[str]
    ) -> EncodedMatrix:
        """Encode ``rows`` of ``source``; ``sample_ids`` covers all of its rows."""
        if self.embedding is None:
            return transform_tfidf(self.tfidf, source, rows, sample_ids, self.spec)
        vectors = [infer_doc_vector(self.embedding, source[i]) for i in rows]
        features = np.stack(vectors) if vectors else np.zeros((0, self.embedding.params.size))
        return EncodedMatrix(self.spec, [sample_ids[i] for i in rows], features)


# What an encoder is fitted on: counts for tf-idf, token streams for embeddings.
Source = TokenCounts | list[list[str]]


def fit_rows(
    spec: EncodingSpec | None, source: Source, rows: np.ndarray, sample_ids: list[str]
) -> tuple[FittedEncoder, EncodedMatrix]:
    """Fit an encoder on ``rows`` of ``source`` and return it with their matrix.

    Tf-idf (``spec=None`` is plain tf-idf) is fitted on a ``TokenCounts`` by
    ``fit_tfidf`` and encodes the rows by ``transform_tfidf``. An embedding is
    trained on the rows' token streams; its training matrix holds the trained
    document vectors, and other rows are later inferred with frozen word
    vectors.
    """
    if spec is None or spec.method == "tfidf":
        encoder = FittedEncoder(spec=spec, tfidf=fit_tfidf(source, rows))
        return encoder, encoder.transform_rows(source, rows, sample_ids)
    encoder = FittedEncoder(
        spec=spec, embedding=train_embedding([source[i] for i in rows], spec.embedding_params)
    )
    vectors = encoder.embedding.doc_vectors.copy()
    return encoder, EncodedMatrix(
        spec=spec, sample_ids=[sample_ids[i] for i in rows], features=vectors
    )


# The base channels each content's tokens are made of. A combined content's
# stream is its parts' streams concatenated (math_opid interleaves them in
# element order), so its counts are the parts' counts summed.
_BASE_CHANNELS = {
    "text": ("text",),
    "math_op": ("math_op",),
    "math_id": ("math_id",),
    "math_opid": ("math_op", "math_id"),
    "math_surroundings": ("math_surroundings",),
    "textmath_opid": ("text", "math_op", "math_id"),
    "textmath_surroundings": ("text", "math_surroundings"),
}


class Channels:
    """The token channels of one corpus, built once and shared by the
    encodings of one run: the counts of the four base channels (text,
    ``op:``, ``id:`` and surroundings), which every tf-idf content sums,
    and the token streams of the contents that embedding rows read.

    ``specs`` are the encodings the run will fit; the streams of a base
    channel that an embedding row reads are kept and counted, so they are
    built once. A base channel whose build fails is built again when next
    asked for, so every row made from it fails alike.
    """

    def __init__(
        self,
        docs: list[Document],
        stopwords: frozenset[str] | set[str] | None = None,
        specs: Iterable[EncodingSpec] = (),
    ) -> None:
        self.docs = docs
        self.stopwords = stopwords
        self._embedded = {spec.content for spec in specs if spec.method == "embedding"}
        self._counts: dict[str, TokenCounts] = {}
        self._streams: dict[str, list[list[str]]] = {}

    def source(self, spec: EncodingSpec) -> Source:
        """What ``spec``'s encoder is fitted on, one row per document."""
        if spec.method == "embedding":
            return self.streams(spec.content)
        parts = [self._base_counts(base) for base in _BASE_CHANNELS[spec.content]]
        return parts[0] if len(parts) == 1 else merge_counts(parts)

    def streams(self, content: str) -> list[list[str]]:
        if content not in self._streams:
            self._streams[content] = [
                token_stream(d, content, stopwords=self.stopwords) for d in self.docs
            ]
        return self._streams[content]

    def _base_counts(self, base: str) -> TokenCounts:
        if base not in self._counts:
            if base in self._embedded:
                streams = self.streams(base)
            else:
                streams = (token_stream(d, base, stopwords=self.stopwords) for d in self.docs)
            self._counts[base] = count_streams(streams)
        return self._counts[base]


def fit_encoder(
    spec: EncodingSpec,
    docs: list[Document],
    stopwords: frozenset[str] | set[str] | None = None,
    channels: Channels | None = None,
) -> tuple[FittedEncoder, EncodedMatrix]:
    """Fit an encoder on all of ``docs``; see ``fit_rows``. ``channels`` (a
    ``Channels`` over the same ``docs``) shares counts and streams with the
    run's other encodings; by default they are built for this call."""
    if channels is None:
        channels = Channels(docs, stopwords)
    return fit_rows(spec, channels.source(spec), np.arange(len(docs)), [d.id for d in docs])
