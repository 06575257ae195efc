"""Distributed-memory paragraph vectors trained with negative sampling.

Each target token is predicted from the mean of its document's vector and
the word vectors in a symmetric context window. The window is shrunk per
position by a random amount (the classic reduced-window trick), and the
output layer is trained against `negative` noise words drawn from the
unigram distribution raised to 0.75.

All randomness flows from a single seeded generator, so training is
bit-reproducible. The draws of one pass over a document (every position's
reduced window, and every position's noise words) are taken in one call
before the pass (`_draw_pass`); within the pass the updates stay sequential,
position by position. Held-out documents are encoded by gradient steps on a
fresh document vector with word and output weights frozen, so each context's
word sum comes from one prefix sum per document and each step scores every
context against its output rows at once; only the document-vector update
runs per position. Results at a given seed therefore differ from those of the
earlier per-position draws.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import EmptyVocabularyError, check_int, check_real

INFER_STEPS = 50
INFER_ALPHA = 0.025
_INFER_STREAM_KEY = 0x1DF3
# Inference scores this many positions' contexts at once, which bounds its
# scratch memory to _INFER_BLOCK x (1 + negative) x size floats.
_INFER_BLOCK = 1024


@dataclass(frozen=True)
class EmbeddingParams:
    size: int = 300
    window: int = 10
    min_count: int = 5
    initial_alpha: float = 0.025
    min_alpha: float = 0.025
    iters_per_epoch: int = 1
    epochs: int = 10
    alpha_decay_per_epoch: float = 0.002
    negative: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("size", "window", "min_count", "iters_per_epoch", "epochs"):
            check_int(f"EmbeddingParams.{name}", getattr(self, name), 1)
        for name in ("negative", "seed"):
            check_int(f"EmbeddingParams.{name}", getattr(self, name), 0)
        for name in ("initial_alpha", "min_alpha"):
            check_real(f"EmbeddingParams.{name}", getattr(self, name), "(0, inf)")
        check_real("EmbeddingParams.alpha_decay_per_epoch", self.alpha_decay_per_epoch, "[0, inf)")


@dataclass
class EmbeddingModel:
    params: EmbeddingParams
    vocabulary: dict[str, int]
    word_vectors: np.ndarray  # V x size, the input layer
    output_weights: np.ndarray  # V x size, the negative-sampling output layer
    doc_vectors: np.ndarray  # n_docs x size
    noise_cdf: np.ndarray  # cumulative unigram^0.75 table over vocab indices


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Only the low clip matters: above 37, 1 + exp(-x) already rounds to 1.
    return 1.0 / (1.0 + np.exp(-np.maximum(x, -60.0)))


def _index_streams(streams: list[list[str]], vocabulary: dict[str, int]) -> list[np.ndarray]:
    return [
        np.array([vocabulary[t] for t in s if t in vocabulary], dtype=np.intp) for s in streams
    ]


def init_model(streams: list[list[str]], params: EmbeddingParams) -> EmbeddingModel:
    """Build the vocabulary and randomly initialized weights, untrained."""
    if not streams:
        raise ValueError("streams must be non-empty")
    counts = Counter(t for s in streams for t in s)
    vocab_tokens = sorted(t for t, c in counts.items() if c >= params.min_count)
    if not vocab_tokens:
        raise EmptyVocabularyError(
            f"no token reaches min_count={params.min_count} over {len(streams)} streams"
        )
    vocabulary = {t: i for i, t in enumerate(vocab_tokens)}
    freq = np.array([counts[t] for t in vocab_tokens], dtype=np.float64) ** 0.75
    noise_cdf = np.cumsum(freq / freq.sum())
    noise_cdf[-1] = 1.0

    rng = np.random.default_rng(params.seed)
    v = len(vocabulary)
    word_vectors = (rng.random((v, params.size)) - 0.5) / params.size
    doc_vectors = (rng.random((len(streams), params.size)) - 0.5) / params.size
    return EmbeddingModel(
        params=params,
        vocabulary=vocabulary,
        word_vectors=word_vectors,
        output_weights=np.zeros((v, params.size)),
        doc_vectors=doc_vectors,
        noise_cdf=noise_cdf,
    )


def _draw_pass(
    rng: np.random.Generator, noise_cdf: np.ndarray, stream: np.ndarray, window: int,
    negative: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Every random draw of one pass over ``stream``: each position's window
    reduction (in ``[0, window)``) and its ``(1 + negative)`` output words.

    Column 0 of the word block is the position's target (label 1), the rest
    are noise words (label 0) drawn from ``noise_cdf``; a noise word equal to
    its row's target is drawn again. A one-word vocabulary has no noise word,
    so its block has the target column only.
    """
    reduced = rng.integers(window, size=len(stream))
    if len(noise_cdf) == 1:
        negative = 0
    words = np.empty((len(stream), 1 + negative), dtype=np.intp)
    words[:, 0] = stream
    noise = words[:, 1:]
    noise[...] = noise_cdf.searchsorted(rng.random(noise.shape), side="right")
    clash = noise == words[:, :1]
    while clash.any():
        noise[clash] = noise_cdf.searchsorted(rng.random(np.count_nonzero(clash)), side="right")
        clash = noise == words[:, :1]
    return reduced, words


def _window_bounds(reduced: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Each position's span ``[start, end)``: its reduced window, clipped to
    the document. The position itself lies inside and is not context."""
    pos = np.arange(len(reduced))
    half = window - reduced
    return np.maximum(pos - half, 0), np.minimum(pos + half + 1, len(reduced))


def _labels(n_words: int) -> np.ndarray:
    labels = np.zeros(n_words)
    labels[0] = 1.0
    return labels


def _train_doc(
    model: EmbeddingModel,
    doc_vec: np.ndarray,
    stream: np.ndarray,
    reduced: np.ndarray,
    words: np.ndarray,
    alpha: float,
) -> None:
    """One training pass over a document with pre-drawn ``reduced`` windows
    and ``words`` blocks (see ``_draw_pass``). Position by position: predict
    the target from the mean of ``doc_vec`` and the context's word vectors,
    step the output rows of the target and noise words, then apply the
    input-side error to ``doc_vec`` and to every context word."""
    start, end = _window_bounds(reduced, model.params.window)
    # Every context of the pass, concatenated: position p's span without p
    # itself is contexts[bounds[p]:bounds[p + 1]].
    span = end - start
    first = np.cumsum(span) - span  # where each span starts in the flat array
    flat = np.arange(span.sum()) + np.repeat(start - first, span)  # stream positions
    contexts = stream[flat[flat != np.repeat(np.arange(len(stream)), span)]]
    bounds = np.concatenate([[0], np.cumsum(span - 1)]).tolist()
    word_vectors = model.word_vectors
    output_weights = model.output_weights
    labels = _labels(words.shape[1])
    for w, lo, hi in zip(words, bounds, bounds[1:]):
        context = contexts[lo:hi]
        l1 = (doc_vec + np.add.reduce(word_vectors.take(context, axis=0))) / (1 + hi - lo)
        l2 = output_weights.take(w, axis=0)  # a copy: the pre-update weights
        g = (labels - _sigmoid(l2.dot(l1))) * alpha
        # A word drawn twice gets one step, as from `output_weights[w] += ...`.
        output_weights[w] = l2 + g[:, None] * l1
        neu1e = g.dot(l2)
        doc_vec += neu1e
        np.add.at(word_vectors, context, neu1e)


def _infer_pass(
    model: EmbeddingModel,
    doc_vec: np.ndarray,
    prefix: np.ndarray,
    reduced: np.ndarray,
    words: np.ndarray,
    alpha: float,
) -> None:
    """One inference pass over a document: ``_train_doc``'s step with word
    and output weights frozen, so only ``doc_vec`` changes.

    ``prefix`` holds the prefix sums of the document's word vectors, so a
    context's word sum ``ctx`` is two rows of it minus the target's vector.
    With ``l1 = (doc_vec + ctx) / span`` and ``m = l2 / span``, the score
    ``l2 @ l1`` is ``m @ doc_vec + m @ ctx``, and the update ``g @ l2`` is
    ``(g * span) @ m``. ``m @ ctx`` does not depend on ``doc_vec``, so it is
    taken for a block of positions at once.
    """
    start, end = _window_bounds(reduced, model.params.window)
    labels = _labels(words.shape[1])
    for lo in range(0, len(words), _INFER_BLOCK):
        block = words[lo : lo + _INFER_BLOCK]
        b_start, b_end = start[lo : lo + _INFER_BLOCK], end[lo : lo + _INFER_BLOCK]
        ctx = prefix[b_end] - prefix[b_start] - model.word_vectors[block[:, 0]]
        span = (b_end - b_start).astype(np.float64)
        ms = model.output_weights[block]
        ms /= span[:, None, None]
        scores = np.matmul(ms, ctx[:, :, None])[:, :, 0]
        for m, c, step in zip(ms, scores, (alpha * span).tolist()):
            doc_vec += ((labels - _sigmoid(m.dot(doc_vec) + c)) * step).dot(m)


def train_embedding(streams: list[list[str]], params: EmbeddingParams) -> EmbeddingModel:
    """Train paragraph vectors over token streams; deterministic per seed."""
    model = init_model(streams, params)
    rng = np.random.default_rng([params.seed, 1])
    streams_idx = _index_streams(streams, model.vocabulary)
    for epoch in range(params.epochs):
        alpha = max(params.min_alpha, params.initial_alpha - epoch * params.alpha_decay_per_epoch)
        for _ in range(params.iters_per_epoch):
            for d, stream in enumerate(streams_idx):
                reduced, words = _draw_pass(
                    rng, model.noise_cdf, stream, params.window, params.negative
                )
                _train_doc(model, model.doc_vectors[d], stream, reduced, words, alpha)
    return model


def infer_doc_vector(
    model: EmbeddingModel, stream: list[str], steps: int = INFER_STEPS
) -> np.ndarray:
    """Encode an unseen document with word and output weights frozen."""
    params = model.params
    rng = np.random.default_rng([params.seed, _INFER_STREAM_KEY])
    doc_vec = (rng.random(params.size) - 0.5) / params.size
    idx = _index_streams([stream], model.vocabulary)[0]
    if len(idx) == 0:
        return doc_vec
    prefix = np.zeros((len(idx) + 1, params.size))
    np.cumsum(model.word_vectors[idx], axis=0, out=prefix[1:])
    for _ in range(steps):
        reduced, words = _draw_pass(rng, model.noise_cdf, idx, params.window, params.negative)
        _infer_pass(model, doc_vec, prefix, reduced, words, INFER_ALPHA)
    return doc_vec
