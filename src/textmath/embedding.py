"""Distributed-memory paragraph vectors trained with negative sampling.

Each target token is predicted from the mean of its document's vector and
the word vectors in a symmetric context window. The window is shrunk per
position by a random amount (the classic reduced-window trick), and the
output layer is trained against `negative` noise words drawn from the
unigram distribution raised to 0.75.

All randomness flows from a single seeded generator, so training is
bit-reproducible. Held-out documents are encoded by gradient steps on a
fresh document vector with word and output weights frozen.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import EmptyVocabularyError, check_int

INFER_STEPS = 50
INFER_ALPHA = 0.025
_INFER_STREAM_KEY = 0x1DF3


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
        if self.initial_alpha <= 0:
            raise ValueError("initial_alpha must be positive")


@dataclass
class EmbeddingModel:
    params: EmbeddingParams
    vocabulary: dict[str, int]
    word_vectors: np.ndarray  # V x size, the input layer
    output_weights: np.ndarray  # V x size, the negative-sampling output layer
    doc_vectors: np.ndarray  # n_docs x size
    noise_cdf: np.ndarray  # cumulative unigram^0.75 table over vocab indices


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


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


def _draw_negatives(
    rng: np.random.Generator, noise_cdf: np.ndarray, target: int, negative: int
) -> list[int]:
    # Index 0 is always the true target (label 1), the rest noise (label 0).
    word_indices = [target]
    if len(noise_cdf) == 1:
        # Single-token vocabulary: no valid noise word exists.
        return word_indices
    while len(word_indices) < negative + 1:
        w = int(np.searchsorted(noise_cdf, rng.random(), side="right"))
        if w != target:
            word_indices.append(w)
    return word_indices


def _train_pair(
    model: EmbeddingModel,
    rng: np.random.Generator,
    labels: np.ndarray,
    doc_vec: np.ndarray,
    context: np.ndarray,
    target: int,
    alpha: float,
    learn_words: bool,
) -> np.ndarray:
    """One prediction step; returns the input-side error to apply."""
    l1 = (doc_vec + model.word_vectors[context].sum(axis=0)) / (1 + len(context))
    word_indices = _draw_negatives(rng, model.noise_cdf, target, model.params.negative)
    l2 = model.output_weights[word_indices]  # fancy indexing copies: pre-update weights
    f = _sigmoid(l2 @ l1)
    g = (labels[: len(word_indices)] - f) * alpha
    if learn_words:
        model.output_weights[word_indices] += np.outer(g, l1)
    return g @ l2


def _one_pass(
    model: EmbeddingModel,
    rng: np.random.Generator,
    streams_idx: list[np.ndarray],
    alpha: float,
) -> None:
    window = model.params.window
    labels = np.zeros(model.params.negative + 1)
    labels[0] = 1.0
    for d, stream in enumerate(streams_idx):
        doc_vec = model.doc_vectors[d]
        for pos in range(len(stream)):
            reduced = int(rng.integers(window))
            start = max(0, pos - window + reduced)
            end = pos + window + 1 - reduced
            context = np.concatenate([stream[start:pos], stream[pos + 1 : end]])
            neu1e = _train_pair(
                model, rng, labels, doc_vec, context, int(stream[pos]), alpha, learn_words=True
            )
            doc_vec += neu1e
            np.add.at(model.word_vectors, context, neu1e)


def train_embedding(streams: list[list[str]], params: EmbeddingParams) -> EmbeddingModel:
    """Train paragraph vectors over token streams; deterministic per seed."""
    model = init_model(streams, params)
    rng = np.random.default_rng([params.seed, 1])
    streams_idx = _index_streams(streams, model.vocabulary)
    for epoch in range(params.epochs):
        alpha = max(params.min_alpha, params.initial_alpha - epoch * params.alpha_decay_per_epoch)
        for _ in range(params.iters_per_epoch):
            _one_pass(model, rng, streams_idx, alpha)
    return model


def infer_doc_vector(
    model: EmbeddingModel, stream: list[str], steps: int = INFER_STEPS
) -> np.ndarray:
    """Encode an unseen document with word and output weights frozen."""
    params = model.params
    rng = np.random.default_rng([params.seed, _INFER_STREAM_KEY])
    doc_vec = (rng.random(params.size) - 0.5) / params.size
    idx = np.array([model.vocabulary[t] for t in stream if t in model.vocabulary], dtype=np.intp)
    if len(idx) == 0:
        return doc_vec
    labels = np.zeros(params.negative + 1)
    labels[0] = 1.0
    window = params.window
    for _ in range(steps):
        for pos in range(len(idx)):
            reduced = int(rng.integers(window))
            start = max(0, pos - window + reduced)
            end = pos + window + 1 - reduced
            context = np.concatenate([idx[start:pos], idx[pos + 1 : end]])
            doc_vec += _train_pair(
                model, rng, labels, doc_vec, context, int(idx[pos]), INFER_ALPHA, learn_words=False
            )
    return doc_vec


def negative_sampling_loss(
    model: EmbeddingModel, streams: list[list[str]], seed: int = 0
) -> float:
    """Mean negative-sampling objective over all (document, position) pairs.

    Noise draws come from a fresh generator, so two models sharing a
    vocabulary (e.g. before and after training) are scored against the
    identical sample of windows and negatives.
    """
    rng = np.random.default_rng([seed, 2])
    streams_idx = _index_streams(streams, model.vocabulary)
    window = model.params.window
    labels = np.zeros(model.params.negative + 1)
    labels[0] = 1.0
    total = 0.0
    n_pairs = 0
    for d, stream in enumerate(streams_idx):
        doc_vec = model.doc_vectors[d]
        for pos in range(len(stream)):
            reduced = int(rng.integers(window))
            start = max(0, pos - window + reduced)
            end = pos + window + 1 - reduced
            context = np.concatenate([stream[start:pos], stream[pos + 1 : end]])
            l1 = (doc_vec + model.word_vectors[context].sum(axis=0)) / (1 + len(context))
            word_indices = _draw_negatives(
                rng, model.noise_cdf, int(stream[pos]), model.params.negative
            )
            f = _sigmoid(model.output_weights[word_indices] @ l1)
            # -log sigma(s_pos) - sum log sigma(-s_neg), via label algebra
            p = np.where(labels[: len(word_indices)] > 0, f, 1.0 - f)
            total += -np.log(np.clip(p, 1e-12, None)).sum()
            n_pairs += 1
    if n_pairs == 0:
        return 0.0
    return total / n_pairs
