"""Distributed-memory paragraph vectors trained with negative sampling.

Each target token is predicted from the mean of its document's vector and
the word vectors in a symmetric context window. The window is shrunk per
position by a random amount (the classic reduced-window trick), and the
output layer is trained against `negative` noise words drawn from the
unigram distribution raised to 0.75.

All randomness flows from a single seeded generator, so training is
bit-reproducible. The draws of one pass over a document (every position's
reduced window, and every position's noise words) are taken in one call
(`_draw_pass`), document by document. Training then runs all documents in
lockstep: at step t, every document longer than t updates its position t,
reading the word and output weights as they stood before the step. Each
document vector takes its own update; the output-row and word-vector updates
are summed per word and applied after the step, so a noise word drawn twice
at one position takes one step per draw, as in word2vec. The reference
Doc2Vec trainer updates shared weights from several threads without locks
(Hogwild!), so its order is not sequential either; the lockstep order is a
reproducible form of that scheme. Results at a given seed differ from
versions before this change, which updated one position at a time.

Held-out documents are encoded by gradient steps on a fresh document vector
with word and output weights frozen, so each context's word sum comes from
one prefix sum per document and each step scores every context against its
output rows at once; only the document-vector update runs per position.
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


def _infer_pass(
    model: EmbeddingModel,
    doc_vec: np.ndarray,
    prefix: np.ndarray,
    reduced: np.ndarray,
    words: np.ndarray,
    alpha: float,
) -> None:
    """One inference pass over a document, position by position: the
    training step with word and output weights frozen, so only ``doc_vec``
    changes.

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


class _Lockstep:
    """The fixed layout of lockstep training over a corpus.

    Documents are taken longest first (a stable sort, so ties keep document
    order); at step t the documents longer than t, a prefix of that order,
    each take their position t. A pass's per-position arrays are kept in
    step-major order, so step t's rows are ``rows[t]:rows[t + 1]``. Context
    words index a word buffer with one extra all-zero row, ``pad``, which
    stands for every slot outside a reduced window or a document.
    """

    def __init__(self, streams_idx: list[np.ndarray], window: int, pad: int) -> None:
        lengths = np.array([len(s) for s in streams_idx], dtype=np.intp)
        self.order = np.argsort(-lengths, kind="stable")
        doc_of = np.repeat(np.arange(len(lengths)), lengths)
        step_of = np.arange(len(doc_of)) - (np.cumsum(lengths) - lengths)[doc_of]
        rank = np.empty_like(self.order)
        rank[self.order] = np.arange(len(lengths))
        # Corpus positions in step-major order: by step, then by rank.
        self.perm = np.lexsort((rank[doc_of], step_of))
        self.step = step_of[self.perm]
        # Each active document has one position at a step.
        active = np.bincount(step_of)
        self.active = active.tolist()
        self.rows = [0, *np.cumsum(active).tolist()]
        # Every document between `window` pad slots, so a context slot up to
        # `window` away from a position never leaves the padded stream.
        self.padded = np.full(len(doc_of) + window * (len(lengths) + 1), pad, dtype=np.int32)
        where = (np.arange(len(doc_of)) + window * (doc_of + 1)).astype(np.int32)
        self.padded[where] = np.concatenate(streams_idx)
        self.where = where[self.perm]
        self.slots = np.r_[-window:0, 1 : window + 1].astype(np.int32)
        self.window = window
        self.pad = pad

    def contexts(self, reduced: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each step-major position's (2 * window) context words, padded with
        ``pad`` outside its ``reduced`` window, and its span: 1 plus its
        count of real context words, the divisor of its mean."""
        context = self.padded[self.where[:, None] + self.slots]
        context[np.abs(self.slots) > (self.window - reduced)[:, None]] = self.pad
        return context, 1.0 + np.count_nonzero(context != self.pad, axis=1)

    def groups(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
        """How to sum a row per entry of a step-major word block, per step and
        word, from one stable sort of the entries by (step, word).

        Returns ``(source, starts, words, bounds)``. With ``k`` entries per
        position, step t owns entries ``k * rows[t]:k * rows[t + 1]`` of the
        flat block, and ``source`` over that range lists them sorted, as
        offsets into the step's own ``(n, k)`` block. The runs of one word
        among them start at ``starts[bounds[t]:bounds[t + 1]]``, offsets into
        the same range, and hold ``words[bounds[t]:bounds[t + 1]]``.
        """
        k, width = block.shape[1], self.pad + 1
        first = np.repeat(np.multiply(self.rows[:-1], k), np.multiply(self.active, k))
        keys = (self.step[:, None] * width + block).ravel()
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        bounds = np.searchsorted(starts, np.multiply(self.rows, k))
        return order - first, starts - first[starts], keys[starts] % width, bounds.tolist()


def _train_pass(
    model: EmbeddingModel,
    lockstep: _Lockstep,
    word_buf: np.ndarray,
    doc_buf: np.ndarray,
    draws: list[tuple[np.ndarray, np.ndarray]],
    alpha: float,
) -> None:
    """One lockstep training pass with every document's pre-drawn
    ``(reduced, words)`` (see ``_draw_pass``), in document order.

    At each step, every active document predicts its target from the mean of
    its vector and its context's word vectors, and scores its target and
    noise words, all from the weights as they stood before the step. Each
    document vector takes its own update at once; the output-row and
    word-vector updates are summed per word and applied after the step, so a
    word drawn twice at one position takes one step per draw.
    ``word_buf`` is the word vectors with the pad row appended, and
    ``doc_buf`` the document vectors in ``lockstep.order``.
    """
    perm = lockstep.perm
    reduced = np.concatenate([r for r, _ in draws])[perm]
    words = np.concatenate([w for _, w in draws])[perm]
    contexts, spans = lockstep.contexts(reduced)
    out_source, out_starts, out_rows, out_bounds = lockstep.groups(words)
    in_source, in_starts, in_rows, in_bounds = lockstep.groups(contexts)
    out_pos = out_source // words.shape[1]
    in_pos = in_source // contexts.shape[1]
    output_weights = model.output_weights
    labels = _labels(words.shape[1])
    n_words, n_slots = words.shape[1], contexts.shape[1]
    rows = lockstep.rows
    for t, n in enumerate(lockstep.active):
        lo, hi = rows[t], rows[t + 1]
        context, w = contexts[lo:hi], words[lo:hi]
        l1 = doc_buf[:n] + np.add.reduce(word_buf[context], axis=1)
        l1 /= spans[lo:hi, None]
        l2 = output_weights[w]
        g = (labels - _sigmoid(np.einsum("nkd,nd->nk", l2, l1))) * alpha
        neu1e = np.einsum("nk,nkd->nd", g, l2)
        doc_buf[:n] += neu1e
        a, b = lo * n_words, hi * n_words
        sums = np.add.reduceat(
            g.ravel()[out_source[a:b], None] * l1[out_pos[a:b]],
            out_starts[out_bounds[t] : out_bounds[t + 1]],
        )
        output_weights[out_rows[out_bounds[t] : out_bounds[t + 1]]] += sums
        a, b = lo * n_slots, hi * n_slots
        sums = np.add.reduceat(neu1e[in_pos[a:b]], in_starts[in_bounds[t] : in_bounds[t + 1]])
        word_buf[in_rows[in_bounds[t] : in_bounds[t + 1]]] += sums
        word_buf[lockstep.pad] = 0.0  # the pad row's sum is discarded


def train_embedding(streams: list[list[str]], params: EmbeddingParams) -> EmbeddingModel:
    """Train paragraph vectors over token streams; deterministic per seed.

    Each pass draws every document's windows and noise words in document
    order, then trains all documents in lockstep (see ``_train_pass``).
    """
    model = init_model(streams, params)
    rng = np.random.default_rng([params.seed, 1])
    streams_idx = _index_streams(streams, model.vocabulary)
    v = len(model.vocabulary)
    lockstep = _Lockstep(streams_idx, params.window, pad=v)
    word_buf = np.zeros((v + 1, params.size))
    word_buf[:v] = model.word_vectors
    doc_buf = model.doc_vectors[lockstep.order]
    for epoch in range(params.epochs):
        alpha = max(params.min_alpha, params.initial_alpha - epoch * params.alpha_decay_per_epoch)
        for _ in range(params.iters_per_epoch):
            draws = [
                _draw_pass(rng, model.noise_cdf, stream, params.window, params.negative)
                for stream in streams_idx
            ]
            _train_pass(model, lockstep, word_buf, doc_buf, draws, alpha)
    model.word_vectors[...] = word_buf[:v]
    model.doc_vectors[lockstep.order] = doc_buf
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
