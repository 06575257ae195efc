"""Paragraph-vector training, inference, and the negative-sampling loss."""
import dataclasses
import math

import numpy as np
import pytest

from textmath import EmptyVocabularyError
from textmath.embedding import (
    _INFER_STREAM_KEY,
    INFER_ALPHA,
    EmbeddingParams,
    _draw_pass,
    _index_streams,
    _sigmoid,
    infer_doc_vector,
    init_model,
    train_embedding,
)

FIXTURE_PARAMS = EmbeddingParams(size=32, window=4, min_count=1, epochs=10, seed=1)


def negative_sampling_loss(model, streams, seed=0):
    """Mean negative-sampling objective over all (document, position) pairs:
    the loss oracle, with one scalar draw per window and per noise word.

    Noise draws come from a fresh generator, so two models sharing a
    vocabulary (e.g. before and after training) are scored against the
    identical sample of windows and negatives.
    """
    rng = np.random.default_rng([seed, 2])
    streams_idx = _index_streams(streams, model.vocabulary)
    window = model.params.window
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
            target = int(stream[pos])
            word_indices = [target]
            while len(model.noise_cdf) > 1 and len(word_indices) < model.params.negative + 1:
                w = int(np.searchsorted(model.noise_cdf, rng.random(), side="right"))
                if w != target:
                    word_indices.append(w)
            f = _sigmoid(model.output_weights[word_indices] @ l1)
            # -log sigma(s_pos) - sum log sigma(-s_neg)
            p = np.concatenate([f[:1], 1.0 - f[1:]])
            total += -np.log(np.clip(p, 1e-12, None)).sum()
            n_pairs += 1
    if n_pairs == 0:
        return 0.0
    return total / n_pairs


def reference_step(
    model, doc_vec, stream, pos, reduced, word_indices, alpha, learn_words, deltas=None
):
    """Le & Mikolov's step at one position, written out literally: a freshly
    concatenated context, a fresh l1, the output rows read as they stand.
    Updates ``doc_vec``; if ``learn_words``, adds the output-row and
    word-vector updates, one per draw, into ``deltas`` (output, words), which
    the caller applies after the step."""
    half = model.params.window - reduced
    context = np.concatenate([stream[max(0, pos - half) : pos], stream[pos + 1 : pos + half + 1]])
    l1 = (doc_vec + model.word_vectors[context].sum(axis=0)) / (1 + len(context))
    l2 = model.output_weights[word_indices]
    labels = np.zeros(len(word_indices))
    labels[0] = 1.0
    g = (labels - 1.0 / (1.0 + np.exp(-np.clip(l2 @ l1, -60.0, 60.0)))) * alpha
    neu1e = g @ l2
    if learn_words:
        output_delta, word_delta = deltas
        np.add.at(output_delta, word_indices, np.outer(g, l1))
        np.add.at(word_delta, context, neu1e)
    doc_vec += neu1e


def reference_train(streams, params):
    """``train_embedding`` as a literal lockstep loop, fed the draws of
    ``_draw_pass`` from the same generator in the same order: at step t,
    every document longer than t takes the reference step at position t, in
    document order, reading the weights as they stood before the step."""
    model = init_model(streams, params)
    rng = np.random.default_rng([params.seed, 1])
    streams_idx = _index_streams(streams, model.vocabulary)
    for epoch in range(params.epochs):
        alpha = max(params.min_alpha, params.initial_alpha - epoch * params.alpha_decay_per_epoch)
        for _ in range(params.iters_per_epoch):
            draws = [
                _draw_pass(rng, model.noise_cdf, stream, params.window, params.negative)
                for stream in streams_idx
            ]
            for pos in range(max(len(stream) for stream in streams_idx)):
                deltas = (np.zeros_like(model.output_weights), np.zeros_like(model.word_vectors))
                for d, (stream, (reduced, words)) in enumerate(zip(streams_idx, draws)):
                    if pos < len(stream):
                        reference_step(
                            model, model.doc_vectors[d], stream, pos, int(reduced[pos]),
                            words[pos], alpha, learn_words=True, deltas=deltas,
                        )
                model.output_weights += deltas[0]
                model.word_vectors += deltas[1]
    return model


def reference_infer(model, stream, steps):
    """``infer_doc_vector`` with the per-position reference step."""
    params = model.params
    rng = np.random.default_rng([params.seed, _INFER_STREAM_KEY])
    doc_vec = (rng.random(params.size) - 0.5) / params.size
    idx = _index_streams([stream], model.vocabulary)[0]
    for _ in range(steps if len(idx) else 0):
        reduced, words = _draw_pass(rng, model.noise_cdf, idx, params.window, params.negative)
        for pos in range(len(idx)):
            reference_step(
                model, doc_vec, idx, pos, int(reduced[pos]), words[pos], INFER_ALPHA,
                learn_words=False,
            )
    return doc_vec


def _cosine(u, v):
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


def two_class_streams(n_docs=20, doc_len=60, vocab=50, seed=7):
    """Two classes with fully disjoint vocabularies; labels by construction."""
    rng = np.random.default_rng(seed)
    streams, labels = [], []
    for cls in range(2):
        words = [f"c{cls}w{i:02d}" for i in range(vocab)]
        for _ in range(n_docs):
            streams.append(list(rng.choice(words, size=doc_len)))
            labels.append(cls)
    return streams, labels


@pytest.fixture(scope="module")
def trained_fixture():
    streams, labels = two_class_streams()
    model = train_embedding(streams, FIXTURE_PARAMS)
    return streams, labels, model


class TestParams:
    def test_defaults(self):
        p = EmbeddingParams()
        assert (p.size, p.window, p.min_count) == (300, 10, 5)
        assert (p.initial_alpha, p.min_alpha) == (0.025, 0.025)
        assert (p.epochs, p.alpha_decay_per_epoch, p.negative) == (10, 0.002, 5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"size": 0},
            {"window": 0},
            {"min_count": 0},
            {"initial_alpha": 0.0},
            {"epochs": 0},
            {"size": 2.5},
            {"window": 1.5},
            {"epochs": 2.0},
            {"seed": "x"},
            {"seed": -1},
            {"negative": -1},
            {"min_count": True},
            {"iters_per_epoch": "1"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EmbeddingParams(**kwargs)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("initial_alpha", math.nan),
            ("initial_alpha", math.inf),
            ("initial_alpha", -0.1),
            ("min_alpha", math.nan),
            ("min_alpha", -1.0),
            ("min_alpha", 0.0),
            ("alpha_decay_per_epoch", -5.0),
            ("alpha_decay_per_epoch", math.inf),
            ("alpha_decay_per_epoch", math.nan),
        ],
    )
    def test_bad_float_fields_name_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"EmbeddingParams.{field} must be a finite number"):
            EmbeddingParams(**{field: value})

    @pytest.mark.parametrize("field", ["initial_alpha", "min_alpha", "alpha_decay_per_epoch"])
    @pytest.mark.parametrize("value", ["0.1", True, None])
    def test_non_number_float_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"EmbeddingParams.{field} must be a number"):
            EmbeddingParams(**{field: value})

    def test_float_boundaries_accepted(self):
        params = EmbeddingParams(
            initial_alpha=1, min_alpha=np.float64(1e-9), alpha_decay_per_epoch=0
        )
        assert (params.initial_alpha, params.alpha_decay_per_epoch) == (1, 0)

    def test_integer_boundaries_accepted(self):
        params = EmbeddingParams(size=1, window=1, min_count=1, epochs=1, negative=0, seed=0)
        assert (params.negative, params.seed) == (0, 0)
        assert EmbeddingParams(size=np.int64(8)).size == 8


class TestTraining:
    def test_deterministic(self):
        streams, _ = two_class_streams(n_docs=4, doc_len=20)
        params = EmbeddingParams(size=16, min_count=1, epochs=3, seed=5)
        a = train_embedding(streams, params)
        b = train_embedding(streams, params)
        np.testing.assert_array_equal(a.doc_vectors, b.doc_vectors)
        np.testing.assert_array_equal(a.word_vectors, b.word_vectors)

    def test_min_count_threshold(self):
        streams = [["rare"] * 4 + ["common"] * 5]
        model = train_embedding(streams, EmbeddingParams(size=8, min_count=5, epochs=1, seed=0))
        assert "rare" not in model.vocabulary
        assert "common" in model.vocabulary

    def test_empty_vocabulary_error(self):
        with pytest.raises(EmptyVocabularyError):
            train_embedding([["once"]], EmbeddingParams(size=8, min_count=2, epochs=1, seed=0))

    def test_doc_vector_per_stream(self):
        streams, _ = two_class_streams(n_docs=3, doc_len=10)
        model = train_embedding(streams, EmbeddingParams(size=8, min_count=1, epochs=1, seed=0))
        assert model.doc_vectors.shape == (len(streams), 8)

    def test_disjoint_vocab_classes_separate(self, trained_fixture):
        streams, labels, model = trained_fixture
        vecs = model.doc_vectors
        intra, inter = [], []
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                sim = _cosine(vecs[i], vecs[j])
                (intra if labels[i] == labels[j] else inter).append(sim)
        assert np.mean(intra) > np.mean(inter)

    def test_loss_decreases(self, trained_fixture):
        streams, _, model = trained_fixture
        start = negative_sampling_loss(init_model(streams, FIXTURE_PARAMS), streams)
        end = negative_sampling_loss(model, streams)
        assert end < start

    def test_loss_decreases_small_fixture(self):
        streams = [["alpha", "beta", "gamma", "alpha", "beta"] * 4 for _ in range(3)]
        params = EmbeddingParams(size=8, window=2, min_count=1, epochs=5, seed=2)
        start = negative_sampling_loss(init_model(streams, params), streams)
        end = negative_sampling_loss(train_embedding(streams, params), streams)
        assert end < start


class TestInference:
    def test_empty_stream_finite(self, trained_fixture):
        _, _, model = trained_fixture
        v = infer_doc_vector(model, [])
        assert v.shape == (FIXTURE_PARAMS.size,)
        assert np.all(np.isfinite(v))

    def test_unknown_tokens_finite(self, trained_fixture):
        _, _, model = trained_fixture
        v = infer_doc_vector(model, ["neverseen", "alsonew"])
        assert np.all(np.isfinite(v))

    def test_deterministic(self, trained_fixture):
        streams, _, model = trained_fixture
        a = infer_doc_vector(model, streams[0])
        b = infer_doc_vector(model, streams[0])
        np.testing.assert_array_equal(a, b)

    def test_inferred_vector_prefers_own_document(self, trained_fixture):
        streams, labels, model = trained_fixture
        inferred = infer_doc_vector(model, streams[0])
        own = _cosine(inferred, model.doc_vectors[0])
        other_class = [
            _cosine(inferred, model.doc_vectors[j])
            for j in range(len(streams))
            if labels[j] != labels[0]
        ]
        # Same-class docs share a vocabulary and crowd together, so the
        # contract is against docs that differ, not the near-duplicates.
        assert own > max(other_class)
        assert own > 0.5

    def test_inference_does_not_mutate_model(self, trained_fixture):
        streams, _, model = trained_fixture
        words_before = model.word_vectors.copy()
        docs_before = model.doc_vectors.copy()
        infer_doc_vector(model, streams[1])
        np.testing.assert_array_equal(model.word_vectors, words_before)
        np.testing.assert_array_equal(model.doc_vectors, docs_before)


def _noise_table(counts):
    freq = np.asarray(counts, dtype=np.float64) ** 0.75
    cdf = np.cumsum(freq / freq.sum())
    cdf[-1] = 1.0
    return freq / freq.sum(), cdf


class TestDrawPass:
    def test_block_shape_and_targets(self):
        _, cdf = _noise_table([5, 3, 2, 1])
        stream = np.array([0, 3, 1, 1, 2, 0, 3], dtype=np.intp)
        reduced, words = _draw_pass(np.random.default_rng(0), cdf, stream, 4, 5)
        assert reduced.shape == (7,)
        assert reduced.min() >= 0 and reduced.max() < 4
        assert words.shape == (7, 6)
        np.testing.assert_array_equal(words[:, 0], stream)
        assert not (words[:, 1:] == stream[:, None]).any()
        assert words.min() >= 0 and words.max() < 4

    def test_no_noise_word_without_a_second_word_or_negatives(self):
        stream = np.zeros(5, dtype=np.intp)
        _, words = _draw_pass(np.random.default_rng(0), np.array([1.0]), stream, 3, 5)
        np.testing.assert_array_equal(words, stream[:, None])
        _, cdf = _noise_table([2, 2])
        _, words = _draw_pass(np.random.default_rng(0), cdf, stream, 3, 0)
        np.testing.assert_array_equal(words, stream[:, None])

    def test_same_seed_same_draws(self):
        _, cdf = _noise_table([4, 4, 1, 9, 2])
        stream = np.arange(5, dtype=np.intp).repeat(4)
        a = _draw_pass(np.random.default_rng(3), cdf, stream, 5, 4)
        b = _draw_pass(np.random.default_rng(3), cdf, stream, 5, 4)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("target", [0, 3])
    def test_noise_follows_unigram_power_without_the_target(self, target):
        # 20,000 positions x 5 noise words = 10^5 draws of a fixed target's noise.
        unigram, cdf = _noise_table([40, 1, 7, 20, 3, 12])
        n_rows, negative = 20_000, 5
        stream = np.full(n_rows, target, dtype=np.intp)
        _, words = _draw_pass(np.random.default_rng(11), cdf, stream, 2, negative)
        freq = np.bincount(words[:, 1:].ravel(), minlength=len(unigram)) / (n_rows * negative)
        want = unigram.copy()
        want[target] = 0.0
        want /= want.sum()
        n = n_rows * negative
        # Band: 5 binomial standard deviations per word.
        band = 5.0 * np.sqrt(want * (1.0 - want) / n)
        assert freq[target] == 0.0
        assert np.all(np.abs(freq - want) <= band), (freq, want, band)


KERNEL_CASES = {
    # window wider than every document
    "wide_window": (
        [["a", "b", "c", "a"], ["c", "c", "b"], ["b", "a", "c", "b", "a"]],
        EmbeddingParams(size=6, window=9, min_count=1, epochs=2, seed=3),
    ),
    "one_token_documents": (
        [["a"], ["b", "a", "c", "a", "b", "c"], ["c"]],
        EmbeddingParams(size=5, window=2, min_count=1, epochs=2, seed=4),
    ),
    "one_word_vocabulary": (
        [["x", "x", "x"], ["x", "x"]],
        EmbeddingParams(size=4, window=2, min_count=1, epochs=2, seed=5),
    ),
    "no_negatives": (
        [["a", "b", "c", "d", "a", "b"], ["d", "c", "b", "a"]],
        EmbeddingParams(size=4, window=3, min_count=1, epochs=2, negative=0, seed=6),
    ),
    "decaying_alpha": (
        [["a", "b", "c", "d", "e", "a", "b", "c"] * 3, ["e", "d", "c", "b", "a"] * 4],
        EmbeddingParams(
            size=8, window=3, min_count=1, epochs=3, initial_alpha=0.1, min_alpha=0.01,
            alpha_decay_per_epoch=0.04, negative=3, seed=7,
        ),
    ),
    # documents of unequal length share words, so one step sums several
    # documents' updates into the same rows; two passes per epoch
    "shared_words_unequal_lengths": (
        [["a", "b", "c", "a", "b", "d", "c"], ["b", "a"], ["c", "b", "a", "a"], ["d", "a", "b"]],
        EmbeddingParams(
            size=6, window=2, min_count=1, iters_per_epoch=2, epochs=3, negative=4, seed=8
        ),
    ),
    # the second document's tokens all fall below min_count
    "document_below_min_count": (
        [["a", "b", "c", "a", "b", "c"], ["y", "z"], ["c", "a", "b", "b"]],
        EmbeddingParams(size=5, window=2, min_count=2, epochs=2, negative=2, seed=9),
    ),
}


class TestKernelMatchesReference:
    """The vectorised kernels against literal loops fed the same pre-drawn
    windows and word blocks: training against the lockstep loop, inference
    against the per-position loop."""

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_one_training_pass(self, case):
        streams, params = KERNEL_CASES[case]
        params = dataclasses.replace(params, epochs=1)
        got = train_embedding(streams, params)
        want = reference_train(streams, params)
        for name in ("word_vectors", "output_weights", "doc_vectors"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=0, atol=1e-12)
        assert np.any(got.output_weights != 0)

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_training_epochs(self, case):
        streams, params = KERNEL_CASES[case]
        got = train_embedding(streams, params)
        want = reference_train(streams, params)
        for name in ("word_vectors", "output_weights", "doc_vectors"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=0, atol=1e-12)

    def test_document_below_min_count_keeps_its_initial_vector(self):
        streams, params = KERNEL_CASES["document_below_min_count"]
        model = train_embedding(streams, params)
        assert "y" not in model.vocabulary and "z" not in model.vocabulary
        initial = init_model(streams, params).doc_vectors
        np.testing.assert_array_equal(model.doc_vectors[1], initial[1])
        assert np.all(model.doc_vectors[[0, 2]] != initial[[0, 2]])

    def test_noise_word_drawn_twice_takes_one_step_per_draw(self, monkeypatch):
        import textmath.embedding as embedding

        # One-token documents, so one step: the output rows start at zero and
        # each position's l1 is its document's initial vector.
        streams = [["a"], ["b"], ["c"]]
        params = EmbeddingParams(size=4, window=2, min_count=1, epochs=1, negative=2, seed=3)
        blocks = iter([[[0, 2, 2]], [[1, 0, 0]], [[2, 0, 1]]])
        monkeypatch.setattr(
            embedding,
            "_draw_pass",
            lambda rng, cdf, stream, window, negative: (
                np.zeros(len(stream), dtype=np.intp), np.array(next(blocks), dtype=np.intp)
            ),
        )
        model = train_embedding(streams, params)
        doc = init_model(streams, params).doc_vectors
        step = params.initial_alpha * 0.5  # |label - sigmoid(0)| * alpha
        # Word 2 is drawn twice as noise at document 0's position, and is
        # document 2's target.
        want = -2 * step * doc[0] + step * doc[2]
        np.testing.assert_allclose(model.output_weights[2], want, rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            model.output_weights[0], step * doc[0] - 2 * step * doc[1] - step * doc[2],
            rtol=0, atol=1e-15,
        )

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_one_inference_run(self, case):
        streams, params = KERNEL_CASES[case]
        model = train_embedding(streams, params)
        weights = (model.word_vectors.copy(), model.output_weights.copy())
        for stream in [*streams, ["a", "zz", "b", "c", "a"], ["x"]]:
            got = infer_doc_vector(model, stream, steps=7)
            want = reference_infer(model, stream, steps=7)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(model.word_vectors, weights[0])
        np.testing.assert_array_equal(model.output_weights, weights[1])

    def test_long_document_crosses_inference_blocks(self, monkeypatch):
        import textmath.embedding as embedding

        streams, params = KERNEL_CASES["decaying_alpha"]
        model = train_embedding(streams, params)
        monkeypatch.setattr(embedding, "_INFER_BLOCK", 5)
        stream = streams[0] + streams[1]
        got = infer_doc_vector(model, stream, steps=3)
        want = reference_infer(model, stream, steps=3)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
