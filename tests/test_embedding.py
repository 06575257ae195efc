"""Paragraph-vector training, inference, and the negative-sampling loss."""
import numpy as np
import pytest

from textmath import EmptyVocabularyError
from textmath.embedding import (
    EmbeddingParams,
    infer_doc_vector,
    init_model,
    negative_sampling_loss,
    train_embedding,
)

FIXTURE_PARAMS = EmbeddingParams(size=32, window=4, min_count=1, epochs=10, seed=1)


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
