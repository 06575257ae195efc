"""Token streams, tf-idf, PCA, and the fitted-encoder facade."""
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textmath import (
    AllBagsEmptyError,
    DegenerateInputError,
    EncodedMatrix,
    EncodingSpec,
    clean_text,
    count_streams,
    fit_encoder,
    fit_pca,
    fit_tfidf,
    parse_encoding_name,
    pca_reduce,
    token_stream,
    transform_tfidf,
)
from textmath.embedding import EmbeddingParams, train_embedding
from textmath.encode import FittedEncoder, fit_rows
from tests.conftest import (
    formula,
    make_doc,
    make_matrix,
    stream_fit_tfidf,
    stream_transform_tfidf,
)


def tfidf_over(bags):
    """``fit_tfidf`` on every row of the bags' counts."""
    return fit_tfidf(count_streams(bags), np.arange(len(bags)))


def encode_bags(model, bags):
    """``transform_tfidf`` of every row of the bags' counts."""
    ids = [str(i) for i in range(len(bags))]
    return transform_tfidf(model, count_streams(bags), np.arange(len(bags)), ids)


def naive_tfidf(fit_bags, bags):
    """Independent tf-idf reference: plain loops over sorted vocabulary.

    Row normalization delegates to the same norm primitive the real code
    uses; two different summation orders differ in the last ulp, which would
    make a bitwise comparison meaningless.
    """
    vocab = sorted({t for bag in fit_bags for t in bag})
    n = len(fit_bags)
    idf = {}
    for t in vocab:
        df = sum(1 for b in fit_bags if t in b)
        idf[t] = math.log((1 + n) / (1 + df)) + 1.0
    mat = np.array([[bag.count(t) * idf[t] for t in vocab] for bag in bags], dtype=np.float64)
    norms = np.linalg.norm(mat, axis=1)
    nz = norms > 0
    mat[nz] /= norms[nz, None]
    return mat


class TestEncodingSpec:
    def test_names(self):
        spec = EncodingSpec("math_opid", "tfidf")
        assert spec.name == "math_opid_tfidf"

    def test_parse_round_trip(self):
        for content in ("text", "math_op", "math_id", "math_opid", "textmath_opid"):
            for method in ("tfidf", "embedding"):
                spec = EncodingSpec(content, method)
                assert parse_encoding_name(spec.name) == spec

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            parse_encoding_name("bogus_tfidf")
        with pytest.raises(ValueError):
            EncodingSpec("text", "bogus")

    def test_embedding_params_autofilled(self):
        spec = EncodingSpec("text", "embedding")
        assert spec.embedding_params == EmbeddingParams()


class TestTokenStream:
    def test_math_opid_interleaves(self):
        doc = make_doc(formulas=[formula(["="], ["x", "y"], order="ioi")])
        assert token_stream(doc, "math_opid") == ["id:x", "op:=", "id:y"]

    def test_math_op_empty_without_formulas(self):
        assert token_stream(make_doc(), "math_op") == []

    def test_combined_is_concatenation(self):
        doc = make_doc(
            text_tokens=["alpha", "beta"],
            formulas=[formula(["+"], ["z"], order="io")],
        )
        assert token_stream(doc, "textmath_opid") == token_stream(doc, "text") + token_stream(
            doc, "math_opid"
        )

    def test_channels_disjoint_prefixes(self):
        doc = make_doc(
            text_tokens=["alpha"],
            formulas=[formula(["+", "-"], ["x"], order="oio")],
        )
        assert token_stream(doc, "math_op") == ["op:+", "op:-"]
        assert token_stream(doc, "math_id") == ["id:x"]

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=80))
    def test_namespace_never_collides_with_cleaned_text(self, raw):
        for tok in clean_text(raw, frozenset()):
            assert not tok.startswith("op:")
            assert not tok.startswith("id:")


class TestTfidf:
    def test_idf_fixture(self):
        model = tfidf_over([["alpha", "beta", "alpha"], ["alpha", "gamma"]])
        by_name = {t: model.idf[c] for t, c in model.vocabulary.items()}
        assert by_name["alpha"] == pytest.approx(1.0, abs=1e-12)
        assert by_name["beta"] == pytest.approx(math.log(1.5) + 1, abs=1e-12)
        assert by_name["gamma"] == pytest.approx(math.log(1.5) + 1, abs=1e-12)

    def test_single_bag_idf_one(self):
        model = tfidf_over([["alpha", "beta"]])
        np.testing.assert_allclose(model.idf, 1.0, atol=1e-12)

    def test_everywhere_token_idf_one(self):
        model = tfidf_over([["alpha", "x"], ["alpha", "y"], ["alpha", "z"]])
        assert model.idf[model.vocabulary["alpha"]] == pytest.approx(1.0, abs=1e-12)

    def test_transform_fixture(self):
        model = tfidf_over([["alpha", "beta", "alpha"], ["alpha", "gamma"]])
        m = encode_bags(model, [["alpha", "beta", "alpha"]])
        row = {t: m.features[0, c] for t, c in model.vocabulary.items()}
        unnorm_alpha = 2.0
        unnorm_beta = math.log(1.5) + 1
        norm = math.hypot(unnorm_alpha, unnorm_beta)
        assert row["alpha"] == pytest.approx(unnorm_alpha / norm, abs=1e-12)
        assert row["beta"] == pytest.approx(unnorm_beta / norm, abs=1e-12)
        assert row["gamma"] == 0.0

    def test_empty_bag_zero_row(self):
        model = tfidf_over([["alpha"], ["beta"]])
        m = encode_bags(model, [[]])
        np.testing.assert_array_equal(m.features, 0.0)

    def test_unseen_only_bag_zero_row(self):
        model = tfidf_over([["alpha"], ["beta"]])
        m = encode_bags(model, [["zeta", "omega"]])
        np.testing.assert_array_equal(m.features, 0.0)

    def test_all_bags_empty_error(self):
        with pytest.raises(AllBagsEmptyError):
            tfidf_over([[], []])

    def test_rows_unit_norm(self):
        rng = random.Random(3)
        bags = [[f"t{rng.randint(0, 20)}" for _ in range(rng.randint(1, 30))] for _ in range(15)]
        m = encode_bags(tfidf_over(bags), bags)
        norms = np.linalg.norm(m.features, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_matches_naive_reference_exactly(self):
        rng = random.Random(11)
        for _ in range(200):
            tokens = [f"t{i}" for i in range(rng.randint(1, 10))]
            bags = [
                [rng.choice(tokens) for _ in range(rng.randint(0, 12))]
                for _ in range(rng.randint(1, 10))
            ]
            if not any(bags):
                continue
            got = encode_bags(tfidf_over(bags), bags).features
            np.testing.assert_array_equal(got, naive_tfidf(bags, bags))

    def test_column_order_is_sorted_vocabulary(self):
        model = tfidf_over([["zeta", "alpha", "mid"]])
        assert sorted(model.vocabulary, key=model.vocabulary.get) == ["alpha", "mid", "zeta"]

    def test_no_rows_is_a_value_error(self):
        with pytest.raises(ValueError, match="bags must be non-empty"):
            fit_tfidf(count_streams([["alpha"]]), np.arange(0))

    def test_rows_of_counts_match_the_stream_oracle(self):
        """A fit on some rows keeps only their tokens, and a transform finds
        the model's tokens by name in other counts: a token those counts
        lack is a zero column, and one the model lacks is ignored."""
        rng = random.Random(5)
        for _ in range(100):
            bags = [
                [f"t{rng.randint(0, 12)}" for _ in range(rng.randint(0, 9))]
                for _ in range(rng.randint(2, 9))
            ]
            rows = np.array(sorted(rng.sample(range(len(bags)), rng.randint(1, len(bags)))))
            fitted = [bags[i] for i in rows]
            if not any(fitted):
                continue
            counts = count_streams(bags)
            model = fit_tfidf(counts, rows)
            oracle = stream_fit_tfidf(fitted)
            assert model.vocabulary == oracle.vocabulary
            np.testing.assert_array_equal(model.idf, oracle.idf)
            ids = [f"b{i}" for i in range(len(bags))]
            others = count_streams(bags[::-1])
            for got, want in (
                (transform_tfidf(model, counts, rows, ids), stream_transform_tfidf(oracle, fitted)),
                (
                    transform_tfidf(model, others, np.arange(len(bags)), ids[::-1]),
                    stream_transform_tfidf(oracle, bags[::-1]),
                ),
            ):
                np.testing.assert_array_equal(got.features, want.features)
                assert got.feature_names == want.feature_names
            assert got.sample_ids == ids[::-1]


class TestEncodedMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            make_matrix(np.array([[np.nan, 1.0]]))

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError):
            EncodedMatrix(
                spec=EncodingSpec("text", "tfidf"),
                sample_ids=["a"],
                features=np.zeros((2, 2)),
            )

    def test_equality_is_identity_and_does_not_raise(self):
        m1, m2 = make_matrix(np.eye(2)), make_matrix(np.eye(2))
        assert m1 == m1
        assert (m1 == m2) is False
        assert m1 != m2

    def test_clustering_and_correlation_share_one_memo(self):
        from textmath import ClustererSpec, fit_predict_clusterer, text_math_correlation

        rng = np.random.default_rng(3)
        X, Y = make_matrix(rng.normal(size=(9, 4))), make_matrix(rng.normal(size=(9, 3)))
        fit_predict_clusterer(ClustererSpec("kmeans", k=2, pca_dims=2), X)
        text_math_correlation(X, Y)
        memo = X.memo()
        kinds = sorted(key if isinstance(key, str) else key[0] for key in memo)
        assert kinds == ["correlation", "kmeans", "pca"]
        assert X.memo() is memo
        X.features = X.features.copy()
        assert X.memo() == {}

    def test_csv_round_trip_values(self, tmp_path):
        m = make_matrix(np.array([[0.25, -1.5], [1e-17, 3.0]]), ids=["a", "b"])
        path = tmp_path / "m.csv"
        m.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "sample_id,f0,f1"
        back = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]])
        np.testing.assert_array_equal(back, m.features)
        sidecar = json.loads(path.with_suffix(".csv.json").read_text())
        assert sidecar["spec"]["content"] == "text"


class TestPca:
    def test_collinear_line(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        pca = fit_pca(X, 1)
        total = np.var(X - X.mean(axis=0), axis=0, ddof=1).sum()
        assert pca.explained_variance[0] == pytest.approx(total, rel=1e-12)
        proj = pca.transform(X).ravel()
        np.testing.assert_allclose(proj, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(12, 4))
        pca = fit_pca(X, 4)
        recon = pca.transform(X) @ pca.components + pca.mean
        np.testing.assert_allclose(recon, X, atol=1e-9)

    def test_matches_eigendecomposition(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(50, 10))
        pca = fit_pca(X, 10)
        cov = np.cov(X, rowvar=False)
        eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
        np.testing.assert_allclose(pca.explained_variance, eigvals, atol=1e-8)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 6))
        pca = fit_pca(X, 6)
        G = pca.components @ pca.components.T
        np.testing.assert_allclose(G, np.eye(6), atol=1e-8)

    def test_sign_convention(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 5))
        pca = fit_pca(X, 5)
        for row in pca.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInputError):
            fit_pca(np.ones((5, 3)), 1)

    def test_pca_reduce_shapes(self):
        m = make_matrix(np.random.default_rng(1).normal(size=(8, 5)))
        out = pca_reduce(m, 2)
        assert out.features.shape == (8, 2)
        assert out.sample_ids == m.sample_ids


class TestFittedEncoder:
    def test_tfidf_holdout_width_matches_training(self, tiny_corpus):
        train = tiny_corpus.documents[:10]
        test = tiny_corpus.documents[10:]
        encoder, m_train = fit_encoder(
            EncodingSpec("text", "tfidf"), train, stopwords=tiny_corpus.stopwords
        )
        m_test = encoder.transform([d.text_tokens for d in test], [d.id for d in test])
        assert m_test.n_features == m_train.n_features
        assert m_test.sample_ids == [d.id for d in test]

    def test_vocabulary_comes_from_training_only(self, tiny_corpus):
        train = [d for d in tiny_corpus.documents if d.label != "blue"]
        encoder, _ = fit_encoder(
            EncodingSpec("text", "tfidf"), train, stopwords=tiny_corpus.stopwords
        )
        assert "navy" not in encoder.tfidf.vocabulary
        assert "crimson" in encoder.tfidf.vocabulary

    def test_embedding_train_rows_are_trained_vectors(self, tiny_corpus):
        params = EmbeddingParams(size=8, min_count=1, epochs=2, seed=3)
        spec = EncodingSpec("text", "embedding", params)
        encoder, m_train = fit_encoder(spec, tiny_corpus.documents, stopwords=frozenset())
        np.testing.assert_array_equal(m_train.features, encoder.embedding.doc_vectors)

    @pytest.mark.parametrize("spec", [
        EncodingSpec("textmath_opid", "tfidf"),
        EncodingSpec("math_opid", "embedding", EmbeddingParams(size=8, min_count=1, epochs=2)),
    ])
    def test_fit_encoder_fits_the_token_streams(self, tiny_corpus, spec):
        """fit_encoder equals the encoder fitted on the documents' token
        streams: tf-idf by the stream oracle, embeddings by
        train_embedding; held-out streams transform alike."""
        docs = tiny_corpus.documents
        streams = [token_stream(d, spec.content) for d in docs]
        ids = [d.id for d in docs]
        encoder, m_train = fit_encoder(spec, docs[:8])
        if spec.method == "tfidf":
            model = stream_fit_tfidf(streams[:8])
            assert encoder.tfidf.vocabulary == model.vocabulary
            expected = stream_transform_tfidf(model, streams[:8], ids[:8], spec)
            held_out = stream_transform_tfidf(model, streams[8:], ids[8:], spec)
        else:
            model = train_embedding(streams[:8], spec.embedding_params)
            oracle = FittedEncoder(spec, embedding=model)
            expected = EncodedMatrix(spec, ids[:8], oracle.embedding.doc_vectors)
            held_out = oracle.transform(streams[8:], ids[8:])
        for got, want in (
            (m_train, expected),
            (encoder.transform(streams[8:], ids[8:]), held_out),
        ):
            np.testing.assert_array_equal(got.features, want.features)
            assert got.feature_names == want.feature_names
            assert got.sample_ids == want.sample_ids
            assert got.spec == want.spec == spec

    def test_no_spec_is_plain_tfidf_over_bags(self):
        bags = [["x", "y", "y"], ["y", "z"], ["x"]]
        counts = count_streams(bags)
        encoder, m_train = fit_rows(None, counts, np.arange(2), ["a", "b", "c"])
        m_test = encoder.transform_rows(counts, np.array([2]), ["a", "b", "c"])
        tfidf = tfidf_over(bags[:2])
        for got, expected, ids in (
            (m_train, encode_bags(tfidf, bags[:2]), ["a", "b"]),
            (m_test, encode_bags(tfidf, bags[2:]), ["c"]),
        ):
            np.testing.assert_array_equal(got.features, expected.features)
            assert got.feature_names == expected.feature_names
            assert got.sample_ids == ids
            assert got.spec is None
