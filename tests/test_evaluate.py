"""Folds, accuracy, purity, correlation, runtimes, and report tables."""
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import textmath

from textmath import (
    AllBagsEmptyError,
    ClassifierSpec,
    ConfusionMatrix,
    EncodingSpec,
    LengthMismatchError,
    RaggedGridError,
    SampleMismatchError,
    TooFewSamplesError,
    ZeroVarianceError,
    accuracy_score,
    build_report,
    cross_validate,
    cross_validate_bags,
    enrich,
    generate_synthetic_corpus,
    load_corpus,
    load_lexicon,
    make_folds,
    purity,
    text_math_correlation,
    weighted_purity,
)
from textmath import evaluate
from textmath.classify import fit_classifier, predict
from textmath.encode import (
    CONTENTS,
    Channels,
    count_streams,
    fit_encoder,
    fit_rows,
    merge_counts,
    token_stream,
)
from textmath.evaluate import normalize_runtimes, row_folds, score_folds
from textmath.semantify import MODES
from textmath.synth import class_lexicon_tsv
from tests.conftest import (
    make_matrix,
    only_result,
    pearson,
    stream_fit_tfidf,
    stream_transform_tfidf,
)


def brute_force_macro_purity(cluster_ids, labels):
    clusters = {}
    for cid, lab in zip(cluster_ids, labels):
        clusters.setdefault(cid, []).append(lab)
    fractions = []
    for members in clusters.values():
        best = max(Counter(members).values())
        fractions.append(best / len(members))
    return sum(fractions) / len(fractions)


def all_folds(plan):
    return [plan.fold_indices(f) for f in range(plan.n_folds)]


class TestFolds:
    def test_singleton_folds(self):
        plan = make_folds(10, 10, seed=0)
        assert sorted(len(f) for f in all_folds(plan)) == [1] * 10

    def test_balanced_sizes(self):
        plan = make_folds(10, 3, seed=0)
        assert sorted((len(f) for f in all_folds(plan)), reverse=True) == [4, 3, 3]

    def test_deterministic(self):
        assert make_folds(25, 4, seed=9) == make_folds(25, 4, seed=9)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            make_folds(3, 4, seed=0)
        with pytest.raises(TooFewSamplesError):
            make_folds(5, 1, seed=0)

    def test_invariants_random_triples(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(2, 200))
            k = int(rng.integers(2, n + 1))
            plan = make_folds(n, k, seed=int(rng.integers(0, 10000)))
            folds = all_folds(plan)
            flat = sorted(i for f in folds for i in f)
            assert flat == list(range(n))
            sizes = [len(f) for f in folds]
            assert max(sizes) - min(sizes) <= 1


class TestConfusion:
    def test_trace_over_total_is_accuracy(self):
        cm = ConfusionMatrix.empty(["a", "b", "c"])
        y_true = ["a", "a", "b", "c", "c", "c"]
        y_pred = ["a", "b", "b", "c", "a", "c"]
        cm.add(y_true, y_pred)
        assert cm.accuracy() == accuracy_score(y_true, y_pred)
        assert cm.total == 6

    def test_row_sums_are_true_counts(self):
        cm = ConfusionMatrix.empty(["a", "b"])
        cm.add(["a", "a", "b"], ["b", "a", "b"])
        np.testing.assert_array_equal(cm.counts.sum(axis=1), [2, 1])

    def test_percentages_row_normalized(self):
        cm = ConfusionMatrix.empty(["a", "b"])
        cm.add(["a", "a", "a", "a"], ["a", "a", "a", "b"])
        np.testing.assert_allclose(cm.percentages()[0], [75.0, 25.0])
        np.testing.assert_array_equal(cm.percentages()[1], [0.0, 0.0])

    def test_csv_has_counts_and_percent_blocks(self, tmp_path):
        cm = ConfusionMatrix.empty(["a", "b"])
        cm.add(["a", "b"], ["a", "b"])
        path = tmp_path / "cm.csv"
        cm.to_csv(path)
        text = path.read_text()
        assert text.splitlines()[0] == "true\\pred,a,b"
        assert "percent" in text

    def test_accuracy_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            accuracy_score(["a"], ["a", "b"])


class TestPurity:
    def test_fixture(self):
        # clusters {A,A,B} and {B,B}
        got = purity([0, 0, 0, 1, 1], ["A", "A", "B", "B", "B"])
        assert got == pytest.approx((2 / 3 + 1.0) / 2, abs=1e-12)

    def test_perfect(self):
        assert purity([0, 0, 1, 1], ["x", "x", "y", "y"]) == 1.0

    def test_one_big_cluster_balanced(self):
        labels = [f"c{i}" for i in range(14) for _ in range(5)]
        assert purity([0] * 70, labels) == pytest.approx(1 / 14, abs=1e-12)

    def test_all_singletons(self):
        labels = ["a", "b", "a", "c"]
        assert purity(list(range(4)), labels) == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 21))
            ids = rng.integers(0, max(1, int(rng.integers(1, 6))), size=n).tolist()
            labels = [f"c{v}" for v in rng.integers(0, 4, size=n)]
            assert purity(ids, labels) == pytest.approx(
                brute_force_macro_purity(ids, labels), abs=1e-12
            )

    def test_invariant_to_id_and_name_permutation(self):
        ids = [0, 1, 1, 2, 0, 2, 1]
        labels = ["a", "b", "a", "c", "a", "c", "b"]
        base = purity(ids, labels)
        remap_ids = [{0: 2, 1: 0, 2: 1}[v] for v in ids]
        remap_labels = [{"a": "z", "b": "q", "c": "m"}[v] for v in labels]
        assert purity(remap_ids, labels) == base
        assert purity(ids, remap_labels) == base

    def test_weighted_variant_downweights_small_pure_clusters(self):
        ids = [0, 0, 0, 0, 0, 0, 1]
        labels = ["a", "b", "a", "b", "a", "b", "b"]
        assert purity(ids, labels) > weighted_purity(ids, labels)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            purity([0, 1], ["a"])


class TestCosinePearson:
    def test_pearson_scaled(self):
        xs = [1.0, 2.0, 5.0, 3.0]
        assert pearson(xs, [2 * v for v in xs]) == pytest.approx(1.0, abs=1e-12)
        assert pearson(xs, [-v for v in xs]) == pytest.approx(-1.0, abs=1e-12)

    def test_pearson_fixture(self):
        assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 2.0]) == pytest.approx(
            math.sqrt(3) / 2, abs=1e-9
        )

    def test_pearson_zero_variance(self):
        with pytest.raises(ZeroVarianceError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestTextMathCorrelation:
    def test_identical_matrices(self):
        X = make_matrix(np.random.default_rng(3).normal(size=(12, 6)))
        assert text_math_correlation(X, X) == pytest.approx(1.0, abs=1e-9)

    def test_row_rescaling_invariance(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(10, 5))
        scales = rng.uniform(0.5, 4.0, size=(10, 1))
        a = make_matrix(X)
        b = make_matrix(X * scales)
        assert text_math_correlation(a, b) == pytest.approx(1.0, abs=1e-9)

    def test_independent_matrices_near_zero(self):
        rng = np.random.default_rng(5)
        a = make_matrix(rng.normal(size=(100, 8)))
        b = make_matrix(rng.normal(size=(100, 8)))
        assert abs(text_math_correlation(a, b)) < 0.1

    def test_symmetric(self):
        rng = np.random.default_rng(6)
        a = make_matrix(rng.normal(size=(9, 4)))
        b = make_matrix(rng.normal(size=(9, 4)))
        assert text_math_correlation(a, b) == pytest.approx(
            text_math_correlation(b, a), abs=1e-12
        )

    def test_reassigned_features_are_not_served_stale(self):
        rng = np.random.default_rng(7)
        a = make_matrix(rng.normal(size=(8, 4)))
        b = make_matrix(rng.normal(size=(8, 4)))
        first = text_math_correlation(a, b)
        terms = a.memo()["correlation"]
        assert text_math_correlation(a, b) == first
        assert a.memo()["correlation"] is terms
        a.features = b.features.copy()
        assert text_math_correlation(a, b) == pytest.approx(1.0, abs=1e-12)
        assert first != pytest.approx(1.0, abs=1e-6)

    def test_sample_id_mismatch(self):
        a = make_matrix(np.eye(3), ids=["x", "y", "z"])
        b = make_matrix(np.eye(3), ids=["x", "z", "y"])
        with pytest.raises(SampleMismatchError):
            text_math_correlation(a, b)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_than_three_samples(self, n):
        X = make_matrix(np.arange(1.0, 1.0 + 2 * n).reshape(n, 2))
        with pytest.raises(TooFewSamplesError):
            text_math_correlation(X, X)


def oracle_correlation(A: np.ndarray, B: np.ndarray) -> float:
    """The pair-listing form: the full cosine product of each matrix, its
    upper triangle, then ``pearson`` over the two pair vectors."""
    pairs = np.triu_indices(A.shape[0], k=1)
    cosines = []
    for X in (A, B):
        norms = np.linalg.norm(X, axis=1)
        U = X / np.where(norms > 0, norms, 1.0)[:, None]
        cosines.append((U @ U.T)[pairs])
    return pearson(*cosines)


def embedding_like(rng, n, d, noise):
    """Rows with a shared offset plus small noise: every cosine sits near 1."""
    return rng.normal(size=d) + noise * rng.normal(size=(n, d))


class TestCorrelationAgainstOracle:
    def test_tfidf_matrices_from_a_synthetic_corpus(self):
        corpus = generate_synthetic_corpus(
            3, 15, vocab_per_class=12, shared_identifiers=5, seed=11,
            tokens_per_doc=(15, 30), formulas_per_doc=(1, 4),
        )
        channels = Channels(corpus.documents, corpus.stopwords)
        matrices = [
            fit_encoder(EncodingSpec(content, "tfidf"), corpus.documents, channels=channels)[1]
            for content in ("text", "math_op", "math_id", "math_opid", "math_surroundings")
        ]
        for i, a in enumerate(matrices):
            for b in matrices[i + 1 :]:
                expected = oracle_correlation(a.features, b.features)
                assert text_math_correlation(a, b) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("n, d, noise", [(200, 16, 0.1), (60, 300, 0.05), (150, 8, 0.01)])
    def test_embedding_like_rows_with_cosines_near_one(self, n, d, noise):
        rng = np.random.default_rng(n + d)
        A = embedding_like(rng, n, d, noise)
        B = embedding_like(rng, n, d + 3, noise)
        U = A / np.linalg.norm(A, axis=1)[:, None]
        assert (U @ U.T).min() > 0.9
        expected = oracle_correlation(A, B)
        assert text_math_correlation(make_matrix(A), make_matrix(B)) == pytest.approx(
            expected, abs=1e-9
        )

    def test_all_zero_rows(self):
        rng = np.random.default_rng(12)
        A = rng.poisson(0.4, size=(90, 30)).astype(float)
        B = rng.poisson(0.4, size=(90, 25)).astype(float)
        A[::4] = 0.0
        B[::7] = 0.0
        A[1::9] = 0.0
        expected = oracle_correlation(A, B)
        assert text_math_correlation(make_matrix(A), make_matrix(B)) == pytest.approx(
            expected, abs=1e-9
        )

    @pytest.mark.parametrize(
        "n, d_a, d_b, row_gram",
        [
            (300, 8, 40, False),  # n > d: the d_a x d_b product
            (20, 300, 400, True),  # n < d: row Gram matrices, one block
            (300, 900, 1000, True),  # n < d: row Gram matrices over several blocks
            (150, 5, 2000, False),  # one narrow side keeps d_a x d_b cheaper
        ],
    )
    def test_each_product_form(self, n, d_a, d_b, row_gram):
        assert (d_a * d_b > (n + evaluate._GRAM_BLOCK) * (d_a + d_b) / 2) is row_gram
        rng = np.random.default_rng(n + d_a + d_b)
        A = rng.normal(size=(n, d_a))
        B = rng.normal(size=(n, d_b)) + A[:, :1]  # some shared structure
        A[3] = 0.0
        expected = oracle_correlation(A, B)
        assert text_math_correlation(make_matrix(A), make_matrix(B)) == pytest.approx(
            expected, abs=1e-9
        )


class TestCorrelationMemory:
    @pytest.mark.parametrize(
        "n, d_a, d_b",
        [
            (2000, 6, 8),  # the pair vector would take 16 MB, an n x n product 32 MB
            (12, 1200, 1300),  # a d_a x d_b product would take 12.5 MB
        ],
    )
    def test_no_pair_vector_and_no_dearer_product_is_held(self, n, d_a, d_b):
        rng = np.random.default_rng(15)
        a = make_matrix(rng.normal(size=(n, d_a)))
        b = make_matrix(rng.normal(size=(n, d_b)))
        tracemalloc.start()
        try:
            text_math_correlation(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestConstantSeries:
    """A constant series of pair cosines has no correlation; its variance
    term is a rounding residue, and the tolerance rule calls it zero."""

    @pytest.mark.parametrize(
        "name",
        ["identical rows", "all-zero rows", "orthonormal rows", "one non-zero row"],
    )
    def test_raises_zero_variance(self, name):
        rng = np.random.default_rng(13)
        n, d = 30, 30
        constant = {
            "identical rows": np.tile(rng.normal(size=(1, d)), (n, 1)),
            "all-zero rows": np.zeros((n, d)),
            "orthonormal rows": np.eye(n),
            "one non-zero row": np.vstack([rng.normal(size=(1, d)), np.zeros((n - 1, d))]),
        }[name]
        other = make_matrix(rng.normal(size=(n, 7)))
        with pytest.raises(ZeroVarianceError):
            text_math_correlation(make_matrix(constant), other)
        with pytest.raises(ZeroVarianceError):
            text_math_correlation(other, make_matrix(constant))

    def test_near_constant_series_gives_the_oracle_r(self):
        rng = np.random.default_rng(14)
        A = embedding_like(rng, 120, 16, 1e-2)
        B = rng.normal(size=(120, 6))
        U = A / np.linalg.norm(A, axis=1)[:, None]
        cosines = (U @ U.T)[np.triu_indices(120, k=1)]
        assert 0.0 < cosines.std() < 1e-4
        expected = oracle_correlation(A, B)
        assert text_math_correlation(make_matrix(A), make_matrix(B)) == pytest.approx(
            expected, abs=1e-9
        )


class TestRuntimes:
    def test_normalization_preserves_order(self):
        raw = {"a": 2.0, "b": 8.0, "c": 5.0}
        out = normalize_runtimes(raw)
        assert out["b"] == 100.0
        assert out["a"] < out["c"] < out["b"]

    def test_all_zero_times(self):
        assert normalize_runtimes({"a": 0.0, "b": 0.0}) == {"a": 100.0, "b": 100.0}


class TestReport:
    def test_one_by_one(self):
        rep = build_report({("enc", "alg"): 42.0})
        assert rep.row_means["enc"] == rep.row_maxes["enc"] == 42.0
        assert rep.col_means["alg"] == rep.col_maxes["alg"] == 42.0

    def test_two_by_two_margins(self):
        cells = {
            ("e1", "a1"): 10.0,
            ("e1", "a2"): 20.0,
            ("e2", "a1"): 30.0,
            ("e2", "a2"): 40.0,
        }
        rep = build_report(cells)
        assert (rep.row_means["e1"], rep.row_means["e2"]) == (15.0, 35.0)
        assert (rep.col_means["a1"], rep.col_means["a2"]) == (20.0, 30.0)
        assert rep.best_cell() == ("e2", "a2")
        assert max(v for v in rep.row_maxes.values()) == 40.0

    def test_means_consistent_with_cells(self):
        rng = np.random.default_rng(7)
        cells = {(f"e{i}", f"a{j}"): float(rng.uniform(0, 100)) for i in range(3) for j in range(4)}
        rep = build_report(cells)
        for r in rep.row_names:
            want = np.mean([cells[(r, c)] for c in rep.col_names])
            assert rep.row_means[r] == pytest.approx(want, abs=1e-9)

    def test_ragged_grid_rejected(self):
        with pytest.raises(RaggedGridError):
            build_report({("e1", "a1"): 1.0, ("e2", "a2"): 2.0})

    def test_none_cells_skipped_in_margins(self):
        rep = build_report({("e", "a"): None, ("e", "b"): 50.0})
        assert rep.row_means["e"] == 50.0
        assert rep.col_means["a"] is None

    def test_csv_layout(self, tmp_path):
        rep = build_report(
            {("e1", "a1"): 10.0, ("e1", "a2"): 20.0},
            runtimes={"a1": 100.0, "a2": 40.0},
        )
        path = tmp_path / "report.csv"
        rep.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "encoding,a1,a2,Mean,Max"
        assert lines[1] == "e1,10.000000,20.000000,15.000000,20.000000"
        assert lines[2].startswith("Mean,")
        assert lines[3].startswith("Max,")
        assert "Runtime" not in path.read_text()

    def test_markdown_has_runtime_row_and_bold_marks(self, tmp_path):
        rep = build_report(
            {("e1", "a1"): 10.0, ("e1", "a2"): 20.0},
            runtimes={"a1": 100.0, "a2": 40.0},
        )
        path = tmp_path / "report.md"
        rep.to_markdown(path)
        text = path.read_text()
        assert "| Runtime [%] | 100.0 | **40.0** |" in text
        assert "**20.0**" in text


@pytest.fixture(scope="module")
def small_corpus():
    return generate_synthetic_corpus(
        4, 12, vocab_per_class=20, shared_identifiers=6, seed=3,
        tokens_per_doc=(20, 30), formulas_per_doc=(1, 3),
    )


class TestCrossValidate:
    def test_separable_text_high_accuracy(self, small_corpus):
        plan = make_folds(len(small_corpus.documents), 4, seed=0)
        specs = [ClassifierSpec("logreg")]
        result = only_result(
            cross_validate(specs, EncodingSpec("text", "tfidf"), small_corpus, plan)
        )
        assert result.mean_accuracy >= 0.95
        assert result.confusion.total == len(small_corpus.documents)

    def test_mean_is_unweighted_fold_mean(self, small_corpus):
        plan = make_folds(len(small_corpus.documents), 5, seed=1)
        specs = [ClassifierSpec("knn")]
        result = only_result(
            cross_validate(specs, EncodingSpec("text", "tfidf"), small_corpus, plan)
        )
        assert result.mean_accuracy == pytest.approx(
            np.mean(result.fold_accuracies), abs=1e-12
        )

    def test_shuffled_labels_near_chance(self, small_corpus):
        rng = np.random.default_rng(8)
        labels = [d.label for d in small_corpus.documents]
        shuffled = list(rng.permutation(labels))
        bags = [d.text_tokens for d in small_corpus.documents]
        plan = make_folds(len(bags), 4, seed=2)
        specs = [ClassifierSpec("logreg")]
        result = only_result(
            cross_validate_bags(specs, bags, shuffled, small_corpus.label_set, plan)
        )
        p = 1 / 4
        sigma = math.sqrt(p * (1 - p) / len(bags))
        assert abs(result.mean_accuracy - p) <= 3 * sigma

    def test_duplicated_dataset_knn1_perfect(self, small_corpus):
        bags = [d.text_tokens for d in small_corpus.documents]
        labels = [d.label for d in small_corpus.documents]
        bags2 = bags + bags
        labels2 = labels + labels
        plan = make_folds(len(bags2), 2, seed=0)
        result = only_result(
            cross_validate_bags(
                [ClassifierSpec("knn", params={"k": 1})],
                bags2,
                labels2,
                small_corpus.label_set,
                plan,
            )
        )
        assert result.mean_accuracy == 1.0

    def test_source_that_fails_to_build_goes_to_every_spec(self, small_corpus):
        class BrokenChannels:
            def source(self, spec):
                raise RuntimeError(f"no {spec.name} source")

        plan = make_folds(len(small_corpus.documents), 3, seed=0)
        outcomes = cross_validate(
            [ClassifierSpec("knn"), ClassifierSpec("logreg")],
            EncodingSpec("text", "tfidf"),
            small_corpus,
            plan,
            BrokenChannels(),
        )
        assert [str(o) for o in outcomes] == ["no text_tfidf source"] * 2
        assert outcomes[0] is outcomes[1]

    def test_bags_are_read_once_from_any_iterable(self, small_corpus):
        bags = [d.text_tokens for d in small_corpus.documents]
        plan = make_folds(len(bags), 3, seed=4)
        specs = [ClassifierSpec("knn"), ClassifierSpec("dectree")]
        args = (small_corpus.labels, small_corpus.label_set, plan)
        reads = []

        def generated():
            for bag in bags:
                reads.append(bag)
                yield bag

        from_list = cross_validate_bags(specs, bags, *args)
        from_generator = cross_validate_bags(specs, generated(), *args)
        assert len(reads) == len(bags)
        for got, want in zip(from_generator, from_list):
            assert got.fold_accuracies == want.fold_accuracies
            np.testing.assert_array_equal(got.confusion.counts, want.confusion.counts)

    def test_labels_must_cover_every_bag(self, small_corpus):
        bags = [d.text_tokens for d in small_corpus.documents]
        plan = make_folds(len(bags), 3, seed=0)
        n = len(bags)
        with pytest.raises(LengthMismatchError, match=f"^{n} bags vs {n - 1} labels$"):
            cross_validate_bags(
                [ClassifierSpec("knn")], bags, small_corpus.labels[1:], small_corpus.label_set, plan
            )


def reference_cross_validate(spec, plan, labels, label_set, encode_fold):
    """The per-classifier fold loop: every fold re-encodes, then fits and
    scores one classifier. ``encode_fold(train_idx, test_idx)`` returns
    (X_train, X_test)."""
    confusion = ConfusionMatrix.empty(label_set)
    accuracies = []
    for fold in range(plan.n_folds):
        test_idx = plan.fold_indices(fold)
        train_idx = np.setdiff1d(np.arange(plan.n_samples), test_idx)
        X_train, X_test = encode_fold(train_idx, test_idx)
        model = fit_classifier(spec, X_train, [labels[i] for i in train_idx], label_set=label_set)
        y_pred = predict(model, X_test)
        y_test = [labels[i] for i in test_idx]
        accuracies.append(accuracy_score(y_test, y_pred))
        confusion.add(y_test, y_pred)
    return float(np.mean(accuracies)), accuracies, confusion.counts


def assert_same_result(result, reference):
    mean, accuracies, counts = reference
    assert result.mean_accuracy == mean
    assert result.fold_accuracies == accuracies
    np.testing.assert_array_equal(result.confusion.counts, counts)


class TestSharedFolds:
    SPECS = [ClassifierSpec("logreg"), ClassifierSpec("knn"), ClassifierSpec("dectree")]

    @staticmethod
    def bag_folds(bags, plan):
        """Plain tf-idf folds over pre-built bags."""
        return row_folds(None, count_streams(bags), [f"b{i}" for i in range(len(bags))], plan)

    def test_every_spec_matches_the_per_classifier_loop(self, small_corpus):
        docs, labels = small_corpus.documents, small_corpus.labels
        encoding = EncodingSpec("textmath_opid", "tfidf")
        plan = make_folds(len(docs), 4, seed=5)

        def encode_fold(train_idx, test_idx):
            encoder, X_train = fit_encoder(
                encoding, [docs[i] for i in train_idx], stopwords=small_corpus.stopwords
            )
            held_out = [docs[i] for i in test_idx]
            streams = [token_stream(d, encoding.content, stopwords=small_corpus.stopwords)
                       for d in held_out]
            return X_train, encoder.transform(streams, [d.id for d in held_out])

        outcomes = cross_validate(self.SPECS, encoding, small_corpus, plan)
        for spec, outcome in zip(self.SPECS, outcomes):
            reference = reference_cross_validate(
                spec, plan, labels, small_corpus.label_set, encode_fold
            )
            assert_same_result(outcome, reference)
            assert_same_result(
                only_result(cross_validate([spec], encoding, small_corpus, plan)), reference
            )
            assert outcome.fit_predict_seconds > 0.0

    def test_bags_match_the_per_classifier_loop(self, small_corpus):
        bags = [d.text_tokens for d in small_corpus.documents]
        labels = small_corpus.labels
        plan = make_folds(len(bags), 3, seed=2)

        def encode_fold(train_idx, test_idx):
            tfidf = stream_fit_tfidf([bags[i] for i in train_idx])
            return (
                stream_transform_tfidf(tfidf, [bags[i] for i in train_idx]),
                stream_transform_tfidf(tfidf, [bags[i] for i in test_idx]),
            )

        for spec, outcome in zip(
            self.SPECS,
            cross_validate_bags(self.SPECS, bags, labels, small_corpus.label_set, plan),
        ):
            reference = reference_cross_validate(
                spec, plan, labels, small_corpus.label_set, encode_fold
            )
            assert_same_result(outcome, reference)
            one = cross_validate_bags([spec], bags, labels, small_corpus.label_set, plan)
            assert_same_result(only_result(one), reference)

    @staticmethod
    def failing_fit(monkeypatch, algo, call):
        """Make ``fit_classifier`` raise on the ``call``-th fit of ``algo``
        (1-based); returns the list of algos fitted, in order."""
        fitted = []

        def fit(spec, X, y, label_set=None):
            fitted.append(spec.algo)
            if spec.algo == algo and fitted.count(algo) == call:
                raise RuntimeError(f"{algo} broke")
            return fit_classifier(spec, X, y, label_set=label_set)

        monkeypatch.setattr(evaluate, "fit_classifier", fit)
        return fitted

    def test_failing_spec_sits_out_later_folds(self, small_corpus, monkeypatch):
        fitted = self.failing_fit(monkeypatch, "knn", call=2)
        plan = make_folds(len(small_corpus.documents), 4, seed=0)
        bags = [d.text_tokens for d in small_corpus.documents]
        knn, logreg = score_folds(
            [ClassifierSpec("knn"), ClassifierSpec("logreg")],
            self.bag_folds(bags, plan),
            small_corpus.labels,
            small_corpus.label_set,
        )
        assert str(knn) == "knn broke"
        assert len(logreg.fold_accuracies) == 4
        assert fitted == ["knn", "logreg", "knn", "logreg", "logreg", "logreg"]

    def test_fold_construction_error_goes_to_every_live_spec(self, small_corpus, monkeypatch):
        self.failing_fit(monkeypatch, "knn", call=1)
        plan = make_folds(len(small_corpus.documents), 4, seed=0)
        good = next(self.bag_folds([d.text_tokens for d in small_corpus.documents], plan))
        built = []

        def folds():
            built.append(0)
            yield good
            built.append(1)
            raise RuntimeError("encoder broke")

        outcomes = score_folds(
            [ClassifierSpec("knn"), ClassifierSpec("logreg"), ClassifierSpec("dectree")],
            folds(),
            small_corpus.labels,
            small_corpus.label_set,
        )
        assert [str(o) for o in outcomes] == ["knn broke", "encoder broke", "encoder broke"]
        assert outcomes[1] is outcomes[2]
        assert built == [0, 1]

    def test_no_fold_is_built_once_every_spec_failed(self, small_corpus, monkeypatch):
        self.failing_fit(monkeypatch, "knn", call=1)
        plan = make_folds(len(small_corpus.documents), 4, seed=0)
        built = []

        def folds():
            for fold in self.bag_folds([d.text_tokens for d in small_corpus.documents], plan):
                built.append(fold)
                yield fold

        (outcome,) = score_folds(
            [ClassifierSpec("knn")], folds(), small_corpus.labels, small_corpus.label_set
        )
        assert str(outcome) == "knn broke"
        assert len(built) == 1

    def test_plan_must_cover_every_sample(self, small_corpus, monkeypatch):
        fitted = []
        monkeypatch.setattr(evaluate, "fit_rows", lambda *args: fitted.append(args))
        plan = make_folds(len(small_corpus.documents) - 1, 3, seed=0)
        specs = [ClassifierSpec("knn")]
        with pytest.raises(LengthMismatchError):
            cross_validate(specs, EncodingSpec("text", "tfidf"), small_corpus, plan)
        # a bag the plan does not cover would never be held out
        bags = [d.text_tokens for d in small_corpus.documents]
        with pytest.raises(LengthMismatchError):
            cross_validate_bags(specs, bags, small_corpus.labels, small_corpus.label_set, plan)
        assert fitted == []  # raised before any fold


# --- tf-idf from counts ------------------------------------------------------------

MINI_MANIFEST = Path(textmath.__file__).parent / "data" / "mini_corpus" / "manifest.json"


def same_matrix(got, want):
    """Bit for bit, feature names and sample ids included."""
    assert got.features.dtype == want.features.dtype
    assert got.features.shape == want.features.shape
    assert got.features.tobytes() == want.features.tobytes()
    assert got.feature_names == want.feature_names
    assert got.sample_ids == want.sample_ids


def oracle_folds(bags, ids, plan):
    """(train, test) matrices of each fold by the stream oracle on the bags
    themselves."""
    for fold in range(plan.n_folds):
        test_idx = plan.fold_indices(fold)
        train_idx = np.setdiff1d(np.arange(len(bags)), test_idx)
        model = stream_fit_tfidf([bags[i] for i in train_idx])
        yield tuple(
            stream_transform_tfidf(model, [bags[i] for i in idx], [ids[i] for i in idx])
            for idx in (train_idx, test_idx)
        )


def oracle_folds_or_errors(bags, ids, plan):
    """``oracle_folds``, ending with (exception, None) at the first fold
    whose training side the oracle cannot fit."""
    folds = oracle_folds(bags, ids, plan)
    while True:
        try:
            yield next(folds)
        except StopIteration:
            return
        except AllBagsEmptyError as exc:
            yield exc, None
            return


class TestCountPath:
    """Every tf-idf matrix is taken from one count matrix per channel. It
    equals the stream oracle's tf-idf of the token streams: the full-corpus
    matrix and both sides of every fold."""

    @pytest.fixture(scope="class")
    def mini(self):
        corpus = load_corpus(MINI_MANIFEST)
        return corpus, Channels(corpus.documents, corpus.stopwords)

    @pytest.mark.parametrize("content", CONTENTS)
    def test_every_content_matches_the_stream_oracle(self, mini, content):
        corpus, channels = mini
        spec = EncodingSpec(content, "tfidf")
        streams = [token_stream(d, content, stopwords=corpus.stopwords) for d in corpus.documents]
        _, full = fit_encoder(spec, corpus.documents, corpus.stopwords, channels=channels)
        same_matrix(full, stream_transform_tfidf(stream_fit_tfidf(streams), streams, corpus.ids))
        assert full.spec == spec
        plan = make_folds(len(streams), 5, seed=3)
        folds = list(row_folds(spec, channels.source(spec), corpus.ids, plan))
        assert len(folds) == 5
        for fold, (train, test) in zip(folds, oracle_folds(streams, corpus.ids, plan)):
            same_matrix(fold.X_train, train)
            same_matrix(fold.X_test, test)

    @pytest.mark.parametrize("mode", MODES)
    def test_semantified_bags_match_the_stream_oracle(self, mini, mode, tmp_path):
        corpus, _ = mini
        class_lexicon_tsv(corpus, tmp_path / "lex.tsv")
        lex = load_lexicon(tmp_path / "lex.tsv")
        bags = [enrich(d, lex, 2, mode) for d in corpus.documents]
        counts = count_streams(bags)
        _, full = fit_rows(None, counts, np.arange(len(bags)), corpus.ids)
        same_matrix(full, stream_transform_tfidf(stream_fit_tfidf(bags), bags, corpus.ids))
        plan = make_folds(len(bags), 4, seed=1)
        for fold, (train, test) in zip(
            row_folds(None, counts, corpus.ids, plan), oracle_folds(bags, corpus.ids, plan)
        ):
            same_matrix(fold.X_train, train)
            same_matrix(fold.X_test, test)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(["a", "b", "word", "zeta"]), max_size=6),
                st.lists(st.sampled_from(["word", "x", "yy"]), max_size=6),
            ),
            min_size=2,
            max_size=9,
        ),
        st.integers(2, 9),
        st.integers(0, 3),
    )
    def test_summed_channels_match_the_concatenated_streams(self, rows, n_folds, seed):
        """Random bags with empty ones, tokens only some folds hold out, and
        a word in both parts, whose counts are summed."""
        text, surroundings = ([list(part) for part in side] for side in zip(*rows))
        bags = [a + b for a, b in zip(text, surroundings)]
        ids = [f"r{i}" for i in range(len(bags))]
        merged = merge_counts([count_streams(text), count_streams(surroundings)])
        concatenated = count_streams(bags)
        assert merged.names == concatenated.names
        np.testing.assert_array_equal(merged.counts, concatenated.counts)
        plan = make_folds(len(bags), min(n_folds, len(bags)), seed)
        folds = row_folds(None, merged, ids, plan)
        for train, test in oracle_folds_or_errors(bags, ids, plan):
            if isinstance(train, Exception):
                with pytest.raises(type(train), match=f"^{train}$"):
                    next(folds)
                return
            fold = next(folds)
            same_matrix(fold.X_train, train)
            same_matrix(fold.X_test, test)

    def test_all_empty_training_side_raises(self):
        counts = count_streams([[], [], ["a"]])
        with pytest.raises(AllBagsEmptyError, match="^all token bags are empty$"):
            fit_rows(None, counts, np.array([0, 1]), ["r0", "r1", "r2"])
        with pytest.raises(AllBagsEmptyError, match="^all token bags are empty$"):
            stream_fit_tfidf([[], []])

