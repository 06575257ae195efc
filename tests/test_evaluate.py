"""Folds, accuracy, purity, correlation, runtimes, and report tables."""
import math
from collections import Counter

import numpy as np
import pytest

from textmath import (
    ClassifierSpec,
    ConfusionMatrix,
    EncodingSpec,
    LengthMismatchError,
    RaggedGridError,
    TooFewSamplesError,
    ZeroVarianceError,
    accuracy_score,
    build_report,
    cross_validate,
    cross_validate_bags,
    generate_synthetic_corpus,
    make_folds,
    pearson,
    purity,
    text_math_correlation,
    weighted_purity,
)
from textmath import evaluate
from textmath.classify import fit_classifier, predict
from textmath.encode import fit_encoder, fit_tfidf, token_stream, transform_tfidf
from textmath.evaluate import encoding_folds, normalize_runtimes, score_folds, stream_folds
from tests.conftest import make_matrix


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
        assert a.pair_cosines() is a.pair_cosines()
        a.features = b.features.copy()
        assert text_math_correlation(a, b) == pytest.approx(1.0, abs=1e-12)
        assert first != pytest.approx(1.0, abs=1e-6)

    def test_sample_id_mismatch(self):
        a = make_matrix(np.eye(3), ids=["x", "y", "z"])
        b = make_matrix(np.eye(3), ids=["x", "z", "y"])
        with pytest.raises(ValueError):
            text_math_correlation(a, b)


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
        result = cross_validate(
            ClassifierSpec("logreg"), EncodingSpec("text", "tfidf"), small_corpus, plan
        )
        assert result.mean_accuracy >= 0.95
        assert result.confusion.total == len(small_corpus.documents)

    def test_mean_is_unweighted_fold_mean(self, small_corpus):
        plan = make_folds(len(small_corpus.documents), 5, seed=1)
        result = cross_validate(
            ClassifierSpec("knn"), EncodingSpec("text", "tfidf"), small_corpus, plan
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
        result = cross_validate_bags(
            ClassifierSpec("logreg"), bags, shuffled, small_corpus.label_set, plan
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
        result = cross_validate_bags(
            ClassifierSpec("knn", params={"k": 1}),
            bags2,
            labels2,
            small_corpus.label_set,
            plan,
        )
        assert result.mean_accuracy == 1.0


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
        return stream_folds(None, bags, [f"b{i}" for i in range(len(bags))], plan)

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

        outcomes = score_folds(
            self.SPECS, encoding_folds(encoding, small_corpus, plan), labels, small_corpus.label_set
        )
        for spec, outcome in zip(self.SPECS, outcomes):
            reference = reference_cross_validate(
                spec, plan, labels, small_corpus.label_set, encode_fold
            )
            assert_same_result(outcome, reference)
            assert_same_result(cross_validate(spec, encoding, small_corpus, plan), reference)
            assert outcome.fit_predict_seconds > 0.0

    def test_bags_match_the_per_classifier_loop(self, small_corpus):
        bags = [d.text_tokens for d in small_corpus.documents]
        labels = small_corpus.labels
        plan = make_folds(len(bags), 3, seed=2)

        def encode_fold(train_idx, test_idx):
            tfidf = fit_tfidf([bags[i] for i in train_idx])
            return (
                transform_tfidf(tfidf, [bags[i] for i in train_idx]),
                transform_tfidf(tfidf, [bags[i] for i in test_idx]),
            )

        for spec, outcome in zip(
            self.SPECS,
            score_folds(self.SPECS, self.bag_folds(bags, plan), labels, small_corpus.label_set),
        ):
            reference = reference_cross_validate(
                spec, plan, labels, small_corpus.label_set, encode_fold
            )
            assert_same_result(outcome, reference)
            assert_same_result(
                cross_validate_bags(spec, bags, labels, small_corpus.label_set, plan), reference
            )

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

    def test_plan_must_cover_every_sample(self, small_corpus):
        plan = make_folds(len(small_corpus.documents) - 1, 3, seed=0)
        with pytest.raises(LengthMismatchError):
            cross_validate(ClassifierSpec("knn"), EncodingSpec("text", "tfidf"), small_corpus, plan)
        # a bag the plan does not cover would never be held out
        bags = [d.text_tokens for d in small_corpus.documents]
        with pytest.raises(LengthMismatchError):
            cross_validate_bags(
                ClassifierSpec("knn"), bags, small_corpus.labels, small_corpus.label_set, plan
            )
