"""Six classifiers: fixtures, gradient checks, and shared invariants."""
import time

import numpy as np
import pytest

from textmath import (
    ClassifierSpec,
    DimensionMismatchError,
    SingleClassTrainingError,
    fit_classifier,
    predict,
)
from textmath.classify import logreg_objective, mlp_objective, svc_objective
from tests.conftest import make_blobs, make_matrix

ALL_ALGOS = ["logreg", "linear_svc", "knn", "mlp", "dectree", "randforest"]


def small_spec(algo, seed=0):
    """Specs sized for tiny fixtures so the suite stays fast."""
    params = {
        "mlp": {"hidden": 16, "max_epochs": 200, "step": 1e-2},
        "randforest": {"n_trees": 10},
    }.get(algo, {})
    return ClassifierSpec(algo, params=params, seed=seed)


@pytest.fixture(scope="module")
def blobs2():
    X, y = make_blobs([[0.0, 0.0], [10.0, 10.0]], n_per=20, scale=1.0, seed=0)
    return make_matrix(X), y


@pytest.fixture(scope="module")
def blobs3():
    X, y = make_blobs([[0.0, 0.0], [12.0, 0.0], [0.0, 12.0]], n_per=15, scale=1.0, seed=1)
    return make_matrix(X), y


def central_diff(fn, x0, eps=1e-6):
    grad = np.empty_like(x0)
    for i in range(x0.size):
        up = x0.copy()
        up[i] += eps
        down = x0.copy()
        down[i] -= eps
        grad[i] = (fn(up) - fn(down)) / (2 * eps)
    return grad


class TestGradients:
    def test_logreg_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        t0 = time.perf_counter()
        for _ in range(20):
            n = int(rng.integers(2, 11))
            d = int(rng.integers(1, 6))
            c = int(rng.integers(2, 4))
            X = rng.normal(size=(n, d))
            T = np.eye(c)[rng.integers(0, c, size=n)]
            lam = float(rng.uniform(0.01, 1.0))
            wb = rng.normal(size=c * d + c)
            _, grad = logreg_objective(wb, X, T, lam)
            num = central_diff(lambda w: logreg_objective(w, X, T, lam)[0], wb)
            scale = np.maximum(np.abs(num), 1e-8)
            assert np.max(np.abs(grad - num) / scale) < 1e-4
        assert time.perf_counter() - t0 < 10.0

    def test_mlp_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        t0 = time.perf_counter()
        for _ in range(20):
            n = int(rng.integers(2, 11))
            d = int(rng.integers(1, 6))
            c = int(rng.integers(2, 4))
            h = int(rng.integers(1, 5))
            X = rng.normal(size=(n, d))
            T = np.eye(c)[rng.integers(0, c, size=n)]
            theta = rng.normal(size=d * h + h + h * c + c) * 0.5
            _, grad = mlp_objective(theta, X, T, h)
            num = central_diff(lambda t: mlp_objective(t, X, T, h)[0], theta)
            scale = np.maximum(np.abs(num), 1e-6)
            assert np.max(np.abs(grad - num) / scale) < 1e-4
        assert time.perf_counter() - t0 < 10.0


class TestFitting:
    def test_logreg_separable_training_accuracy(self, blobs2):
        X, y = blobs2
        model = fit_classifier(ClassifierSpec("logreg"), X, y)
        assert predict(model, X) == y

    def test_knn_k1_memorizes(self, blobs2):
        X, y = blobs2
        model = fit_classifier(ClassifierSpec("knn", params={"k": 1}), X, y)
        assert predict(model, X) == y

    def test_mlp_default_hidden_width(self):
        assert ClassifierSpec("mlp").params["hidden"] == 500

    @pytest.mark.parametrize("algo", ALL_ALGOS)
    def test_all_algos_fit_separable(self, algo, blobs2):
        X, y = blobs2
        model = fit_classifier(small_spec(algo), X, y)
        assert predict(model, X) == y

    def test_single_class_error(self):
        X = make_matrix(np.zeros((4, 2)))
        with pytest.raises(SingleClassTrainingError):
            fit_classifier(ClassifierSpec("logreg"), X, ["a"] * 4)

    def test_dimension_mismatch_error(self, blobs2):
        X, y = blobs2
        model = fit_classifier(ClassifierSpec("logreg"), X, y)
        with pytest.raises(DimensionMismatchError):
            predict(model, make_matrix(np.zeros((2, 5))))

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError):
            ClassifierSpec("knn", params={"neighbors": 3})

    def test_svc_objective_non_increasing(self, blobs2):
        X, y = blobs2
        model = fit_classifier(ClassifierSpec("linear_svc"), X, y)
        for hist in model.state["objective_histories"]:
            diffs = np.diff(hist)
            assert np.all(diffs <= 1e-12)

    def test_svc_objective_value_formula(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(6, 3))
        s = np.where(rng.random(6) > 0.5, 1.0, -1.0)
        w = rng.normal(size=3)
        b = 0.3
        got = svc_objective(w, b, X, s, C=2.0)
        margins = 1.0 - s * (X @ w + b)
        want = 0.5 * w @ w + 2.0 * np.clip(margins, 0.0, None).sum()
        assert got == pytest.approx(want, rel=1e-12)

    def test_dectree_fits_distinct_rows_perfectly(self):
        rng = np.random.default_rng(5)
        X = make_matrix(rng.normal(size=(30, 4)))
        y = [f"c{i % 3}" for i in range(30)]
        model = fit_classifier(ClassifierSpec("dectree"), X, y)
        assert predict(model, X) == y

    def test_randforest_single_tree_equals_dectree(self):
        rng = np.random.default_rng(6)
        X = make_matrix(rng.normal(size=(40, 5)))
        y = [f"c{i % 3}" for i in range(40)]
        forest = fit_classifier(
            ClassifierSpec(
                "randforest",
                params={"n_trees": 1, "bootstrap": False, "max_features": None},
                seed=4,
            ),
            X,
            y,
        )
        tree = fit_classifier(ClassifierSpec("dectree", seed=4), X, y)
        probe = make_matrix(rng.normal(size=(25, 5)))
        assert predict(forest, probe) == predict(tree, probe)

    @pytest.mark.parametrize("algo", ALL_ALGOS)
    def test_deterministic_refit(self, algo, blobs3):
        X, y = blobs3
        probe = make_matrix(np.random.default_rng(9).normal(5.0, 4.0, size=(30, 2)))
        a = predict(fit_classifier(small_spec(algo, seed=7), X, y), probe)
        b = predict(fit_classifier(small_spec(algo, seed=7), X, y), probe)
        assert a == b

    @pytest.mark.parametrize("algo", ALL_ALGOS)
    def test_label_permutation_equivariance(self, algo, blobs3):
        X, y = blobs3
        mapping = {"b0": "zebra", "b1": "ant", "b2": "moth"}
        # Probe points deep inside the blobs: at decision boundaries the
        # documented label-order tie-break is allowed to differ.
        probe_X, _ = make_blobs(
            [[0.0, 0.0], [12.0, 0.0], [0.0, 12.0]], n_per=8, scale=1.0, seed=21
        )
        probe = make_matrix(probe_X)
        base = predict(fit_classifier(small_spec(algo, seed=3), X, y), probe)
        remapped = predict(
            fit_classifier(small_spec(algo, seed=3), X, [mapping[v] for v in y]), probe
        )
        assert remapped == [mapping[v] for v in base]


class TestPrediction:
    def test_one_row_one_label(self, blobs2):
        X, y = blobs2
        model = fit_classifier(ClassifierSpec("logreg"), X, y)
        assert len(predict(model, make_matrix(X.features[:1]))) == 1

    def test_labels_stay_in_training_set(self, blobs2):
        X, y = blobs2
        model = fit_classifier(ClassifierSpec("knn"), X, y)
        rng = np.random.default_rng(10)
        out = predict(model, make_matrix(rng.normal(5.0, 10.0, size=(50, 2))))
        assert set(out) <= set(y)

    def test_far_test_points_match_blobs(self, blobs2):
        X, y = blobs2
        model = fit_classifier(ClassifierSpec("logreg"), X, y)
        rng = np.random.default_rng(11)
        fresh = np.vstack(
            [rng.normal(0.0, 1.0, size=(10, 2)), rng.normal(10.0, 1.0, size=(10, 2))]
        )
        want = ["b0"] * 10 + ["b1"] * 10
        assert predict(model, make_matrix(fresh)) == want

