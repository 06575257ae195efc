"""Six classifiers: fixtures, gradient checks, and shared invariants."""
import math
import time
from typing import Any
from unittest import mock

import numpy as np
import pytest

from textmath import (
    ClassifierSpec,
    DimensionMismatchError,
    SingleClassTrainingError,
    fit_classifier,
    predict,
)
from textmath import classify
from textmath.classify import class_scores, logreg_objective, mlp_objective, svc_objective
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



class TestRealParams:
    @pytest.mark.parametrize(
        "algo,params",
        [
            ("logreg", {"C": 1e-300, "tol": 0}),
            ("linear_svc", {"C": np.float64(2)}),
            ("mlp", {"step": 1, "beta1": 0, "beta2": 0.0, "tol": 0.0}),
        ],
    )
    def test_boundary_values_are_kept(self, algo, params):
        assert ClassifierSpec(algo, params=params).params.items() >= params.items()


class TestForestParams:
    @pytest.mark.parametrize(
        "params",
        [
            {"n_trees": 0},
            {"n_trees": -3},
            {"n_trees": 2.5},
            {"n_trees": "10"},
            {"n_trees": True},
            {"bootstrap": 1},
            {"bootstrap": "yes"},
            {"bootstrap": None},
            {"max_features": "log2"},
            {"max_features": 2.5},
            {"max_features": 0},
            {"max_features": -1},
            {"max_features": True},
            {"max_features": "3"},
        ],
    )
    def test_bad_values_are_rejected(self, params):
        with pytest.raises(ValueError, match="randforest." + next(iter(params))):
            ClassifierSpec("randforest", params=params)

    @pytest.mark.parametrize(
        "params",
        [
            {"n_trees": 1},
            {"bootstrap": False},
            {"bootstrap": True},
            {"max_features": 1},
            {"max_features": None},
            {"max_features": "sqrt"},
            {"max_features": 50},  # more than the data has: every feature
        ],
    )
    def test_boundary_values_fit(self, params, blobs2):
        X, y = blobs2
        spec = ClassifierSpec("randforest", params={"n_trees": 3, **params})
        assert predict(fit_classifier(spec, X, y), X) == y


class TestSpecIntegers:
    @pytest.mark.parametrize(
        "algo,kwargs,match",
        [
            ("knn", {"params": {"k": 2.5}}, "knn.k"),
            ("knn", {"params": {"k": True}}, "knn.k"),
            ("knn", {"params": {"k": 0}}, "knn.k"),
            ("mlp", {"params": {"hidden": 2.5}}, "mlp.hidden"),
            ("mlp", {"params": {"batch_size": 0}}, "mlp.batch_size"),
            ("mlp", {"params": {"max_epochs": 2.0}}, "mlp.max_epochs"),
            ("mlp", {"params": {"patience": "10"}}, "mlp.patience"),
            ("logreg", {"params": {"max_epochs": 0}}, "logreg.max_epochs"),
            ("linear_svc", {"params": {"max_epochs": True}}, "linear_svc.max_epochs"),
            ("knn", {"seed": "x"}, "knn.seed"),
            ("dectree", {"seed": -1}, "dectree.seed"),
            ("randforest", {"seed": 1.0}, "randforest.seed"),
        ],
    )
    def test_bad_values_are_rejected(self, algo, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ClassifierSpec(algo, **kwargs)

    @pytest.mark.parametrize(
        "algo,kwargs",
        [
            ("knn", {"params": {"k": 1}, "seed": 0}),
            ("knn", {"params": {"k": np.int64(3)}, "seed": np.int64(2)}),
            ("mlp", {"params": {"hidden": 1, "batch_size": 1, "max_epochs": 1, "patience": 1}}),
            ("logreg", {"params": {"max_epochs": 1}}),
        ],
    )
    def test_boundary_values_fit(self, algo, kwargs, blobs2):
        X, y = blobs2
        assert len(predict(fit_classifier(ClassifierSpec(algo, **kwargs), X, y), X)) == len(y)


# --- reference CART: one _best_split pass per candidate feature and a
# dict per node, as the trees were before they became node arrays ---------


def ref_best_split(X, y_idx, rows, n_classes, features):
    n = len(rows)
    best = None
    best_score = math.inf
    for f in features:
        vals = X[rows, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        if sv[0] == sv[-1]:
            continue
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), y_idx[rows][order]] = 1.0
        left = np.cumsum(onehot, axis=0)[:-1]
        total = left[-1] + onehot[-1]
        right = total - left
        nl = np.arange(1, n)
        nr = n - nl
        gini_l = 1.0 - (left**2).sum(axis=1) / nl**2
        gini_r = 1.0 - (right**2).sum(axis=1) / nr**2
        weighted = (nl * gini_l + nr * gini_r) / n
        valid = sv[:-1] < sv[1:]
        weighted[~valid] = math.inf
        pos = int(np.argmin(weighted))
        if weighted[pos] < best_score:
            best_score = weighted[pos]
            best = (int(f), float((sv[pos] + sv[pos + 1]) / 2.0))
    return best


def ref_grow_tree(X, y_idx, rows, n_classes, rng, max_features, fallbacks):
    """The node list, depth first; ``fallbacks`` counts the nodes whose
    drawn features were all constant."""
    nodes = []

    def leaf(rows_):
        counts = np.bincount(y_idx[rows_], minlength=n_classes)
        nodes.append({"dist": (counts / counts.sum()).tolist()})
        return len(nodes) - 1

    def grow(rows_):
        if len(np.unique(y_idx[rows_])) == 1:
            return leaf(rows_)
        d = X.shape[1]
        if max_features is None or max_features >= d:
            features = np.arange(d)
        else:
            features = np.sort(rng.choice(d, size=max_features, replace=False))
        split = ref_best_split(X, y_idx, rows_, n_classes, features)
        if split is None and max_features is not None and max_features < d:
            split = ref_best_split(X, y_idx, rows_, n_classes, np.arange(d))
            fallbacks.append(split is not None)
        if split is None:
            return leaf(rows_)
        f, threshold = split
        node_id = len(nodes)
        nodes.append({"feature": f, "threshold": threshold, "left": -1, "right": -1})
        go_left = X[rows_, f] <= threshold
        nodes[node_id]["left"] = grow(rows_[go_left])
        nodes[node_id]["right"] = grow(rows_[~go_left])
        return node_id

    grow(rows)
    return nodes


def ref_tree_scores(nodes, X, n_classes):
    out = np.zeros((X.shape[0], n_classes))
    for i, x in enumerate(X):
        node = nodes[0]
        while "feature" in node:
            node = nodes[node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]]
        out[i] = node["dist"]
    return out


def ref_forest(X, y_idx, n_classes, params, seed, fallbacks):
    n, d = X.shape
    if params["max_features"] == "sqrt":
        max_features = max(1, int(math.sqrt(d)))
    else:
        max_features = params["max_features"]
    trees = []
    for ss in np.random.SeedSequence(seed).spawn(params["n_trees"]):
        rng = np.random.default_rng(ss)
        rows = rng.integers(n, size=n) if params["bootstrap"] else np.arange(n)
        trees.append(ref_grow_tree(X, y_idx, rows, n_classes, rng, max_features, fallbacks))
    return trees


def tree_data(seed, n=36, d=9, n_classes=4):
    """Small integer grid values (many ties), a few duplicated rows with a
    different label, and constant columns: most of the columns, so that a
    small feature draw is often all constant and the full search runs."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, size=(n, d)).astype(np.float64)
    X[:, rng.choice(d, size=d - 3, replace=False)] = rng.integers(0, 3, size=d - 3)
    y_idx = rng.integers(0, n_classes, size=n)
    dup = rng.choice(n, size=4, replace=False)
    X[dup[:2]] = X[dup[2:]]
    y_idx[dup[:2]] = (y_idx[dup[2:]] + 1) % n_classes
    return X, y_idx


def assert_same_tree(table, nodes, root=0):
    """The tree at ``root`` of the node table equals the reference nodes."""
    for i, node in enumerate(nodes):
        at = root + i
        if "feature" in node:
            assert (table.feature[at], table.left[at], table.right[at]) == (
                node["feature"], root + node["left"], root + node["right"],
            )
            assert table.threshold[at] == node["threshold"]
            assert not table.dist[at].any()
        else:
            assert (table.feature[at], table.left[at], table.right[at]) == (-1, -1, -1)
            assert np.array_equal(table.dist[at], node["dist"])


FOREST_PARAMS = [
    {"bootstrap": True, "max_features": "sqrt"},
    {"bootstrap": False, "max_features": "sqrt"},
    {"bootstrap": True, "max_features": None},
    {"bootstrap": False, "max_features": None},
    {"bootstrap": True, "max_features": 1},
    {"bootstrap": False, "max_features": 2},
]


class TestTreesAgainstReference:
    """The batched split and the node arrays grow the same trees, draw the
    same random numbers and give bit-identical scores as the per-feature
    search with dict nodes."""

    # 1: every candidate feature is searched in its own block, so the
    # earliest-feature tie rule must hold across blocks too.
    # 1000: a step's search runs in blocks of a few nodes, and the
    # all-feature fallback of a wide node in two blocks of features.
    @pytest.fixture(
        params=[classify._SPLIT_BLOCK, 1, 1000],
        ids=["one_block", "per_feature_blocks", "node_and_feature_blocks"],
    )
    def split_block(self, request):
        with mock.patch.object(classify, "_SPLIT_BLOCK", request.param):
            yield

    @pytest.mark.parametrize("seed", range(6))
    def test_dectree(self, seed, split_block):
        X, y_idx = tree_data(seed)
        n_classes = 4
        nodes = ref_grow_tree(X, y_idx, np.arange(len(X)), n_classes, None, None, [])
        labels = [f"c{i}" for i in range(n_classes)]
        model = fit_classifier(
            ClassifierSpec("dectree"), X, [labels[i] for i in y_idx], label_set=labels
        )
        assert list(model.state["roots"]) == [0]
        assert len(model.state["nodes"].feature) == len(nodes)
        assert_same_tree(model.state["nodes"], nodes)
        probe = np.random.default_rng(seed + 100).integers(-1, 4, size=(50, X.shape[1]))
        probe = np.vstack([X, probe.astype(np.float64)])
        want = ref_tree_scores(nodes, probe, n_classes)
        assert class_scores(model, probe).tobytes() == want.tobytes()

    @pytest.mark.parametrize("params", FOREST_PARAMS, ids=str)
    @pytest.mark.parametrize("seed", range(3))
    def test_randforest(self, seed, params, split_block):
        X, y_idx = tree_data(seed + 10)
        n_classes = 4
        params = {"n_trees": 12, **params}
        fallbacks = []
        ref_trees = ref_forest(X, y_idx, n_classes, params, seed, fallbacks)
        labels = [f"c{i}" for i in range(n_classes)]
        model = fit_classifier(
            ClassifierSpec("randforest", params=params, seed=seed),
            X,
            [labels[i] for i in y_idx],
            label_set=labels,
        )
        sizes = [len(nodes) for nodes in ref_trees]
        assert list(model.state["roots"]) == [sum(sizes[:t]) for t in range(len(sizes))]
        assert len(model.state["nodes"].feature) == sum(sizes)
        for root, nodes in zip(model.state["roots"], ref_trees):
            assert_same_tree(model.state["nodes"], nodes, root)
        probe = np.random.default_rng(seed + 200).integers(-1, 4, size=(50, X.shape[1]))
        probe = np.vstack([X, probe.astype(np.float64)])
        want = np.mean([ref_tree_scores(nodes, probe, n_classes) for nodes in ref_trees], axis=0)
        assert class_scores(model, probe).tobytes() == want.tobytes()
        if params["max_features"] == 1:
            # Most columns are constant, so some single-feature draws were.
            assert any(fallbacks)

    def test_continuous_features(self, split_block):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 30))
        y_idx = rng.integers(0, 5, size=60)
        for seed in range(3):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            tree = classify._grow_trees(X, y_idx, [np.arange(60)], 5, [rng_a], 5)[0]
            nodes = ref_grow_tree(X, y_idx, np.arange(60), 5, rng_b, 5, [])
            assert len(tree.feature) == len(nodes)
            assert_same_tree(tree, nodes)
            assert rng_a.random() == rng_b.random()  # the same number of draws

    def test_trees_of_uneven_size_grow_in_lockstep(self, split_block):
        """One pure root, two deep trees and a small one share each step's
        search; the two constant columns make single-feature draws fall back
        to the full search."""
        rng = np.random.default_rng(11)
        n = 60
        X = np.zeros((n, 4))
        X[:, 0] = rng.permutation(n)
        X[:, 1] = rng.integers(0, 4, size=n)
        y_idx = np.where(np.arange(n) < 20, 0, 1 + np.arange(n) % 3)
        rows = [
            np.arange(20),  # one class: a single leaf
            np.arange(n),
            rng.integers(n, size=n),
            np.array([0, 25, 26, 25]),
        ]
        rngs = [np.random.default_rng(seed) for seed in range(len(rows))]
        trees = classify._grow_trees(X, y_idx, rows, 4, rngs, 1)
        fallbacks = []
        sizes = []
        for seed, (tree, rows_, rng_) in enumerate(zip(trees, rows, rngs)):
            ref_rng = np.random.default_rng(seed)
            nodes = ref_grow_tree(X, y_idx, rows_, 4, ref_rng, 1, fallbacks)
            assert len(tree.feature) == len(nodes)
            assert_same_tree(tree, nodes)
            assert rng_.random() == ref_rng.random()  # the same number of draws
            sizes.append(len(nodes))
        assert sizes[0] == 1 and min(sizes[1:3]) > 10 * sizes[3]
        assert any(fallbacks)

    @pytest.mark.parametrize("algo", ["dectree", "randforest"])
    def test_all_constant_features_give_one_leaf(self, algo, split_block):
        X = np.full((12, 5), 2.0)
        y_idx = np.arange(12) % 3
        labels = ["c0", "c1", "c2"]
        params = {"n_trees": 4, "max_features": 1} if algo == "randforest" else {}
        model = fit_classifier(ClassifierSpec(algo, params=params), X, [labels[i] for i in y_idx])
        nodes = model.state["nodes"]
        assert list(model.state["roots"]) == list(range(len(model.state["roots"])))
        assert (nodes.feature == -1).all() and (nodes.left == -1).all()
        if algo == "dectree":
            assert np.array_equal(nodes.dist, [[1 / 3, 1 / 3, 1 / 3]])
        else:
            fallbacks = []
            ref = ref_forest(X, y_idx, 3, {"bootstrap": True, **params}, 0, fallbacks)
            for root, tree in zip(model.state["roots"], ref):
                assert_same_tree(nodes, tree, root)
            assert fallbacks == [False] * len(fallbacks) and fallbacks

    def test_forest_searches_once_per_lockstep_step(self):
        """A forest's trees share each step's search: there are no more
        search calls than twice its largest tree's node count (a step may
        also search its all-feature fallbacks)."""
        X, y_idx = tree_data(12)
        labels = [f"c{i}" for i in range(4)]
        with mock.patch.object(classify, "_best_splits", wraps=classify._best_splits) as search:
            model = fit_classifier(
                ClassifierSpec("randforest", params={"n_trees": 12, "max_features": 1}),
                X,
                [labels[i] for i in y_idx],
            )
        sizes = np.diff([*model.state["roots"], len(model.state["nodes"].feature)])
        assert sizes.sum() > 4 * sizes.max()
        assert search.call_count <= 2 * sizes.max()

    @pytest.mark.parametrize("block", [classify._SPLIT_BLOCK, 1, 50, 1000])
    def test_batched_search_matches_per_node_search(self, block):
        """Nodes of 2 to 40 rows (repeated rows too) and their own features
        in one call equal one reference search per node."""
        X, y_idx = tree_data(3, n=40)
        rng = np.random.default_rng(5)
        rows = [rng.integers(40, size=k) for k in [2, 40, 3, 17, 2, 29, 8, 40]]
        rows.append(np.array([4, 4, 4]))  # every feature constant
        features = np.sort([rng.choice(9, size=4, replace=False) for _ in rows], axis=1)
        totals = np.array([np.bincount(y_idx[r], minlength=4) for r in rows], dtype=np.float64)
        with mock.patch.object(classify, "_SPLIT_BLOCK", block):
            feature, threshold = classify._best_splits(X, y_idx, rows, totals, features)
        for i, r in enumerate(rows):
            want = ref_best_split(X, y_idx, r, 4, features[i])
            if want is None:
                assert feature[i] == -1
            else:
                assert (feature[i], threshold[i]) == want
        assert feature[-1] == -1 and (feature[:-1] >= 0).any()


# --- reference MLP and linear SVM fits, as they were before the Adam step
# and the SVC's margins were updated in place --------------------------------


def ref_svc_objective(w: np.ndarray, b: float, X: np.ndarray, s: np.ndarray, C: float) -> float:
    """Primal hinge objective 0.5·‖w‖² + C·Σ max(0, 1 − s·(Xw+b))."""
    margins = 1.0 - s * (X @ w + b)
    return float(0.5 * w @ w + C * np.clip(margins, 0.0, None).sum())


def ref_fit_linear_svc(X: np.ndarray, T: np.ndarray, params: dict[str, Any]) -> dict[str, Any]:
    n, d = X.shape
    C = params["C"]
    W = np.zeros((T.shape[1], d))
    b = np.zeros(T.shape[1])
    histories = []
    for ci in range(T.shape[1]):
        s = 2.0 * T[:, ci] - 1.0
        w = np.zeros(d)
        bc = 0.0
        obj = ref_svc_objective(w, bc, X, s, C)
        history = [obj]
        lr = 1.0 / (C * ((X * X).sum() + n) / n + 1.0)
        for _ in range(params["max_epochs"]):
            active = (1.0 - s * (X @ w + bc)) > 0
            grad_w = w - C * (s[active] @ X[active])
            grad_b = -C * s[active].sum()
            # Backtracking keeps the objective non-increasing even though
            # the hinge is only subdifferentiable.
            trial_obj = ref_svc_objective(w - lr * grad_w, bc - lr * grad_b, X, s, C)
            if trial_obj <= obj:
                w -= lr * grad_w
                bc -= lr * grad_b
                improved = obj - trial_obj
                obj = trial_obj
                lr *= 1.1
                if improved < 1e-8 * (1.0 + abs(obj)):
                    history.append(obj)
                    break
            else:
                lr *= 0.5
                if lr < 1e-14:
                    history.append(obj)
                    break
            history.append(obj)
        W[ci] = w
        b[ci] = bc
        histories.append(history)
    return {"W": W, "b": b, "objective_histories": histories}



def ref_unpack_mlp(theta: np.ndarray, d: int, h: int, c: int):
    i = 0
    W1 = theta[i : i + d * h].reshape(h, d)
    i += d * h
    b1 = theta[i : i + h]
    i += h
    W2 = theta[i : i + h * c].reshape(c, h)
    i += h * c
    b2 = theta[i : i + c]
    return W1, b1, W2, b2


def ref_mlp_forward(theta: np.ndarray, X: np.ndarray, h: int, c: int):
    W1, b1, W2, b2 = ref_unpack_mlp(theta, X.shape[1], h, c)
    A = np.maximum(X @ W1.T + b1, 0.0)
    Z = A @ W2.T + b2
    Z -= Z.max(axis=1, keepdims=True)
    expz = np.exp(Z)
    P = expz / expz.sum(axis=1, keepdims=True)
    return A, P


def ref_mlp_objective(
    theta: np.ndarray, X: np.ndarray, T: np.ndarray, hidden: int
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of a d→hidden(ReLU)→classes net."""
    n = X.shape[0]
    c = T.shape[1]
    W1, b1, W2, b2 = ref_unpack_mlp(theta, X.shape[1], hidden, c)
    A, P = ref_mlp_forward(theta, X, hidden, c)
    loss = float(-(T * np.log(np.clip(P, 1e-12, None))).sum() / n)
    dZ = (P - T) / n
    grad_W2 = dZ.T @ A
    grad_b2 = dZ.sum(axis=0)
    dA = dZ @ W2
    dA[A <= 0.0] = 0.0
    grad_W1 = dA.T @ X
    grad_b1 = dA.sum(axis=0)
    grad = np.concatenate([grad_W1.ravel(), grad_b1, grad_W2.ravel(), grad_b2])
    return loss, grad


def ref_init_mlp(rng: np.random.Generator, d: int, h: int, c: int) -> np.ndarray:
    lim1 = math.sqrt(6.0 / (d + h))
    lim2 = math.sqrt(6.0 / (h + c))
    return np.concatenate(
        [
            rng.uniform(-lim1, lim1, d * h),
            np.zeros(h),
            rng.uniform(-lim2, lim2, h * c),
            np.zeros(c),
        ]
    )


def ref_fit_mlp(
    X: np.ndarray, T: np.ndarray, params: dict[str, Any], seed: int
) -> dict[str, Any]:
    n, d = X.shape
    h, c = params["hidden"], T.shape[1]
    rng = np.random.default_rng(seed)
    theta = ref_init_mlp(rng, d, h, c)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step, b1, b2 = params["step"], params["beta1"], params["beta2"]
    t = 0
    best_loss = math.inf
    stall = 0
    for _ in range(params["max_epochs"]):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, params["batch_size"]):
            batch = order[start : start + params["batch_size"]]
            loss, grad = ref_mlp_objective(theta, X[batch], T[batch], h)
            epoch_loss += loss * len(batch)
            t += 1
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad * grad
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            theta -= step * m_hat / (np.sqrt(v_hat) + 1e-8)
        epoch_loss /= n
        if best_loss - epoch_loss < params["tol"]:
            stall += 1
            if stall >= params["patience"]:
                break
        else:
            stall = 0
        best_loss = min(best_loss, epoch_loss)
    return {"theta": theta, "hidden": h}


def fit_data(seed, n, d, c, density=1.0):
    """Normal features with a ``density`` share of nonzeros (tf-idf rows are
    mostly zeros) and one-hot targets holding every class."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * (rng.random((n, d)) < density)
    y_idx = rng.integers(0, c, size=n)
    y_idx[:c] = np.arange(c)
    return X, np.eye(c)[y_idx]


MLP_CASES = {
    "rows_below_batch": (10, 4, 3, 1.0, {"hidden": 8, "batch_size": 32, "max_epochs": 30}),
    "partial_last_batch": (45, 6, 4, 0.3, {"hidden": 6, "batch_size": 8, "max_epochs": 20}),
    "patience_stop": (
        20, 3, 2, 1.0, {"hidden": 5, "batch_size": 8, "max_epochs": 50, "tol": 1e3, "patience": 3}
    ),
    "one_hidden_unit": (30, 4, 3, 0.5, {"hidden": 1, "batch_size": 7, "max_epochs": 25}),
}

SVC_CASES = {
    "converges": (40, 5, 3, {}),
    "epoch_cap": (40, 5, 3, {"max_epochs": 7}),
    "large_C": (30, 8, 2, {"C": 50.0}),
    "sparse_rows": (50, 12, 4, {"C": 0.3}),
}


class TestFitsAgainstReference:
    """The in-place MLP and SVC fits give bit-identical parameters to the
    fits that built new arrays each step."""

    @pytest.mark.parametrize("case", list(MLP_CASES))
    @pytest.mark.parametrize("seed", range(2))
    def test_mlp(self, case, seed):
        n, d, c, density, params = MLP_CASES[case]
        X, T = fit_data(seed, n, d, c, density)
        params = ClassifierSpec("mlp", params={"step": 1e-2, **params}).params
        want = ref_fit_mlp(X, T, params, seed)["theta"]
        assert classify._fit_mlp(X, T, params, seed)["theta"].tobytes() == want.tobytes()
        if case == "patience_stop":
            # Every epoch after the first stalls, so the fit stops after
            # 1 + ``patience`` epochs.
            capped = ref_fit_mlp(X, T, {**params, "max_epochs": 4}, seed)["theta"]
            assert capped.tobytes() != ref_fit_mlp(X, T, {**params, "max_epochs": 3}, seed)[
                "theta"
            ].tobytes()
            assert capped.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", list(SVC_CASES))
    @pytest.mark.parametrize("seed", range(2))
    def test_linear_svc(self, case, seed):
        n, d, c, params = SVC_CASES[case]
        X, T = fit_data(seed, n, d, c, 0.4 if case == "sparse_rows" else 1.0)
        params = ClassifierSpec("linear_svc", params=params).params
        want = ref_fit_linear_svc(X, T, params)
        got = classify._fit_linear_svc(X, T, params)
        assert got["W"].tobytes() == want["W"].tobytes()
        assert got["b"].tobytes() == want["b"].tobytes()
        assert got["objective_histories"] == want["objective_histories"]
        if case == "epoch_cap":
            assert all(len(h) == 8 for h in got["objective_histories"])

    @pytest.mark.parametrize("seed", range(6))
    def test_mlp_objective_into_a_buffer(self, seed):
        """With a buffer, without one and in the reference: the same loss
        and gradient bits. Hidden unit 0 is off for every row, so its
        gradient entries are zeros that must not turn into -0.0."""
        rng = np.random.default_rng(seed)
        n, d, c = int(rng.integers(1, 12)), int(rng.integers(1, 6)), int(rng.integers(2, 5))
        h = int(rng.integers(1, 5))
        X, T = fit_data(seed, n, d, c if n >= c else 2, 0.6)
        c = T.shape[1]
        theta = rng.normal(size=d * h + h + h * c + c)
        theta[d * h] = -1e3  # the bias of hidden unit 0
        loss, grad = mlp_objective(theta, X, T, h)
        buffer = np.full_like(theta, np.nan)
        loss_into, grad_into = mlp_objective(theta, X, T, h, buffer)
        assert grad_into is buffer
        want_loss, want_grad = ref_mlp_objective(theta, X, T, h)
        assert loss == loss_into == want_loss
        assert grad.tobytes() == grad_into.tobytes() == want_grad.tobytes()

    def test_mlp_objective_off_unit_gradient_is_positive_zero(self):
        """Hidden unit 0 is off for every row and the signal into it is
        negative, so masking it by a product leaves -0.0 in its rows; its
        gradient entries are still +0.0, as in the reference."""
        rng = np.random.default_rng(4)
        n, d, h, c = 6, 3, 2, 2
        X = rng.normal(size=(n, d))
        T = np.eye(c)[np.zeros(n, dtype=int)]
        theta = rng.normal(size=d * h + h + h * c + c)
        theta[d * h] = -1e3  # the bias of hidden unit 0
        theta[d * h + h : d * h + h + h * c].reshape(c, h)[:, 0] = [1.0, 0.0]
        _, grad = mlp_objective(theta, X, T, h)
        _, want = ref_mlp_objective(theta, X, T, h)
        assert grad.tobytes() == want.tobytes()
        assert not np.signbit(grad[d * h])

