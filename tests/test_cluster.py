"""Five clusterers: fixtures, per-algo contracts, and shared invariants."""
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textmath import (
    ClustererSpec,
    KExceedsSamplesError,
    dump_assignment,
    estimate_bandwidth,
    fit_predict_clusterer,
    purity,
)
from textmath import cluster
from textmath.cluster import DEFAULT_PARAMS
from tests.conftest import make_blobs, make_matrix


def gmm_from_kmeans(X, k, params, seed):
    """``_fit_gmm`` from the default k-means start with ``seed``, as a row's
    gmm column starts."""
    return cluster._fit_gmm(X, k, params, cluster._fit_kmeans(X, k, DEFAULT_PARAMS["kmeans"], seed))


def partition_sets(assignment):
    """Cluster structure as a relabeling-invariant set of frozen id sets."""
    groups = {}
    for sid, cid in zip(assignment.sample_ids, assignment.cluster_ids):
        groups.setdefault(cid, set()).add(sid)
    return {frozenset(g) for g in groups.values()}


@pytest.fixture(scope="module")
def far_blobs():
    X, y = make_blobs([[0.0] * 4, [20.0] * 4], n_per=25, scale=1.0, seed=0)
    return make_matrix(X), y


class TestSpecValidation:
    def test_k_required_for_fixed_family(self):
        for algo in ("kmeans", "agglomerative", "gmm"):
            with pytest.raises(ValueError):
                ClustererSpec(algo)

    def test_k_forbidden_for_unfixed_family(self):
        for algo in ("affinity", "meanshift"):
            with pytest.raises(ValueError):
                ClustererSpec(algo, k=3)

    @pytest.mark.parametrize(
        "algo,k,params",
        [
            ("kmeans", 2, {"max_iter": 0}),
            ("kmeans", 2, {"n_restarts": 0}),
            ("kmeans", 2, {"max_iter": 2.5}),
            ("gmm", 2, {"max_iter": -1}),
            ("affinity", None, {"max_iter": True}),
            ("affinity", None, {"stable_iters": 0}),
            ("affinity", None, {"damping": 1.0}),
            ("affinity", None, {"damping": -0.1}),
            ("meanshift", None, {"quantile": 0.0}),
            ("meanshift", None, {"quantile": 1.5}),
            ("meanshift", None, {"quantile": "0.3"}),
            ("kmeans", 2, {"n_restarts": 2.0}),
            ("gmm", 2, {"max_iter": "5"}),
            ("meanshift", None, {"max_iter": True}),
        ],
    )
    def test_bad_numeric_params_rejected(self, algo, k, params):
        with pytest.raises(ValueError, match=next(iter(params))):
            ClustererSpec(algo, k=k, params=params)

    def test_boundary_params_accepted(self):
        ClustererSpec("kmeans", k=2, params={"max_iter": 1, "n_restarts": 1})
        ClustererSpec("affinity", params={"damping": 0.0, "stable_iters": 1})
        ClustererSpec("meanshift", params={"quantile": 1})
        ClustererSpec("gmm", k=2, params={"tol": 0, "cov_floor": 1e-300})

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"k": 2.5}, "kmeans.k"),
            ({"k": True}, "kmeans.k"),
            ({"k": 0}, "kmeans.k"),
            ({"k": 2, "seed": "x"}, "kmeans.seed"),
            ({"k": 2, "seed": -1}, "kmeans.seed"),
            ({"k": 2, "pca_dims": 2.5}, "kmeans.pca_dims"),
            ({"k": 2, "pca_dims": 0}, "kmeans.pca_dims"),
        ],
    )
    def test_bad_integer_fields_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ClustererSpec("kmeans", **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 1, "seed": 0, "pca_dims": None},
            {"k": np.int64(2), "seed": np.int64(0), "pca_dims": np.int64(1)},
        ],
    )
    def test_integer_boundaries_accepted(self, kwargs, far_blobs):
        X, _ = far_blobs
        assignment = fit_predict_clusterer(ClustererSpec("kmeans", **kwargs), X)
        assert assignment.n_clusters == kwargs["k"]

    def test_k_exceeds_samples(self, far_blobs):
        X, _ = far_blobs
        with pytest.raises(KExceedsSamplesError):
            fit_predict_clusterer(ClustererSpec("kmeans", k=X.n_samples + 1), X)


class TestKmeans:
    def test_two_blobs_recovered(self, far_blobs):
        X, y = far_blobs
        a = fit_predict_clusterer(ClustererSpec("kmeans", k=2, seed=0), X)
        assert a.n_clusters == 2
        assert purity(a, y) == 1.0

    def test_k_equals_n_singletons(self):
        X = make_matrix(np.random.default_rng(1).normal(size=(9, 3)))
        a = fit_predict_clusterer(ClustererSpec("kmeans", k=9, seed=0), X)
        assert a.n_clusters == 9
        assert a.diagnostics["inertia"] == pytest.approx(0.0, abs=1e-9)

    def test_inertia_history_non_increasing(self):
        X, _ = make_blobs([[0, 0], [4, 0], [0, 4], [4, 4]], n_per=15, scale=1.2, seed=2)
        a = fit_predict_clusterer(ClustererSpec("kmeans", k=4, seed=0), make_matrix(X))
        hist = a.diagnostics["inertia_history"]
        assert all(b <= a_ + 1e-9 for a_, b in zip(hist, hist[1:]))

    def test_final_assignment_is_fixed_point(self, far_blobs):
        X, _ = far_blobs
        a = fit_predict_clusterer(ClustererSpec("kmeans", k=2, seed=0), X)
        ids = np.asarray(a.cluster_ids)
        centers = np.stack([X.features[ids == c].mean(axis=0) for c in range(a.n_clusters)])
        d2 = ((X.features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(np.argmin(d2, axis=1), ids)

    def test_empty_cluster_is_rejected(self):
        # Seven rows, six distinct: at k = 7 Lloyd's repair cannot fill
        # every cluster, and the partition would have six.
        X = np.array([[0, 2], [2, 2], [0, 0], [2, 0], [1, 0], [0, 1], [0, 0]], dtype=float)
        with pytest.raises(KExceedsSamplesError, match=r"k=7.*6 distinct rows"):
            fit_predict_clusterer(ClustererSpec("kmeans", k=7), make_matrix(X))


class TestAgglomerative:
    def test_two_blobs_recovered(self, far_blobs):
        X, y = far_blobs
        a = fit_predict_clusterer(ClustererSpec("agglomerative", k=2), X)
        assert purity(a, y) == 1.0

    def test_k_one_single_cluster(self, far_blobs):
        X, _ = far_blobs
        a = fit_predict_clusterer(ClustererSpec("agglomerative", k=1), X)
        assert a.n_clusters == 1

    def test_k_n_singletons(self):
        X = make_matrix(np.random.default_rng(3).normal(size=(7, 2)))
        a = fit_predict_clusterer(ClustererSpec("agglomerative", k=7), X)
        assert a.n_clusters == 7

    def test_first_merge_is_closest_pair(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0], [9.0, 0.0]])
        a = fit_predict_clusterer(ClustererSpec("agglomerative", k=3), make_matrix(pts))
        ids = a.cluster_ids
        assert ids[0] == ids[1]
        assert len({ids[0], ids[2], ids[3]}) == 3


class TestGmm:
    def test_two_blobs_recovered(self, far_blobs):
        X, y = far_blobs
        a = fit_predict_clusterer(ClustererSpec("gmm", k=2, seed=0), X)
        assert purity(a, y) == 1.0

    def test_loglik_monotone(self, far_blobs):
        X, _ = far_blobs
        _, state = gmm_from_kmeans(X.features, 2, DEFAULT_PARAMS["gmm"], 0)
        hist = state["loglik_history"]
        assert len(hist) >= 2
        assert all(b >= a_ - 1e-8 for a_, b in zip(hist, hist[1:]))

    def test_single_component_density_closed_form(self):
        rng = np.random.default_rng(4)
        X = rng.normal(2.0, 1.5, size=(40, 3))
        _, state = gmm_from_kmeans(X, 1, DEFAULT_PARAMS["gmm"], 0)
        mean = np.asarray(state["means"][0])
        var = np.asarray(state["variances"][0])
        got = ref_gmm_loglik(state, mean[None, :])
        want = -0.5 * float(np.log(2.0 * math.pi * var).sum())
        assert got == pytest.approx(want, rel=1e-9)

    def test_responsibilities_confident_on_blobs(self, far_blobs):
        X, y = far_blobs
        _, state = gmm_from_kmeans(X.features, 2, DEFAULT_PARAMS["gmm"], 0)
        means = np.asarray(state["means"])
        variances = np.asarray(state["variances"])
        weights = np.asarray(state["weights"])
        # Independent responsibility computation from the returned state.
        log_p = np.stack(
            [
                -0.5
                * (
                    np.log(2.0 * math.pi * variances[c]).sum()
                    + (((X.features - means[c]) ** 2) / variances[c]).sum(axis=1)
                )
                + math.log(weights[c])
                for c in range(2)
            ],
            axis=1,
        )
        resp = np.exp(log_p - log_p.max(axis=1, keepdims=True))
        resp /= resp.sum(axis=1, keepdims=True)
        assert np.all(resp.max(axis=1) >= 0.99)

    def test_converged_when_tol_is_met_on_the_last_allowed_step(self, far_blobs):
        X, _ = far_blobs
        params = {**DEFAULT_PARAMS["gmm"], "max_iter": 1}
        _, state = gmm_from_kmeans(X.features, 2, params, 0)
        hist = state["loglik_history"]
        assert len(hist) == 2 and hist[1] - hist[0] == 0.0
        assert state["converged"] is True

    def test_converged_flag_on_both_sides_of_max_iter(self):
        X, _ = make_blobs([[0, 0], [4, 0], [0, 4], [4, 4]], n_per=15, scale=1.2, seed=2)
        _, state = gmm_from_kmeans(X, 4, DEFAULT_PARAMS["gmm"], 0)
        steps = len(state["loglik_history"]) - 1
        assert state["converged"] is True and 1 < steps < DEFAULT_PARAMS["gmm"]["max_iter"]
        for max_iter, converged in ((steps, True), (steps - 1, False)):
            params = {**DEFAULT_PARAMS["gmm"], "max_iter": max_iter}
            _, state = gmm_from_kmeans(X, 4, params, 0)
            assert len(state["loglik_history"]) - 1 == max_iter
            assert state["converged"] is converged

    def test_empty_kmeans_start_is_rejected(self):
        # Seven rows, six distinct: the k = 7 k-means start leaves a
        # component empty, which EM would turn into NaN log-likelihoods.
        X = np.array([[0, 2], [2, 2], [0, 0], [2, 0], [1, 0], [0, 1], [0, 0]], dtype=float)
        with pytest.raises(KExceedsSamplesError, match=r"k=7.*6 distinct rows"):
            fit_predict_clusterer(ClustererSpec("gmm", k=7), make_matrix(X))


class TestAffinity:
    def test_two_blobs_converge(self):
        X, y = make_blobs([[0.0, 0.0], [14.0, 14.0]], n_per=10, scale=1.0, seed=5)
        a = fit_predict_clusterer(ClustererSpec("affinity", seed=0), make_matrix(X))
        assert a.diagnostics["converged"] is True
        assert a.n_clusters == 2
        assert purity(a, y) == 1.0

    def test_exemplars_are_members_of_their_cluster(self):
        X, _ = make_blobs([[0.0, 0.0], [14.0, 14.0]], n_per=10, scale=1.0, seed=5)
        m = make_matrix(X)
        a = fit_predict_clusterer(ClustererSpec("affinity", seed=0), m)
        exemplars = a.diagnostics["exemplars"]
        assert len(exemplars) == a.n_clusters
        assert len({a.cluster_ids[e] for e in exemplars}) == a.n_clusters

    def test_samples_assigned_to_nearest_exemplar(self):
        X, _ = make_blobs([[0.0, 0.0], [14.0, 14.0]], n_per=10, scale=1.0, seed=5)
        m = make_matrix(X)
        a = fit_predict_clusterer(ClustererSpec("affinity", seed=0), m)
        ex = np.asarray(a.diagnostics["exemplars"])
        d2 = ((X[:, None, :] - X[ex][None, :, :]) ** 2).sum(axis=2)
        want = [a.cluster_ids[e] for e in ex[np.argmin(d2, axis=1)]]
        assert want == a.cluster_ids

    def test_non_convergence_flagged_not_fatal(self):
        X, _ = make_blobs(
            [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]], n_per=15, scale=1.0, seed=6
        )
        a = fit_predict_clusterer(
            ClustererSpec("affinity", params={"max_iter": 12}, seed=0), make_matrix(X)
        )
        assert a.diagnostics["converged"] is False
        assert a.n_clusters >= 1


class TestMeanshift:
    def test_one_blob_one_cluster(self):
        X = np.random.default_rng(7).normal(size=(50, 20))
        a = fit_predict_clusterer(ClustererSpec("meanshift"), make_matrix(X))
        assert a.n_clusters == 1

    def test_far_blobs_with_wider_quantile(self):
        X, y = make_blobs([[0.0, 0.0], [30.0, 30.0]], n_per=15, scale=0.5, seed=8)
        a = fit_predict_clusterer(
            ClustererSpec("meanshift", params={"quantile": 0.45}), make_matrix(X)
        )
        assert a.n_clusters == 2
        assert purity(a, y) == 1.0

    def test_bandwidth_estimate_positive_and_scales(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 2))
        bw = estimate_bandwidth(X)
        assert bw > 0
        assert estimate_bandwidth(3.0 * X) == pytest.approx(3.0 * bw, rel=1e-9)

    def test_bandwidth_default_is_the_meanshift_default(self):
        X = np.random.default_rng(9).normal(size=(30, 2))
        quantile = DEFAULT_PARAMS["meanshift"]["quantile"]
        assert estimate_bandwidth(X) == estimate_bandwidth(X, quantile)
        assert estimate_bandwidth(X) != estimate_bandwidth(X, quantile / 2)


class TestSharedInvariants:
    SPECS = [
        ClustererSpec("kmeans", k=2, seed=0),
        ClustererSpec("agglomerative", k=2),
        ClustererSpec("gmm", k=2, seed=0),
        ClustererSpec("affinity", seed=0),
        ClustererSpec("meanshift"),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.algo)
    def test_dense_cluster_ids(self, spec, far_blobs):
        X, _ = far_blobs
        a = fit_predict_clusterer(spec, X)
        assert set(a.cluster_ids) == set(range(a.n_clusters))

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.algo)
    def test_row_permutation_invariance(self, spec, far_blobs):
        X, _ = far_blobs
        base = fit_predict_clusterer(spec, X)
        perm = np.random.default_rng(13).permutation(X.n_samples)
        shuffled = make_matrix(
            X.features[perm], ids=[X.sample_ids[i] for i in perm], spec=X.spec
        )
        other = fit_predict_clusterer(spec, shuffled)
        assert partition_sets(other) == partition_sets(base)

    def test_pca_pre_reduction(self):
        X, y = make_blobs([[0.0] * 40, [15.0] * 40], n_per=20, scale=1.0, seed=10)
        a = fit_predict_clusterer(ClustererSpec("gmm", k=2, seed=0, pca_dims=5), make_matrix(X))
        assert purity(a, y) == 1.0

    def test_sidecar_keeps_numpy_scalar_kinds(self, far_blobs, tmp_path):
        X, _ = far_blobs
        a = fit_predict_clusterer(ClustererSpec("kmeans", k=np.int64(2), seed=0), X)
        a.diagnostics["flag"] = np.bool_(True)
        path = tmp_path / "assignments.csv"
        dump_assignment(a, path)
        sidecar = json.loads(path.with_suffix(".csv.json").read_text("utf-8"))
        assert sidecar["spec"]["k"] == 2 and isinstance(sidecar["spec"]["k"], int)
        assert sidecar["diagnostics"]["flag"] is True
        a.diagnostics["flag"] = {1, 2}
        with pytest.raises(TypeError, match="set"):
            dump_assignment(a, path)


class TestKmeansHandOff:
    """A matrix keeps its k-means fits: a row's kmeans cell and its GMM's
    start fit k-means once between them."""

    @staticmethod
    def blobs():
        X, _ = make_blobs([[0.0] * 3, [6.0] * 3, [0.0, 6.0, 0.0]], n_per=12, scale=1.0, seed=18)
        return make_matrix(X)

    @pytest.mark.parametrize("order", [("kmeans", "gmm"), ("gmm", "kmeans")])
    def test_kmeans_and_gmm_share_one_fit(self, order):
        X = self.blobs()
        with mock.patch.object(cluster, "_fit_kmeans", wraps=cluster._fit_kmeans) as fit:
            got = {algo: fit_predict_clusterer(ClustererSpec(algo, k=3, seed=1), X) for algo in order}
        assert fit.call_count == 1
        own = fit_predict_clusterer(ClustererSpec("kmeans", k=3, seed=1), self.blobs())
        assert got["kmeans"].cluster_ids == own.cluster_ids
        assert got["kmeans"].diagnostics == own.diagnostics
        want, state = gmm_from_kmeans(X.features, 3, DEFAULT_PARAMS["gmm"], 1)
        assert got["gmm"].cluster_ids == cluster._dense_relabel(want)[0]
        assert same_bits(got["gmm"].diagnostics["loglik_history"], state["loglik_history"])

    @pytest.mark.parametrize(
        "kmeans_spec",
        [ClustererSpec("kmeans", k=3, seed=2), ClustererSpec("kmeans", k=2, seed=1)],
        ids=["seed", "k"],
    )
    def test_a_different_kmeans_is_fitted_on_its_own(self, kmeans_spec):
        X = self.blobs()
        with mock.patch.object(cluster, "_fit_kmeans", wraps=cluster._fit_kmeans) as fit:
            fit_predict_clusterer(kmeans_spec, X)
            fit_predict_clusterer(ClustererSpec("gmm", k=3, seed=1), X)
            fit_predict_clusterer(kmeans_spec, X)
        assert fit.call_count == 2

    def test_reassigned_features_are_fitted_again(self):
        X = self.blobs()
        spec = ClustererSpec("kmeans", k=3, seed=1)
        with mock.patch.object(cluster, "_fit_kmeans", wraps=cluster._fit_kmeans) as fit:
            first = fit_predict_clusterer(spec, X)
            X.features = X.features.copy()
            fit_predict_clusterer(spec, X)
            X.features = X.features[::-1].copy()
            moved = fit_predict_clusterer(spec, X)
        assert fit.call_count == 3
        assert moved.diagnostics["inertia"] == pytest.approx(first.diagnostics["inertia"])

    def test_kept_fit_is_read_only(self):
        X = self.blobs()
        spec = ClustererSpec("kmeans", k=3, seed=1)
        a = fit_predict_clusterer(spec, X)
        a.diagnostics["inertia_history"].append(0.0)
        assert fit_predict_clusterer(spec, X).diagnostics == {
            **a.diagnostics,
            "inertia_history": a.diagnostics["inertia_history"][:-1],
        }
        (assign, diag), = X.memo().values()
        for array in (assign, diag["centers"]):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


# --- reference implementations ---------------------------------------------------
# Straightforward versions of the fitting loops: a full-matrix search per Ward
# merge, one distance matrix per Lloyd step plus one for its inertia, one log
# density for each E step and each log-likelihood, and one point at a time in
# mean shift. The fast loops must do the same arithmetic (mean shift: up to the
# order of summation).


def ref_sq_dists(X, Y):
    d2 = (X * X).sum(axis=1)[:, None] + (Y * Y).sum(axis=1)[None, :] - 2.0 * X @ Y.T
    return np.clip(d2, 0.0, None)


def ref_kmeans_pp_centers(X, k, rng):
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = ref_sq_dists(X, centers[:1]).ravel()
    for c in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[c] = X[rng.integers(n)]
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            centers[c] = X[min(idx, n - 1)]
        d2 = np.minimum(d2, ref_sq_dists(X, centers[c : c + 1]).ravel())
    return centers


def ref_lloyd(X, centers, max_iter):
    k = centers.shape[0]
    assign = np.full(X.shape[0], -1, dtype=np.intp)
    history = []
    for it in range(max_iter):
        d2 = ref_sq_dists(X, centers)
        new_assign = np.argmin(d2, axis=1)
        for c in range(k):
            if not np.any(new_assign == c):
                point_d2 = d2[np.arange(len(new_assign)), new_assign]
                worst = int(np.argmax(point_d2))
                new_assign[worst] = c
                d2[worst, :] = 0.0
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = assign == c
            if members.any():
                centers[c] = X[members].mean(axis=0)
        history.append(
            float(ref_sq_dists(X, centers)[np.arange(X.shape[0]), assign].sum())
        )
    return assign, centers, history, it + 1


def ref_fit_kmeans(X, k, params, seed):
    best = None
    for ss in np.random.SeedSequence(seed).spawn(params["n_restarts"]):
        rng = np.random.default_rng(ss)
        centers = ref_kmeans_pp_centers(X, k, rng)
        assign, centers, history, iters = ref_lloyd(X, centers.copy(), params["max_iter"])
        if best is None or history[-1] < best[2][-1]:
            best = (assign, centers, history, iters)
    assign, centers, history, iters = best
    return assign, {
        "inertia": history[-1],
        "inertia_history": history,
        "iterations": iters,
        "centers": centers,
    }


def ref_fit_agglomerative(X, k):
    return ref_ward(ref_sq_dists(X, X), k)


def ref_ward(D, k):
    n = D.shape[0]
    np.fill_diagonal(D, math.inf)
    sizes = np.ones(n)
    active = np.ones(n, dtype=bool)
    labels = np.arange(n)
    for _ in range(n - k):
        M = np.where(active[:, None] & active[None, :], D, math.inf)
        M[np.tril_indices(n)] = math.inf
        flat = int(np.argmin(M))
        i, j = divmod(flat, n)
        others = active.copy()
        others[i] = others[j] = False
        ni, nj, nk = sizes[i], sizes[j], sizes[others]
        new_d = ((ni + nk) * D[i, others] + (nj + nk) * D[j, others] - nk * D[i, j]) / (
            ni + nj + nk
        )
        D[i, others] = new_d
        D[others, i] = new_d
        sizes[i] += sizes[j]
        active[j] = False
        labels[labels == j] = i
    return labels


def ref_log_gauss_diag(X, means, variances):
    n, d = X.shape
    out = np.empty((n, means.shape[0]))
    for c in range(means.shape[0]):
        diff2 = (X - means[c]) ** 2
        out[:, c] = -0.5 * (np.log(2.0 * np.pi * variances[c]).sum() + (diff2 / variances[c]).sum(axis=1))
    return out


def ref_gmm_loglik(state, X):
    log_p = ref_log_gauss_diag(X, np.asarray(state["means"]), np.asarray(state["variances"]))
    weighted = log_p + np.log(np.asarray(state["weights"]))
    m = weighted.max(axis=1, keepdims=True)
    return float((m.ravel() + np.log(np.exp(weighted - m).sum(axis=1))).sum())


def ref_fit_gmm(X, k, params, seed):
    n, d = X.shape
    floor = params["cov_floor"]
    km_assign, km_diag = ref_fit_kmeans(X, k, DEFAULT_PARAMS["kmeans"], seed)
    means = km_diag["centers"].copy()
    weights = np.array([(km_assign == c).sum() / n for c in range(k)])
    variances = np.empty((k, d))
    for c in range(k):
        variances[c] = np.clip(X[km_assign == c].var(axis=0), floor, None)

    state = {"weights": weights, "means": means, "variances": variances}
    history = [ref_gmm_loglik(state, X)]
    for _ in range(params["max_iter"]):
        weighted = ref_log_gauss_diag(X, means, variances) + np.log(weights)
        m = weighted.max(axis=1, keepdims=True)
        log_norm = m + np.log(np.exp(weighted - m).sum(axis=1, keepdims=True))
        resp = np.exp(weighted - log_norm)
        nk = resp.sum(axis=0)
        nk = np.clip(nk, 1e-12, None)
        weights = nk / n
        means = (resp.T @ X) / nk[:, None]
        for c in range(k):
            diff2 = (X - means[c]) ** 2
            variances[c] = np.clip((resp[:, c] @ diff2) / nk[c], floor, None)
        state = {"weights": weights, "means": means, "variances": variances}
        history.append(ref_gmm_loglik(state, X))
        if abs(history[-1] - history[-2]) < params["tol"]:
            break
    weighted = ref_log_gauss_diag(X, means, variances) + np.log(weights)
    assign = np.argmax(weighted, axis=1)
    diag = {"loglik_history": history, "converged": len(history) - 1 < params["max_iter"]}
    return assign, {**diag, **{k_: v for k_, v in state.items()}}


def ref_fit_affinity(X, params, seed):
    n = X.shape[0]
    S = -ref_sq_dists(X, X)
    off_diag = S[~np.eye(n, dtype=bool)]
    preference = float(np.median(off_diag)) if n > 1 else 0.0
    np.fill_diagonal(S, preference)
    # Tiny seeded jitter breaks exact symmetry so oscillation cannot lock in.
    rng = np.random.default_rng(seed)
    S = S + 1e-12 * (np.abs(S).max() + 1.0) * rng.standard_normal((n, n))

    damping = params["damping"]
    R = np.zeros((n, n))
    A = np.zeros((n, n))
    idx = np.arange(n)
    stable = 0
    exemplars = np.zeros(n, dtype=bool)
    converged = False
    iterations = 0
    for iterations in range(1, params["max_iter"] + 1):
        # Responsibility update.
        AS = A + S
        first = AS.argmax(axis=1)
        first_val = AS[idx, first]
        AS[idx, first] = -math.inf
        second_val = AS.max(axis=1)
        new_R = S - first_val[:, None]
        new_R[idx, first] = S[idx, first] - second_val
        R = damping * R + (1.0 - damping) * new_R
        # Availability update.
        Rp = np.clip(R, 0.0, None)
        np.fill_diagonal(Rp, R.diagonal())
        col_sums = Rp.sum(axis=0)
        new_A = np.minimum(0.0, col_sums[None, :] - Rp)
        new_A[idx, idx] = col_sums - Rp.diagonal()
        A = damping * A + (1.0 - damping) * new_A
        new_exemplars = (A + R).diagonal() > 0
        if np.array_equal(new_exemplars, exemplars) and new_exemplars.any():
            stable += 1
            if stable >= params["stable_iters"]:
                converged = True
                exemplars = new_exemplars
                break
        else:
            stable = 0
        exemplars = new_exemplars

    ex_idx = np.flatnonzero(exemplars)
    if len(ex_idx) == 0:
        # Nothing declared itself an exemplar; fall back to the best-scoring
        # point so downstream code still gets a partition.
        ex_idx = np.array([int(np.argmax((A + R).diagonal()))])
    crit = (A + R)[:, ex_idx]
    assign = ex_idx[np.argmax(crit, axis=1)]
    assign[ex_idx] = ex_idx
    diag = {
        "converged": converged,
        "iterations": iterations,
        "exemplars": ex_idx.tolist(),
        "preference": preference,
    }
    return assign, diag, (S, R, A)


def ref_shift_points(X, bandwidth, max_iter):
    shifted = X.copy()
    for i in range(X.shape[0]):
        x = shifted[i]
        for _ in range(max_iter):
            within = ref_sq_dists(X, x[None, :]).ravel() <= bandwidth**2
            new_x = X[within].mean(axis=0)
            if np.linalg.norm(new_x - x) < 1e-3 * bandwidth:
                x = new_x
                break
            x = new_x
        shifted[i] = x
    return shifted


def ref_fit_meanshift(X, params):
    n = X.shape[0]
    bandwidth = estimate_bandwidth(X, params["quantile"])
    if bandwidth <= 0.0:
        return np.zeros(n, dtype=np.intp), {"bandwidth": 0.0, "modes": 1}
    shifted = ref_shift_points(X, bandwidth, params["max_iter"])
    intensity = (ref_sq_dists(X, shifted) <= bandwidth**2).sum(axis=0)
    order = np.lexsort((np.arange(n), -intensity))
    accepted = []
    for i in order:
        if all(
            np.linalg.norm(shifted[i] - shifted[j]) > bandwidth / 2.0 for j in accepted
        ):
            accepted.append(int(i))
    modes = shifted[accepted]
    assign = np.argmin(ref_sq_dists(X, modes), axis=1)
    return assign, {"bandwidth": bandwidth, "modes": len(accepted)}


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def tie_heavy_rows(draw):
    """A few points on a small integer grid, some of them repeated: many
    exactly equal distances, so every tie rule is exercised."""
    n = draw(st.integers(2, 9))
    d = draw(st.integers(1, 3))
    cells = st.lists(st.integers(0, 2), min_size=d, max_size=d)
    rows = draw(st.lists(cells, min_size=n, max_size=n))
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=3))
    return np.array(rows + [rows[r] for r in repeats], dtype=np.float64)


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(X=tie_heavy_rows())
    def test_ward_merges_like_the_full_matrix_search(self, X):
        for k in range(1, X.shape[0] + 1):
            assert same_bits(cluster._fit_agglomerative(X, k), ref_fit_agglomerative(X, k))

    def test_ward_matches_on_near_tie_costs(self):
        """Singleton costs a few ulps apart: a merged cost can then round to
        just below a row's cached least cost, which the cache must notice."""
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(4, 8))
            ulps = rng.integers(0, 4, size=(n, n))
            D = np.full((n, n), 0.1 + 10.0 * rng.random())
            for step in range(3):
                D = np.where(ulps > step, np.nextafter(D, 0.0), D)
            D = np.triu(D) + np.triu(D, 1).T
            with mock.patch.object(cluster, "_sq_dists", lambda X, Y: D.copy()):
                got = [cluster._fit_agglomerative(np.zeros((n, 1)), k) for k in range(1, n)]
            want = [ref_ward(D.copy(), k) for k in range(1, n)]
            assert all(same_bits(a, b) for a, b in zip(got, want))

    def test_ward_matches_on_a_continuous_matrix(self):
        X = np.random.default_rng(14).normal(size=(60, 5))
        for k in (1, 2, 7, 30, 59, 60):
            assert same_bits(cluster._fit_agglomerative(X, k), ref_fit_agglomerative(X, k))

    @settings(max_examples=40, deadline=None)
    @given(X=tie_heavy_rows(), seed=st.integers(0, 3))
    def test_kmeans_is_bit_identical(self, X, seed):
        params = {"max_iter": 300, "n_restarts": 3}
        for k in range(1, X.shape[0] + 1):
            want, ref = ref_fit_kmeans(X, k, params, seed)
            if len(np.unique(want)) < k:
                # The reference returns fewer than k clusters.
                with pytest.raises(KExceedsSamplesError, match=f"k={k}"):
                    cluster._fit_kmeans(X, k, params, seed)
                continue
            assign, diag = cluster._fit_kmeans(X, k, params, seed)
            assert same_bits(assign, want)
            assert same_bits(diag["centers"], ref["centers"])
            assert same_bits(diag["inertia_history"], ref["inertia_history"])
            assert diag["iterations"] == ref["iterations"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=25, deadline=None)
    @given(X=tie_heavy_rows(), seed=st.integers(0, 3))
    def test_gmm_is_bit_identical(self, X, seed):
        for k in range(1, X.shape[0] + 1):
            km_assign, _ = ref_fit_kmeans(X, k, DEFAULT_PARAMS["kmeans"], seed)
            if len(np.unique(km_assign)) < k:
                # The reference would run EM on an empty component's NaNs.
                with pytest.raises(KExceedsSamplesError, match=f"k={k}"):
                    gmm_from_kmeans(X, k, DEFAULT_PARAMS["gmm"], seed)
                continue
            assign, state = gmm_from_kmeans(X, k, DEFAULT_PARAMS["gmm"], seed)
            want, ref = ref_fit_gmm(X, k, DEFAULT_PARAMS["gmm"], seed)
            assert same_bits(assign, want)
            assert same_bits(state["loglik_history"], ref["loglik_history"])
            assert state["converged"] == ref["converged"]
            for key in ("weights", "means", "variances"):
                assert same_bits(state[key], ref[key])

    AFFINITY_PARAMS = [
        DEFAULT_PARAMS["affinity"],
        {"damping": 0.9, "max_iter": 60, "stable_iters": 4},
        {"damping": 0.0, "max_iter": 3, "stable_iters": 1},
    ]

    @staticmethod
    def assert_affinity_matches(X, params, seed):
        assign, diag = cluster._fit_affinity(X, params, seed)
        want, ref, (S, ref_R, ref_A) = ref_fit_affinity(X, params, seed)
        assert same_bits(assign, want)
        assert diag == ref
        assert same_bits(diag["preference"], ref["preference"])
        # The messages themselves, not only the partition they lead to.
        R, A, iterations, converged = cluster._pass_messages(S, params)
        assert same_bits(R, ref_R) and same_bits(A, ref_A)
        assert (iterations, converged) == (ref["iterations"], ref["converged"])

    @settings(max_examples=100, deadline=None)
    @given(X=tie_heavy_rows(), seed=st.integers(0, 3))
    def test_affinity_is_bit_identical(self, X, seed):
        for params in self.AFFINITY_PARAMS:
            self.assert_affinity_matches(X, params, seed)

    @pytest.mark.parametrize("params", AFFINITY_PARAMS, ids=["default", "heavy", "short"])
    @pytest.mark.parametrize("data_seed", [16, 19, 20])
    def test_affinity_is_bit_identical_on_tfidf_rows(self, data_seed, params):
        self.assert_affinity_matches(self.tfidf_like(data_seed), params, data_seed)

    @staticmethod
    def tfidf_like(seed):
        """L2-normalised non-negative rows: four topics of 12 words each
        with a few shared words, like tf-idf rows of four classes."""
        rng = np.random.default_rng(seed)
        X = np.zeros((80, 52))
        for i in range(80):
            topic = i % 4
            X[i, 12 * topic : 12 * topic + 12] = rng.poisson(1.0, size=12)
            X[i, 48:] = rng.poisson(0.3, size=4)
        X[:, 0] += X.sum(axis=1) == 0
        return X / np.linalg.norm(X, axis=1, keepdims=True)

    @pytest.mark.parametrize("quantile", [0.3, 0.05, 0.02])
    @pytest.mark.parametrize("data", ["blobs", "tfidf"])
    def test_meanshift_matches_point_by_point_shifts(self, data, quantile):
        if data == "blobs":
            X, _ = make_blobs([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]], n_per=30, scale=1.0, seed=15)
        else:
            X = self.tfidf_like(16)
        params = {**DEFAULT_PARAMS["meanshift"], "quantile": quantile}
        assign, diag = cluster._fit_meanshift(X, params)
        want, ref = ref_fit_meanshift(X, params)
        assert same_bits(assign, want)
        assert diag == ref
        bandwidth = diag["bandwidth"]
        shifted = cluster._shift_points(X, bandwidth, params["max_iter"], (X * X).sum(axis=1))
        np.testing.assert_allclose(
            shifted, ref_shift_points(X, bandwidth, params["max_iter"]), rtol=0, atol=1e-12
        )
