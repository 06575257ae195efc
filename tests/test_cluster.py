"""Five clusterers: fixtures, per-algo contracts, and shared invariants."""
import math

import numpy as np
import pytest

from textmath import (
    ClustererSpec,
    KExceedsSamplesError,
    estimate_bandwidth,
    fit_gmm_state,
    fit_predict_clusterer,
    gmm_loglik,
    purity,
)
from tests.conftest import make_blobs, make_matrix


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
        ],
    )
    def test_bad_numeric_params_rejected(self, algo, k, params):
        with pytest.raises(ValueError, match=next(iter(params))):
            ClustererSpec(algo, k=k, params=params)

    def test_boundary_params_accepted(self):
        ClustererSpec("kmeans", k=2, params={"max_iter": 1, "n_restarts": 1})
        ClustererSpec("affinity", params={"damping": 0.0, "stable_iters": 1})
        ClustererSpec("meanshift", params={"quantile": 1})

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
        _, state = fit_gmm_state(X, k=2, seed=0)
        hist = state["loglik_history"]
        assert len(hist) >= 2
        assert all(b >= a_ - 1e-8 for a_, b in zip(hist, hist[1:]))

    def test_single_component_density_closed_form(self):
        rng = np.random.default_rng(4)
        X = rng.normal(2.0, 1.5, size=(40, 3))
        _, state = fit_gmm_state(X, k=1, seed=0)
        mean = np.asarray(state["means"][0])
        var = np.asarray(state["variances"][0])
        got = gmm_loglik(state, mean[None, :])
        want = -0.5 * float(np.log(2.0 * math.pi * var).sum())
        assert got == pytest.approx(want, rel=1e-9)

    def test_responsibilities_confident_on_blobs(self, far_blobs):
        X, y = far_blobs
        _, state = fit_gmm_state(X, k=2, seed=0)
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
