"""Unsupervised grouping of encoded feature rows.

Fixed-k family: k-means (Lloyd with k-means++ seeding and restarts), Ward
agglomerative merging, Gaussian mixtures with diagonal covariance. Unfixed-k
family: affinity propagation and flat-kernel mean shift, which discover the
cluster count themselves.

Everything is seeded and tie-breaks by lowest index, so a fixed spec and
input always yield the same partition. Cluster ids are relabeled densely in
order of first appearance.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .encode import EncodedMatrix, fit_pca
from .errors import KExceedsSamplesError, check_int, merge_params

FIXED_K_ALGOS = ("kmeans", "agglomerative", "gmm")
UNFIXED_K_ALGOS = ("affinity", "meanshift")
ALGOS = FIXED_K_ALGOS + UNFIXED_K_ALGOS

DEFAULT_PARAMS: dict[str, dict[str, Any]] = {
    "kmeans": {"max_iter": 300, "n_restarts": 10},
    "agglomerative": {},
    "gmm": {"max_iter": 200, "tol": 1e-4, "cov_floor": 1e-6},
    "affinity": {"damping": 0.5, "max_iter": 200, "stable_iters": 15},
    "meanshift": {"quantile": 0.3, "max_iter": 300},
}
# The interval of each param whose default is a float; a param whose default
# is an integer is a count, an integer >= 1.
REAL_PARAMS = {
    "tol": "[0, inf)",
    "cov_floor": "(0, inf)",
    "damping": "[0, 1)",
    "quantile": "(0, 1]",
}


@dataclass(frozen=True)
class ClustererSpec:
    algo: str
    k: int | None = None
    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    pca_dims: int | None = None

    def __post_init__(self) -> None:
        if self.algo not in ALGOS:
            raise ValueError(f"unknown clusterer algo {self.algo!r}")
        if self.algo in FIXED_K_ALGOS:
            if self.k is None:
                raise ValueError(f"{self.algo} requires k")
            check_int(f"{self.algo}.k", self.k, 1)
        elif self.k is not None:
            raise ValueError(f"{self.algo} does not take k")
        check_int(f"{self.algo}.seed", self.seed, 0)
        if self.pca_dims is not None:
            check_int(f"{self.algo}.pca_dims", self.pca_dims, 1)
        merged = merge_params(self.algo, DEFAULT_PARAMS[self.algo], self.params, REAL_PARAMS)
        object.__setattr__(self, "params", merged)


@dataclass
class ClusterAssignment:
    sample_ids: list[str]
    cluster_ids: list[int]
    n_clusters: int
    spec: ClustererSpec
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.sample_ids) != len(self.cluster_ids):
            raise ValueError("sample_ids and cluster_ids lengths differ")
        if set(self.cluster_ids) != set(range(self.n_clusters)):
            raise ValueError("cluster ids must be dense 0..n_clusters-1")


def _dense_relabel(raw: np.ndarray) -> tuple[list[int], int]:
    """Map arbitrary cluster labels to 0..K-1 in order of first appearance."""
    mapping: dict[int, int] = {}
    out = []
    for r in raw:
        r = int(r)
        if r not in mapping:
            mapping[r] = len(mapping)
        out.append(mapping[r])
    return out, len(mapping)


def _sq_dists(X: np.ndarray, Y: np.ndarray, xx: np.ndarray | None = None) -> np.ndarray:
    """Pairwise squared Euclidean distances, clipped at 0. ``xx`` holds X's
    squared row norms, for callers that measure the same X many times."""
    if xx is None:
        xx = (X * X).sum(axis=1)
    d2 = xx[:, None] + (Y * Y).sum(axis=1)[None, :] - 2.0 * X @ Y.T
    return np.clip(d2, 0.0, None)


# --- k-means ----------------------------------------------------------------


def _kmeans_pp_centers(
    X: np.ndarray, k: int, rng: np.random.Generator, xx: np.ndarray
) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = _sq_dists(X, centers[:1], xx).ravel()
    for c in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[c] = X[rng.integers(n)]
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            centers[c] = X[min(idx, n - 1)]
        d2 = np.minimum(d2, _sq_dists(X, centers[c : c + 1], xx).ravel())
    return centers


def _lloyd(
    X: np.ndarray, centers: np.ndarray, max_iter: int, xx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[float], int]:
    """Lloyd iterations. The distances to each new set of centres are
    computed once; they give that step's inertia and the next assignment."""
    k = centers.shape[0]
    rows = np.arange(X.shape[0])
    assign = np.full(X.shape[0], -1, dtype=np.intp)
    history: list[float] = []
    d2 = _sq_dists(X, centers, xx)
    for it in range(max_iter):
        new_assign = np.argmin(d2, axis=1)
        # Empty clusters grab the point currently worst-served, lowest
        # cluster index first.
        for c in range(k):
            if not np.any(new_assign == c):
                point_d2 = d2[rows, new_assign]
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
        d2 = _sq_dists(X, centers, xx)
        history.append(float(d2[rows, assign].sum()))
    return assign, centers, history, it + 1


def _fit_kmeans(
    X: np.ndarray, k: int, params: dict[str, Any], seed: int
) -> tuple[np.ndarray, dict[str, Any]]:
    best: tuple[np.ndarray, np.ndarray, list[float], int] | None = None
    xx = (X * X).sum(axis=1)
    for ss in np.random.SeedSequence(seed).spawn(params["n_restarts"]):
        rng = np.random.default_rng(ss)
        centers = _kmeans_pp_centers(X, k, rng, xx)
        assign, centers, history, iters = _lloyd(X, centers.copy(), params["max_iter"], xx)
        if best is None or history[-1] < best[2][-1]:
            best = (assign, centers, history, iters)
    assign, centers, history, iters = best
    if len(np.unique(assign)) < k:
        # Lloyd's repair can refill one empty cluster by emptying another
        # when rows repeat; the partition then has fewer than k clusters.
        distinct = len(np.unique(X, axis=0))
        raise KExceedsSamplesError(
            f"k={k}: k-means left a cluster empty ({distinct} distinct rows)"
        )
    return assign, {
        "inertia": history[-1],
        "inertia_history": history,
        "iterations": iters,
        "centers": centers,
    }


# --- Ward agglomerative -------------------------------------------------------


def _fit_agglomerative(X: np.ndarray, k: int) -> np.ndarray:
    """Bottom-up Ward merging via the Lance-Williams recurrence.

    Merge cost between singletons is the squared Euclidean distance; each
    step merges the cheapest active pair, and ties pick the
    lexicographically smallest index pair (i, j), i < j. Every active row r
    caches ``nn[r]``, the first active column c > r of least cost, and
    ``nd[r]``, that cost, so a step reads the pair from the first minimum
    of ``nd`` (the generic algorithm with nearest neighbours, Müllner,
    arXiv:1109.2378). After merging j into i only the rows whose cached
    neighbour can have changed are searched again: row i, rows r < i whose
    neighbour was i or j or whose new cost to i beats (or ties at a lower
    index) the cached one, and rows i < r < j whose neighbour was j. The
    merges, and so the costs, are those of the full-matrix search.
    """
    n = X.shape[0]
    D = _sq_dists(X, X)
    np.fill_diagonal(D, math.inf)
    sizes = np.ones(n)
    active = np.ones(n, dtype=bool)
    labels = np.arange(n)
    cols = np.arange(n)
    nn = np.zeros(n, dtype=np.intp)
    nd = np.full(n, math.inf)

    def search(rows: np.ndarray) -> None:
        M = np.where(active & (cols > rows[:, None]), D[rows], math.inf)
        nn[rows] = np.argmin(M, axis=1)
        nd[rows] = M[np.arange(len(rows)), nn[rows]]

    search(cols)
    for _ in range(n - k):
        i = int(np.argmin(nd))
        j = int(nn[i])
        # Lance-Williams update of every remaining cluster's cost to i∪j.
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
        nd[j] = math.inf
        labels[labels == j] = i
        rows = np.flatnonzero(active[:j])
        near, cost, to_i = nn[rows], nd[rows], D[rows, i]
        before = rows < i
        stale = (
            (near == j)
            | (rows == i)
            | (before & ((near == i) | (to_i < cost) | ((to_i == cost) & (i < near))))
        )
        search(rows[stale])
    return labels


# --- Gaussian mixture ---------------------------------------------------------


def _log_gauss_diag(X: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """Per-sample, per-component diagonal Gaussian log density (n x k)."""
    n, d = X.shape
    out = np.empty((n, means.shape[0]))
    for c in range(means.shape[0]):
        diff2 = (X - means[c]) ** 2
        out[:, c] = -0.5 * (np.log(2.0 * np.pi * variances[c]).sum() + (diff2 / variances[c]).sum(axis=1))
    return out


def _log_norm(weighted: np.ndarray) -> np.ndarray:
    """Per-sample log of the mixture density: logsumexp over components of
    the weighted log densities."""
    m = weighted.max(axis=1, keepdims=True)
    return m.ravel() + np.log(np.exp(weighted - m).sum(axis=1))


def _fit_gmm(
    X: np.ndarray,
    k: int,
    params: dict[str, Any],
    start: tuple[np.ndarray, dict[str, Any]],
) -> tuple[np.ndarray, dict[str, Any]]:
    """Diagonal-covariance EM from a k-means start: ``start`` is that fit's
    ``(assign, diag)``. EM stops when the log-likelihood changes by less than
    ``tol`` (``converged``) or after ``max_iter`` steps."""
    n, d = X.shape
    floor = params["cov_floor"]
    km_assign, km_diag = start
    # _fit_kmeans raises rather than leave a cluster empty, so every
    # component starts with a weight and a variance.
    counts = np.bincount(km_assign, minlength=k)
    means = km_diag["centers"].copy()
    weights = counts / n
    variances = np.empty((k, d))
    for c in range(k):
        variances[c] = np.clip(X[km_assign == c].var(axis=0), floor, None)

    # One log density per state: it gives the state's log-likelihood, the
    # next E step and, for the last state, the assignment.
    weighted = _log_gauss_diag(X, means, variances) + np.log(weights)
    log_norm = _log_norm(weighted)
    history = [float(log_norm.sum())]
    converged = False
    for _ in range(params["max_iter"]):
        # E step: responsibilities via logsumexp.
        resp = np.exp(weighted - log_norm[:, None])
        # M step.
        nk = resp.sum(axis=0)
        nk = np.clip(nk, 1e-12, None)
        weights = nk / n
        means = (resp.T @ X) / nk[:, None]
        for c in range(k):
            diff2 = (X - means[c]) ** 2
            variances[c] = np.clip((resp[:, c] @ diff2) / nk[c], floor, None)
        weighted = _log_gauss_diag(X, means, variances) + np.log(weights)
        log_norm = _log_norm(weighted)
        history.append(float(log_norm.sum()))
        if abs(history[-1] - history[-2]) < params["tol"]:
            converged = True
            break
    assign = np.argmax(weighted, axis=1)
    state = {"weights": weights, "means": means, "variances": variances}
    return assign, {"loglik_history": history, "converged": converged, **state}


# --- affinity propagation ------------------------------------------------------


def _pass_messages(
    S: np.ndarray, params: dict[str, Any]
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Affinity propagation's damped message passing on the similarities
    ``S``. Returns the responsibilities ``R``, the availabilities ``A``, the
    steps taken, and whether the exemplar set ``diag(A + R) > 0`` held for
    ``stable_iters`` steps before ``max_iter``. ``R`` and ``A`` are damped
    in place and one n x n work buffer ``T`` holds each step's new values,
    so a step allocates no n x n array; ``R *= d; T *= 1 - d; R += T`` is
    the arithmetic of ``d * R + (1 - d) * T``, element by element."""
    n = S.shape[0]
    damping = params["damping"]
    R = np.zeros((n, n))
    A = np.zeros((n, n))
    T = np.empty((n, n))
    idx = np.arange(n)
    stable = 0
    exemplars = np.zeros(n, dtype=bool)
    for iterations in range(1, params["max_iter"] + 1):
        # Responsibility update: T holds A + S, then the new responsibilities.
        np.add(A, S, out=T)
        first = T.argmax(axis=1)
        first_val = T[idx, first]
        T[idx, first] = -math.inf
        second_val = T.max(axis=1)
        np.subtract(S, first_val[:, None], out=T)
        T[idx, first] = S[idx, first] - second_val
        R *= damping
        T *= 1.0 - damping
        R += T
        # Availability update: T holds R clipped at 0 off the diagonal and R
        # on it, then the new availabilities.
        np.clip(R, 0.0, None, out=T)
        np.fill_diagonal(T, R.diagonal())
        col_sums = T.sum(axis=0)
        self_avail = col_sums - T.diagonal()
        np.subtract(col_sums[None, :], T, out=T)
        np.minimum(0.0, T, out=T)
        T[idx, idx] = self_avail
        A *= damping
        T *= 1.0 - damping
        A += T
        new_exemplars = A.diagonal() + R.diagonal() > 0
        if np.array_equal(new_exemplars, exemplars) and new_exemplars.any():
            stable += 1
            if stable >= params["stable_iters"]:
                return R, A, iterations, True
        else:
            stable = 0
        exemplars = new_exemplars
    return R, A, iterations, False


def _fit_affinity(
    X: np.ndarray, params: dict[str, Any], seed: int
) -> tuple[np.ndarray, dict[str, Any]]:
    """Affinity propagation (Frey & Dueck 2007) on negative squared
    distances, with the median off-diagonal similarity as every point's
    preference (``_pass_messages``). Each sample joins the exemplar of
    highest ``A + R`` in its row."""
    n = X.shape[0]
    S = -_sq_dists(X, X)
    off_diag = S[~np.eye(n, dtype=bool)]
    preference = float(np.median(off_diag)) if n > 1 else 0.0
    np.fill_diagonal(S, preference)
    # Tiny seeded jitter breaks exact symmetry so oscillation cannot lock in.
    rng = np.random.default_rng(seed)
    S += 1e-12 * (np.abs(S).max() + 1.0) * rng.standard_normal((n, n))
    R, A, iterations, converged = _pass_messages(S, params)

    self_score = A.diagonal() + R.diagonal()
    ex_idx = np.flatnonzero(self_score > 0)
    if len(ex_idx) == 0:
        # Nothing declared itself an exemplar; fall back to the best-scoring
        # point so downstream code still gets a partition.
        ex_idx = np.array([int(np.argmax(self_score))])
    crit = A[:, ex_idx] + R[:, ex_idx]
    assign = ex_idx[np.argmax(crit, axis=1)]
    assign[ex_idx] = ex_idx
    diag = {
        "converged": converged,
        "iterations": iterations,
        "exemplars": ex_idx.tolist(),
        "preference": preference,
    }
    return assign, diag


# --- mean shift -----------------------------------------------------------------


def estimate_bandwidth(
    X: np.ndarray, quantile: float = DEFAULT_PARAMS["meanshift"]["quantile"]
) -> float:
    """Mean over samples of the distance to their ceil(quantile*n)-th neighbor."""
    n = X.shape[0]
    if n < 2:
        return 0.0
    k = min(max(1, math.ceil(quantile * n)), n - 1)
    d = np.sqrt(_sq_dists(X, X))
    np.fill_diagonal(d, math.inf)
    d.sort(axis=1)
    return float(d[:, k - 1].mean())


def _shift_points(
    X: np.ndarray, bandwidth: float, max_iter: int, xx: np.ndarray
) -> np.ndarray:
    """Move every sample to the mean of the samples within ``bandwidth`` of
    it, repeatedly, until it moves less than ``1e-3 * bandwidth`` or has
    taken ``max_iter`` steps. All points still moving take each step
    together, as one n x live window matrix."""
    shifted = X.copy()
    live = np.arange(X.shape[0])
    for _ in range(max_iter):
        if live.size == 0:
            break
        S = shifted[live]
        W = (_sq_dists(X, S, xx) <= bandwidth**2).astype(X.dtype)
        new = (W.T @ X) / W.sum(axis=0)[:, None]
        shifted[live] = new
        live = live[np.linalg.norm(new - S, axis=1) >= 1e-3 * bandwidth]
    return shifted


def _fit_meanshift(X: np.ndarray, params: dict[str, Any]) -> tuple[np.ndarray, dict[str, Any]]:
    """Flat-kernel mean shift. Every sample climbs to a mode, all samples
    still moving in one step together (``_shift_points``). Modes are then
    accepted strongest first, lowest sample index first on equal strength,
    and a mode within half a bandwidth of an accepted one is merged into it.
    Each sample joins its nearest accepted mode, the earlier accepted one on
    a tie.
    """
    n = X.shape[0]
    bandwidth = estimate_bandwidth(X, params["quantile"])
    if bandwidth <= 0.0:
        return np.zeros(n, dtype=np.intp), {"bandwidth": 0.0, "modes": 1}
    xx = (X * X).sum(axis=1)
    shifted = _shift_points(X, bandwidth, params["max_iter"], xx)
    intensity = (_sq_dists(X, shifted, xx) <= bandwidth**2).sum(axis=0)
    # Strongest modes first; merge anything within half a bandwidth of an
    # already accepted mode.
    order = np.lexsort((np.arange(n), -intensity))
    accepted: list[int] = []
    for i in order:
        if all(
            np.linalg.norm(shifted[i] - shifted[j]) > bandwidth / 2.0 for j in accepted
        ):
            accepted.append(int(i))
    modes = shifted[accepted]
    assign = np.argmin(_sq_dists(X, modes, xx), axis=1)
    return assign, {"bandwidth": bandwidth, "modes": len(accepted)}


# --- entry point -------------------------------------------------------------------


def _reduced(X: EncodedMatrix, dims: int | None) -> np.ndarray:
    """X's features, projected onto ``dims`` principal components once per
    dimension (none when ``dims`` is None); a kept projection is read-only."""
    if dims is None:
        return X.features
    memo = X.memo()
    if ("pca", dims) not in memo:
        features = fit_pca(X.features, dims).transform(X.features)
        features.flags.writeable = False
        memo[("pca", dims)] = features
    return memo[("pca", dims)]


def _shared_kmeans(
    X: EncodedMatrix, dims: int | None, spec: ClustererSpec, params: dict[str, Any]
) -> tuple[np.ndarray, dict[str, Any]]:
    """``_fit_kmeans(_reduced(X, dims), spec.k, params, spec.seed)``, fitted
    once per features array: a row's kmeans cell and its GMM's start share
    one fit, whose arrays are read-only."""
    memo = X.memo()
    key = ("kmeans", spec.k, spec.seed, dims, tuple(sorted(params.items())))
    if key not in memo:
        assign, diag = _fit_kmeans(_reduced(X, dims), spec.k, params, spec.seed)
        assign.flags.writeable = False
        diag["centers"].flags.writeable = False
        memo[key] = (assign, diag)
    return memo[key]


def fit_predict_clusterer(spec: ClustererSpec, X: EncodedMatrix) -> ClusterAssignment:
    dims = None
    if spec.pca_dims is not None:
        dims = min(spec.pca_dims, X.n_samples - 1, X.n_features)
    features = _reduced(X, dims)
    n = features.shape[0]
    if spec.k is not None and spec.k > n:
        raise KExceedsSamplesError(f"k={spec.k} exceeds {n} samples")

    if spec.algo == "kmeans":
        raw, diag = _shared_kmeans(X, dims, spec, spec.params)
        diag = {
            "inertia": diag["inertia"],
            "inertia_history": list(diag["inertia_history"]),
            "iterations": diag["iterations"],
        }
    elif spec.algo == "agglomerative":
        raw = _fit_agglomerative(features, spec.k)
        diag = {}
    elif spec.algo == "gmm":
        start = _shared_kmeans(X, dims, spec, DEFAULT_PARAMS["kmeans"])
        raw, state = _fit_gmm(features, spec.k, spec.params, start)
        diag = {
            "converged": state["converged"],
            "final_loglik": state["loglik_history"][-1],
            "loglik_history": state["loglik_history"],
        }
    elif spec.algo == "affinity":
        raw, diag = _fit_affinity(features, spec.params, spec.seed)
    else:
        raw, diag = _fit_meanshift(features, spec.params)

    cluster_ids, n_clusters = _dense_relabel(np.asarray(raw))
    return ClusterAssignment(
        sample_ids=list(X.sample_ids),
        cluster_ids=cluster_ids,
        n_clusters=n_clusters,
        spec=spec,
        diagnostics=diag,
    )


def dump_assignment(assignment: ClusterAssignment, path: str | Path) -> None:
    """CSV `sample_id,cluster_id` plus a JSON sidecar with spec + diagnostics."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("sample_id,cluster_id\n")
        for sid, cid in zip(assignment.sample_ids, assignment.cluster_ids):
            fh.write(f"{sid},{cid}\n")
    sidecar = {
        "spec": {
            "algo": assignment.spec.algo,
            "k": assignment.spec.k,
            "params": assignment.spec.params,
            "seed": assignment.spec.seed,
            "pca_dims": assignment.spec.pca_dims,
        },
        "n_clusters": assignment.n_clusters,
        "diagnostics": {
            k: (v if not isinstance(v, np.ndarray) else v.tolist())
            for k, v in assignment.diagnostics.items()
        },
    }
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar, ensure_ascii=False, indent=2, default=_json_scalar) + "\n", "utf-8"
    )


def _json_scalar(value: object) -> object:
    """A numpy scalar as the Python scalar of its kind (``np.int64`` -> int)."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")
