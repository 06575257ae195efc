"""Supervised subject-class prediction over encoded feature rows.

Six algorithms, all implemented directly on numpy: one-vs-rest logistic
regression (FISTA), one-vs-rest linear SVM (hinge loss), k-nearest
neighbors, a one-hidden-layer MLP, a CART decision tree, and a random
forest. Every fit is deterministic for a fixed seed, and every algorithm
exposes per-class scores; prediction takes the highest. The iterative fits
(logreg, linear SVM, MLP) record the epochs they ran and the rule that
stopped them; see ``convergence``.

The MLP's Adam step updates its moments and parameters in place, in
preallocated arrays, with the same floating-point operations in the same
order as the textbook update. A forest grows all its trees in lockstep:
at each step every tree pops the next node of its own depth-first stack
and draws that node's features from its own generator, and one batched
search covers every popped node; a decision tree is a forest of one. A
fitted tree or forest is one table of node arrays (``Tree``), and
prediction moves every (tree, row) pair down it together, one level per
step.

Tie policy: equal scores resolve by label_set order, equal distances by
lower sample index, equal split gains by lower feature index then lower
threshold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np

from .encode import EncodedMatrix
from .errors import (
    DimensionMismatchError,
    SingleClassTrainingError,
    check_int,
    is_int,
    merge_params,
)

ALGOS = ("logreg", "linear_svc", "knn", "mlp", "dectree", "randforest")

# A param whose default is an integer is a count: any value given for it must
# be an integer >= 1. One whose default is a bool must be a bool, and one whose
# default is a float must lie in its interval in REAL_PARAMS.
DEFAULT_PARAMS: dict[str, dict[str, Any]] = {
    "logreg": {"C": 1.0, "max_epochs": 1000, "tol": 1e-4},
    "linear_svc": {"C": 1.0, "max_epochs": 1000},
    "knn": {"k": 5},
    "mlp": {
        "hidden": 500,
        "step": 1e-3,
        "beta1": 0.9,
        "beta2": 0.999,
        "batch_size": 32,
        "max_epochs": 200,
        "tol": 1e-4,
        "patience": 10,
    },
    "dectree": {},
    "randforest": {"n_trees": 100, "bootstrap": True, "max_features": "sqrt"},
}
REAL_PARAMS = {
    "C": "(0, inf)",
    "tol": "[0, inf)",
    "step": "(0, inf)",
    "beta1": "[0, 1)",
    "beta2": "[0, 1)",
}


@dataclass(frozen=True)
class ClassifierSpec:
    algo: str
    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.algo not in ALGOS:
            raise ValueError(f"unknown classifier algo {self.algo!r}")
        merged = merge_params(self.algo, DEFAULT_PARAMS[self.algo], self.params, REAL_PARAMS)
        check_int(f"{self.algo}.seed", self.seed, 0)
        if self.algo == "randforest":
            max_features = merged["max_features"]
            if not (max_features == "sqrt" or max_features is None or is_int(max_features, 1)):
                raise ValueError(
                    'randforest.max_features must be "sqrt", null or an integer >= 1, '
                    f"got {max_features!r}"
                )
        object.__setattr__(self, "params", merged)


@dataclass
class ClassifierModel:
    spec: ClassifierSpec
    label_set: list[str]
    state: dict[str, Any]
    n_features: int


def _as_features(X: EncodedMatrix | np.ndarray) -> np.ndarray:
    if isinstance(X, EncodedMatrix):
        return X.features
    return np.asarray(X, dtype=np.float64)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Only the low clip matters: above 37, 1 + exp(-z) already rounds to 1.
    return 1.0 / (1.0 + np.exp(-np.maximum(z, -60.0)))


# --- logistic regression ----------------------------------------------------


def logreg_objective(
    wb: np.ndarray, X: np.ndarray, T: np.ndarray, lam: float
) -> tuple[float, np.ndarray]:
    """Mean one-vs-rest log loss + (lam/2)·‖W‖²; bias unregularized.

    ``wb`` is the flat [W (C×d), b (C)] parameter vector; T is 0/1 with one
    column per class. Returns (objective, flat gradient).
    """
    n, d = X.shape
    c = T.shape[1]
    W = wb[: c * d].reshape(c, d)
    Z = X @ W.T + wb[c * d :]
    # log(1+exp(-s z)) with s = ±1 written via logaddexp for stability
    S = 2.0 * T - 1.0
    loss = np.logaddexp(0.0, -S * Z).sum() / n + 0.5 * lam * (W * W).sum()
    return float(loss), _logreg_gradient(wb, X, T, lam)


def _logreg_gradient(wb: np.ndarray, X: np.ndarray, T: np.ndarray, lam: float) -> np.ndarray:
    """The flat gradient of ``logreg_objective``, without its loss."""
    n, d = X.shape
    c = T.shape[1]
    W = wb[: c * d].reshape(c, d)
    Z = X @ W.T + wb[c * d :]
    R = (_sigmoid(Z) - T) / n
    return np.concatenate([(R.T @ X + lam * W).ravel(), R.sum(axis=0)])


def _fit_logreg(X: np.ndarray, T: np.ndarray, params: dict[str, Any]) -> dict[str, Any]:
    n, d = X.shape
    c = T.shape[1]
    lam = 1.0 / (params["C"] * n)
    # Gradient step from a Lipschitz bound of the logistic data term.
    lip = 0.25 * ((X * X).sum() + n) / n + lam
    lr = 1.0 / lip
    # FISTA (Beck & Teboulle 2009): each epoch steps from the extrapolated
    # point y, then moves y past the new iterate by the momentum
    # (t - 1) / t_next. The fit returns y once its gradient is below tol.
    x = np.zeros(c * d + c)
    y = x
    t = 1.0
    stop = "max_epochs"
    for epoch in range(1, params["max_epochs"] + 1):
        grad = _logreg_gradient(y, X, T, lam)
        if np.max(np.abs(grad)) < params["tol"]:
            x, stop = y, "tol"
            break
        x_next = y - lr * grad
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = x_next + ((t - 1.0) / t_next) * (x_next - x)
        x, t = x_next, t_next
    return {"W": x[: c * d].reshape(c, d), "b": x[c * d :], "epochs": epoch, "stop": stop}


def _scores_logreg(state: dict[str, Any], X: np.ndarray) -> np.ndarray:
    return _sigmoid(X @ state["W"].T + state["b"])


# --- linear SVM -------------------------------------------------------------


def svc_objective(w: np.ndarray, b: float, X: np.ndarray, s: np.ndarray, C: float) -> float:
    """Primal hinge objective 0.5·‖w‖² + C·Σ max(0, 1 − s·(Xw+b))."""
    return _hinge_objective(w, 1.0 - s * (X @ w + b), C)


def _hinge_objective(w: np.ndarray, margins: np.ndarray, C: float) -> float:
    """``svc_objective`` from the margins ``1 − s·(Xw+b)``."""
    return float(0.5 * w @ w + C * np.maximum(margins, 0.0).sum())


def _fit_linear_svc(X: np.ndarray, T: np.ndarray, params: dict[str, Any]) -> dict[str, Any]:
    n, d = X.shape
    C = params["C"]
    W = np.zeros((T.shape[1], d))
    b = np.zeros(T.shape[1])
    histories = []
    epochs: list[int] = []
    stops: list[str] = []
    sq = (X * X).sum()
    for ci in range(T.shape[1]):
        s = 2.0 * T[:, ci] - 1.0
        w = np.zeros(d)
        bc = 0.0
        # The margins of the current (w, bc): its active set and objective.
        margins = 1.0 - s * (X @ w + bc)
        obj = _hinge_objective(w, margins, C)
        history = [obj]
        lr = 1.0 / (C * (sq + n) / n + 1.0)
        stop = "max_epochs"
        for _ in range(params["max_epochs"]):
            active = margins > 0
            grad_w = w - C * (s[active] @ X[active])
            grad_b = -C * s[active].sum()
            # Backtracking keeps the objective non-increasing even though
            # the hinge is only subdifferentiable.
            trial_w = w - lr * grad_w
            trial_b = bc - lr * grad_b
            trial_margins = 1.0 - s * (X @ trial_w + trial_b)
            trial_obj = _hinge_objective(trial_w, trial_margins, C)
            if trial_obj <= obj:
                w, bc, margins = trial_w, trial_b, trial_margins
                improved = obj - trial_obj
                obj = trial_obj
                lr *= 1.1
                if improved < 1e-8 * (1.0 + abs(obj)):
                    history.append(obj)
                    stop = "tol"
                    break
            else:
                lr *= 0.5
                if lr < 1e-14:
                    history.append(obj)
                    stop = "step"
                    break
            history.append(obj)
        W[ci] = w
        b[ci] = bc
        histories.append(history)
        epochs.append(len(history) - 1)
        stops.append(stop)
    return {"W": W, "b": b, "objective_histories": histories, "epochs": epochs, "stop": stops}


def _scores_linear_svc(state: dict[str, Any], X: np.ndarray) -> np.ndarray:
    return X @ state["W"].T + state["b"]


# --- k nearest neighbors ----------------------------------------------------


def _scores_knn(state: dict[str, Any], X: np.ndarray, n_classes: int) -> np.ndarray:
    train = state["X"]
    y_idx = state["y_idx"]
    k = state["k"]
    scores = np.zeros((X.shape[0], n_classes))
    sample_idx = np.arange(train.shape[0])
    for row, x in enumerate(X):
        dist = np.sqrt(((train - x) ** 2).sum(axis=1))
        nearest = np.lexsort((sample_idx, dist))[:k]
        votes = np.bincount(y_idx[nearest], minlength=n_classes)
        scores[row] = votes / k
    return scores


# --- MLP --------------------------------------------------------------------


def _unpack_mlp(theta: np.ndarray, d: int, h: int, c: int):
    i = 0
    W1 = theta[i : i + d * h].reshape(h, d)
    i += d * h
    b1 = theta[i : i + h]
    i += h
    W2 = theta[i : i + h * c].reshape(c, h)
    i += h * c
    b2 = theta[i : i + c]
    return W1, b1, W2, b2


def _mlp_forward(theta: np.ndarray, X: np.ndarray, h: int, c: int):
    W1, b1, W2, b2 = _unpack_mlp(theta, X.shape[1], h, c)
    A = np.maximum(X @ W1.T + b1, 0.0)
    Z = A @ W2.T + b2
    Z -= Z.max(axis=1, keepdims=True)
    expz = np.exp(Z)
    P = expz / expz.sum(axis=1, keepdims=True)
    return A, P


def mlp_objective(
    theta: np.ndarray, X: np.ndarray, T: np.ndarray, hidden: int, out: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of a d→hidden(ReLU)→classes net, and its
    gradient, written into ``out`` (a new array when None; laid out as
    ``theta``)."""
    n = X.shape[0]
    c = T.shape[1]
    W1, b1, W2, b2 = _unpack_mlp(theta, X.shape[1], hidden, c)
    A, P = _mlp_forward(theta, X, hidden, c)
    loss = float(-(T * np.log(np.maximum(P, 1e-12))).sum() / n)
    grad = np.empty_like(theta) if out is None else out
    grad_W1, grad_b1, grad_W2, grad_b2 = _unpack_mlp(grad, X.shape[1], hidden, c)
    dZ = (P - T) / n
    np.matmul(dZ.T, A, out=grad_W2)
    dZ.sum(axis=0, out=grad_b2)
    dA = dZ @ W2
    # Zero the gradient where the unit is off; + 0.0 turns -0.0 into 0.0.
    dA *= A > 0.0
    dA += 0.0
    np.matmul(dA.T, X, out=grad_W1)
    dA.sum(axis=0, out=grad_b1)
    return loss, grad


def _init_mlp(rng: np.random.Generator, d: int, h: int, c: int) -> np.ndarray:
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


def _fit_mlp(
    X: np.ndarray, T: np.ndarray, params: dict[str, Any], seed: int
) -> dict[str, Any]:
    n, d = X.shape
    h, c = params["hidden"], T.shape[1]
    rng = np.random.default_rng(seed)
    theta = _init_mlp(rng, d, h, c)
    # Adam's moments, the gradient and two work arrays, updated in place.
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    grad = np.empty_like(theta)
    num = np.empty_like(theta)
    den = np.empty_like(theta)
    step, b1, b2 = params["step"], params["beta1"], params["beta2"]
    t = 0
    best_loss = math.inf
    stall = 0
    stop = "max_epochs"
    for epoch in range(1, params["max_epochs"] + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, params["batch_size"]):
            batch = order[start : start + params["batch_size"]]
            loss, _ = mlp_objective(theta, X[batch], T[batch], h, grad)
            epoch_loss += loss * len(batch)
            t += 1
            # m = b1·m + (1−b1)·grad and v = b2·v + ((1−b2)·grad)·grad, then
            # theta −= (step·(m/c1)) / (sqrt(v/c2) + 1e-8), in this order.
            m *= b1
            np.multiply(grad, 1 - b1, out=num)
            m += num
            v *= b2
            np.multiply(grad, 1 - b2, out=num)
            num *= grad
            v += num
            np.divide(m, 1 - b1**t, out=num)
            num *= step
            np.divide(v, 1 - b2**t, out=den)
            np.sqrt(den, out=den)
            den += 1e-8
            num /= den
            theta -= num
        epoch_loss /= n
        if best_loss - epoch_loss < params["tol"]:
            stall += 1
            if stall >= params["patience"]:
                stop = "patience"
                break
        else:
            stall = 0
        best_loss = min(best_loss, epoch_loss)
    return {"theta": theta, "hidden": h, "epochs": epoch, "stop": stop}


def _scores_mlp(state: dict[str, Any], X: np.ndarray, n_classes: int) -> np.ndarray:
    _, P = _mlp_forward(state["theta"], X, state["hidden"], n_classes)
    return P


# --- CART decision tree -----------------------------------------------------

# Largest (nodes, rows, features, classes) one-hot that one block of
# _best_splits builds: a larger search runs in blocks of nodes, and a node
# wider than a block in blocks of features, in feature order.
_SPLIT_BLOCK = 1 << 15


class Tree(NamedTuple):
    """Fitted CART trees as node arrays, one entry per node. Each tree's
    nodes lie in depth-first preorder from its root (node 0 for a single
    tree). An inner node sends a row to ``left`` when
    ``row[feature] <= threshold``, else to ``right``. A leaf has
    ``feature``, ``left`` and ``right`` -1, threshold NaN, and its training
    rows' class fractions as its ``dist`` row; inner nodes' rows are zero."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    dist: np.ndarray


def _best_splits(
    X: np.ndarray,
    y_idx: np.ndarray,
    rows: list[np.ndarray],
    totals: np.ndarray,
    features: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest-weighted-Gini (feature, threshold) of each node over its own
    candidate features, all nodes at once: node i holds ``rows[i]`` (two
    or more), has class counts ``totals[i]`` and searches ``features[i]``.
    Ties favor the earliest feature, then the lowest threshold. A node
    whose candidates are all constant on its rows gets feature -1.

    Each node's rows are padded with +inf after the real ones, so a stable
    sort keeps the real rows first; boundaries with nothing real on their
    right count as constant."""
    n_nodes, n_features = features.shape
    n_classes = totals.shape[1]
    lengths = np.fromiter(map(len, rows), np.intp, n_nodes)
    classes = np.arange(n_classes)
    cells = int(lengths.max()) * n_classes
    fstep = min(n_features, max(1, _SPLIT_BLOCK // cells))
    bstep = max(1, _SPLIT_BLOCK // (cells * fstep))
    scores = np.empty((n_nodes, n_features))
    thresholds = np.empty((n_nodes, n_features))
    for lo in range(0, n_nodes, bstep):
        hi = min(lo + bstep, n_nodes)
        n = lengths[lo:hi, None, None]
        width = int(n.max())
        real = np.arange(width) < n[:, 0]
        padded = np.zeros(real.shape, dtype=np.intp)
        padded[real] = np.concatenate(rows[lo:hi])
        y = y_idx[padded]
        nl = np.arange(1, width)[:, None]  # rows left of each boundary
        nr = n - nl
        nr_pos = np.maximum(nr, 1)  # nr where a boundary is real; no 0 / 0
        real_boundary = nr > 0
        total = totals[lo:hi, None, None, :]
        node = np.arange(hi - lo)[:, None]
        for start in range(0, n_features, fstep):
            stop = min(start + fstep, n_features)
            V = X[padded[:, :, None], features[lo:hi, None, start:stop]]
            V[~real] = math.inf
            order = V.argsort(axis=1, kind="stable")
            cols = np.arange(stop - start)
            SV = V[node[:, :, None], order, cols]
            onehot = y[node[:, :, None], order][..., None] == classes
            left = onehot.cumsum(axis=1, dtype=np.float64)[:, :-1]  # class counts
            right = total - left
            # Counts are whole numbers, so these sums of squares are exact.
            gini_l = 1.0 - np.einsum("bkfc,bkfc->bkf", left, left) / nl**2
            gini_r = 1.0 - np.einsum("bkfc,bkfc->bkf", right, right) / nr_pos**2
            weighted = (nl * gini_l + nr_pos * gini_r) / n
            weighted[~((SV[:, :-1] < SV[:, 1:]) & real_boundary)] = math.inf
            pos = weighted.argmin(axis=1)
            scores[lo:hi, start:stop] = weighted[node, pos, cols]
            thresholds[lo:hi, start:stop] = (SV[node, pos, cols] + SV[node, pos + 1, cols]) / 2.0
    every = np.arange(n_nodes)
    best = scores.argmin(axis=1)
    feature = features[every, best]
    feature[scores[every, best] == math.inf] = -1
    return feature, thresholds[every, best]


def _grow_trees(
    X: np.ndarray,
    y_idx: np.ndarray,
    rows: list[np.ndarray],
    n_classes: int,
    rngs: list[np.random.Generator] | None,
    max_features: int | None,
) -> list[Tree]:
    """Grow one CART tree on each ``rows[i]`` depth first, all in lockstep,
    and store each as node arrays (see ``Tree``), which ``class_scores``
    reads by a vectorised descent.

    At each step every unfinished tree pops the next node of its own
    depth-first stack, and one ``_best_splits`` call searches all popped
    impure nodes. Such a node splits on ``max_features`` features that its
    tree's ``rngs[i]`` draws, in the tree's preorder, or on every feature
    when ``max_features`` is None; if the drawn features are all constant
    there, every feature is searched, without a further draw."""
    d = X.shape[1]
    subsample = max_features is not None and max_features < d
    every_feature = np.arange(d)
    feature: list[list[int]] = [[] for _ in rows]
    threshold: list[list[float]] = [[] for _ in rows]
    left: list[list[int]] = [[] for _ in rows]
    right: list[list[int]] = [[] for _ in rows]
    dist: list[list[np.ndarray]] = [[] for _ in rows]
    inner_dist = np.zeros(n_classes)
    # (rows, parent's child list, parent) per tree
    stacks = [[(r, left[t], -1)] for t, r in enumerate(rows)]
    while True:
        trees = [t for t, stack in enumerate(stacks) if stack]
        if not trees:
            break
        node_rows, nodes = [], []
        for t in trees:
            rows_, children, parent = stacks[t].pop()
            node = len(feature[t])
            if parent >= 0:
                children[parent] = node
            feature[t].append(-1)
            threshold[t].append(math.nan)
            left[t].append(-1)
            right[t].append(-1)
            dist[t].append(inner_dist)
            node_rows.append(rows_)
            nodes.append(node)
        lengths = np.fromiter(map(len, node_rows), np.intp, len(trees))
        at = np.repeat(np.arange(len(trees)), lengths)  # each row's node
        flat = np.concatenate(node_rows)
        counts = np.bincount(
            at * n_classes + y_idx[flat], minlength=len(trees) * n_classes
        ).reshape(len(trees), n_classes)
        dists = counts / lengths[:, None]
        split_f = np.full(len(trees), -1, dtype=np.intp)
        impure = np.flatnonzero(counts.max(axis=1) < lengths)
        if impure.size:
            search = [node_rows[i] for i in impure]
            if subsample:
                drawn = [rngs[trees[i]].choice(d, size=max_features, replace=False) for i in impure]
                candidates = np.sort(drawn, axis=1)
            else:
                candidates = np.broadcast_to(every_feature, (impure.size, d))
            f, thr = _best_splits(X, y_idx, search, counts[impure], candidates)
            retry = np.flatnonzero(f < 0) if subsample else ()
            if len(retry):
                f[retry], thr[retry] = _best_splits(
                    X,
                    y_idx,
                    [search[i] for i in retry],
                    counts[impure[retry]],
                    np.broadcast_to(every_feature, (retry.size, d)),
                )
            split_f[impure] = f
            split_t = np.full(len(trees), math.nan)
            split_t[impure] = thr
            # Each node's rows, left-going ones first, each side in its
            # order (a leaf's NaN threshold sends all of its rows right).
            go_left = X[flat, split_f[at]] <= split_t[at]
            flat = flat[np.argsort(2 * at + ~go_left, kind="stable")]
            first = np.cumsum(lengths) - lengths
            mid = first + np.bincount(at[go_left], minlength=len(trees))
        for i, t in enumerate(trees):
            node = nodes[i]
            if split_f[i] < 0:
                dist[t][node] = dists[i]
                continue
            feature[t][node] = int(split_f[i])
            threshold[t][node] = float(split_t[i])
            stacks[t].append((flat[mid[i] : first[i] + lengths[i]], right[t], node))
            stacks[t].append((flat[first[i] : mid[i]], left[t], node))
    return [
        Tree(
            np.array(feature[t], dtype=np.intp),
            np.array(threshold[t]),
            np.array(left[t], dtype=np.intp),
            np.array(right[t], dtype=np.intp),
            np.array(dist[t]),
        )
        for t in range(len(rows))
    ]


def _join_trees(trees: list[Tree]) -> dict[str, Any]:
    """A fitted tree learner's state: one node table ``nodes`` that holds
    the trees one after another, child indices shifted to match, and each
    tree's root node in ``roots``."""
    roots = np.cumsum([0] + [len(tree.feature) for tree in trees[:-1]])

    def shifted(children: np.ndarray, root: int) -> np.ndarray:
        return np.where(children >= 0, children + root, -1)

    nodes = Tree(
        np.concatenate([tree.feature for tree in trees]),
        np.concatenate([tree.threshold for tree in trees]),
        np.concatenate([shifted(tree.left, root) for tree, root in zip(trees, roots)]),
        np.concatenate([shifted(tree.right, root) for tree, root in zip(trees, roots)]),
        np.concatenate([tree.dist for tree in trees]),
    )
    return {"nodes": nodes, "roots": roots}


def _tree_scores(nodes: Tree, X: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """(roots, rows, classes): the leaf ``dist`` each row reaches from each
    root, all (root, row) pairs descending one level per step."""
    n = X.shape[0]
    node = np.repeat(roots, n)
    row = np.tile(np.arange(n), len(roots))
    active = np.arange(node.size)
    while active.size:
        at = node[active]
        f = nodes.feature[at]
        inner = f >= 0
        active, at, f = active[inner], at[inner], f[inner]
        go_left = X[row[active], f] <= nodes.threshold[at]
        node[active] = np.where(go_left, nodes.left[at], nodes.right[at])
    return nodes.dist[node].reshape(len(roots), n, -1)


def _fit_dectree(X: np.ndarray, y_idx: np.ndarray, n_classes: int) -> dict[str, Any]:
    return _join_trees(_grow_trees(X, y_idx, [np.arange(X.shape[0])], n_classes, None, None))


def _fit_randforest(
    X: np.ndarray, y_idx: np.ndarray, n_classes: int, params: dict[str, Any], seed: int
) -> dict[str, Any]:
    n, d = X.shape
    if params["max_features"] == "sqrt":
        max_features = max(1, int(math.sqrt(d)))
    else:
        max_features = params["max_features"]
    rngs = [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(params["n_trees"])]
    rows = [rng.integers(n, size=n) if params["bootstrap"] else np.arange(n) for rng in rngs]
    return _join_trees(_grow_trees(X, y_idx, rows, n_classes, rngs, max_features))


# --- shared entry points -----------------------------------------------------


def fit_classifier(
    spec: ClassifierSpec,
    X: EncodedMatrix | np.ndarray,
    y: list[str],
    label_set: list[str] | None = None,
) -> ClassifierModel:
    features = _as_features(X)
    if features.shape[0] != len(y):
        raise DimensionMismatchError(f"{features.shape[0]} rows but {len(y)} labels")
    if label_set is None:
        label_set = sorted(set(y))
    extra = set(y) - set(label_set)
    if extra:
        raise ValueError(f"labels outside label_set: {sorted(extra)}")
    if len(set(y)) < 2:
        raise SingleClassTrainingError("training data has fewer than 2 distinct labels")
    label_to_idx = {lab: i for i, lab in enumerate(label_set)}
    y_idx = np.array([label_to_idx[lab] for lab in y], dtype=np.intp)
    T = np.zeros((len(y), len(label_set)))
    T[np.arange(len(y)), y_idx] = 1.0

    algo, params = spec.algo, spec.params
    if algo == "logreg":
        state = _fit_logreg(features, T, params)
    elif algo == "linear_svc":
        state = _fit_linear_svc(features, T, params)
    elif algo == "knn":
        state = {"X": features.copy(), "y_idx": y_idx.copy(), "k": min(params["k"], len(y))}
    elif algo == "mlp":
        state = _fit_mlp(features, T, params, spec.seed)
    elif algo == "dectree":
        state = _fit_dectree(features, y_idx, len(label_set))
    else:
        state = _fit_randforest(features, y_idx, len(label_set), params, spec.seed)
    return ClassifierModel(
        spec=spec, label_set=list(label_set), state=state, n_features=features.shape[1]
    )


def class_scores(model: ClassifierModel, X: EncodedMatrix | np.ndarray) -> np.ndarray:
    """Per-class scores (probabilities, margins, vote or leaf fractions)."""
    features = _as_features(X)
    if features.shape[1] != model.n_features:
        raise DimensionMismatchError(
            f"model fitted on {model.n_features} features, got {features.shape[1]}"
        )
    algo = model.spec.algo
    n_classes = len(model.label_set)
    if algo == "logreg":
        return _scores_logreg(model.state, features)
    if algo == "linear_svc":
        return _scores_linear_svc(model.state, features)
    if algo == "knn":
        return _scores_knn(model.state, features, n_classes)
    if algo == "mlp":
        return _scores_mlp(model.state, features, n_classes)
    # A tree's leaf fractions, or their mean over the forest's trees.
    per_tree = _tree_scores(model.state["nodes"], features, model.state["roots"])
    return np.mean(per_tree, axis=0)


def predict(model: ClassifierModel, X: EncodedMatrix | np.ndarray) -> list[str]:
    scores = class_scores(model, X)
    return [model.label_set[i] for i in np.argmax(scores, axis=1)]


def convergence(model: ClassifierModel) -> dict[str, Any] | None:
    """How an iterative fit ended: ``epochs`` run and ``stop``, the rule that
    ended it (``tol``, ``patience`` or ``max_epochs``; linear_svc gives a list
    of each, one per one-vs-rest class, with ``step`` when its step size
    collapsed). None for knn, dectree and randforest."""
    if "stop" not in model.state:
        return None
    return {"epochs": model.state["epochs"], "stop": model.state["stop"]}
