"""Measurement layer: cross-validated accuracy, cluster purity, confusion
matrices, text-math similarity correlation, relative runtimes, and report
tables.

Every classification row is scored by one call: ``cross_validate`` for an
encoding, ``cross_validate_bags`` for pre-built token bags (the semantified
row). Each takes the row's list of classifiers, builds its folds with
``row_folds`` and scores them with ``score_folds``, and returns one result
or one exception per classifier. The row's source is built once per run: a
tf-idf row's token counts (``encode.Channels``; the semantified bags are
counted the same way) or an embedding row's token streams. The encoder is
refitted on each training fold's rows before the held-out rows are encoded,
so no vocabulary or embedding information leaks across the split; a tf-idf
fold fits ``encode.fit_tfidf`` on its training rows of the counts and
weighs both sides by ``encode.transform_tfidf``. Every classifier in the
row is fitted and scored on that fold's shared matrices. Purity comes in
two flavors: the macro mean over clusters (headline) and the
sample-weighted variant, which differ exactly when cluster sizes are
uneven.
"""
from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .classify import ClassifierSpec, fit_classifier, predict
from .cluster import ClusterAssignment
from .corpus import Corpus
from .encode import Channels, EncodedMatrix, EncodingSpec, Source, count_streams, fit_rows
from .encode import fit_encoder  # noqa: F401 -- perfbench/spans.py wraps it
from .errors import (
    LengthMismatchError,
    RaggedGridError,
    SampleMismatchError,
    TooFewSamplesError,
    ZeroVarianceError,
)


# --- fold plans ---------------------------------------------------------------


@dataclass(frozen=True)
class FoldPlan:
    n_samples: int
    n_folds: int
    assignments: tuple[int, ...]
    seed: int

    def fold_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.assignments) == fold)


def make_folds(n: int, n_folds: int = 10, seed: int = 0) -> FoldPlan:
    """Seeded shuffle, then contiguous split; first n % n_folds folds get
    one extra sample."""
    if n_folds < 2 or n_folds > n:
        raise TooFewSamplesError(f"need 2 <= n_folds <= n, got n_folds={n_folds}, n={n}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    base, extra = divmod(n, n_folds)
    assignments = np.empty(n, dtype=np.intp)
    start = 0
    for fold in range(n_folds):
        size = base + (1 if fold < extra else 0)
        assignments[order[start : start + size]] = fold
        start += size
    return FoldPlan(n_samples=n, n_folds=n_folds, assignments=tuple(int(a) for a in assignments), seed=seed)


# --- confusion and accuracy -----------------------------------------------------


@dataclass
class ConfusionMatrix:
    label_set: list[str]
    counts: np.ndarray  # rows = true, columns = predicted

    @classmethod
    def empty(cls, label_set: Sequence[str]) -> "ConfusionMatrix":
        n = len(label_set)
        return cls(label_set=list(label_set), counts=np.zeros((n, n), dtype=np.int64))

    def add(self, y_true: Sequence[str], y_pred: Sequence[str]) -> None:
        idx = {lab: i for i, lab in enumerate(self.label_set)}
        for t, p in zip(y_true, y_pred):
            self.counts[idx[t], idx[p]] += 1

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def accuracy(self) -> float:
        return float(np.trace(self.counts)) / self.total

    def percentages(self) -> np.ndarray:
        """Row-normalized percentages; all-zero rows stay zero."""
        sums = self.counts.sum(axis=1, keepdims=True).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            pct = np.where(sums > 0, 100.0 * self.counts / sums, 0.0)
        return pct

    def to_csv(self, path: str | Path) -> None:
        path = Path(path)
        pct = self.percentages()
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write("true\\pred," + ",".join(self.label_set) + "\n")
            for i, lab in enumerate(self.label_set):
                fh.write(lab + "," + ",".join(str(c) for c in self.counts[i]) + "\n")
            fh.write("percent\n")
            for i, lab in enumerate(self.label_set):
                fh.write(lab + "," + ",".join(f"{v:.2f}" for v in pct[i]) + "\n")


def accuracy_score(y_true: Sequence[str], y_pred: Sequence[str]) -> float:
    if len(y_true) != len(y_pred):
        raise LengthMismatchError(f"{len(y_true)} true vs {len(y_pred)} predicted")
    return sum(t == p for t, p in zip(y_true, y_pred)) / len(y_true)


# --- cross-validation --------------------------------------------------------------


class CrossValidationResult(NamedTuple):
    mean_accuracy: float
    fold_accuracies: list[float]
    confusion: ConfusionMatrix
    # Wall seconds in the classifier's fit and predict calls, summed over folds.
    fit_predict_seconds: float = 0.0


class Fold(NamedTuple):
    """One split of the samples and the matrices encoded for it."""

    train_idx: np.ndarray
    test_idx: np.ndarray
    X_train: EncodedMatrix
    X_test: EncodedMatrix


def _check_covers(plan: FoldPlan, n: int) -> None:
    if plan.n_samples != n:
        raise LengthMismatchError(f"plan covers {plan.n_samples} samples, got {n}")


def _splits(plan: FoldPlan, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(train indices, test indices) of each fold over ``n`` samples, in fold
    order; the plan must cover exactly those samples."""
    _check_covers(plan, n)
    everything = np.arange(n)
    for fold in range(plan.n_folds):
        test_idx = plan.fold_indices(fold)
        yield np.setdiff1d(everything, test_idx), test_idx


def row_folds(
    spec: EncodingSpec | None, source: Source, sample_ids: list[str], plan: FoldPlan
) -> Iterator[Fold]:
    """Per fold: fit the encoder on the training rows of ``source``
    (``fit_rows``; ``spec=None`` is plain tf-idf over counts) and encode the
    held-out rows. Folds are built as they are consumed, so only one fold's
    encoder and matrices are alive at a time."""
    for train_idx, test_idx in _splits(plan, len(source)):
        encoder, X_train = fit_rows(spec, source, train_idx, sample_ids)
        X_test = encoder.transform_rows(source, test_idx, sample_ids)
        yield Fold(train_idx, test_idx, X_train, X_test)
        del encoder, X_train, X_test


def score_folds(
    specs: Sequence[ClassifierSpec],
    folds: Iterable[Fold],
    labels: Sequence[str],
    label_set: list[str],
) -> list[CrossValidationResult | Exception]:
    """Fit and score every classifier on each fold, in fold order; accuracies
    are averaged unweighted over folds.

    Returns one result or one exception per spec. A spec whose fit or
    prediction raises keeps that first exception and sits out the later
    folds; an exception while building a fold goes to every spec still in.
    No further fold is built once every spec has failed.
    """
    failures: list[Exception | None] = [None] * len(specs)
    fold_accuracies: list[list[float]] = [[] for _ in specs]
    confusions = [ConfusionMatrix.empty(label_set) for _ in specs]
    seconds = [0.0] * len(specs)
    try:
        for fold in folds:
            y_train = [labels[i] for i in fold.train_idx]
            y_test = [labels[i] for i in fold.test_idx]
            for s, spec in enumerate(specs):
                if failures[s] is not None:
                    continue
                try:
                    start = time.perf_counter()
                    y_pred = predict(
                        fit_classifier(spec, fold.X_train, y_train, label_set=label_set),
                        fold.X_test,
                    )
                    seconds[s] += time.perf_counter() - start
                    fold_accuracies[s].append(accuracy_score(y_test, y_pred))
                    confusions[s].add(y_test, y_pred)
                except Exception as exc:  # the cell fails, the other specs go on
                    failures[s] = exc
            del fold  # the next fold is built without this one alive
            if all(f is not None for f in failures):
                break
    except Exception as exc:  # building the fold failed
        failures = [exc if f is None else f for f in failures]
    return [
        failure
        if failure is not None
        else CrossValidationResult(
            mean_accuracy=float(np.mean(accs)),
            fold_accuracies=accs,
            confusion=confusion,
            fit_predict_seconds=secs,
        )
        for failure, accs, confusion, secs in zip(failures, fold_accuracies, confusions, seconds)
    ]


def cross_validate(
    specs: Sequence[ClassifierSpec],
    encoding: EncodingSpec,
    corpus: Corpus,
    plan: FoldPlan,
    channels: Channels | None = None,
) -> list[CrossValidationResult | Exception]:
    """Score every classifier in ``specs`` on one encoding's folds; see
    ``score_folds``. The folds are ``row_folds`` over the encoding's source
    from ``channels`` (the run's; by default built for this call). The
    source is fetched when the first fold is requested, so a failure to
    build it becomes every spec's exception."""
    _check_covers(plan, len(corpus.documents))

    def folds() -> Iterator[Fold]:
        run = Channels(corpus.documents, corpus.stopwords) if channels is None else channels
        yield from row_folds(encoding, run.source(encoding), corpus.ids, plan)

    return score_folds(specs, folds(), corpus.labels, corpus.label_set)


def cross_validate_bags(
    specs: Sequence[ClassifierSpec],
    bags: Iterable[list[str]],
    labels: Sequence[str],
    label_set: list[str],
    plan: FoldPlan,
) -> list[CrossValidationResult | Exception]:
    """Score every classifier in ``specs`` on plain tf-idf over pre-built
    token bags (e.g. enriched streams), refitting the vocabulary per
    training fold; see ``score_folds``. ``bags`` is read once, so it may be
    a generator that builds them one at a time."""
    counts = count_streams(bags)
    if len(counts) != len(labels):
        raise LengthMismatchError(f"{len(counts)} bags vs {len(labels)} labels")
    _check_covers(plan, len(counts))
    folds = row_folds(None, counts, [str(i) for i in range(len(counts))], plan)
    return score_folds(specs, folds, labels, label_set)


# --- purity ---------------------------------------------------------------------


def _cluster_ids(assignment: ClusterAssignment | Sequence[int]) -> list[int]:
    if isinstance(assignment, ClusterAssignment):
        return list(assignment.cluster_ids)
    return [int(c) for c in assignment]


def _majority_counts(
    assignment: ClusterAssignment | Sequence[int], labels: Sequence[str]
) -> list[tuple[int, int]]:
    """(majority-class count, size) per cluster, in order of first appearance."""
    cids = _cluster_ids(assignment)
    if len(cids) != len(labels):
        raise LengthMismatchError(f"{len(cids)} cluster ids vs {len(labels)} labels")
    per_cluster: dict[int, Counter[str]] = {}
    for c, lab in zip(cids, labels):
        per_cluster.setdefault(c, Counter())[lab] += 1
    return [(max(counts.values()), sum(counts.values())) for counts in per_cluster.values()]


def purity(assignment: ClusterAssignment | Sequence[int], labels: Sequence[str]) -> float:
    """Macro purity: unweighted mean over clusters of the majority-class
    fraction within each cluster."""
    return float(np.mean([m / size for m, size in _majority_counts(assignment, labels)]))


def weighted_purity(assignment: ClusterAssignment | Sequence[int], labels: Sequence[str]) -> float:
    """Sample-weighted purity: correct-by-majority samples over all samples."""
    return sum(m for m, _ in _majority_counts(assignment, labels)) / len(labels)


# --- similarity correlation -------------------------------------------------------


# A series whose variance term is at most this fraction of its scale counts as
# constant (see ``text_math_correlation``).
CONSTANT_TOLERANCE = 1e-12
# Rows per block when a Gram product is taken from row Gram matrices.
_GRAM_BLOCK = 128


class _PairTerms(NamedTuple):
    """One matrix's own terms of the text-math correlation. With U its unit
    rows, m their mean and W = U - m, the cosine of rows i and j is
    a_ij = |m|^2 + g_ij, where g_ij = s_i + s_j + w_i·w_j and s = W m."""

    mean: np.ndarray  # m
    s: np.ndarray  # W m
    diag: np.ndarray  # g_ii = 2 s_i + |w_i|^2
    total: float  # sum of g_ij over the pairs i < j
    total_sq: float  # sum of g_ij^2 over the pairs i < j
    scale: float  # sum of a_ij^2 over all i, j, which is |U^T U|_F^2


def _centred_rows(
    features: np.ndarray, mean: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(W, m): the rows scaled to unit length (all-zero rows stay zero), less
    ``mean``, which is by default the mean of the unit rows."""
    norms = np.linalg.norm(features, axis=1)
    W = features / np.where(norms > 0, norms, 1.0)[:, None]
    if mean is None:
        mean = W.mean(axis=0)
    W -= mean
    return W, mean


def _gram_product(W: np.ndarray, X: np.ndarray) -> float:
    """|W^T X|_F^2, which equals sum_ij (w_i·w_j)(x_i·x_j), by the cheaper
    form. W^T X costs n·d_w·d_x. The row Gram matrices cost about
    n(n + B)(d_w + d_x)/2: they are taken over the upper triangle in blocks
    of B rows, so no n × n array is held."""
    n, d_w = W.shape
    d_x = X.shape[1]
    if d_w * d_x <= (n + _GRAM_BLOCK) * (d_w + d_x) / 2:
        P = W.T @ X
        return float(np.vdot(P, P))
    total = 0.0
    for lo in range(0, n, _GRAM_BLOCK):
        width = min(_GRAM_BLOCK, n - lo)
        P = W[lo : lo + width] @ W[lo:].T
        P *= P if X is W else X[lo : lo + width] @ X[lo:].T
        total += P[:, :width].sum() + 2.0 * P[:, width:].sum()
    return float(total)


def _pair_terms(X: EncodedMatrix) -> tuple[_PairTerms, np.ndarray]:
    """X's own correlation terms, computed once per ``features`` array, and
    its centred rows W."""
    memo = X.memo()
    if "correlation" in memo:
        terms = memo["correlation"]
        return terms, _centred_rows(X.features, terms.mean)[0]
    W, mean = _centred_rows(X.features)
    n = W.shape[0]
    s = W @ mean
    diag = 2.0 * s + (W * W).sum(axis=1)
    full_sq = 2.0 * n * float(s @ s) + _gram_product(W, W)  # sum_ij g_ij^2
    c = float(mean @ mean)
    terms = _PairTerms(
        mean=mean,
        s=s,
        diag=diag,
        total=-0.5 * float(diag.sum()),
        total_sq=0.5 * (full_sq - float(diag @ diag)),
        scale=full_sq + n * n * c * c,
    )
    memo["correlation"] = terms
    return terms, W


def _variance_term(terms: _PairTerms, pairs: int) -> float:
    var = pairs * terms.total_sq - terms.total**2
    if var <= CONSTANT_TOLERANCE * pairs * terms.scale:
        raise ZeroVarianceError("one series is constant, correlation undefined")
    return var


def text_math_correlation(X_text: EncodedMatrix, X_math: EncodedMatrix) -> float:
    """Pearson correlation between the two spaces' pairwise cosine
    similarities, over all N = n(n-1)/2 unordered sample pairs i < j; an
    all-zero row has cosine 0 with every row.

    No pair is listed: r comes from moment sums, in O(n + d²) memory. With U
    the unit rows, m their mean, W = U - m and s = W m, the cosine of rows i
    and j is a_ij = |m|^2 + g_ij, where g_ij = s_i + s_j + w_i·w_j. Pearson's
    r does not see the shift |m|^2, so it is taken over g and the other
    matrix's h (from its X and t). The rows of W sum to zero, so over all
    i, j
      sum g = 0,    sum g h = 2n s·t + |W^T X|_F^2,
    and a sum over the pairs i < j is half of that, less the diagonal's
    g_ii h_ii. With var_g = N sum g^2 - (sum g)^2 over the pairs,
    r = (N sum g h - sum g sum h) / sqrt(var_g var_h). Centring on m keeps
    cosines that sit near 1, as paragraph vectors' may, from cancelling.
    Each matrix's own terms are memoised on it.

    A constant series leaves a rounding residue in its variance term, not
    an exact 0. So ``ZeroVarianceError`` is raised when var_g is at most
    ``CONSTANT_TOLERANCE`` times N |U^T U|_F^2, which bounds it.
    """
    if X_text.sample_ids != X_math.sample_ids:
        raise SampleMismatchError("matrices must cover the same samples in the same order")
    n = X_text.n_samples
    if n < 3:
        raise TooFewSamplesError(
            f"need at least 3 samples for a pair-similarity correlation, got {n}"
        )
    pairs = n * (n - 1) // 2
    a, W = _pair_terms(X_text)
    var_a = _variance_term(a, pairs)
    b, X = _pair_terms(X_math)
    var_b = _variance_term(b, pairs)
    full = 2.0 * n * float(a.s @ b.s) + _gram_product(W, X)  # sum_ij g_ij h_ij
    total_ab = 0.5 * (full - float(a.diag @ b.diag))
    return (pairs * total_ab - a.total * b.total) / math.sqrt(var_a * var_b)


# --- runtimes ----------------------------------------------------------------------


def normalize_runtimes(raw: dict[str, float]) -> dict[str, float]:
    """Scale raw seconds so the slowest entry is exactly 100.0."""
    slowest = max(raw.values())
    if slowest <= 0.0:
        return {name: 100.0 for name in raw}
    out = {name: 100.0 * t / slowest for name, t in raw.items()}
    for name, t in raw.items():
        if t == slowest:
            out[name] = 100.0  # exact, no float division residue
    return out


# --- report tables ------------------------------------------------------------------


@dataclass
class EvaluationReport:
    """Grid of scores with Mean/Max margins, shaped like the result tables."""

    row_names: list[str]
    col_names: list[str]
    cells: dict[tuple[str, str], float | None]
    runtimes_percent: dict[str, float] = field(default_factory=dict)
    row_means: dict[str, float | None] = field(init=False)
    row_maxes: dict[str, float | None] = field(init=False)
    col_means: dict[str, float | None] = field(init=False)
    col_maxes: dict[str, float | None] = field(init=False)

    def __post_init__(self) -> None:
        for r in self.row_names:
            missing = [c for c in self.col_names if (r, c) not in self.cells]
            if missing:
                raise RaggedGridError(f"row {r!r} lacks columns {missing}")
        extra = set(self.cells) - {(r, c) for r in self.row_names for c in self.col_names}
        if extra:
            raise RaggedGridError(f"cells outside the declared grid: {sorted(extra)}")
        self.row_means = {}
        self.row_maxes = {}
        for r in self.row_names:
            vals = [self.cells[(r, c)] for c in self.col_names if self.cells[(r, c)] is not None]
            self.row_means[r] = float(np.mean(vals)) if vals else None
            self.row_maxes[r] = float(np.max(vals)) if vals else None
        self.col_means = {}
        self.col_maxes = {}
        for c in self.col_names:
            vals = [self.cells[(r, c)] for r in self.row_names if self.cells[(r, c)] is not None]
            self.col_means[c] = float(np.mean(vals)) if vals else None
            self.col_maxes[c] = float(np.max(vals)) if vals else None

    def best_cell(self) -> tuple[str, str] | None:
        best = None
        for r in self.row_names:
            for c in self.col_names:
                v = self.cells[(r, c)]
                if v is not None and (best is None or v > self.cells[best]):
                    best = (r, c)
        return best

    def fastest_algo(self) -> str | None:
        if not self.runtimes_percent:
            return None
        return min(self.runtimes_percent, key=lambda k: (self.runtimes_percent[k], k))

    @staticmethod
    def _fmt(v: float | None) -> str:
        return "" if v is None else f"{v:.6f}"

    def to_csv(self, path: str | Path) -> None:
        """Deterministic score grid; runtimes are kept out of the CSV so two
        identically seeded runs stay byte-identical."""
        path = Path(path)
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write("encoding," + ",".join(self.col_names) + ",Mean,Max\n")
            for r in self.row_names:
                vals = [self._fmt(self.cells[(r, c)]) for c in self.col_names]
                fh.write(
                    f"{r},"
                    + ",".join(vals)
                    + f",{self._fmt(self.row_means[r])},{self._fmt(self.row_maxes[r])}\n"
                )
            fh.write(
                "Mean," + ",".join(self._fmt(self.col_means[c]) for c in self.col_names) + ",,\n"
            )
            fh.write(
                "Max," + ",".join(self._fmt(self.col_maxes[c]) for c in self.col_names) + ",,\n"
            )

    def to_markdown(self, path: str | Path, title: str | None = None) -> None:
        path = Path(path)
        best = self.best_cell()
        fastest = self.fastest_algo()
        lines = []
        if title:
            lines.append(f"# {title}")
            lines.append("")
        lines.append("| Encoding | " + " | ".join(self.col_names) + " | Mean | Max |")
        lines.append("|" + "---|" * (len(self.col_names) + 3))
        for r in self.row_names:
            cells = []
            for c in self.col_names:
                v = self.cells[(r, c)]
                text = "" if v is None else f"{v:.1f}"
                if best == (r, c):
                    text = f"**{text}**"
                cells.append(text)
            mean = "" if self.row_means[r] is None else f"{self.row_means[r]:.1f}"
            mx = "" if self.row_maxes[r] is None else f"{self.row_maxes[r]:.1f}"
            lines.append(f"| {r} | " + " | ".join(cells) + f" | {mean} | {mx} |")
        lines.append(
            "| Mean | "
            + " | ".join(
                "" if self.col_means[c] is None else f"{self.col_means[c]:.1f}"
                for c in self.col_names
            )
            + " |  |  |"
        )
        lines.append(
            "| Max | "
            + " | ".join(
                "" if self.col_maxes[c] is None else f"{self.col_maxes[c]:.1f}"
                for c in self.col_names
            )
            + " |  |  |"
        )
        if self.runtimes_percent:
            cells = []
            for c in self.col_names:
                v = self.runtimes_percent.get(c)
                text = "" if v is None else f"{v:.1f}"
                if c == fastest:
                    text = f"**{text}**"
                cells.append(text)
            lines.append("| Runtime [%] | " + " | ".join(cells) + " |  |  |")
        path.write_text("\n".join(lines) + "\n", "utf-8")


def build_report(
    cells: dict[tuple[str, str], float | None], runtimes: dict[str, float] | None = None
) -> EvaluationReport:
    """Assemble a report from grid cells keyed (row, column); row and column
    order follow first appearance in the cell mapping."""
    if not cells:
        raise RaggedGridError("no cells")
    row_names: list[str] = []
    col_names: list[str] = []
    for r, c in cells:
        if r not in row_names:
            row_names.append(r)
        if c not in col_names:
            col_names.append(c)
    return EvaluationReport(
        row_names=row_names,
        col_names=col_names,
        cells=dict(cells),
        runtimes_percent=dict(runtimes or {}),
    )
