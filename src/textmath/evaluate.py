"""Measurement layer: cross-validated accuracy, cluster purity, confusion
matrices, text-math similarity correlation, relative runtimes, and report
tables.

Every classification row, an encoding or the semantified bags, goes
through one fold builder, ``stream_folds``. The row's token streams are
built once; the encoder is refitted on each training fold's streams before
the held-out streams are transformed, so no vocabulary or embedding
information leaks across the split, and every classifier in the row is
fitted and scored on that fold's shared matrices. Purity comes in two
flavors: the macro mean over clusters (headline) and the sample-weighted
variant, which differ exactly when cluster sizes are uneven.
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .classify import ClassifierSpec, fit_classifier, predict
from .cluster import ClusterAssignment
from .corpus import Corpus
from .encode import EncodedMatrix, EncodingSpec, fit_streams, token_stream
from .encode import fit_encoder  # noqa: F401 -- perfbench/spans.py wraps it
from .errors import (
    LengthMismatchError,
    RaggedGridError,
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


def _splits(plan: FoldPlan, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(train indices, test indices) of each fold over ``n`` samples, in fold
    order; the plan must cover exactly those samples."""
    if plan.n_samples != n:
        raise LengthMismatchError(f"plan covers {plan.n_samples} samples, got {n}")
    everything = np.arange(n)
    for fold in range(plan.n_folds):
        test_idx = plan.fold_indices(fold)
        yield np.setdiff1d(everything, test_idx), test_idx


def stream_folds(
    spec: EncodingSpec | None, streams: list[list[str]], sample_ids: list[str], plan: FoldPlan
) -> Iterator[Fold]:
    """Per fold: fit the encoder (``fit_streams``; ``spec=None`` is plain
    tf-idf) on the training streams and transform the held-out ones. Folds
    are built as they are consumed, so only one fold's encoder and matrices
    are alive at a time."""

    def side(idx: np.ndarray) -> tuple[list[list[str]], list[str]]:
        return [streams[i] for i in idx], [sample_ids[i] for i in idx]

    for train_idx, test_idx in _splits(plan, len(streams)):
        encoder, X_train = fit_streams(spec, *side(train_idx))
        yield Fold(train_idx, test_idx, X_train, encoder.transform(*side(test_idx)))
        del encoder, X_train


def encoding_folds(encoding: EncodingSpec, corpus: Corpus, plan: FoldPlan) -> Iterator[Fold]:
    """``stream_folds`` over the row's token streams, which are built once,
    when the first fold is requested, so a failure to build them goes to
    ``score_folds`` like any other fold failure."""
    docs = corpus.documents
    streams = [token_stream(d, encoding.content, stopwords=corpus.stopwords) for d in docs]
    yield from stream_folds(encoding, streams, corpus.ids, plan)


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


def _single_result(outcomes: list[CrossValidationResult | Exception]) -> CrossValidationResult:
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def cross_validate(
    spec: ClassifierSpec,
    encoding: EncodingSpec,
    corpus: Corpus,
    plan: FoldPlan,
) -> CrossValidationResult:
    """Per fold: fit encoder and classifier on the training side, score the
    held-out side; accuracies averaged unweighted over folds."""
    return _single_result(
        score_folds([spec], encoding_folds(encoding, corpus, plan), corpus.labels, corpus.label_set)
    )


def cross_validate_bags(
    spec: ClassifierSpec,
    bags: list[list[str]],
    labels: list[str],
    label_set: list[str],
    plan: FoldPlan,
) -> CrossValidationResult:
    """Cross-validate tf-idf over pre-built token bags (e.g. enriched
    streams), refitting the vocabulary per training fold."""
    if len(bags) != len(labels):
        raise LengthMismatchError(f"{len(bags)} bags vs {len(labels)} labels")
    folds = stream_folds(None, bags, [str(i) for i in range(len(bags))], plan)
    return _single_result(score_folds([spec], folds, labels, label_set))


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


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape:
        raise LengthMismatchError(f"{xs.shape} vs {ys.shape}")
    if len(xs) < 2:
        raise ValueError("need at least 2 points")
    xc = xs - xs.mean()
    yc = ys - ys.mean()
    sx = np.sqrt((xc * xc).sum())
    sy = np.sqrt((yc * yc).sum())
    if sx == 0.0 or sy == 0.0:
        raise ZeroVarianceError("one series is constant, correlation undefined")
    return float((xc * yc).sum() / (sx * sy))


def text_math_correlation(X_text: EncodedMatrix, X_math: EncodedMatrix) -> float:
    """Pearson correlation between the two spaces' pairwise cosine
    similarities, over all unordered sample pairs."""
    if X_text.sample_ids != X_math.sample_ids:
        raise ValueError("matrices must cover the same samples in the same order")
    if X_text.n_samples < 3:
        raise ValueError("need at least 3 samples for a pair-similarity correlation")
    return pearson(X_text.pair_cosines(), X_math.pair_cosines())


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
