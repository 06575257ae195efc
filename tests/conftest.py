"""Shared fixtures and small numeric helpers for the test suite."""
import math
from collections import Counter

import numpy as np
import pytest

from textmath import (
    AllBagsEmptyError,
    Corpus,
    Document,
    EncodedMatrix,
    EncodingSpec,
    Formula,
    LengthMismatchError,
    TfidfModel,
    ZeroVarianceError,
)


def make_matrix(X, ids=None, spec=None):
    """Wrap a plain array as an EncodedMatrix with generated sample ids."""
    X = np.asarray(X, dtype=np.float64)
    if ids is None:
        ids = [f"s{i:03d}" for i in range(X.shape[0])]
    if spec is None:
        spec = EncodingSpec("text", "tfidf")
    return EncodedMatrix(spec=spec, sample_ids=list(ids), features=X)


def only_result(outcomes):
    """The one outcome of a one-classifier ``cross_validate`` or
    ``cross_validate_bags`` call; an exception in its place is raised."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def stream_fit_tfidf(bags):
    """The tf-idf oracle over token streams: the vocabulary is every token
    of ``bags`` in sorted order, with idf(t) = ln((1+N)/(1+df(t))) + 1 over
    the N bags, by ``math.log``."""
    bags = list(bags)
    if not bags:
        raise ValueError("bags must be non-empty")
    df = Counter(tok for bag in bags for tok in set(bag))
    if not df:
        raise AllBagsEmptyError("all token bags are empty")
    names = sorted(df)
    n = len(bags)
    idf = np.array([math.log((1 + n) / (1 + df[tok])) + 1.0 for tok in names])
    return TfidfModel({tok: j for j, tok in enumerate(names)}, idf)


def stream_transform_tfidf(model, bags, sample_ids=None, spec=None):
    """The oracle's L2-normalized count × idf rows of ``bags`` over the
    model's vocabulary; tokens outside it are ignored, all-zero rows stay
    zero. Counts go into a C-ordered integer matrix before the idf multiply,
    as in ``encode.transform_tfidf``, so the row norms agree bit for bit."""
    bags = list(bags)
    if sample_ids is None:
        sample_ids = [str(i) for i in range(len(bags))]
    counts = np.zeros((len(bags), len(model.vocabulary)), dtype=np.int32)
    for i, bag in enumerate(bags):
        for tok, count in Counter(bag).items():
            if tok in model.vocabulary:
                counts[i, model.vocabulary[tok]] = count
    mat = counts * model.idf
    norms = np.linalg.norm(mat, axis=1)
    nonzero = norms > 0
    mat[nonzero] /= norms[nonzero, None]
    names = sorted(model.vocabulary, key=model.vocabulary.get)
    return EncodedMatrix(spec=spec, sample_ids=list(sample_ids), features=mat, feature_names=names)


def pearson(xs, ys):
    """Pearson's r of two equal-length series, from centred sums."""
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


def make_blobs(centers, n_per, scale, seed=0):
    """Isotropic Gaussian blobs; returns (X, labels as blob index strings)."""
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=np.float64)
    parts, labels = [], []
    for i, c in enumerate(centers):
        parts.append(rng.normal(0.0, scale, size=(n_per, centers.shape[1])) + c)
        labels.extend([f"b{i}"] * n_per)
    return np.vstack(parts), labels


def make_doc(id="d0", label="x", raw_text="", text_tokens=(), formulas=()):
    return Document(
        id=id,
        label=label,
        raw_text=raw_text,
        text_tokens=list(text_tokens),
        formulas=list(formulas),
    )


def formula(operators=(), identifiers=(), offset=0, order=None):
    if order is None:
        order = "o" * len(operators) + "i" * len(identifiers)
    return Formula(
        operators=list(operators),
        identifiers=list(identifiers),
        offset=offset,
        order=order,
    )


@pytest.fixture(scope="session")
def tiny_corpus():
    """Three classes, four docs each, class word repeated so tf-idf separates."""
    docs = []
    words = {"red": ["crimson", "scarlet"], "green": ["olive", "forest"], "blue": ["navy", "azure"]}
    for label, vocab in words.items():
        for j in range(4):
            toks = [vocab[j % 2]] * 3 + ["common"]
            docs.append(
                make_doc(
                    id=f"{label}-{j}",
                    label=label,
                    raw_text=" ".join(toks),
                    text_tokens=toks,
                    formulas=[formula(["="], ["x", "y"], offset=0, order="ioi")],
                )
            )
    return Corpus(documents=docs, label_set=["red", "green", "blue"], stopwords=frozenset())
