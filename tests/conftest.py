"""Shared fixtures and small numeric helpers for the test suite."""
import numpy as np
import pytest

from textmath import Corpus, Document, EncodedMatrix, EncodingSpec, Formula


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
