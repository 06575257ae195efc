"""Seeded synthetic corpora for experiments at desk scale.

Construction mirrors the namespace-overlap situation in real scientific
corpora: every class gets its own disjoint text vocabulary (so text carries
full class signal), while all classes draw their formula identifiers from
one shared pool (so identifiers alone carry none). An optional skew makes
operator usage class-dependent, and an optional overlap draws some text
words from other classes' vocabularies, so text no longer separates the
classes perfectly.
"""
from __future__ import annotations

import json
import string
from collections import Counter
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

from .corpus import (
    PLACEHOLDER,
    Corpus,
    Document,
    Formula,
    _Cleaner,
    default_stopwords,
    format_container,
)

OPERATOR_POOL = ["=", "+", "−", "×", "<", ">", "≤", "∈", "∑", "∫"]


def _word(index: int) -> str:
    """Letters-only word for a global vocabulary index, e.g. 7 -> "qaaah".

    All-alpha and 5 chars long, so it survives cleaning (no digits, length
    >= 3) and cannot collide with common stopwords.
    """
    letters = []
    for _ in range(4):
        index, r = divmod(index, 26)
        letters.append(string.ascii_lowercase[r])
    return "q" + "".join(reversed(letters))


def _identifier(index: int) -> str:
    letters = string.ascii_lowercase
    if index < 26:
        return letters[index]
    return letters[index // 26 - 1] + letters[index % 26]


def generate_synthetic_corpus(
    n_classes: int,
    docs_per_class: int,
    vocab_per_class: int,
    shared_identifiers: int,
    seed: int = 0,
    *,
    tokens_per_doc: tuple[int, int] = (40, 80),
    formulas_per_doc: tuple[int, int] = (3, 8),
    ids_per_formula: tuple[int, int] = (2, 5),
    ops_per_formula: tuple[int, int] = (1, 4),
    operator_skew: float = 0.0,
    text_overlap: float = 0.0,
    labels: list[str] | None = None,
    class_vocabularies: list[list[str]] | None = None,
    identifier_pool: list[str] | None = None,
) -> Corpus:
    """Random documents with disjoint per-class text vocabularies and one
    shared identifier pool; deterministic per seed.

    With ``text_overlap`` p > 0, each text word is drawn, with probability
    p, from the vocabulary of a uniformly drawn class (its own included)
    instead of its own class's. At 0 nothing extra is drawn, so the corpus
    is the same as without the keyword.

    The generated vocabulary/label/identifier schemes can be overridden
    (e.g. to bundle a themed demo corpus); supplied vocabulary words must
    survive cleaning unchanged.
    """
    if min(n_classes, docs_per_class, vocab_per_class, shared_identifiers) < 1:
        raise ValueError("all counts must be >= 1")
    if not 0.0 <= operator_skew <= 1.0:
        raise ValueError("operator_skew must be in [0, 1]")
    if not 0.0 <= text_overlap <= 1.0:
        raise ValueError("text_overlap must be in [0, 1]")
    rng = np.random.default_rng(seed)
    if labels is None:
        labels = [f"class{ci:02d}" for ci in range(n_classes)]
    if len(labels) != n_classes:
        raise ValueError("labels length must equal n_classes")
    if class_vocabularies is None:
        class_vocabularies = [
            [_word(ci * vocab_per_class + j) for j in range(vocab_per_class)]
            for ci in range(n_classes)
        ]
    if len(class_vocabularies) != n_classes or any(
        len(v) < vocab_per_class for v in class_vocabularies
    ):
        raise ValueError("need one vocabulary of >= vocab_per_class words per class")
    class_vocab = [v[:vocab_per_class] for v in class_vocabularies]
    id_pool = (
        [_identifier(i) for i in range(shared_identifiers)]
        if identifier_pool is None
        else list(identifier_pool[:shared_identifiers])
    )
    stopwords = default_stopwords()
    cleaner = _Cleaner(stopwords)  # one memo for every word of this corpus
    for vocab in class_vocab:
        broken = [w for w in vocab if cleaner.text(w) != [w]]
        if broken:
            raise ValueError(f"vocabulary words do not survive cleaning: {broken[:5]}")

    documents = []
    for ci, label in enumerate(labels):
        vocab = class_vocab[ci]
        preferred_op = ci % len(OPERATOR_POOL)
        for j in range(docs_per_class):
            n_tok = int(rng.integers(tokens_per_doc[0], tokens_per_doc[1] + 1))
            word_ids = rng.integers(len(vocab), size=n_tok)
            if text_overlap > 0.0:
                swap = rng.random(n_tok) < text_overlap
                source = np.where(swap, rng.integers(n_classes, size=n_tok), ci)
                words = [class_vocab[int(c)][int(w)] for c, w in zip(source, word_ids)]
            else:
                words = [vocab[int(w)] for w in word_ids]
            n_formulas = int(rng.integers(formulas_per_doc[0], formulas_per_doc[1] + 1))
            slots = rng.integers(0, n_tok + 1, size=n_formulas)
            # How many formulas go before word s (after the last word at n_tok).
            per_slot = np.bincount(slots, minlength=n_tok + 1).tolist()

            pieces: list[str] = []
            formulas: list[Formula] = []
            pos = 0
            word_i = 0
            for s in range(n_tok + 1):
                for _ in range(per_slot[s]):
                    if pieces:
                        pieces.append(" ")
                        pos += 1
                    n_ids = int(rng.integers(ids_per_formula[0], ids_per_formula[1] + 1))
                    n_ops = int(rng.integers(ops_per_formula[0], ops_per_formula[1] + 1))
                    idents = [id_pool[int(i)] for i in rng.integers(len(id_pool), size=n_ids)]
                    ops = []
                    for _ in range(n_ops):
                        if operator_skew > 0.0 and rng.random() < operator_skew:
                            ops.append(OPERATOR_POOL[preferred_op])
                        else:
                            ops.append(OPERATOR_POOL[int(rng.integers(len(OPERATOR_POOL)))])
                    order = "".join(
                        "i" if k else "o"
                        for k in rng.permutation([True] * n_ids + [False] * n_ops)
                    )
                    formulas.append(
                        Formula(operators=ops, identifiers=idents, offset=pos, order=order)
                    )
                    pieces.append(PLACEHOLDER)
                    pos += 1
                if s < n_tok:
                    if pieces:
                        pieces.append(" ")
                        pos += 1
                    pieces.append(words[word_i])
                    pos += len(words[word_i])
                    word_i += 1
            raw_text = "".join(pieces)
            documents.append(
                Document(
                    id=f"{label}-{j:03d}",
                    label=label,
                    raw_text=raw_text,
                    text_tokens=cleaner.text(raw_text),
                    formulas=formulas,
                )
            )
    return Corpus(documents=documents, label_set=labels, stopwords=stopwords)


def class_lexicon_tsv(corpus: Corpus, path: str | Path, names_per_symbol: int = 3) -> None:
    """Write a lexicon whose candidate names echo class text vocabulary.

    Each identifier's candidates are the most frequent text words of the
    classes that use it most, so enrichment re-injects class signal into
    streams that would otherwise be class-blind. Useful as a bundled demo
    and for measuring the enrichment effect.
    """
    by_symbol: dict[str, Counter[str]] = {}
    class_words: dict[str, Counter[str]] = {}
    for doc in corpus.documents:
        class_words.setdefault(doc.label, Counter()).update(doc.text_tokens)
        for f in doc.formulas:
            for sym in f.identifiers:
                by_symbol.setdefault(sym, Counter()).update({doc.label: 1})
    lines = []
    for sym in sorted(by_symbol):
        top_classes = [lab for lab, _ in by_symbol[sym].most_common(names_per_symbol)]
        for rank, lab in enumerate(top_classes):
            name = class_words[lab].most_common(1)[0][0]
            lines.append(f"{sym}\t{name}\t{float(names_per_symbol - rank)}")
    Path(path).write_text("\n".join(lines) + "\n", "utf-8")


def render_markup(doc: Document, format: str = "html_math") -> str:
    """Serialize a document back to container markup (inverse of parsing,
    up to whitespace in the formula regions). Raises
    :class:`UnknownFormatError` for an unrecognized format name."""
    container = format_container(format)
    parts = doc.raw_text.split(PLACEHOLDER)
    if len(parts) != len(doc.formulas) + 1:
        raise ValueError("placeholder count does not match formula count")
    out = ["<article>", escape(parts[0])]
    for formula, tail in zip(doc.formulas, parts[1:]):
        body = "".join(
            f"<mo>{escape(t)}</mo>" if kind == "o" else f"<mi>{escape(t)}</mi>"
            for kind, t in formula.symbols()
        )
        out.append(f"<{container}>{body}</{container}>")
        out.append(escape(tail))
    out.append("</article>")
    return "".join(out)


def write_corpus_markup(corpus: Corpus, out_dir: str | Path, format: str = "html_math") -> Path:
    """Write one markup file per document plus a manifest; returns the
    manifest path. An unrecognized format name raises
    :class:`UnknownFormatError` before anything is written."""
    format_container(format)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for doc in corpus.documents:
        filename = f"{doc.id}.xml"
        (out_dir / filename).write_text(render_markup(doc, format) + "\n", "utf-8")
        entries.append({"path": filename, "id": doc.id, "label": doc.label})
    manifest = {"format": format, "label_set": corpus.label_set, "entries": entries}
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, ensure_ascii=False, indent=2) + "\n", "utf-8")
    return manifest_path
