"""Document ingestion: markup parsing, token cleaning, identifier surroundings.

Documents arrive as XML/HTML markup in which formulae live inside ``<math>``
(html_math format) or ``<formula>`` (tei_formula format) container elements.
Operator and identifier symbols are the character data of ``<mo>`` and
``<mi>`` descendants. Everything outside the containers is natural-language
text; each container is replaced by a single placeholder character so that
formula offsets into the text stay stable.
"""
from __future__ import annotations

import json
import logging
import re
import unicodedata
import xml.etree.ElementTree as ET
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .errors import (
    EmptyClassError,
    MalformedMarkupError,
    MalformedRecordError,
    ManifestError,
    MissingFileError,
    UnknownFormatError,
    check_int,
)

logger = logging.getLogger(__name__)

# U+FFFC OBJECT REPLACEMENT CHARACTER: one per formula region in raw_text.
# Not a word character, so it can never leak into cleaned tokens.
PLACEHOLDER = "￼"

FORMAT_CONTAINERS = {"html_math": "math", "tei_formula": "formula"}

MIN_TOKEN_LEN = 3

_TOKEN_RE = re.compile(r"\w+")
_PLACEHOLDER_RE = re.compile(PLACEHOLDER)


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    """The bundled English stopword list (lowercase, deterministic)."""
    text = resources.files("textmath.data").joinpath("stopwords_en.txt").read_text("utf-8")
    return frozenset(w for w in text.split() if w and not w.startswith("#"))


@dataclass
class Formula:
    """Operator/identifier symbols of one formula element.

    ``order`` records the interleaving of the two lists in original element
    order, one character per symbol ('o' = operator, 'i' = identifier), so
    that operator/identifier streams can be merged back into document order.
    """

    operators: list[str]
    identifiers: list[str]
    offset: int
    order: str = ""

    def __post_init__(self) -> None:
        if not self.order:
            self.order = "o" * len(self.operators) + "i" * len(self.identifiers)
        if self.order.count("o") != len(self.operators) or self.order.count("i") != len(
            self.identifiers
        ):
            raise ValueError("formula order string inconsistent with symbol lists")

    def symbols(self) -> list[tuple[str, str]]:
        """All symbols as (kind, text) pairs in original element order."""
        ops = iter(self.operators)
        ids = iter(self.identifiers)
        return [("o", next(ops)) if k == "o" else ("i", next(ids)) for k in self.order]


@dataclass
class Document:
    """One corpus sample: cleaned text tokens plus extracted formulae."""

    id: str
    label: str
    raw_text: str
    text_tokens: list[str]
    formulas: list[Formula]
    # Token indexes of raw_text keyed by stopword set. Parsing and the loaders
    # build the default set's index; extract_surroundings builds any other on
    # first use. They live as long as the document does.
    _token_indexes: dict[frozenset[str], _TokenIndex | None] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # An offset may equal len(raw_text): a formula at the very end.
        n = len(self.raw_text)
        for f in self.formulas:
            if not 0 <= f.offset <= n:
                raise ValueError(f"formula offset {f.offset} outside the text [0, {n}]")


@dataclass
class Corpus:
    """An immutable-by-convention collection of parsed documents."""

    documents: list[Document]
    label_set: list[str]
    stopwords: frozenset[str] = field(default_factory=default_stopwords)
    skipped_ids: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        ids = [d.id for d in self.documents]
        if len(set(ids)) != len(ids):
            raise ValueError("document ids are not unique")
        known = set(self.label_set)
        for d in self.documents:
            if d.label not in known:
                raise ValueError(f"document {d.id!r} has label {d.label!r} outside the label set")

    @property
    def labels(self) -> list[str]:
        return [d.label for d in self.documents]

    @property
    def ids(self) -> list[str]:
        return [d.id for d in self.documents]


class _Cleaner(dict):
    """The cleaning rule for one stopword set, memoised per word.

    Maps each word-character run to its lowercased token, or to None when the
    rule drops it (a digit, fewer than 3 characters, or a stopword), and
    computes the entry on first lookup, so each distinct word is cleaned once
    for as long as the cleaner lives.
    """

    def __init__(self, stopwords: frozenset[str] | set[str]) -> None:
        super().__init__()
        self.stopwords = stopwords

    def __missing__(self, word: str) -> str | None:
        tok = word.lower()
        # str.isdigit is wider than \d (it also covers forms like superscripts),
        # and the digit rule is meant to be the strict variant.
        if len(tok) < MIN_TOKEN_LEN or any(c.isdigit() for c in tok) or tok in self.stopwords:
            tok = None
        self[word] = tok
        return tok

    def text(self, raw: str) -> list[str]:
        """The kept tokens of ``raw`` after NFC normalization, in order."""
        words = _TOKEN_RE.findall(unicodedata.normalize("NFC", raw))
        return [tok for tok in map(self.__getitem__, words) if tok is not None]


def clean_text(raw: str, stopwords: frozenset[str] | set[str] | None = None) -> list[str]:
    """Tokenize and clean a text string.

    Tokens are maximal runs of word characters (letters, digits, underscore)
    after NFC normalization. Each token is lowercased; tokens that are
    stopwords, contain a digit, or are shorter than 3 characters are dropped.
    Order is preserved.
    """
    return _Cleaner(default_stopwords() if stopwords is None else stopwords).text(raw)


def _local_name(tag: object) -> str:
    # Comments/PIs carry a non-string tag; namespaced tags look like "{uri}name".
    if not isinstance(tag, str):
        return ""
    return tag.rsplit("}", 1)[-1]


def _collect_symbols(elem: ET.Element, symbols: list[tuple[str, str]]) -> None:
    name = _local_name(elem.tag)
    if name in ("mo", "mi"):
        # Nested markup inside mo/mi: concatenate descendant character data.
        text = unicodedata.normalize("NFC", "".join(elem.itertext())).strip()
        if text:
            symbols.append(("o" if name == "mo" else "i", text))
        return
    for child in elem:
        _collect_symbols(child, symbols)


def _parse_markup(raw_markup: str, id: str) -> ET.Element:
    try:
        return ET.fromstring(raw_markup)
    except ET.ParseError:
        pass
    # Retry as a fragment (multiple roots, or leading/trailing text).
    try:
        return ET.fromstring(f"<textmath-fragment>{raw_markup}</textmath-fragment>")
    except ET.ParseError as exc:
        raise MalformedMarkupError(f"sample {id!r}: {exc}") from exc


def parse_document(raw_markup: str, format: str, id: str, label: str) -> Document:
    """Parse one markup document into a :class:`Document`.

    The placeholder-stripped text is tokenised once: when it is NFC, that
    one pass gives both ``text_tokens`` and the document's token index under
    the default stopword set, which ``extract_surroundings`` then reads.

    Raises :class:`MalformedMarkupError` for unbalanced/invalid markup and
    :class:`UnknownFormatError` for an unrecognized format name.
    """
    return _parse_document(raw_markup, format, id, label, _Cleaner(default_stopwords()))


def _parse_document(
    raw_markup: str, format: str, id: str, label: str, cleaner: _Cleaner
) -> Document:
    container = FORMAT_CONTAINERS.get(format)
    if container is None:
        raise UnknownFormatError(f"unknown document format {format!r}")

    root = _parse_markup(raw_markup, id)
    parts: list[str] = []
    formulas: list[Formula] = []
    pos = 0

    def emit(s: str) -> None:
        nonlocal pos
        parts.append(s)
        pos += len(s)

    def visit(elem: ET.Element) -> None:
        if _local_name(elem.tag) == container:
            symbols: list[tuple[str, str]] = []
            _collect_symbols(elem, symbols)
            formulas.append(
                Formula(
                    operators=[t for k, t in symbols if k == "o"],
                    identifiers=[t for k, t in symbols if k == "i"],
                    offset=pos,
                    order="".join(k for k, _ in symbols),
                )
            )
            emit(PLACEHOLDER)
            return
        if elem.text:
            emit(elem.text)
        for child in elem:
            visit(child)
            if child.tail:
                emit(child.tail)

    visit(root)
    raw_text = "".join(parts)
    index = _build_index(raw_text, cleaner)
    if index is None:
        text_tokens = cleaner.text(raw_text.replace(PLACEHOLDER, ""))
    else:
        text_tokens = list(index.kept)
    doc = Document(
        id=id, label=label, raw_text=raw_text, text_tokens=text_tokens, formulas=formulas
    )
    doc._token_indexes[cleaner.stopwords] = index
    return doc


class _TokenIndex:
    """One tokenisation of a document's placeholder-stripped text.

    ``raw[lo:hi].replace(PLACEHOLDER, "")`` equals ``stripped[a:b]`` with
    ``a, b = self.stripped_offset(lo), self.stripped_offset(hi)``. The word
    tokens of that window are then the whole tokens of the document that lie
    inside it, plus the inside parts of at most two tokens cut by its edges;
    those parts go through the same cleaner as the whole tokens. ``kept``
    equals ``clean_text(stripped, cleaner.stopwords)``. Only valid for NFC
    text: substrings of NFC text are NFC, so cleaning a window never
    re-normalizes it.
    """

    def __init__(self, stripped: str, placeholders: list[int], cleaner: _Cleaner) -> None:
        self.stripped = stripped
        self.placeholders = placeholders  # raw offsets of PLACEHOLDER, ascending
        self.cleaner = cleaner
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.kept: list[str] = []  # the tokens cleaning keeps, in order
        self.kept_before: list[int] = [0]  # kept tokens among the first i tokens
        for match in _TOKEN_RE.finditer(stripped):
            self.starts.append(match.start())
            self.ends.append(match.end())
            tok = cleaner[match.group()]
            if tok is not None:
                self.kept.append(tok)
            self.kept_before.append(len(self.kept))

    def stripped_offset(self, raw_offset: int) -> int:
        return raw_offset - bisect_left(self.placeholders, raw_offset)

    def window(self, lo: int, hi: int) -> list[str]:
        """``clean_text(raw[lo:hi].replace(PLACEHOLDER, ""), stopwords)`` for
        ``0 <= lo <= hi <= len(raw)``, with the cleaner's stopwords."""
        a, b = self.stripped_offset(lo), self.stripped_offset(hi)
        first = bisect_left(self.starts, a)  # first token starting inside
        stop = bisect_right(self.ends, b)  # one past the last token ending inside
        if first >= stop:
            return self.cleaner.text(self.stripped[a:b])
        out = []
        if a < self.starts[first]:
            out += self.cleaner.text(self.stripped[a : self.starts[first]])
        out += self.kept[self.kept_before[first] : self.kept_before[stop]]
        if self.ends[stop - 1] < b:
            out += self.cleaner.text(self.stripped[self.ends[stop - 1] : b])
        return out


def _build_index(raw_text: str, cleaner: _Cleaner) -> _TokenIndex | None:
    """The token index of ``raw_text`` for ``cleaner``; None when its
    stripped text is not NFC."""
    stripped = raw_text.replace(PLACEHOLDER, "")
    if not unicodedata.is_normalized("NFC", stripped):
        return None
    placeholders = [m.start() for m in _PLACEHOLDER_RE.finditer(raw_text)]
    return _TokenIndex(stripped, placeholders, cleaner)


def _token_index(doc: Document, stopwords: frozenset[str]) -> _TokenIndex | None:
    """The document's token index for ``stopwords``, built on first use
    unless loading built it; None when its stripped text is not NFC."""
    if stopwords not in doc._token_indexes:
        doc._token_indexes[stopwords] = _build_index(doc.raw_text, _Cleaner(stopwords))
    return doc._token_indexes[stopwords]


def extract_surroundings(
    doc: Document,
    window: int = 500,
    stopwords: frozenset[str] | set[str] | None = None,
) -> list[str]:
    """Token bag from the text neighborhoods of identifier occurrences.

    For every formula that contains at least one identifier, the substring of
    ``raw_text`` within ``window`` characters on each side of the formula's
    placeholder is cleaned and the per-formula token lists are concatenated
    in document order. The window is counted in raw-text characters, in
    which each formula is one character. A word cut by the window edge
    contributes only its part inside the window, and words inside the
    windows of several formulas are repeated once per window.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    stopwords = default_stopwords() if stopwords is None else frozenset(stopwords)
    index = _token_index(doc, stopwords)
    n = len(doc.raw_text)
    out: list[str] = []
    for formula in doc.formulas:
        if not formula.identifiers:
            continue
        lo = max(0, formula.offset - window)
        hi = min(n, formula.offset + window + 1)
        if index is None:
            out.extend(clean_text(doc.raw_text[lo:hi].replace(PLACEHOLDER, ""), stopwords))
        else:
            out.extend(index.window(lo, hi))
    return out


# --- manifest ingestion -------------------------------------------------


def _require(manifest: dict, key: str, kind: type) -> object:
    if key not in manifest:
        raise ManifestError(f"manifest is missing required key {key!r}")
    value = manifest[key]
    if not isinstance(value, kind):
        raise ManifestError(f"manifest key {key!r} must be a {kind.__name__}")
    return value


def load_corpus(manifest_path: str | Path) -> Corpus:
    """Load a corpus from a JSON manifest.

    Manifest schema: ``{"format", "label_set", "per_class_limit", "entries"}``
    where each entry is ``{"path", "label", "id"}`` with paths relative to the
    manifest file. When ``per_class_limit`` is set, the first N *parsable*
    samples per class (in manifest order) are kept. Samples that fail to
    parse are skipped with a warning; missing files are fatal. All
    documents are cleaned through one memo, so each distinct word is cleaned
    once per call.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise MissingFileError(f"manifest not found: {manifest_path}")

    manifest = json.loads(manifest_path.read_text("utf-8"))
    fmt = _require(manifest, "format", str)
    if fmt not in FORMAT_CONTAINERS:
        raise ManifestError(f"manifest format {fmt!r} is not one of {sorted(FORMAT_CONTAINERS)}")
    label_set = list(_require(manifest, "label_set", list))
    if not label_set or any(not isinstance(l, str) or not l for l in label_set):
        raise ManifestError("manifest label_set must be a non-empty list of non-empty strings")
    limit = manifest.get("per_class_limit")
    if limit is not None:
        check_int("manifest per_class_limit", limit, 1, ManifestError)
    entries = _require(manifest, "entries", list)

    base = manifest_path.parent
    known = set(label_set)
    per_class: dict[str, int] = {label: 0 for label in label_set}
    documents: list[Document] = []
    skipped: list[str] = []
    seen_ids: set[str] = set()
    cleaner = _Cleaner(default_stopwords())

    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not {"path", "label", "id"} <= set(entry):
            raise ManifestError(f"entry {i} must be an object with path/label/id")
        label = entry["label"]
        if label not in known:
            raise ManifestError(f"entry {entry['id']!r} has label {label!r} outside label_set")
        if entry["id"] in seen_ids:
            raise ManifestError(f"duplicate document id {entry['id']!r}")
        seen_ids.add(entry["id"])
        if limit is not None and per_class[label] >= limit:
            continue
        path = base / entry["path"]
        if not path.is_file():
            raise MissingFileError(f"corpus file not found: {path}")
        try:
            doc = _parse_document(path.read_text("utf-8"), fmt, entry["id"], label, cleaner)
        except MalformedMarkupError as exc:
            logger.warning("skipping %s: %s", entry["id"], exc)
            skipped.append(entry["id"])
            continue
        documents.append(doc)
        per_class[label] += 1

    empty = [label for label, n in per_class.items() if n == 0]
    if empty:
        raise EmptyClassError(f"no parsable samples for classes: {empty}")
    return Corpus(documents=documents, label_set=label_set, skipped_ids=skipped)


# --- canonical JSONL dump -----------------------------------------------


def dump_corpus_jsonl(corpus: Corpus, path: str | Path) -> None:
    """Write the canonical one-object-per-document JSON Lines dump."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for doc in corpus.documents:
            record = {
                "id": doc.id,
                "label": doc.label,
                "text_tokens": doc.text_tokens,
                "formulas": [
                    {
                        "operators": f.operators,
                        "identifiers": f.identifiers,
                        "offset": f.offset,
                        "order": f.order,
                    }
                    for f in doc.formulas
                ],
                "raw_text": doc.raw_text,
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def load_corpus_jsonl(path: str | Path, label_set: list[str] | None = None) -> Corpus:
    """Reload a canonical JSONL dump.

    When ``label_set`` is not given it is derived as the sorted set of
    document labels. A line that is not a well-formed document record
    raises ``MalformedRecordError`` naming the file, the line number and,
    where the record has one, the document id. The stored ``text_tokens``
    are kept as they are; each document's token index is built at load,
    through one cleaner for the whole file.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFileError(f"corpus dump not found: {path}")
    cleaner = _Cleaner(default_stopwords())
    documents = []
    for lineno, line in enumerate(path.read_text("utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        rec = None
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise TypeError(f"record is a JSON {type(rec).__name__}, not an object")
            raw_text = rec.get("raw_text", "")
            if not isinstance(raw_text, str):
                raise TypeError(f"raw_text is a JSON {type(raw_text).__name__}, not a string")
            doc = Document(
                id=rec["id"],
                label=rec["label"],
                raw_text=rec["raw_text"],
                text_tokens=list(rec["text_tokens"]),
                formulas=[
                    Formula(
                        operators=list(f["operators"]),
                        identifiers=list(f["identifiers"]),
                        offset=f["offset"],
                        order=f.get("order", ""),
                    )
                    for f in rec["formulas"]
                ],
            )
        except (ValueError, KeyError, TypeError) as exc:
            where = f"{path}:{lineno}"
            if isinstance(rec, dict) and "id" in rec:
                where += f": document {rec['id']!r}"
            reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
            raise MalformedRecordError(f"{where}: {reason}") from exc
        doc._token_indexes[cleaner.stopwords] = _build_index(doc.raw_text, cleaner)
        documents.append(doc)
    if label_set is None:
        label_set = sorted({d.label for d in documents})
    return Corpus(documents=documents, label_set=label_set)
