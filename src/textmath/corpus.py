"""Document ingestion: markup parsing, token cleaning, identifier surroundings.

Documents arrive as XML/HTML markup in which formulae live inside ``<math>``
(html_math format) or ``<formula>`` (tei_formula format) container elements.
Operator and identifier symbols are the character data of ``<mo>`` and
``<mi>`` descendants. Everything outside the containers is natural-language
text; each container is replaced by a single placeholder character so that
formula offsets into the text stay stable. The text between two formulas is
NFC-normalised in one piece at parse, so ``raw_text`` is always NFC, and a
formula's offset counts the normalised text.

Each document is tokenised once, over its raw text: a token is a maximal run
of word characters, so a formula (its placeholder is not a word character)
ends a word. The surroundings of a formula are every whole word that
overlaps its window.
"""
from __future__ import annotations

import json
import logging
import re
import unicodedata
import xml.etree.ElementTree as ET
from array import array
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

# Every markup format, with the element that holds its formulas.
FORMAT_CONTAINERS = {"html_math": "math", "tei_formula": "formula"}

MIN_TOKEN_LEN = 3

_TOKEN_RE = re.compile(r"\w+")


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
    # first use. They live as long as the document does. A parsed document's
    # text_tokens is its default index's list of kept tokens, so neither list
    # is mutated.
    _token_indexes: dict[frozenset[str], _TokenIndex] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # Token spans index raw_text as it is, so it must already be NFC.
        if not unicodedata.is_normalized("NFC", self.raw_text):
            raise ValueError("raw_text is not NFC-normalised")
        # An offset may equal len(raw_text): a formula at the very end.
        n = len(self.raw_text)
        for f in self.formulas:
            # check_int's ABC isinstance test costs about 1 us; a plain int skips it.
            if type(f.offset) is not int:
                check_int("formula offset", f.offset, 0)
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

    The text between two formulas is NFC-normalised in one piece, so
    ``raw_text`` is NFC. It is tokenised once: that one pass gives the
    document's token index under the default stopword set, which
    ``extract_surroundings`` then reads, and ``text_tokens`` is that index's
    list of kept tokens itself, not a copy.

    Raises :class:`MalformedMarkupError` for unbalanced/invalid markup and
    :class:`UnknownFormatError` for an unrecognized format name.
    """
    return _parse_document(raw_markup, format, id, label, _Cleaner(default_stopwords()))


def format_container(format: str) -> str:
    """The formula container element of a markup format; raises
    :class:`UnknownFormatError` for an unrecognized format name."""
    container = FORMAT_CONTAINERS.get(format)
    if container is None:
        raise UnknownFormatError(f"unknown document format {format!r}")
    return container


def _parse_document(
    raw_markup: str, format: str, id: str, label: str, cleaner: _Cleaner
) -> Document:
    container = format_container(format)
    root = _parse_markup(raw_markup, id)
    # NFC never composes across the placeholder (a starter with no
    # compositions), so normalising each segment normalises the whole text.
    segments: list[str] = []  # NFC text between formulas
    pending: list[str] = []  # character data since the last formula
    formulas: list[Formula] = []
    pos = 0

    def end_segment() -> None:
        segments.append(unicodedata.normalize("NFC", "".join(pending)))
        pending.clear()

    def visit(elem: ET.Element) -> None:
        nonlocal pos
        if _local_name(elem.tag) == container:
            symbols: list[tuple[str, str]] = []
            _collect_symbols(elem, symbols)
            end_segment()
            pos += len(segments[-1])
            formulas.append(
                Formula(
                    operators=[t for k, t in symbols if k == "o"],
                    identifiers=[t for k, t in symbols if k == "i"],
                    offset=pos,
                    order="".join(k for k, _ in symbols),
                )
            )
            pos += 1
            return
        if elem.text:
            pending.append(elem.text)
        for child in elem:
            visit(child)
            if child.tail:
                pending.append(child.tail)

    visit(root)
    end_segment()
    raw_text = PLACEHOLDER.join(segments)
    index = _TokenIndex(raw_text, cleaner)
    doc = Document(
        id=id, label=label, raw_text=raw_text, text_tokens=index.kept, formulas=formulas
    )
    doc._token_indexes[cleaner.stopwords] = index
    return doc


class _TokenIndex:
    """One tokenisation of a document's raw text, for one stopword set.

    ``starts`` and ``ends`` are the raw-text spans of every token, a maximal
    run of word characters; ``kept`` holds the tokens that cleaning keeps, in
    order, so it equals ``clean_text(raw_text, stopwords)`` for NFC text. The
    offsets and counts are C ints (``array('i')``), 4 bytes each where a
    list of Python ints takes about 36; every loaded document keeps its
    index for the run.
    """

    def __init__(self, raw_text: str, cleaner: _Cleaner) -> None:
        starts: list[int] = []
        ends: list[int] = []
        self.kept: list[str] = []  # the tokens cleaning keeps, in order
        kept_before = [0]  # kept tokens among the first i tokens
        for match in _TOKEN_RE.finditer(raw_text):
            starts.append(match.start())
            ends.append(match.end())
            tok = cleaner[match.group()]
            if tok is not None:
                self.kept.append(tok)
            kept_before.append(len(self.kept))
        # Appending to a list and converting once is faster than array.append.
        self.starts = array("i", starts)
        self.ends = array("i", ends)
        self.kept_before = array("i", kept_before)

    def window(self, lo: int, hi: int) -> list[str]:
        """The kept tokens that overlap ``raw_text[lo:hi]``, whole, in order."""
        first = bisect_right(self.ends, lo)  # tokens ending at or before lo
        stop = bisect_left(self.starts, hi)  # tokens starting before hi
        return self.kept[self.kept_before[first] : self.kept_before[stop]]


def _token_index(doc: Document, stopwords: frozenset[str]) -> _TokenIndex:
    """The document's token index for ``stopwords``, built on first use
    unless loading built it."""
    if stopwords not in doc._token_indexes:
        doc._token_indexes[stopwords] = _TokenIndex(doc.raw_text, _Cleaner(stopwords))
    return doc._token_indexes[stopwords]


def extract_surroundings(
    doc: Document,
    window: int = 500,
    stopwords: frozenset[str] | set[str] | None = None,
) -> list[str]:
    """Token bag from the text neighborhoods of identifier occurrences.

    For every formula that contains at least one identifier, the window of
    ``raw_text`` within ``window`` characters on each side of the formula's
    placeholder is taken, and the per-formula token lists are concatenated
    in document order. The window is counted in raw-text characters, in
    which each formula is one character. A window holds every whole word
    that overlaps it, cleaned as ``clean_text`` cleans it; a formula ends a
    word, and every token is one of the document's text tokens under the
    same stopwords. Words inside the windows of several formulas are
    repeated once per window.
    """
    check_int("window", window, 1)
    stopwords = default_stopwords() if stopwords is None else frozenset(stopwords)
    index = _token_index(doc, stopwords)
    n = len(doc.raw_text)
    out: list[str] = []
    for formula in doc.formulas:
        if not formula.identifiers:
            continue
        lo = max(0, formula.offset - window)
        hi = min(n, formula.offset + window + 1)
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
    where each entry is ``{"path", "label", "id"}``, three strings, with paths
    relative to the manifest file; an entry of another shape is a
    ``ManifestError`` naming its index. When ``per_class_limit`` is set, the
    first N *parsable* samples per class (in manifest order) are kept.
    Samples that fail to parse are skipped with a warning; missing files are
    fatal. All documents are cleaned through one memo, so each distinct word
    is cleaned once per call.
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
        try:
            for key in ("path", "label", "id"):
                _json_str(entry, key)
        except TypeError as exc:
            raise ManifestError(f"entry {i}: {exc}") from None
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


def _json_str(obj: dict, key: str, default: str | None = None) -> str:
    """``obj[key]``, or ``default`` when given and the key is absent; a
    ``TypeError`` unless it is a string."""
    value = obj[key] if default is None else obj.get(key, default)
    if not isinstance(value, str):
        raise TypeError(f"{key} is a JSON {type(value).__name__}, not a string")
    return value


def _json_strs(obj: dict, key: str) -> list[str]:
    """``obj[key]``; a ``TypeError`` unless it is a list of strings."""
    value = obj[key]
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"{key} is not a JSON list of strings")
    return value


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
            doc = Document(
                id=_json_str(rec, "id"),
                label=_json_str(rec, "label"),
                raw_text=_json_str(rec, "raw_text"),
                text_tokens=_json_strs(rec, "text_tokens"),
                formulas=[
                    Formula(
                        operators=_json_strs(f, "operators"),
                        identifiers=_json_strs(f, "identifiers"),
                        offset=f["offset"],
                        order=_json_str(f, "order", ""),
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
        doc._token_indexes[cleaner.stopwords] = _TokenIndex(doc.raw_text, cleaner)
        documents.append(doc)
    if label_set is None:
        label_set = sorted({d.label for d in documents})
    return Corpus(documents=documents, label_set=label_set)
