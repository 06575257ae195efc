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
)

logger = logging.getLogger(__name__)

# U+FFFC OBJECT REPLACEMENT CHARACTER: one per formula region in raw_text.
# Not a word character, so it can never leak into cleaned tokens.
PLACEHOLDER = "￼"

FORMAT_CONTAINERS = {"html_math": "math", "tei_formula": "formula"}

GRANULARITIES = ("document", "section", "abstract")

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
    # Token indexes of raw_text keyed by stopword set, built on first use by
    # extract_surroundings; they live as long as the document does.
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
    granularity: str = "document"
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


def _clean_token(word: str, stopwords: frozenset[str] | set[str]) -> str | None:
    """The lowercased token, or None when the cleaning rules drop it."""
    tok = word.lower()
    # str.isdigit is wider than \d (it also covers forms like superscripts),
    # and the digit rule is meant to be the strict variant.
    if len(tok) < MIN_TOKEN_LEN or any(c.isdigit() for c in tok) or tok in stopwords:
        return None
    return tok


def clean_text(raw: str, stopwords: frozenset[str] | set[str] | None = None) -> list[str]:
    """Tokenize and clean a text string.

    Tokens are maximal runs of word characters (letters, digits, underscore)
    after NFC normalization. Each token is lowercased; tokens that are
    stopwords, contain a digit, or are shorter than 3 characters are dropped.
    Order is preserved.
    """
    if stopwords is None:
        stopwords = default_stopwords()
    raw = unicodedata.normalize("NFC", raw)
    out = []
    for match in _TOKEN_RE.finditer(raw):
        tok = _clean_token(match.group(), stopwords)
        if tok is not None:
            out.append(tok)
    return out


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


def parse_document(
    raw_markup: str,
    format: str,
    id: str,
    label: str,
    stopwords: frozenset[str] | set[str] | None = None,
) -> Document:
    """Parse one markup document into a :class:`Document`.

    Raises :class:`MalformedMarkupError` for unbalanced/invalid markup and
    :class:`UnknownFormatError` for an unrecognized format name.
    """
    container = FORMAT_CONTAINERS.get(format)
    if container is None:
        raise UnknownFormatError(f"unknown document format {format!r}")
    if stopwords is None:
        stopwords = default_stopwords()

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
    text_tokens = clean_text(raw_text.replace(PLACEHOLDER, ""), stopwords)
    return Document(id=id, label=label, raw_text=raw_text, text_tokens=text_tokens, formulas=formulas)


class _TokenIndex:
    """One tokenisation of a document's placeholder-stripped text.

    ``raw[lo:hi].replace(PLACEHOLDER, "")`` equals ``stripped[a:b]`` with
    ``a, b = self.stripped_offset(lo), self.stripped_offset(hi)``. The word
    tokens of that window are then the whole tokens of the document that lie
    inside it, plus the inside parts of at most two tokens cut by its edges.
    Only valid for NFC text: substrings of NFC text are NFC, so cleaning a
    window never re-normalizes it.
    """

    def __init__(self, stripped: str, placeholders: list[int], stopwords: frozenset[str]) -> None:
        self.stripped = stripped
        self.placeholders = placeholders  # raw offsets of PLACEHOLDER, ascending
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.kept: list[str] = []  # the tokens cleaning keeps, in order
        self.kept_before: list[int] = [0]  # kept tokens among the first i tokens
        for match in _TOKEN_RE.finditer(stripped):
            self.starts.append(match.start())
            self.ends.append(match.end())
            tok = _clean_token(match.group(), stopwords)
            if tok is not None:
                self.kept.append(tok)
            self.kept_before.append(len(self.kept))

    def stripped_offset(self, raw_offset: int) -> int:
        return raw_offset - bisect_left(self.placeholders, raw_offset)

    def window(self, lo: int, hi: int, stopwords: frozenset[str]) -> list[str]:
        """``clean_text(raw[lo:hi].replace(PLACEHOLDER, ""))`` for
        ``0 <= lo <= hi <= len(raw)``."""
        a, b = self.stripped_offset(lo), self.stripped_offset(hi)
        first = bisect_left(self.starts, a)  # first token starting inside
        stop = bisect_right(self.ends, b)  # one past the last token ending inside
        if first >= stop:
            return clean_text(self.stripped[a:b], stopwords)
        out = []
        if a < self.starts[first]:
            out += clean_text(self.stripped[a : self.starts[first]], stopwords)
        out += self.kept[self.kept_before[first] : self.kept_before[stop]]
        if self.ends[stop - 1] < b:
            out += clean_text(self.stripped[self.ends[stop - 1] : b], stopwords)
        return out


def _token_index(doc: Document, stopwords: frozenset[str]) -> _TokenIndex | None:
    """The document's token index for ``stopwords``, built on first use;
    None when its stripped text is not NFC."""
    if stopwords not in doc._token_indexes:
        stripped = doc.raw_text.replace(PLACEHOLDER, "")
        index = None
        if unicodedata.is_normalized("NFC", stripped):
            placeholders = [m.start() for m in _PLACEHOLDER_RE.finditer(doc.raw_text)]
            index = _TokenIndex(stripped, placeholders, stopwords)
        doc._token_indexes[stopwords] = index
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
            out.extend(index.window(lo, hi, stopwords))
    return out


# --- manifest ingestion -------------------------------------------------


def _require(manifest: dict, key: str, kind: type) -> object:
    if key not in manifest:
        raise ManifestError(f"manifest is missing required key {key!r}")
    value = manifest[key]
    if not isinstance(value, kind):
        raise ManifestError(f"manifest key {key!r} must be a {kind.__name__}")
    return value


def load_corpus(
    manifest_path: str | Path,
    granularity: str = "document",
    stopwords: frozenset[str] | set[str] | None = None,
) -> Corpus:
    """Load a corpus from a JSON manifest.

    Manifest schema: ``{"format", "label_set", "per_class_limit", "entries"}``
    where each entry is ``{"path", "label", "id"}`` with paths relative to the
    manifest file. When ``per_class_limit`` is set, the first N *parsable*
    samples per class (in manifest order) are kept. Samples that fail to
    parse are skipped with a warning; missing files are fatal.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise MissingFileError(f"manifest not found: {manifest_path}")
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")
    if stopwords is None:
        stopwords = default_stopwords()

    manifest = json.loads(manifest_path.read_text("utf-8"))
    fmt = _require(manifest, "format", str)
    if fmt not in FORMAT_CONTAINERS:
        raise ManifestError(f"manifest format {fmt!r} is not one of {sorted(FORMAT_CONTAINERS)}")
    label_set = list(_require(manifest, "label_set", list))
    if not label_set or any(not isinstance(l, str) or not l for l in label_set):
        raise ManifestError("manifest label_set must be a non-empty list of non-empty strings")
    limit = manifest.get("per_class_limit")
    if limit is not None and (not isinstance(limit, int) or limit < 1):
        raise ManifestError("manifest per_class_limit must be a positive integer or null")
    entries = _require(manifest, "entries", list)

    base = manifest_path.parent
    known = set(label_set)
    per_class: dict[str, int] = {label: 0 for label in label_set}
    documents: list[Document] = []
    skipped: list[str] = []
    seen_ids: set[str] = set()

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
            doc = parse_document(path.read_text("utf-8"), fmt, entry["id"], label, stopwords)
        except MalformedMarkupError as exc:
            logger.warning("skipping %s: %s", entry["id"], exc)
            skipped.append(entry["id"])
            continue
        documents.append(doc)
        per_class[label] += 1

    empty = [label for label, n in per_class.items() if n == 0]
    if empty:
        raise EmptyClassError(f"no parsable samples for classes: {empty}")
    return Corpus(
        documents=documents,
        label_set=label_set,
        granularity=granularity,
        stopwords=frozenset(stopwords),
        skipped_ids=skipped,
    )


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


def load_corpus_jsonl(
    path: str | Path,
    label_set: list[str] | None = None,
    granularity: str = "document",
    stopwords: frozenset[str] | set[str] | None = None,
) -> Corpus:
    """Reload a canonical JSONL dump.

    When ``label_set`` is not given it is derived as the sorted set of
    document labels. A line that is not a well-formed document record
    raises ``MalformedRecordError`` naming the file, the line number and,
    where the record has one, the document id.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFileError(f"corpus dump not found: {path}")
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
        documents.append(doc)
    if label_set is None:
        label_set = sorted({d.label for d in documents})
    return Corpus(
        documents=documents,
        label_set=label_set,
        granularity=granularity,
        stopwords=frozenset(stopwords) if stopwords is not None else default_stopwords(),
    )
