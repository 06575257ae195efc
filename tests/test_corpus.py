"""Parsing, cleaning, surroundings extraction, and corpus ingestion."""
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textmath import (
    PLACEHOLDER,
    Corpus,
    EmptyClassError,
    MalformedMarkupError,
    MalformedRecordError,
    MissingFileError,
    UnknownFormatError,
    clean_text,
    default_stopwords,
    dump_corpus_jsonl,
    extract_surroundings,
    load_corpus,
    load_corpus_jsonl,
    parse_document,
    token_stream,
)
from textmath.corpus import _token_index
from tests.conftest import formula, make_doc


def scan_symbols(markup: str) -> list[tuple[str, str]]:
    """Naive reference scanner: every <mo>/<mi> payload in document order.

    Works only on flat fixtures without attributes or nesting, which is all
    it is used for; it shares no code with the real parser.
    """
    out = []
    pos = 0
    while True:
        hits = []
        for kind, tag in (("o", "mo"), ("i", "mi")):
            start = markup.find(f"<{tag}>", pos)
            if start != -1:
                hits.append((start, kind, tag))
        if not hits:
            return out
        start, kind, tag = min(hits)
        end = markup.index(f"</{tag}>", start)
        out.append((kind, markup[start + len(tag) + 2 : end]))
        pos = end + 1


class TestParseDocument:
    def test_html_math_example(self):
        doc = parse_document(
            "<p>Let <math><mi>x</mi><mo>=</mo><mi>y</mi></math> hold</p>",
            "html_math",
            id="d0",
            label="a",
        )
        assert len(doc.formulas) == 1
        f = doc.formulas[0]
        assert f.operators == ["="]
        assert f.identifiers == ["x", "y"]
        assert f.offset == 4
        assert f.order == "ioi"
        assert doc.text_tokens == ["let", "hold"]
        assert doc.raw_text == f"Let {PLACEHOLDER} hold"

    def test_no_formulas(self):
        doc = parse_document("<p>Plain prose about nothing</p>", "html_math", id="d", label="a")
        assert doc.formulas == []
        assert doc.text_tokens == ["plain", "prose", "nothing"]

    def test_tei_formula_multiplicity(self):
        doc = parse_document(
            "<div><formula><mo>+</mo><mo>+</mo></formula></div>",
            "tei_formula",
            id="d",
            label="a",
        )
        assert doc.formulas[0].operators == ["+", "+"]
        assert doc.formulas[0].identifiers == []

    def test_malformed_markup_names_sample(self):
        with pytest.raises(MalformedMarkupError, match="bad-sample"):
            parse_document("<p>unbalanced <math><mi>x</p>", "html_math", id="bad-sample", label="a")

    def test_unknown_format(self):
        with pytest.raises(UnknownFormatError):
            parse_document("<p>x</p>", "docbook", id="d", label="a")

    def test_nested_symbol_markup_concatenated(self):
        doc = parse_document(
            "<p><math><mi>x<sub>i</sub></mi></math></p>", "html_math", id="d", label="a"
        )
        assert doc.formulas[0].identifiers == ["xi"]

    def test_symbols_match_reference_scanner(self):
        markup = (
            "<article>First <math><mi>a</mi><mo>+</mo><mi>b</mi></math> then "
            "<math><mo>=</mo><mi>c</mi></math> and <math><mi>d</mi></math> end</article>"
        )
        doc = parse_document(markup, "html_math", id="d", label="a")
        got = [sym for f in doc.formulas for sym in f.symbols()]
        assert got == scan_symbols(markup)

    def test_one_placeholder_per_formula(self):
        markup = "<p>a <math><mi>x</mi></math> b <math><mi>y</mi></math> c</p>"
        doc = parse_document(markup, "html_math", id="d", label="a")
        assert doc.raw_text.count(PLACEHOLDER) == len(doc.formulas) == 2
        for f in doc.formulas:
            assert doc.raw_text[f.offset] == PLACEHOLDER


class TestCleanText:
    def test_mixed_example(self):
        assert clean_text("The Fast Fourier Transform of 42 x") == [
            "fast",
            "fourier",
            "transform",
        ]

    def test_empty(self):
        assert clean_text("") == []

    def test_casefold(self):
        assert clean_text("Alpha alpha ALPHA") == ["alpha", "alpha", "alpha"]

    def test_greek_letters_kept(self):
        assert "αβγ" in clean_text("the αβγ particles")

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=120))
    def test_output_invariants(self, raw):
        stopwords = default_stopwords()
        for tok in clean_text(raw, stopwords):
            assert tok not in stopwords
            assert len(tok) >= 3
            assert tok == tok.lower()
            assert not any(ch.isdigit() for ch in tok)


class TestExtractSurroundings:
    def test_window_exceeds_text(self):
        raw = f"alpha beta {PLACEHOLDER} gamma delta"
        doc = make_doc(raw_text=raw, formulas=[formula(identifiers=["x"], offset=11)])
        assert extract_surroundings(doc, window=500, stopwords=frozenset()) == [
            "alpha",
            "beta",
            "gamma",
            "delta",
        ]

    def test_no_formulas(self):
        doc = make_doc(raw_text="alpha beta gamma")
        assert extract_surroundings(doc) == []

    @pytest.mark.parametrize("offset", [-20, -1, len("alpha beta gamma") + 1])
    def test_offset_outside_text_rejected(self, offset):
        # a negative offset used to select text counted from the end
        with pytest.raises(ValueError, match="outside the text"):
            make_doc(raw_text="alpha beta gamma", formulas=[formula(identifiers=["x"], offset=offset)])

    def test_offset_at_text_end_accepted(self):
        raw = f"alpha beta {PLACEHOLDER}"
        doc = make_doc(raw_text=raw, formulas=[formula(identifiers=["x"], offset=len(raw))])
        assert extract_surroundings(doc, window=6, stopwords=frozenset()) == ["beta"]

    def test_operator_only_formula_skipped(self):
        doc = make_doc(
            raw_text=f"alpha {PLACEHOLDER} beta",
            formulas=[formula(operators=["+"], offset=6)],
        )
        assert extract_surroundings(doc, stopwords=frozenset()) == []

    def test_distant_formulas_independent(self):
        left = "near first anchor words"
        right = "near second anchor words"
        sep = ". " * 1000
        raw = left + " " + PLACEHOLDER + " " + sep + " " + PLACEHOLDER + " " + right
        doc = make_doc(
            raw_text=raw,
            formulas=[
                formula(identifiers=["a"], offset=len(left) + 1),
                formula(identifiers=["b"], offset=len(left) + 3 + len(sep) + 1),
            ],
        )
        got = extract_surroundings(doc, window=30, stopwords=frozenset())
        assert got == ["near", "first", "anchor", "words", "near", "second", "anchor", "words"]

    def test_full_window_equals_cleaned_text_per_formula(self):
        raw = f"shared context words {PLACEHOLDER} and {PLACEHOLDER} more"
        doc = make_doc(
            raw_text=raw,
            formulas=[
                formula(identifiers=["a"], offset=raw.index(PLACEHOLDER)),
                formula(identifiers=["b"], offset=raw.rindex(PLACEHOLDER)),
            ],
        )
        full = clean_text(raw.replace(PLACEHOLDER, ""), frozenset())
        got = extract_surroundings(doc, window=len(raw), stopwords=frozenset())
        assert got == full * 2


def reference_surroundings(doc, window=500, stopwords=None):
    """extract_surroundings as one clean_text call per formula window."""
    if stopwords is None:
        stopwords = default_stopwords()
    out: list[str] = []
    for formula in doc.formulas:
        if not formula.identifiers:
            continue
        lo = max(0, formula.offset - window)
        hi = min(len(doc.raw_text), formula.offset + window + 1)
        segment = doc.raw_text[lo:hi].replace(PLACEHOLDER, "")
        out.extend(clean_text(segment, stopwords))
    return out


# Words, digits, underscores, stopwords, placeholders, a lone combining mark
# (non-NFC after a letter) and letters whose lowercase changes length.
_PIECES = [
    "alpha", "Beta", "gamma", "ab", "x1", "var_2", "_", "7", "the", "and",
    "İstanbul", "straße", "café", "\u0301", " ", "  ", ", ", ".", PLACEHOLDER, PLACEHOLDER,
]


@st.composite
def surroundings_cases(draw):
    raw = "".join(draw(st.lists(st.sampled_from(_PIECES), max_size=40)))
    placeholders = [i for i, c in enumerate(raw) if c == PLACEHOLDER]
    offsets = placeholders + draw(st.lists(st.integers(0, len(raw)), max_size=3))
    formulas = [
        formula(operators=["+"], identifiers=["x"] if draw(st.booleans()) else [], offset=o)
        for o in offsets
    ]
    # Windows that end exactly at, or one off, another placeholder, and
    # windows narrower than one word.
    gaps = [abs(p - q) + d for p in placeholders for q in placeholders for d in (-1, 0, 1)]
    windows = st.integers(1, 30)
    if any(g > 0 for g in gaps):
        windows = st.one_of(windows, st.sampled_from([g for g in gaps if g > 0]))
    stopwords = draw(st.sampled_from([None, frozenset(), frozenset({"alpha", "the", "and"})]))
    doc = make_doc(
        raw_text=raw,
        text_tokens=clean_text(raw.replace(PLACEHOLDER, ""), stopwords),
        formulas=formulas,
    )
    return doc, draw(windows), stopwords


class TestSurroundingsIndex:
    @settings(max_examples=400, deadline=None)
    @given(surroundings_cases())
    def test_matches_reference(self, case):
        doc, window, stopwords = case
        twin = make_doc(
            raw_text=doc.raw_text, text_tokens=doc.text_tokens, formulas=doc.formulas
        )
        want = reference_surroundings(doc, window, stopwords)
        assert extract_surroundings(doc, window, stopwords) == want
        assert extract_surroundings(doc, window, stopwords) == want
        assert token_stream(doc, "textmath_surroundings", window, stopwords) == (
            token_stream(doc, "text") + token_stream(doc, "math_surroundings", window, stopwords)
        )
        assert doc == twin
        assert repr(doc) == repr(twin)

    def test_index_built_once_per_stopword_set(self):
        doc = make_doc(
            raw_text=f"alpha beta {PLACEHOLDER} gamma",
            formulas=[formula(identifiers=["x"], offset=11)],
        )
        extract_surroundings(doc, window=5)
        extract_surroundings(doc, window=50)
        index = _token_index(doc, default_stopwords())
        assert index is not None
        extract_surroundings(doc, window=5, stopwords=frozenset())
        assert _token_index(doc, default_stopwords()) is index
        assert len(doc._token_indexes) == 2

    def test_non_nfc_text_takes_the_reference_path(self):
        raw = f"cafe\u0301 alpha {PLACEHOLDER} beta"
        doc = make_doc(
            raw_text=raw, formulas=[formula(identifiers=["x"], offset=raw.index(PLACEHOLDER))]
        )
        assert extract_surroundings(doc, window=len(raw), stopwords=frozenset()) == [
            "café",
            "alpha",
            "beta",
        ]
        assert _token_index(doc, frozenset()) is None

    def test_index_leaves_dump_unchanged(self, tmp_path):
        markup = (
            "<p>Let <math><mi>x</mi><mo>=</mo><mi>y</mi></math> hold for every "
            "bounded operator <math><mi>T</mi></math> on the space</p>"
        )
        docs = [parse_document(markup, "html_math", id="d0", label="a") for _ in range(2)]
        extract_surroundings(docs[0], window=10)
        assert docs[0]._token_indexes and not docs[1]._token_indexes
        paths = []
        for i, doc in enumerate(docs):
            paths.append(tmp_path / f"dump{i}.jsonl")
            dump_corpus_jsonl(Corpus(documents=[doc], label_set=["a"]), paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()


def write_corpus_files(tmp_path, entries, format="html_math", label_set=None, limit=None):
    paths = []
    for name, label, markup in entries:
        p = tmp_path / f"{name}.xml"
        p.write_text(markup, encoding="utf-8")
        paths.append({"path": p.name, "label": label, "id": name})
    manifest = {
        "format": format,
        "label_set": label_set or sorted({e[1] for e in entries}),
        "per_class_limit": limit,
        "entries": paths,
    }
    mp = tmp_path / "manifest.json"
    mp.write_text(json.dumps(manifest), encoding="utf-8")
    return mp


class TestLoadCorpus:
    def test_three_files_one_class(self, tmp_path):
        mp = write_corpus_files(
            tmp_path,
            [(f"d{i}", "a", f"<p>doc number {i} <math><mi>x</mi></math></p>") for i in range(3)],
        )
        corpus = load_corpus(mp)
        assert len(corpus.documents) == 3
        assert corpus.label_set == ["a"]

    def test_per_class_limit_keeps_manifest_order(self, tmp_path):
        mp = write_corpus_files(
            tmp_path,
            [(f"d{i}", "a", "<p>words here</p>") for i in range(3)]
            + [(f"e{i}", "b", "<p>words there</p>") for i in range(3)],
            limit=2,
        )
        corpus = load_corpus(mp)
        assert corpus.ids == ["d0", "d1", "e0", "e1"]

    def test_missing_file_named(self, tmp_path):
        manifest = {
            "format": "html_math",
            "label_set": ["a"],
            "per_class_limit": None,
            "entries": [{"path": "absent.xml", "label": "a", "id": "d0"}],
        }
        mp = tmp_path / "manifest.json"
        mp.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(MissingFileError, match="absent.xml"):
            load_corpus(mp)

    def test_unparsable_sample_skipped_not_fatal(self, tmp_path):
        mp = write_corpus_files(
            tmp_path,
            [
                ("good", "a", "<p>fine document</p>"),
                ("bad", "a", "<p>unbalanced <math><mi>x</p>"),
            ],
        )
        corpus = load_corpus(mp)
        assert corpus.ids == ["good"]
        assert corpus.skipped_ids == ["bad"]

    def test_empty_class_error(self, tmp_path):
        mp = write_corpus_files(
            tmp_path,
            [("bad", "a", "<p>unbalanced <math><mi>x</p>")],
            label_set=["a"],
        )
        with pytest.raises(EmptyClassError):
            load_corpus(mp)


class TestJsonlRoundTrip:
    def test_round_trip_identical(self, tmp_path, tiny_corpus):
        path = tmp_path / "dump.jsonl"
        dump_corpus_jsonl(tiny_corpus, path)
        back = load_corpus_jsonl(path, label_set=tiny_corpus.label_set)
        assert back.documents == tiny_corpus.documents
        assert back.label_set == tiny_corpus.label_set

    def test_round_trip_parsed_markup(self, tmp_path):
        doc = parse_document(
            "<p>Let <math><mi>x</mi><mo>=</mo><mi>y</mi></math> hold</p>",
            "html_math",
            id="d0",
            label="a",
        )
        corpus = Corpus(documents=[doc], label_set=["a"], stopwords=frozenset())
        path = tmp_path / "dump.jsonl"
        dump_corpus_jsonl(corpus, path)
        back = load_corpus_jsonl(path, label_set=["a"])
        assert back.documents == corpus.documents

    def test_offset_outside_text_names_the_document(self, tmp_path, capsys):
        from textmath.cli import main

        record = {
            "id": "bad-doc",
            "label": "a",
            "raw_text": "alpha beta gamma",
            "text_tokens": ["alpha", "beta", "gamma"],
            "formulas": [{"operators": [], "identifiers": ["x"], "offset": -20, "order": "i"}],
        }
        path = tmp_path / "dump.jsonl"
        path.write_text(json.dumps(record) + "\n", "utf-8")
        with pytest.raises(MalformedRecordError, match="'bad-doc'.*offset -20"):
            load_corpus_jsonl(path)
        code = main(["encode", str(path), "--encoding", "math_surroundings_tfidf",
                     "--output", str(tmp_path / "m.csv")])
        assert code == 2
        assert "bad-doc" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line,match",
        [
            ("{not json", r"dump\.jsonl:2: Expecting property name"),
            ('{"id": "a", "label": "x"}', r"dump\.jsonl:2: document 'a': missing key 'raw_text'"),
            ('{"label": "x", "raw_text": ""}', r"dump\.jsonl:2: missing key 'id'"),
            ('["a", "x"]', r"dump\.jsonl:2: record is a JSON list, not an object"),
        ],
        ids=["not-json", "missing-key", "missing-id", "not-an-object"],
    )
    def test_malformed_line_names_file_and_line(self, tmp_path, tiny_corpus, line, match):
        path = tmp_path / "dump.jsonl"
        dump_corpus_jsonl(tiny_corpus, path)
        first = path.read_text("utf-8").splitlines()[0]
        path.write_text(f"{first}\n{line}\n", "utf-8")
        with pytest.raises(MalformedRecordError, match=match):
            load_corpus_jsonl(path)

    def test_cli_exits_2_on_a_line_that_is_not_json(self, tmp_path, capsys):
        from textmath.cli import main

        path = tmp_path / "dump.jsonl"
        path.write_text("{not json\n", "utf-8")
        code = main(["encode", str(path), "--encoding", "text_tfidf",
                     "--output", str(tmp_path / "m.csv")])
        assert code == 2
        assert "dump.jsonl:1" in capsys.readouterr().err
