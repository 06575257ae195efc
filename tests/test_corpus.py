"""Parsing, cleaning, surroundings extraction, and corpus ingestion."""
import json
import re
import unicodedata
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import textmath
from textmath import (
    PLACEHOLDER,
    Corpus,
    EmptyClassError,
    MalformedMarkupError,
    MalformedRecordError,
    ManifestError,
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
from textmath import corpus as corpus_module
from textmath.corpus import _token_index
from textmath.encode import Channels, parse_encoding_name
from textmath.synth import generate_synthetic_corpus, write_corpus_markup
from tests.conftest import formula, make_doc

MINI_MANIFEST = Path(textmath.__file__).parent / "data" / "mini_corpus" / "manifest.json"


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

    def test_given_stopwords_replace_the_default(self):
        assert clean_text("The alpha and beta", frozenset()) == ["the", "alpha", "and", "beta"]
        assert clean_text("The alpha and beta", {"alpha"}) == ["the", "and", "beta"]

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

    @pytest.mark.parametrize(
        "window,want",
        [(1, []), (2, ["beta", "gamma"]), (6, ["beta", "gamma"]), (7, ["alpha", "beta", "gamma"])],
    )
    def test_window_takes_every_whole_word_it_overlaps(self, window, want):
        # The window is raw[11 - window : 12 + window]. At window 1 "beta" ends
        # at its start and "gamma" starts at its end, so neither overlaps it.
        raw = f"alpha beta {PLACEHOLDER} gamma delta"
        doc = make_doc(raw_text=raw, formulas=[formula(identifiers=["x"], offset=11)])
        assert extract_surroundings(doc, window=window, stopwords=frozenset()) == want

    @pytest.mark.parametrize("offset", [-20, -1, len("alpha beta gamma") + 1])
    def test_offset_outside_text_rejected(self, offset):
        # a negative offset used to select text counted from the end
        with pytest.raises(ValueError, match="outside the text"):
            make_doc(raw_text="alpha beta gamma", formulas=[formula(identifiers=["x"], offset=offset)])

    @pytest.mark.parametrize("offset", [10.5, 11.0, True, "3", None])
    def test_offset_not_an_integer_rejected(self, offset):
        bad = [formula(identifiers=["x"], offset=offset)]
        with pytest.raises(ValueError, match="formula offset must be an integer >= 0"):
            make_doc(raw_text="alpha beta gamma", formulas=bad)

    @pytest.mark.parametrize("window", [0, -5, 6.5, True, "6"])
    def test_window_not_a_positive_integer_rejected(self, window):
        raw = f"alpha beta {PLACEHOLDER} gamma"
        doc = make_doc(raw_text=raw, formulas=[formula(identifiers=["x"], offset=11)])
        with pytest.raises(ValueError, match="window must be an integer >= 1"):
            extract_surroundings(doc, window=window)

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


def _is_word(c):
    return re.fullmatch(r"\w", c) is not None


def reference_surroundings(doc, window=500, stopwords=None):
    """extract_surroundings as one clean_text call per formula window, with
    the window first widened outward to whole words."""
    raw = doc.raw_text
    out: list[str] = []
    for formula in doc.formulas:
        if not formula.identifiers:
            continue
        lo = max(0, formula.offset - window)
        hi = min(len(raw), formula.offset + window + 1)
        while 0 < lo < len(raw) and _is_word(raw[lo - 1]) and _is_word(raw[lo]):
            lo -= 1
        while 0 < hi < len(raw) and _is_word(raw[hi - 1]) and _is_word(raw[hi]):
            hi += 1
        out.extend(clean_text(raw[lo:hi], stopwords))
    return out


# Words, digits, underscores, stopwords, placeholders, a lone combining mark
# (it composes with some letters before it) and letters whose lowercase
# changes length.
_PIECES = [
    "alpha", "Beta", "gamma", "ab", "x1", "var_2", "_", "7", "the", "and",
    "İstanbul", "straße", "café", "\u0301", " ", "  ", ", ", ".", PLACEHOLDER, PLACEHOLDER,
]


@st.composite
def surroundings_cases(draw):
    pieces = draw(st.lists(st.sampled_from(_PIECES), max_size=40))
    raw = unicodedata.normalize("NFC", "".join(pieces))
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
    doc = make_doc(raw_text=raw, text_tokens=clean_text(raw, stopwords), formulas=formulas)
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
        assert set(want) <= set(doc.text_tokens)
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

    def test_index_keeps_offsets_as_c_ints(self):
        doc = make_doc(
            raw_text=f"alpha the beta {PLACEHOLDER} gamma",
            formulas=[formula(identifiers=["x"], offset=15)],
        )
        index = _token_index(doc, default_stopwords())
        for offsets in (index.starts, index.ends, index.kept_before):
            assert isinstance(offsets, array) and offsets.typecode == "i"
        assert list(index.starts) == [0, 6, 10, 17]
        assert list(index.ends) == [5, 9, 14, 22]
        assert list(index.kept_before) == [0, 1, 1, 2, 3]
        assert index.window(3, 12) == ["alpha", "beta"]

    def test_decomposed_markup_text_is_composed_at_parse(self):
        doc = parse_document(
            "<p>cafe\u0301 alpha <math><mi>x</mi></math> beta</p>", "html_math", "d", "a"
        )
        assert doc.raw_text == f"café alpha {PLACEHOLDER} beta"
        assert doc.text_tokens == ["café", "alpha", "beta"]
        assert extract_surroundings(doc, window=50, stopwords=frozenset()) == [
            "café",
            "alpha",
            "beta",
        ]

    def test_non_nfc_raw_text_rejected(self):
        with pytest.raises(ValueError, match="NFC"):
            make_doc(raw_text=f"cafe\u0301 alpha {PLACEHOLDER} beta")

    def test_index_leaves_dump_unchanged(self, tmp_path):
        markup = (
            "<p>Let <math><mi>x</mi><mo>=</mo><mi>y</mi></math> hold for every "
            "bounded operator <math><mi>T</mi></math> on the space</p>"
        )
        doc = parse_document(markup, "html_math", id="d0", label="a")
        rebuilt = make_doc(
            id=doc.id, label=doc.label, raw_text=doc.raw_text,
            text_tokens=doc.text_tokens, formulas=doc.formulas,
        )

        def dump(d, name):
            path = tmp_path / name
            dump_corpus_jsonl(Corpus(documents=[d], label_set=["a"]), path)
            return path.read_bytes()

        before = dump(doc, "before.jsonl")
        extract_surroundings(doc, window=10)
        extract_surroundings(doc, window=10, stopwords=frozenset())
        assert len(doc._token_indexes) == 2 and not rebuilt._token_indexes
        assert dump(doc, "after.jsonl") == before == dump(rebuilt, "rebuilt.jsonl")


# Markup text with digits, superscript digits, underscores, mixed case,
# stopwords, short words, precomposed and decomposed accents (the latter is
# not NFC), a combining mark in its own element and formulas, one of them
# followed by a combining mark.
_MARKUP_PIECES = [
    "alpha", "Beta", "GAMMA", "ab", "x1", "x²", "var_2", "_", "7", "the", "And",
    "café", "cafe\u0301", "e<b>\u0301</b>", "İstanbul", "straße", " ", "  ", ", ", ".",
    "<math><mi>x</mi><mo>=</mo></math>", "<math><mo>+</mo></math>",
    "<math><mi>y</mi></math>\u0301",
]
_TEXT_PIECES = [p for p in _MARKUP_PIECES if "<math>" not in p]


class TestTokenisedOnce:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_MARKUP_PIECES), max_size=40), st.integers(1, 40))
    def test_parsed_tokens_equal_clean_text(self, pieces, window):
        doc = parse_document(f"<p>{''.join(pieces)}</p>", "html_math", id="d", label="a")
        assert unicodedata.is_normalized("NFC", doc.raw_text)
        assert doc.text_tokens == clean_text(doc.raw_text)
        assert [doc.raw_text[f.offset] for f in doc.formulas] == [PLACEHOLDER] * len(doc.formulas)
        assert extract_surroundings(doc, window) == reference_surroundings(doc, window)

    @pytest.mark.parametrize("stopwords", [None, frozenset(), frozenset({"alpha", "the", "and"})])
    def test_loaded_surroundings_match_reference(self, tmp_path, stopwords):
        tricky = "".join(_TEXT_PIECES)
        mp = write_corpus_files(
            tmp_path,
            [
                ("t0", "a", f"<p>{tricky}<math><mi>x</mi></math>{tricky}</p>"),
                ("t1", "a", f"<p>Ends {tricky} here <math><mi>y</mi><mo>+</mo></math></p>"),
                ("t2", "a", "<p>cafe\u0301 alpha <math><mi>z</mi></math> beta</p>"),
            ],
        )
        docs = load_corpus(MINI_MANIFEST).documents + load_corpus(mp).documents
        for doc in docs:
            for window in (1, 7, 40, 500):
                assert extract_surroundings(doc, window, stopwords) == reference_surroundings(
                    doc, window, stopwords
                )

    @pytest.mark.parametrize("source", ["mini", "cluster_full_shaped"])
    def test_surroundings_columns_are_text_columns(self, tmp_path, source):
        if source == "mini":
            corpus = load_corpus(MINI_MANIFEST)
        else:
            generated = generate_synthetic_corpus(
                n_classes=14, docs_per_class=25, vocab_per_class=30, shared_identifiers=12,
                seed=1, tokens_per_doc=(150, 300), formulas_per_doc=(3, 8),
            )
            corpus = load_corpus(write_corpus_markup(generated, tmp_path))
        channels = Channels(corpus.documents)
        text = channels.source(parse_encoding_name("text_tfidf")).names
        surroundings = channels.source(parse_encoding_name("math_surroundings_tfidf")).names
        assert surroundings and set(surroundings) <= set(text)
        for stopwords in (None, frozenset()):
            for doc in corpus.documents:
                tokens = set(token_stream(doc, "text", stopwords=stopwords))
                assert set(extract_surroundings(doc, stopwords=stopwords)) <= tokens

    def test_text_tokens_are_the_index_list_itself(self):
        """Loading keeps each document's kept tokens once: ``text_tokens`` is
        the default index's list, not a copy, and nothing in the package
        mutates either."""
        doc = parse_document(
            "<p>Let <math><mi>x</mi></math> hold for every operator</p>", "html_math", "d", "a"
        )
        assert doc.text_tokens is _token_index(doc, default_stopwords()).kept
        assert extract_surroundings(doc) == reference_surroundings(doc) != []

    def test_one_memo_per_load(self, tmp_path, monkeypatch):
        made = []

        class CountedCleaner(corpus_module._Cleaner):
            def __init__(self, stopwords):
                super().__init__(stopwords)
                made.append(self)

        monkeypatch.setattr(corpus_module, "_Cleaner", CountedCleaner)
        first, second = load_corpus(MINI_MANIFEST), load_corpus(MINI_MANIFEST)
        assert len(made) == 2
        path = tmp_path / "dump.jsonl"
        dump_corpus_jsonl(first, path)
        reloaded = load_corpus_jsonl(path)
        assert len(made) == 3
        for doc in first.documents + second.documents + reloaded.documents:
            extract_surroundings(doc)
        assert len(made) == 3
        assert reloaded.documents == first.documents


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

    @pytest.mark.parametrize("limit", [True, 2.5, 0, "2"])
    def test_bad_per_class_limit_rejected(self, tmp_path, limit):
        mp = write_corpus_files(
            tmp_path, [(f"d{i}", "a", "<p>words here</p>") for i in range(3)], limit=limit
        )
        with pytest.raises(ManifestError, match="per_class_limit"):
            load_corpus(mp)

    @pytest.mark.parametrize(
        "key,value,kind",
        [("id", ["a"], "list"), ("id", 5, "int"), ("path", 5, "int"), ("label", ["a"], "list")],
    )
    def test_entry_field_of_the_wrong_type_names_the_entry(self, tmp_path, key, value, kind):
        mp = write_corpus_files(
            tmp_path, [(f"d{i}", "a", "<p>words here</p>") for i in range(2)]
        )
        manifest = json.loads(mp.read_text("utf-8"))
        manifest["entries"][1][key] = value
        mp.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ManifestError, match=f"^entry 1: {key} is a JSON {kind}, not a string$"):
            load_corpus(mp)

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
            (
                '{"id": "a", "label": "x", "raw_text": ["t"], "text_tokens": [], "formulas": []}',
                r"dump\.jsonl:2: document 'a': raw_text is a JSON list, not a string",
            ),
        ],
        ids=["not-json", "missing-key", "missing-id", "not-an-object", "raw-text-not-a-string"],
    )
    def test_malformed_line_names_file_and_line(self, tmp_path, tiny_corpus, line, match):
        path = tmp_path / "dump.jsonl"
        dump_corpus_jsonl(tiny_corpus, path)
        first = path.read_text("utf-8").splitlines()[0]
        path.write_text(f"{first}\n{line}\n", "utf-8")
        with pytest.raises(MalformedRecordError, match=match):
            load_corpus_jsonl(path)

    @pytest.mark.parametrize(
        "key,value,reason",
        [
            ("id", 5, "id is a JSON int, not a string"),
            ("label", ["a"], "label is a JSON list, not a string"),
            ("raw_text", f"cafe\u0301 {PLACEHOLDER}", "raw_text is not NFC-normalised"),
            ("text_tokens", "alpha beta", "text_tokens is not a JSON list of strings"),
            ("text_tokens", ["alpha", 2], "text_tokens is not a JSON list of strings"),
            ("operators", "+-", "operators is not a JSON list of strings"),
            ("identifiers", [["x"]], "identifiers is not a JSON list of strings"),
            ("order", 1, "order is a JSON int, not a string"),
            ("offset", 10.5, "formula offset must be an integer >= 0, got 10.5"),
            ("offset", 11.0, "formula offset must be an integer >= 0, got 11.0"),
            ("offset", True, "formula offset must be an integer >= 0, got True"),
        ],
        ids=[
            "id-int", "label-list", "raw-text-not-nfc", "text-tokens-string",
            "text-tokens-int-item", "operators-string", "identifiers-nested", "order-int",
            "offset-fraction", "offset-whole-float", "offset-bool",
        ],
    )
    def test_field_of_the_wrong_type_names_file_line_and_id(
        self, tmp_path, capsys, key, value, reason
    ):
        from textmath.cli import main

        raw = f"alpha beta {PLACEHOLDER}"
        good = {
            "id": "ok", "label": "a", "raw_text": raw, "text_tokens": ["alpha", "beta"],
            "formulas": [{"operators": ["+"], "identifiers": ["x"], "offset": 11, "order": "oi"}],
        }
        bad = json.loads(json.dumps(good))
        bad["id"] = "bad-doc"
        if key in bad:
            bad[key] = value
        else:
            bad["formulas"][0][key] = value
        path = tmp_path / "dump.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", "utf-8")
        match = rf"dump\.jsonl:2: document {re.escape(repr(bad['id']))}: {re.escape(reason)}"
        with pytest.raises(MalformedRecordError, match=match):
            load_corpus_jsonl(path)
        code = main(["encode", str(path), "--encoding", "math_surroundings_tfidf",
                     "--output", str(tmp_path / "m.csv")])
        assert code == 2
        assert "dump.jsonl:2" in capsys.readouterr().err

    def test_cli_exits_2_on_a_line_that_is_not_json(self, tmp_path, capsys):
        from textmath.cli import main

        path = tmp_path / "dump.jsonl"
        path.write_text("{not json\n", "utf-8")
        code = main(["encode", str(path), "--encoding", "text_tfidf",
                     "--output", str(tmp_path / "m.csv")])
        assert code == 2
        assert "dump.jsonl:1" in capsys.readouterr().err
