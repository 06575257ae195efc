"""Synthetic corpus generation and markup round trips."""
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import textmath
from textmath import (
    Lexicon,
    UnknownFormatError,
    generate_synthetic_corpus,
    load_corpus,
    load_lexicon,
    parse_document,
    render_markup,
    write_corpus_markup,
)
from textmath.cli import build_parser
from textmath.corpus import FORMAT_CONTAINERS
from textmath.synth import OPERATOR_POOL, class_lexicon_tsv


class TestGeneration:
    def test_same_seed_identical(self):
        a = generate_synthetic_corpus(3, 5, vocab_per_class=10, shared_identifiers=4, seed=11)
        b = generate_synthetic_corpus(3, 5, vocab_per_class=10, shared_identifiers=4, seed=11)
        assert a == b

    def test_different_seed_differs(self):
        a = generate_synthetic_corpus(3, 5, vocab_per_class=10, shared_identifiers=4, seed=11)
        b = generate_synthetic_corpus(3, 5, vocab_per_class=10, shared_identifiers=4, seed=12)
        assert a != b

    def test_shape_and_ids(self):
        corpus = generate_synthetic_corpus(3, 4, vocab_per_class=8, shared_identifiers=5, seed=0)
        assert len(corpus.documents) == 12
        assert corpus.label_set == ["class00", "class01", "class02"]
        assert Counter(corpus.labels) == {"class00": 4, "class01": 4, "class02": 4}
        assert corpus.documents[0].id == "class00-000"
        assert len(set(corpus.ids)) == 12

    def test_class_vocabularies_disjoint(self):
        corpus = generate_synthetic_corpus(4, 6, vocab_per_class=12, shared_identifiers=5, seed=2)
        seen = {}
        for doc in corpus.documents:
            seen.setdefault(doc.label, set()).update(doc.text_tokens)
        labs = corpus.label_set
        for i in range(len(labs)):
            for j in range(i + 1, len(labs)):
                assert not seen[labs[i]] & seen[labs[j]]

    def test_identifiers_shared_across_classes(self):
        corpus = generate_synthetic_corpus(
            3, 10, vocab_per_class=8, shared_identifiers=3, seed=4,
            formulas_per_doc=(3, 5),
        )
        pools = {}
        for doc in corpus.documents:
            ids = {s for f in doc.formulas for s in f.identifiers}
            pools.setdefault(doc.label, set()).update(ids)
        # with 3 symbols and 10 docs per class every class exhausts the pool
        assert pools == {lab: {"a", "b", "c"} for lab in corpus.label_set}

    def test_doc_size_bounds_respected(self):
        corpus = generate_synthetic_corpus(
            2, 8, vocab_per_class=6, shared_identifiers=4, seed=5,
            tokens_per_doc=(10, 15), formulas_per_doc=(2, 3),
            ids_per_formula=(2, 2), ops_per_formula=(1, 1),
        )
        for doc in corpus.documents:
            assert 10 <= len(doc.text_tokens) <= 15
            assert 2 <= len(doc.formulas) <= 3
            for f in doc.formulas:
                assert len(f.identifiers) == 2
                assert len(f.operators) == 1
                assert sorted(f.order) == ["i", "i", "o"]

    def test_label_override(self):
        corpus = generate_synthetic_corpus(
            2, 3, vocab_per_class=5, shared_identifiers=2, seed=0,
            labels=["alpha", "beta"],
        )
        assert corpus.label_set == ["alpha", "beta"]
        assert corpus.documents[0].id == "alpha-000"
        with pytest.raises(ValueError):
            generate_synthetic_corpus(
                2, 3, vocab_per_class=5, shared_identifiers=2, labels=["only"]
            )

    def test_vocabulary_override(self):
        vocabs = [["apple", "pear", "plum"], ["iron", "zinc", "gold"]]
        corpus = generate_synthetic_corpus(
            2, 4, vocab_per_class=3, shared_identifiers=2, seed=1,
            class_vocabularies=vocabs,
        )
        for doc in corpus.documents:
            vocab = vocabs[corpus.label_set.index(doc.label)]
            assert set(doc.text_tokens) <= set(vocab)

    def test_unclean_vocabulary_rejected(self):
        with pytest.raises(ValueError, match="cleaning"):
            generate_synthetic_corpus(
                2, 3, vocab_per_class=2, shared_identifiers=2, seed=0,
                class_vocabularies=[["good", "x2"], ["fine", "words"]],
            )

    def test_identifier_pool_override(self):
        corpus = generate_synthetic_corpus(
            2, 5, vocab_per_class=5, shared_identifiers=3, seed=3,
            identifier_pool=["E", "m", "c", "unused"],
        )
        used = {s for doc in corpus.documents for f in doc.formulas for s in f.identifiers}
        assert used <= {"E", "m", "c"}

    def test_operator_skew_concentrates_usage(self):
        plain = generate_synthetic_corpus(
            2, 20, vocab_per_class=6, shared_identifiers=4, seed=7, operator_skew=0.0
        )
        skewed = generate_synthetic_corpus(
            2, 20, vocab_per_class=6, shared_identifiers=4, seed=7, operator_skew=0.9
        )

        def preferred_fraction(corpus):
            fracs = []
            for ci, lab in enumerate(corpus.label_set):
                ops = Counter(
                    op
                    for doc in corpus.documents
                    if doc.label == lab
                    for f in doc.formulas
                    for op in f.operators
                )
                fracs.append(ops[OPERATOR_POOL[ci]] / sum(ops.values()))
            return min(fracs)

        assert preferred_fraction(plain) < 0.3
        assert preferred_fraction(skewed) > 0.8

    def test_text_overlap_mixes_vocabularies(self):
        kwargs = dict(vocab_per_class=6, shared_identifiers=4, seed=7)
        plain = generate_synthetic_corpus(3, 10, **kwargs)
        assert generate_synthetic_corpus(3, 10, text_overlap=0.0, **kwargs) == plain
        mixed = generate_synthetic_corpus(3, 10, text_overlap=0.6, **kwargs)
        own = {
            lab: {t for d in plain.documents if d.label == lab for t in d.text_tokens}
            for lab in plain.label_set
        }
        foreign = [t not in own[d.label] for d in mixed.documents for t in d.text_tokens]
        # a swapped word lands in one of the other 2 of 3 classes 2/3 of the time
        assert 0.3 < sum(foreign) / len(foreign) < 0.5
        assert {t for d in mixed.documents for t in d.text_tokens} <= set().union(*own.values())

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            generate_synthetic_corpus(0, 3, vocab_per_class=5, shared_identifiers=2)
        with pytest.raises(ValueError):
            generate_synthetic_corpus(
                2, 3, vocab_per_class=5, shared_identifiers=2, operator_skew=1.5
            )
        with pytest.raises(ValueError):
            generate_synthetic_corpus(
                2, 3, vocab_per_class=5, shared_identifiers=2, text_overlap=-0.1
            )


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_corpus(
        2, 4, vocab_per_class=8, shared_identifiers=4, seed=9,
        tokens_per_doc=(15, 25), formulas_per_doc=(1, 4),
    )


class TestMarkupRoundTrip:
    @pytest.mark.parametrize("format", ["html_math", "tei_formula"])
    def test_write_then_load_recovers_corpus(self, corpus, tmp_path, format):
        manifest = write_corpus_markup(corpus, tmp_path / format, format)
        loaded = load_corpus(manifest)
        assert loaded.label_set == corpus.label_set
        assert loaded.ids == corpus.ids
        for orig, back in zip(corpus.documents, loaded.documents):
            assert back.label == orig.label
            assert back.text_tokens == orig.text_tokens
            assert [f.operators for f in back.formulas] == [f.operators for f in orig.formulas]
            assert [f.identifiers for f in back.formulas] == [
                f.identifiers for f in orig.formulas
            ]
            assert [f.order for f in back.formulas] == [f.order for f in orig.formulas]

    def test_render_markup_containers(self, corpus):
        doc = corpus.documents[0]
        html = render_markup(doc, "html_math")
        tei = render_markup(doc, "tei_formula")
        assert html.startswith("<article>") and html.endswith("</article>")
        assert html.count("<math>") == len(doc.formulas)
        assert tei.count("<formula>") == len(doc.formulas)
        assert "<math>" not in tei

    def test_unknown_format_is_the_parser_error(self, corpus, tmp_path):
        """Rendering, writing and parsing read one format table, so an
        unknown name raises the parser's error and writes nothing; the
        ``synth`` subcommand offers exactly the table's names."""
        with pytest.raises(UnknownFormatError, match="'bogus'"):
            render_markup(corpus.documents[0], "bogus")
        with pytest.raises(UnknownFormatError, match="'bogus'"):
            write_corpus_markup(corpus, tmp_path / "out", "bogus")
        assert not (tmp_path / "out").exists()
        with pytest.raises(UnknownFormatError, match="'bogus'"):
            parse_document("<article/>", "bogus", "d0", "x")
        parser = build_parser()
        for format in FORMAT_CONTAINERS:
            args = parser.parse_args(["synth", "--format", format, "--output-dir", "out"])
            assert args.format == format
        with pytest.raises(SystemExit):
            parser.parse_args(["synth", "--format", "bogus", "--output-dir", "out"])

    def test_manifest_lists_every_document(self, corpus, tmp_path):
        manifest = write_corpus_markup(corpus, tmp_path, "html_math")
        import json

        data = json.loads(manifest.read_text())
        assert data["format"] == "html_math"
        assert [e["id"] for e in data["entries"]] == corpus.ids
        for entry in data["entries"]:
            assert (tmp_path / entry["path"]).exists()

    def test_bundled_mini_corpus_matches_its_generator(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "make_mini_corpus.py"
        spec = importlib.util.spec_from_file_location("make_mini_corpus", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.write(tmp_path)
        bundled = Path(textmath.__file__).parent / "data" / "mini_corpus"
        names = sorted(p.name for p in bundled.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        for name in names:
            assert (tmp_path / name).read_bytes() == (bundled / name).read_bytes(), name


class TestClassLexicon:
    def test_tsv_loads_and_covers_identifiers(self, tmp_path):
        corpus = generate_synthetic_corpus(
            3, 8, vocab_per_class=10, shared_identifiers=5, seed=13
        )
        path = tmp_path / "lex.tsv"
        class_lexicon_tsv(corpus, path, names_per_symbol=2)
        lex = load_lexicon(path)
        assert isinstance(lex, Lexicon)
        used = {s for doc in corpus.documents for f in doc.formulas for s in f.identifiers}
        assert set(lex.entries) == used
        class_words = {w for doc in corpus.documents for w in doc.text_tokens}
        for sym in used:
            names = lex.candidates(sym, top_n=2)
            assert 1 <= len(names) <= 2
            assert set(names) <= class_words
