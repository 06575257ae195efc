"""Lexicon parsing and identifier enrichment."""
import pytest

from textmath import Lexicon, enrich, enrich_stream, load_lexicon
from textmath.corpus import PLACEHOLDER
from textmath.errors import MalformedLineError
from tests.conftest import formula, make_doc


def write_lexicon(tmp_path, text, name="lex.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadLexicon:
    def test_single_entry(self, tmp_path):
        path = write_lexicon(tmp_path, "E\tenergy\t120\n")
        lex = load_lexicon(path)
        assert lex.entries == {"E": [("energy", 120.0)]}
        assert lex.candidates("E", top_n=3) == ["energy"]

    def test_sorted_by_descending_score(self, tmp_path):
        path = write_lexicon(tmp_path, "E\tenergy\t5\nE\tfield\t9\n")
        lex = load_lexicon(path)
        assert lex.candidates("E", top_n=2) == ["field", "energy"]

    def test_score_ties_keep_file_order(self, tmp_path):
        path = write_lexicon(tmp_path, "k\tconstant\t2\nk\twavenumber\t2\n")
        lex = load_lexicon(path)
        assert lex.candidates("k", top_n=2) == ["constant", "wavenumber"]

    def test_duplicate_pairs_sum_scores(self, tmp_path):
        # energy appears first but only wins after its scores are summed
        path = write_lexicon(tmp_path, "E\tenergy\t4\nE\tfield\t6\nE\tenergy\t3\n")
        lex = load_lexicon(path)
        assert lex.entries["E"] == [("energy", 7.0), ("field", 6.0)]

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = write_lexicon(tmp_path, "# header\n\nm\tmass\t1\n")
        lex = load_lexicon(path)
        assert lex.candidates("m", top_n=1) == ["mass"]

    def test_wrong_field_count_reports_location(self, tmp_path):
        path = write_lexicon(tmp_path, "E\tenergy\t1\nm\tmass\n")
        with pytest.raises(MalformedLineError, match=rf"{path}:2:"):
            load_lexicon(path)

    def test_non_numeric_score_rejected(self, tmp_path):
        path = write_lexicon(tmp_path, "E\tenergy\thigh\n")
        with pytest.raises(MalformedLineError, match=":1:"):
            load_lexicon(path)

    def test_empty_symbol_rejected(self, tmp_path):
        path = write_lexicon(tmp_path, "\tenergy\t1\n")
        with pytest.raises(MalformedLineError):
            load_lexicon(path)


@pytest.fixture()
def physics_lexicon():
    return Lexicon(
        entries={
            "E": [("energy", 9.0), ("electric field", 4.0)],
            "m": [("mass", 8.0)],
            "c": [("speed of light", 7.0)],
        },
    )


@pytest.fixture()
def physics_doc():
    return make_doc(
        id="p0",
        text_tokens=["relation", "between", "quantities"],
        formulas=[formula(["="], ["E", "m"], offset=0, order="ioi")],
    )


class TestEnrich:
    def test_append_adds_names_after_text(self, physics_doc, physics_lexicon):
        tokens = enrich(physics_doc, physics_lexicon, top_n=1, mode="append")
        assert tokens == ["relation", "between", "quantities", "energy", "mass"]

    def test_append_with_empty_lexicon_keeps_text(self, physics_doc):
        empty = Lexicon(entries={})
        tokens = enrich(physics_doc, empty, top_n=3, mode="append")
        assert tokens == ["relation", "between", "quantities"]

    def test_top_n_beyond_candidates_adds_no_padding(self, physics_doc, physics_lexicon):
        # E has two candidates, m has one; top_n=3 must not invent more
        tokens = enrich(physics_doc, physics_lexicon, top_n=3, mode="append")
        assert tokens == [
            "relation", "between", "quantities",
            "energy", "electric", "field", "mass",
        ]

    def test_append_token_count(self, physics_lexicon):
        doc = make_doc(
            id="p1",
            raw_text=PLACEHOLDER * 2,
            text_tokens=["base"],
            formulas=[
                formula(["="], ["E"], offset=0),
                formula(["+"], ["E", "c"], offset=1),
            ],
        )
        tokens = enrich(doc, physics_lexicon, top_n=1, mode="append")
        # one name token per E occurrence, two for the cleaned multi-word c
        assert len(tokens) == 1 + 1 + 1 + 2

    def test_multiword_names_are_cleaned(self, physics_lexicon):
        doc = make_doc(id="p2", text_tokens=[], formulas=[formula([], ["c"], offset=0)])
        tokens = enrich(doc, physics_lexicon, top_n=1, mode="append")
        assert tokens == ["speed", "light"]
        assert "of" not in tokens

    def test_replace_leaves_no_known_identifier_tokens(self, physics_doc, physics_lexicon):
        tokens = enrich(physics_doc, physics_lexicon, top_n=1, mode="replace")
        assert tokens == ["energy", "op:=", "mass"]
        assert not any(t.startswith("id:") for t in tokens)

    def test_replace_keeps_unknown_identifiers(self, physics_lexicon):
        doc = make_doc(
            id="p3",
            text_tokens=["ignored"],
            formulas=[formula(["<"], ["Q", "E"], offset=0, order="ioi")],
        )
        tokens = enrich(doc, physics_lexicon, top_n=1, mode="replace")
        assert tokens == ["id:Q", "op:<", "energy"]

    def test_invalid_mode_and_top_n(self, physics_doc, physics_lexicon):
        with pytest.raises(ValueError):
            enrich(physics_doc, physics_lexicon, mode="prepend")
        with pytest.raises(ValueError):
            enrich(physics_doc, physics_lexicon, top_n=0)

    @pytest.mark.parametrize("top_n", [2.5, True, 0, "1"])
    def test_non_integer_top_n_rejected(self, physics_doc, physics_lexicon, top_n):
        with pytest.raises(ValueError, match="top_n"):
            enrich(physics_doc, physics_lexicon, top_n=top_n)
        with pytest.raises(ValueError, match="top_n"):
            enrich_stream(["id:E"], physics_lexicon, top_n=top_n)


class TestEnrichStream:
    def test_replace_inline(self, physics_lexicon):
        got = enrich_stream(["id:E", "op:=", "id:m"], physics_lexicon, top_n=1)
        assert got == ["energy", "op:=", "mass"]

    def test_unknown_identifiers_pass_through(self, physics_lexicon):
        got = enrich_stream(["id:zeta", "plain"], physics_lexicon, top_n=2)
        assert got == ["id:zeta", "plain"]
