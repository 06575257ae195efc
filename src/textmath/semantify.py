"""Attach natural-language names to formula identifiers before encoding.

A lexicon is a ``symbol<TAB>name<TAB>score`` TSV that maps identifier
symbols to ranked name candidates (e.g. E -> energy). Enrichment turns a
document into one token list: append mode adds the cleaned name tokens to
the document's text stream, replace mode substitutes them for the
namespaced ``id:`` tokens of its math stream. Candidate names run through
the same cleaning pipeline as document text, so multi-word names lose their
stopwords ("speed of light" -> ["speed", "light"]).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .corpus import Document, clean_text
from .encode import token_stream
from .errors import MalformedLineError, check_int

MODES = ("append", "replace")
DEFAULT_TOP_N = 3


@dataclass
class Lexicon:
    entries: dict[str, list[tuple[str, float]]]  # symbol -> [(name, score) desc]

    def candidates(self, symbol: str, top_n: int) -> list[str]:
        return [name for name, _ in self.entries.get(symbol, [])[:top_n]]


def load_lexicon(path: str | Path) -> Lexicon:
    """Parse a ``symbol<TAB>name<TAB>score`` TSV; candidates per symbol come
    out sorted by descending score, ties keeping file order. Repeats of the
    same (symbol, name) pair have their scores summed."""
    path = Path(path)
    raw: dict[str, dict[str, list[float | int]]] = {}
    order = 0
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise MalformedLineError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}"
                )
            symbol, name, score_text = parts
            if not symbol or not name:
                raise MalformedLineError(f"{path}:{lineno}: empty symbol or name")
            try:
                score = float(score_text)
            except ValueError:
                raise MalformedLineError(
                    f"{path}:{lineno}: score {score_text!r} is not a number"
                ) from None
            slot = raw.setdefault(symbol, {})
            if name in slot:
                slot[name][0] += score
            else:
                slot[name] = [score, order]
                order += 1
    entries = {
        symbol: [
            (name, float(acc[0]))
            for name, acc in sorted(names.items(), key=lambda kv: (-kv[1][0], kv[1][1]))
        ]
        for symbol, names in raw.items()
    }
    return Lexicon(entries=entries)


def _name_tokens(lex: Lexicon, symbol: str, top_n: int) -> list[str]:
    out: list[str] = []
    for name in lex.candidates(symbol, top_n):
        out.extend(clean_text(name))
    return out


def enrich_stream(tokens: list[str], lex: Lexicon, top_n: int = DEFAULT_TOP_N) -> list[str]:
    """Rewrite a token stream: each ``id:<symbol>`` token with a lexicon
    entry becomes its cleaned candidate-name tokens. Unknown identifiers and
    all other tokens pass through."""
    check_int("top_n", top_n, 1)
    out: list[str] = []
    for tok in tokens:
        if tok.startswith("id:"):
            names = _name_tokens(lex, tok[3:], top_n)
            if names:
                out.extend(names)
                continue
        out.append(tok)
    return out


def enrich(
    doc: Document, lex: Lexicon, top_n: int = DEFAULT_TOP_N, mode: str = "append"
) -> list[str]:
    """Per identifier occurrence (element order), look up the top_n candidate
    names. Append mode yields text tokens plus all cleaned name tokens;
    replace mode rewrites the namespaced math stream in place."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    check_int("top_n", top_n, 1)
    if mode == "append":
        tokens = list(doc.text_tokens)
        for formula in doc.formulas:
            for symbol in formula.identifiers:
                tokens.extend(_name_tokens(lex, symbol, top_n))
    else:
        tokens = enrich_stream(token_stream(doc, "math_opid"), lex, top_n)
    return tokens
