"""Differential tests of the lexeme tokenizer against an earlier one.

``_reference_tokenize`` is a verbatim copy of the tokenizer that counted
lines per token (only the function is renamed), kept as the reference.  The
tokenizer in ``dsl`` returns bare lexemes; ``_with_positions`` gives each one
the kind its first character names and the line and column of its offset
from ``_offsets``, the helper error messages use.  For every text below the
two must produce the same ``(kind, text, line, col)`` tokens, or raise a
``ParseError`` with the same message and position.  ``PARSE_OUTCOMES_DIGEST``
pins what ``parse_problem`` made of the base texts and their mutants (the
printed problem, or the error type and message) before the tokenizer changed;
``EDGE_TEXTS`` lie outside those inputs, so the digest's inputs stay fixed.
A valid parse computes no offset or position at all.
"""

import hashlib
import random
import re
from collections import Counter
from typing import NamedTuple

import pytest

from recourseplan import dsl
from recourseplan.dsl import _offsets, _position, _tokenize, parse_problem, pretty_print
from recourseplan.errors import ParseError, SemanticError
from recourseplan.generate import random_problem
from recourseplan.ingest import SCENARIO_NAMES, builtin_scenario
from tests.conftest import read_parse_rows

# --- reference: the previous tokenizer, verbatim ---------------------------

# Whitespace and comments before a token are skipped by the same match; the
# token group is left unmatched at the end of the input and at a character
# no token starts with.
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r\n]+|%[^\n]*)*
    (?:
      (?P<decimal>-?\d+\.\d+)          # matched only to reject it with a clear message
    | (?P<int>-?\d+(?!\w))
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>:-|=<|>=|!=|[{}\[\](),.:=<>])
    )?
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str  # "ident" | "int" | "punct" | "eof"
    text: str
    line: int
    col: int


def _reference_tokenize(text: str) -> list[_Token]:
    """Tokens with 1-based line and column; a tab or ``\\r`` is one column."""
    tokens: list[_Token] = []
    match = _TOKEN_RE.match
    line, line_start, pos = 1, 0, 0
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        start = m.start(kind) if kind else m.end()
        newlines = text.count("\n", pos, start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", pos, start) + 1
        col = start - line_start + 1
        if kind is None:
            if start == len(text):
                break
            raise ParseError(f"unexpected character {text[start]!r}", line, col)
        lexeme = m.group(kind)
        if kind == "decimal":
            raise ParseError(f"decimal constant {lexeme} is not supported, use integers",
                             line, col)
        tokens.append(_Token(kind, lexeme, line, col))
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


# --- inputs ------------------------------------------------------------------

def _scenario_texts() -> list[str]:
    return [builtin_scenario(name).text for name in SCENARIO_NAMES]


def _generated_texts() -> list[str]:
    return [pretty_print(random_problem(seed, max_features=10, max_values=6))
            for seed in range(120)]


def _error_position_texts() -> list[str]:
    # an error after a tab or a comment: the position- rows of tests/golden/parse.txt
    return [row.text for row in read_parse_rows() if row.name.startswith("position-")]


# pieces a mutation inserts or substitutes: whitespace the columns must
# count, comment and statement punctuation, decimals, negative numbers,
# characters no token starts with, and a non-ASCII letter
ALPHABET = ("\t", "\r", "\n", " ", "%", ".", "1.5", ":-", "=<", "-3", "@", "~", "é",
            ",", "{", "}", "=", "x", "7")


def _mutants(texts: list[str], count: int, seed: int = 0) -> list[str]:
    """``count`` texts, each with 1-3 random insertions, deletions or substitutions."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            op = rng.randrange(3)
            piece = rng.choice(ALPHABET)
            if op == 0:
                text = text[:at] + piece + text[at:]
            elif op == 1:
                text = text[:at] + text[at + rng.randint(1, 3):]
            else:
                text = text[:at] + piece + text[at + rng.randint(1, 3):]
        out.append(text)
    return out


def _tokens(tokenize, text: str):
    try:
        return [tuple(tok) for tok in tokenize(text)]
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)


def _kind(lexeme: str) -> str:
    if not lexeme:
        return "eof"
    if lexeme[0] == "_" or lexeme[0].isascii() and lexeme[0].isalpha():
        return "ident"
    return "int" if lexeme[0] == "-" or lexeme[0].isdecimal() else "punct"


def _with_positions(text: str):
    lexemes = _tokenize(text)
    return [(_kind(lexeme), lexeme, *_position(text, offset))
            for lexeme, offset in zip(lexemes, _offsets(text), strict=True)]


def _parse_outcome(text: str) -> tuple[str, str]:
    """The error's class and ``<class>: <message>``, or ``ok`` and the printed problem."""
    try:
        return "ok", pretty_print(parse_problem(text))
    except (ParseError, SemanticError, ValueError) as exc:
        return type(exc).__name__, f"{type(exc).__name__}: {exc}"


MUTANTS = 6000

# SHA-256 over the parse outcome of every base text and mutant, in order
PARSE_OUTCOMES_DIGEST = "f3e21bcfe1f163b147f765c139084f50ccd6c9888bfbaabe5ea10f8bfddca057"


def _base_texts() -> list[str]:
    return _scenario_texts() + _generated_texts() + _error_position_texts()


@pytest.mark.parametrize("texts", [_scenario_texts, _generated_texts, _error_position_texts],
                         ids=["scenarios", "generated", "error positions"])
def test_tokens_match_the_reference(texts):
    for text in texts():
        assert _tokens(_with_positions, text) == _tokens(_reference_tokenize, text)


def test_tokens_and_errors_match_the_reference_on_mutants():
    errors = 0
    for text in _mutants(_base_texts(), MUTANTS):
        expected = _tokens(_reference_tokenize, text)
        assert _tokens(_with_positions, text) == expected, repr(text)
        errors += expected[0] == "error"
    # the mutations reach both outcomes
    assert 0 < errors < MUTANTS


def test_parse_outcomes_match_the_pinned_digest():
    digest, classes = hashlib.sha256(), Counter()
    base = _base_texts()
    for text in base + _mutants(base, MUTANTS):
        kind, outcome = _parse_outcome(text)
        classes[kind] += 1
        digest.update(outcome.encode())
        digest.update(b"\0")
    # every text parses or raises one of the language's two error classes: a
    # ValueError would be a check the parser misses
    assert classes == {"ParseError": 5657, "SemanticError": 142, "ok": 329}
    assert digest.hexdigest() == PARSE_OUTCOMES_DIGEST


EDGE_TEXTS = [
    "x = ٣",  # an Arabic-Indic digit: \d reads it as an integer
    "8²", "8decision", "-3x",  # a digit or a superscript after an integer
    "-", "!", "x != -٣",
    "% 1.5 in a comment\nx = 1.", "% a comment\n1.5", "x = 1 %1.5",
    "x = 1. % a comment, no newline", "x %", "%", "", " \t\r\n",
    "feature a: numeric [1, 2].\r\ninitial { a = 1 }.\r\n",
    "feature a: numeric [1, 2].\r\n\t@\r\n",
]


@pytest.mark.parametrize("text", EDGE_TEXTS)
def test_edge_cases_match_the_reference(text):
    assert _tokens(_with_positions, text) == _tokens(_reference_tokenize, text)


def test_a_valid_parse_computes_no_position(monkeypatch):
    # offsets and positions are for error messages; the four scenarios and
    # the printed 10/6 problems of seeds 0-119 parse without one
    def refuse(*args):
        raise AssertionError("a position was computed")

    monkeypatch.setattr(dsl, "_offsets", refuse)
    monkeypatch.setattr(dsl, "_position", refuse)
    for text in _scenario_texts() + _generated_texts():
        parse_problem(text)


def test_unicode_digits_parse_as_integers():
    # \d, and so the int token, matches any Unicode decimal digit
    unicode = parse_problem("feature x: numeric [٠, ٣].\ndecision d :- x >= ٢.\n"
                            "initial { x = -٠ }.\n")
    assert unicode == parse_problem("feature x: numeric [0, 3].\ndecision d :- x >= 2.\n"
                                    "initial { x = 0 }.\n")
