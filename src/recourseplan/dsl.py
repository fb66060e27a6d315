"""Textual problem language: parser and printer.

The language is free-form: a newline is whitespace, ``%`` starts a comment
that runs to the end of its line, and each statement ends with ``.``::

    feature persons: categorical {2, 4, more}.
    feature duration_months: numeric [1, 72].
    decision reject_small :- persons = 2.
    causal spouse_role: relationship = husband :- marital_status = married, sex = male.
    constraint immutable sex.
    constraint nondecreasing age.
    initial { persons = 2, duration_months = 7 }.

Comparators are ``=  !=  =<  <  >=  >``; order comparators are only valid on
numeric features.  Interval partitions for numeric features are induced from
every constant mentioned in any rule, so rule truth is constant per interval.
Parsing is locale-independent; numeric constants are exact integers.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar, Union

from .domains import Domains, FeatureDomain, State, partition_range
from .errors import OutOfDomain, ParseError, SemanticError
from .rules import COMPARATORS, Literal, ProblemSpec, Rule, _cuts

# One ``findall`` returns the lexemes: a match is a token and the whitespace
# and comments after it (``_SKIP_RE`` skips those before the first).  The empty
# alternative matches where no token starts (a stray character, or a decimal,
# which the int alternative refuses) and at the end of the input, so a text
# tokenizes when its first empty lexeme is the last.  Offsets are for errors.
_SKIP_RE = re.compile(r"(?:[ \t\r\n]+|%[^\n]*)*")
_TOKEN_RE = re.compile(
    r"""
    ( -?\d+(?!\w|\.\d)                 # int
    | [A-Za-z_][A-Za-z0-9_]*           # ident
    | :-|=<|>=|!=|[{}\[\](),.:=<>]     # punct
    |                                  # no token: an error, or the end of the input
    )""" + _SKIP_RE.pattern,
    re.VERBOSE,
)
_DECIMAL_RE = re.compile(r"-?\d+\.\d+")
_IDENT_START = frozenset(string.ascii_letters + "_")
_T = TypeVar("_T")


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of an offset; a tab or ``\\r`` is one column."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


def _offsets(text: str) -> list[int]:
    """Where each lexeme of ``_tokenize(text)`` starts; the sentinel's is ``len(text)``."""
    return [m.start() for m in _TOKEN_RE.finditer(text, _SKIP_RE.match(text).end())]


def _tokenize(text: str) -> list[str]:
    """The lexemes, then an empty-string sentinel; a stray character or a
    decimal raises :class:`ParseError` at its position."""
    lexemes = _TOKEN_RE.findall(text, _SKIP_RE.match(text).end())
    end = lexemes.index("")
    if end < len(lexemes) - 1:
        offset = _offsets(text)[end]
        decimal = _DECIMAL_RE.match(text, offset)
        message = (f"decimal constant {decimal[0]} is not supported, use integers" if decimal
                   else f"unexpected character {text[offset]!r}")
        raise ParseError(message, *_position(text, offset))
    return lexemes


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    # token plumbing ------------------------------------------------------

    def _fail(self, expected: str) -> ParseError:
        lexeme = self.tokens[self.pos]
        got = repr(lexeme) if lexeme else "end of input"
        offset = _offsets(self.text)[self.pos]
        return ParseError(f"unexpected {got}", *_position(self.text, offset), expected=expected)

    def take_punct(self, text: str) -> None:
        if self.tokens[self.pos] == text:  # no ident or int reads as punctuation
            self.pos += 1
            return
        raise self._fail(repr(text))

    def take_ident(self, what: str = "identifier") -> str:
        lexeme = self.tokens[self.pos]
        if lexeme[:1] in _IDENT_START:
            self.pos += 1
            return lexeme
        raise self._fail(what)

    def take_int(self, what: str = "integer") -> int:
        lexeme = self.tokens[self.pos]
        if lexeme[:1] == "-" or lexeme[:1].isdecimal():  # \d is any Unicode decimal digit
            try:
                value = int(lexeme)
            except ValueError:  # more digits than the interpreter's int-string limit
                digits = len(lexeme.lstrip("-"))
                offset = _offsets(self.text)[self.pos]
                raise ParseError(f"integer constant of {digits} digits is too long",
                                 *_position(self.text, offset)) from None
            self.pos += 1
            return value
        raise self._fail(what)

    def take_value(self) -> Union[str, int]:
        """A literal constant or initial value: identifier or integer."""
        if self.tokens[self.pos][:1] in _IDENT_START:
            return self.take_ident()
        return self.take_int("value")

    def take_comparator(self) -> str:
        lexeme = self.tokens[self.pos]
        if lexeme in COMPARATORS:
            self.pos += 1
            return lexeme
        raise self._fail("comparator (= != =< < >= >)")

    def _items(self, read: Callable[[], _T]) -> list[_T]:
        """A comma-separated list: ``read`` once, then again after each comma."""
        items = [read()]
        while self.tokens[self.pos] == ",":
            self.pos += 1
            items.append(read())
        return items

    # grammar -------------------------------------------------------------

    def parse(self) -> "_Parsed":
        parsed = _Parsed()
        while True:
            keyword = self.tokens[self.pos]
            if not keyword:
                return parsed
            if keyword == "feature":
                self._feature(parsed)
            elif keyword == "decision" or keyword == "causal":
                self._rule(parsed, keyword)
            elif keyword == "constraint":
                self._constraint(parsed)
            elif keyword == "initial":
                self._initial(parsed)
            else:
                raise self._fail("one of feature/decision/causal/constraint/initial"
                                 if keyword[:1] in _IDENT_START else "statement keyword")

    def _feature(self, parsed: "_Parsed") -> None:
        self.pos += 1
        name = self.take_ident("feature name")
        self.take_punct(":")
        kind = self.take_ident("categorical or numeric")
        if kind == "categorical":
            self.take_punct("{")
            labels = [str(value) for value in self._items(self.take_value)]
            self.take_punct("}")
            if len(set(labels)) != len(labels):
                raise SemanticError("duplicate-declaration",
                                    f"feature {name!r} lists a value twice")
            decl: _FeatureDecl = _FeatureDecl(name, "categorical", labels=tuple(labels))
        elif kind == "numeric":
            self.take_punct("[")
            lo = self.take_int()
            self.take_punct(",")
            hi = self.take_int()
            self.take_punct("]")
            if hi < lo:
                raise SemanticError("type-mismatch",
                                    f"feature {name!r}: range [{lo}, {hi}] is empty")
            decl = _FeatureDecl(name, "numeric", lo=lo, hi=hi)
        else:
            raise self._fail("categorical or numeric")
        self.take_punct(".")
        if name in parsed.features:
            raise SemanticError("duplicate-declaration", f"feature {name!r} declared twice")
        parsed.features[name] = decl

    def _literal(self) -> Literal:
        feature = self.take_ident("feature name")
        op = self.take_comparator()
        const = self.take_value()
        return Literal(feature, op, const)

    def _rule(self, parsed: "_Parsed", role: str) -> None:
        """``decision id :- body.`` or ``causal id: head :- body.``"""
        self.pos += 1
        rid = self.take_ident("rule id")
        head = None
        if role == "causal":
            self.take_punct(":")
            head = self._literal()
        self.take_punct(":-")
        body = tuple(self._items(self._literal))
        self.take_punct(".")
        (parsed.causal if role == "causal" else parsed.decision).append(
            Rule(rid, role, body, head=head))

    def _constraint(self, parsed: "_Parsed") -> None:
        self.pos += 1
        kind = self.take_ident("immutable, nondecreasing or nonincreasing")
        if kind not in ("immutable", "nondecreasing", "nonincreasing"):
            self.pos -= 1
            raise self._fail("immutable, nondecreasing or nonincreasing")
        feature = self.take_ident("feature name")
        self.take_punct(".")
        parsed.constraints.append((feature, kind))

    def _initial(self, parsed: "_Parsed") -> None:
        self.pos += 1
        if parsed.initial is not None:
            raise SemanticError("duplicate-declaration", "more than one initial block")
        self.take_punct("{")
        values: dict[str, Union[str, int]] = {}

        def entry() -> None:
            feature = self.take_ident("feature name")
            self.take_punct("=")
            value = self.take_value()
            if feature in values:
                raise SemanticError("duplicate-declaration",
                                    f"initial value for {feature!r} given twice")
            values[feature] = value

        self._items(entry)
        self.take_punct("}")
        self.take_punct(".")
        parsed.initial = values


@dataclass
class _FeatureDecl:
    name: str
    kind: str
    labels: tuple[str, ...] = ()
    lo: int = 0
    hi: int = 0


class _Parsed:
    def __init__(self) -> None:
        self.features: dict[str, _FeatureDecl] = {}  # by name, in declaration order
        self.causal: list[Rule] = []
        self.decision: list[Rule] = []
        self.constraints: list[tuple[str, str]] = []  # (feature, kind), in text order
        self.initial: Optional[dict[str, Union[str, int]]] = None


# threshold induction -------------------------------------------------------
# Each numeric feature is cut at the cuts (``rules._cuts``) of every literal
# on it, so every rule literal is constant on each of its intervals.

def _build_domains(parsed: _Parsed) -> Domains:
    thresholds: dict[str, set[int]] = {name: set() for name in parsed.features}
    for rule in parsed.causal + parsed.decision:
        literals = rule.body + ((rule.head,) if rule.head else ())
        for lit in literals:
            decl = parsed.features.get(lit.feature)
            if decl is None:
                raise SemanticError("undeclared-feature",
                                    f"rule {rule.id!r} mentions undeclared feature {lit.feature!r}")
            if decl.kind == "numeric":
                thresholds[lit.feature].update(_cuts(lit))

    constraint = dict(parsed.constraints)  # checked in parse_problem
    features = []
    for d in parsed.features.values():
        kind = constraint.get(d.name, "none")
        flags = {"mutable": False} if kind == "immutable" else {"monotonicity": kind}
        if d.kind == "categorical":
            features.append(FeatureDomain(d.name, "categorical", labels=d.labels, **flags))
        else:
            parts = partition_range(d.lo, d.hi, thresholds[d.name])
            features.append(FeatureDomain(d.name, "numeric", intervals=parts, **flags))
    return Domains(tuple(features))


def _build_initial(parsed: _Parsed, domains: Domains) -> State:
    if parsed.initial is None:
        raise SemanticError("missing-initial", "problem has no initial block")
    for name in parsed.initial:
        if name not in parsed.features:
            raise SemanticError("undeclared-feature",
                                f"initial block mentions undeclared feature {name!r}")
    missing = [f.name for f in domains if f.name not in parsed.initial]
    if missing:
        raise SemanticError("missing-initial",
                            f"initial block missing features: {', '.join(missing)}")
    try:
        return domains.make_state(parsed.initial)
    except OutOfDomain as exc:
        raise SemanticError("type-mismatch", f"initial {exc}") from None


def parse_problem(text: str) -> ProblemSpec:
    """Parse problem text into a validated :class:`ProblemSpec`.

    Raises :class:`ParseError` with position information for malformed text
    and :class:`SemanticError` for well-formedness violations (undeclared
    features, type mismatches, duplicate declarations, a missing initial
    block, or an initial state that violates a causal rule).
    """
    parsed = _Parser(text).parse()
    domains = _build_domains(parsed)
    initial = _build_initial(parsed, domains)
    seen: set[str] = set()  # a feature takes at most one constraint
    for feature, _ in parsed.constraints:
        if feature not in parsed.features:
            raise SemanticError("undeclared-feature", f"feature {feature!r} is not declared")
        if feature in seen:
            raise SemanticError("duplicate-declaration",
                                f"more than one constraint on feature {feature!r}")
        seen.add(feature)
    return ProblemSpec(domains=domains, causal_rules=tuple(parsed.causal),
                       decision_rules=tuple(parsed.decision), initial=initial)


def pretty_print(problem: ProblemSpec) -> str:
    """Render a problem back to canonical text.

    For a parsed problem the output reparses to a structurally identical
    problem: declaration order is preserved, numeric ranges are recovered
    from the interval partition, and initial numeric values print their
    concrete witness.  Constraint lines are written from the domains, one per
    constrained feature in feature order: ``immutable`` for a feature that is
    not mutable, else its monotonicity.  Text carries no interval cut that no
    rule constant names, so a problem built otherwise (``random_problem``'s,
    for one) can reparse with fewer intervals, and so fewer states.  Planner
    budgets are not part of the language and are not printed.
    """
    lines: list[str] = []
    for f in problem.domains:
        if f.kind == "categorical":
            lines.append(f"feature {f.name}: categorical {{{', '.join(f.labels)}}}.")
        else:
            lines.append(f"feature {f.name}: numeric "
                         f"[{f.intervals[0].lower}, {f.intervals[-1].upper}].")
    for r in problem.decision_rules:
        lines.append(str(r))
    for r in problem.causal_rules:
        lines.append(str(r))
    for f in problem.domains:
        kind = f.monotonicity if f.mutable else "immutable"
        if kind != "none":
            lines.append(f"constraint {kind} {f.name}.")
    pairs = []
    for f, i, rep in zip(problem.domains, problem.initial.idx, problem.initial.reps):
        if f.kind == "categorical":
            pairs.append(f"{f.name} = {f.labels[i]}")
        else:
            value = rep if rep is not None else f.intervals[i].representative
            pairs.append(f"{f.name} = {value}")
    lines.append(f"initial {{ {', '.join(pairs)} }}.")
    return "\n".join(lines) + "\n"
