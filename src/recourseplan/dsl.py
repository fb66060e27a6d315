"""Textual problem language: parser and printer.

The language is line-oriented with ``%`` comments and ``.``-terminated
statements::

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
from dataclasses import dataclass
from typing import Optional, Union

from .domains import Domains, FeatureDomain, PlausibilityConstraint, State, partition_range
from .errors import OutOfDomain, ParseError, SemanticError
from .rules import COMPARATORS, Literal, ProblemSpec, Rule

# Whitespace and comments before a token are skipped by the same match, and a
# character no token starts with is a one-character ``bad`` token, so the
# matches of one ``finditer`` pass are contiguous and only the match at the
# end of the input has no token.
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r\n]+|%[^\n]*)*
    (?:
      (?P<decimal>-?\d+\.\d+)          # matched only to reject it with a clear message
    | (?P<int>-?\d+(?!\w))
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>:-|=<|>=|!=|[{}\[\](),.:=<>])
    | (?P<bad>.)
    )?
    """,
    re.VERBOSE,
)

# (kind, text, offset): kind is "ident" | "int" | "punct" | "eof"
_Token = tuple[str, str, int]


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of an offset; a tab or ``\\r`` is one column."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


def _tokenize(text: str) -> list[_Token]:
    """Tokens with their offsets, ending in an ``eof`` token at the end of the input."""
    tokens: list[_Token] = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            break
        if kind == "bad" or kind == "decimal":
            start = m.start(kind)
            message = (f"unexpected character {text[start]!r}" if kind == "bad" else
                       f"decimal constant {m[kind]} is not supported, use integers")
            raise ParseError(message, *_position(text, start))
        append((kind, m[kind], m.start(kind)))
    append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    # token plumbing ------------------------------------------------------

    def _fail(self, expected: str) -> ParseError:
        kind, lexeme, offset = self.tokens[self.pos]
        got = "end of input" if kind == "eof" else repr(lexeme)
        return ParseError(f"unexpected {got}", *_position(self.text, offset), expected=expected)

    def _at_punct(self, text: str) -> bool:
        kind, lexeme, _ = self.tokens[self.pos]
        return kind == "punct" and lexeme == text

    def take_punct(self, text: str) -> None:
        kind, lexeme, _ = self.tokens[self.pos]
        if kind == "punct" and lexeme == text:
            self.pos += 1
            return
        raise self._fail(repr(text))

    def take_ident(self, what: str = "identifier") -> str:
        kind, lexeme, _ = self.tokens[self.pos]
        if kind == "ident":
            self.pos += 1
            return lexeme
        raise self._fail(what)

    def take_int(self) -> int:
        kind, lexeme, _ = self.tokens[self.pos]
        if kind == "int":
            self.pos += 1
            return int(lexeme)
        raise self._fail("integer")

    def take_value(self) -> Union[str, int]:
        """A literal constant or initial value: identifier or integer."""
        kind, lexeme, _ = self.tokens[self.pos]
        if kind == "ident":
            self.pos += 1
            return lexeme
        if kind == "int":
            self.pos += 1
            return int(lexeme)
        raise self._fail("value")

    def take_comparator(self) -> str:
        kind, lexeme, _ = self.tokens[self.pos]
        if kind == "punct" and lexeme in COMPARATORS:
            self.pos += 1
            return lexeme
        raise self._fail("comparator (= != =< < >= >)")

    # grammar -------------------------------------------------------------

    def parse(self) -> "_Parsed":
        parsed = _Parsed()
        while True:
            kind, keyword, _ = self.tokens[self.pos]
            if kind == "eof":
                return parsed
            if kind != "ident":
                raise self._fail("statement keyword")
            if keyword == "feature":
                self._feature(parsed)
            elif keyword == "decision":
                self._decision(parsed)
            elif keyword == "causal":
                self._causal(parsed)
            elif keyword == "constraint":
                self._constraint(parsed)
            elif keyword == "initial":
                self._initial(parsed)
            else:
                raise self._fail("one of feature/decision/causal/constraint/initial")

    def _feature(self, parsed: "_Parsed") -> None:
        self.pos += 1
        name = self.take_ident("feature name")
        self.take_punct(":")
        kind = self.take_ident("categorical or numeric")
        if kind == "categorical":
            self.take_punct("{")
            labels = [str(self.take_value())]
            while self._at_punct(","):
                self.pos += 1
                labels.append(str(self.take_value()))
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
        if any(d.name == name for d in parsed.features):
            raise SemanticError("duplicate-declaration", f"feature {name!r} declared twice")
        parsed.features.append(decl)

    def _literal(self) -> Literal:
        feature = self.take_ident("feature name")
        op = self.take_comparator()
        const = self.take_value()
        return Literal(feature, op, const)

    def _body(self) -> tuple[Literal, ...]:
        lits = [self._literal()]
        while self._at_punct(","):
            self.pos += 1
            lits.append(self._literal())
        return tuple(lits)

    def _decision(self, parsed: "_Parsed") -> None:
        self.pos += 1
        rid = self.take_ident("rule id")
        self.take_punct(":-")
        body = self._body()
        self.take_punct(".")
        parsed.add_rule(Rule(rid, "decision", body))

    def _causal(self, parsed: "_Parsed") -> None:
        self.pos += 1
        rid = self.take_ident("rule id")
        self.take_punct(":")
        head = self._literal()
        self.take_punct(":-")
        body = self._body()
        self.take_punct(".")
        parsed.add_rule(Rule(rid, "causal", body, head=head))

    def _constraint(self, parsed: "_Parsed") -> None:
        self.pos += 1
        kind = self.take_ident("immutable, nondecreasing or nonincreasing")
        if kind not in ("immutable", "nondecreasing", "nonincreasing"):
            self.pos -= 1
            raise self._fail("immutable, nondecreasing or nonincreasing")
        feature = self.take_ident("feature name")
        self.take_punct(".")
        parsed.constraints.append(PlausibilityConstraint(feature, kind))  # type: ignore[arg-type]

    def _initial(self, parsed: "_Parsed") -> None:
        self.pos += 1
        if parsed.initial is not None:
            raise SemanticError("duplicate-declaration", "more than one initial block")
        self.take_punct("{")
        values: dict[str, Union[str, int]] = {}
        while True:
            feature = self.take_ident("feature name")
            self.take_punct("=")
            value = self.take_value()
            if feature in values:
                raise SemanticError("duplicate-declaration",
                                    f"initial value for {feature!r} given twice")
            values[feature] = value
            if self._at_punct(","):
                self.pos += 1
                continue
            break
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
        self.features: list[_FeatureDecl] = []
        self.causal: list[Rule] = []
        self.decision: list[Rule] = []
        self.constraints: list[PlausibilityConstraint] = []
        self.initial: Optional[dict[str, Union[str, int]]] = None

    def add_rule(self, rule: Rule) -> None:
        ids = {r.id for r in self.causal + self.decision}
        if rule.id in ids:
            raise SemanticError("duplicate-declaration", f"rule id {rule.id!r} declared twice")
        (self.causal if rule.role == "causal" else self.decision).append(rule)


# threshold induction -------------------------------------------------------

def _boundaries_for(op: str, const: int) -> tuple[int, ...]:
    """Cut points that make ``x op const`` constant on each interval.

    Features are integer-granular, so strict and left-closed comparisons map
    onto right-closed cuts: ``x < c`` cuts at ``c - 1``, ``x >= c`` likewise,
    and equality isolates the singleton ``(c - 1, c]``.
    """
    if op in ("=<", ">"):
        return (const,)
    if op in ("<", ">="):
        return (const - 1,)
    return (const - 1, const)  # "=", "!="


def _build_domains(parsed: _Parsed) -> Domains:
    declared = {d.name for d in parsed.features}
    thresholds: dict[str, set[int]] = {d.name: set() for d in parsed.features}
    all_rules = parsed.causal + parsed.decision
    for rule in all_rules:
        literals = rule.body + ((rule.head,) if rule.head else ())
        for lit in literals:
            if lit.feature not in declared:
                raise SemanticError("undeclared-feature",
                                    f"rule {rule.id!r} mentions undeclared feature {lit.feature!r}")
            decl = next(d for d in parsed.features if d.name == lit.feature)
            if decl.kind == "numeric":
                if not isinstance(lit.const, int):
                    raise SemanticError("type-mismatch",
                                        f"{lit}: numeric feature needs an integer constant")
                thresholds[lit.feature].update(_boundaries_for(lit.op, lit.const))

    features = []
    for d in parsed.features:
        if d.kind == "categorical":
            features.append(FeatureDomain(d.name, "categorical", labels=d.labels))
        else:
            parts = partition_range(d.lo, d.hi, thresholds[d.name])
            features.append(FeatureDomain(d.name, "numeric", intervals=parts))
    return Domains(tuple(features))


def _build_initial(parsed: _Parsed, domains: Domains) -> State:
    if parsed.initial is None:
        raise SemanticError("missing-initial", "problem has no initial block")
    for name in parsed.initial:
        if name not in domains.names:
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
    return ProblemSpec(
        domains=domains,
        causal_rules=tuple(parsed.causal),
        decision_rules=tuple(parsed.decision),
        constraints=tuple(parsed.constraints),
        initial=initial,
    )


def pretty_print(problem: ProblemSpec) -> str:
    """Render a problem back to canonical text.

    The output reparses to a structurally identical problem: declaration
    order is preserved, numeric ranges are recovered from the interval
    partition, and initial numeric values print their concrete witness.
    Planner budgets are not part of the language and are not printed.
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
    for c in problem.constraints:
        lines.append(f"constraint {c.kind} {c.feature}.")
    pairs = []
    for f, i, rep in zip(problem.domains, problem.initial.idx, problem.initial.reps):
        if f.kind == "categorical":
            pairs.append(f"{f.name} = {f.labels[i]}")
        else:
            value = rep if rep is not None else f.intervals[i].representative
            pairs.append(f"{f.name} = {value}")
    lines.append(f"initial {{ {', '.join(pairs)} }}.")
    return "\n".join(lines) + "\n"
