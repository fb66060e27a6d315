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
from typing import Callable, Optional, TypeVar, Union

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
_T = TypeVar("_T")


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

    def _items(self, read: Callable[[], _T]) -> list[_T]:
        """A comma-separated list: ``read`` once, then again after each comma."""
        items = [read()]
        while self.tokens[self.pos][1] == ",":  # only a punct token reads ","
            self.pos += 1
            items.append(read())
        return items

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
            elif keyword == "decision" or keyword == "causal":
                self._rule(parsed, keyword)
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
        parsed.add_rule(Rule(rid, role, body, head=head))

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
        self.rule_ids: set[str] = set()
        self.constraints: list[PlausibilityConstraint] = []
        self.initial: Optional[dict[str, Union[str, int]]] = None

    def add_rule(self, rule: Rule) -> None:
        if rule.id in self.rule_ids:
            raise SemanticError("duplicate-declaration", f"rule id {rule.id!r} declared twice")
        self.rule_ids.add(rule.id)
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
    thresholds: dict[str, set[int]] = {name: set() for name in parsed.features}
    for rule in parsed.causal + parsed.decision:
        literals = rule.body + ((rule.head,) if rule.head else ())
        for lit in literals:
            decl = parsed.features.get(lit.feature)
            if decl is None:
                raise SemanticError("undeclared-feature",
                                    f"rule {rule.id!r} mentions undeclared feature {lit.feature!r}")
            if decl.kind == "numeric":
                if not isinstance(lit.const, int):
                    raise SemanticError("type-mismatch",
                                        f"{lit}: numeric feature needs an integer constant")
                thresholds[lit.feature].update(_boundaries_for(lit.op, lit.const))

    features = []
    for d in parsed.features.values():
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
    return ProblemSpec(
        domains=domains.with_constraints(parsed.constraints),
        causal_rules=tuple(parsed.causal),
        decision_rules=tuple(parsed.decision),
        initial=initial,
    )


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
