"""Rules over feature states and their evaluation.

A rule is a conjunction of comparisons (the body) with an optional single
consequent (the head).  Decision rules are bare conjunctions describing the
classifier's current outcome; a state satisfies the decision layer when any
decision rule fires.  Causal rules are implications ``body => head`` that
every realistic state must satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence, Union

from .domains import Domains, FeatureDomain, State
from .errors import SemanticError

COMPARATORS = ("=", "!=", "=<", "<", ">=", ">")


@dataclass(frozen=True)
class Literal:
    """One comparison: ``feature op constant``.

    Order comparators apply to numeric features only; ``=`` and ``!=`` apply
    to both kinds.  Numeric constants are exact integers.
    """

    feature: str
    op: str
    const: Union[str, int]

    def __post_init__(self) -> None:
        if self.op not in COMPARATORS:
            raise ValueError(f"unknown comparator {self.op!r}")

    def __str__(self) -> str:
        return f"{self.feature} {self.op} {self.const}"


@dataclass(frozen=True)
class Rule:
    """A named conjunction of literals, optionally with a single-literal head."""

    id: str
    role: str  # "decision" | "causal"
    body: tuple[Literal, ...]
    head: Optional[Literal] = None

    def __post_init__(self) -> None:
        if self.role == "decision":
            if self.head is not None:
                raise ValueError(f"{self.id}: decision rules have no head")
        elif self.role == "causal":
            if self.head is None:
                raise ValueError(f"{self.id}: causal rules need a head")
            if any(lit.feature == self.head.feature for lit in self.body):
                raise SemanticError(
                    "head-in-body",
                    f"rule {self.id!r}: head feature {self.head.feature!r} appears in its own body",
                )
        else:
            raise ValueError(f"{self.id}: unknown role {self.role!r}")

    def __str__(self) -> str:
        body = ", ".join(str(lit) for lit in self.body)
        if self.role == "decision":
            return f"decision {self.id} :- {body}."
        return f"causal {self.id}: {self.head} :- {body}."


def _literal_support(domain: FeatureDomain, lit: Literal) -> frozenset[int]:
    """Value indices of ``domain`` on which the literal holds.

    For numeric features the partition must align with the constant, i.e. the
    literal is constant on every interval.  The parser guarantees this by
    inducing interval boundaries from all rule constants.
    """
    if lit.feature != domain.name:
        raise ValueError(f"literal {lit} does not talk about feature {domain.name!r}")
    if domain.kind == "categorical":
        if lit.op not in ("=", "!="):
            raise SemanticError("type-mismatch",
                                f"{lit}: order comparison on categorical feature")
        label = str(lit.const)
        if label not in domain.labels:
            raise SemanticError("type-mismatch",
                                f"{lit}: {label!r} is not a value of {domain.name!r}")
        eq = frozenset(i for i, l in enumerate(domain.labels) if l == label)
        return eq if lit.op == "=" else frozenset(range(domain.size)) - eq
    if not isinstance(lit.const, int) or isinstance(lit.const, bool):
        raise SemanticError("type-mismatch", f"{lit}: numeric feature needs an integer constant")
    c = lit.const
    hold = []
    for i, iv in enumerate(domain.intervals):
        lo, hi = iv.min_element, iv.max_element
        if lit.op == "=<":
            ok, bad = hi <= c, lo > c
        elif lit.op == "<":
            ok, bad = hi < c, lo >= c
        elif lit.op == ">=":
            ok, bad = lo >= c, hi < c
        elif lit.op == ">":
            ok, bad = lo > c, hi <= c
        elif lit.op == "=":
            ok, bad = lo == hi == c, c < lo or c > hi
        else:  # "!="
            ok, bad = c < lo or c > hi, lo == hi == c
        if ok:
            hold.append(i)
        elif not bad:
            raise SemanticError(
                "type-mismatch",
                f"{lit}: constant {c} is not an interval boundary of {domain.name!r}",
            )
    return frozenset(hold)


Pairs = tuple[tuple[int, frozenset[int]], ...]
CompiledRule = tuple[Pairs, Optional[tuple[int, frozenset[int]]]]


def _compile_rule(domains: Domains, rule: Rule) -> CompiledRule:
    """A rule's body pairs (feature position, allowed value indices), one per
    body feature in order of first mention with its literals intersected, and
    its head pair when it has one."""
    def pair(lit: Literal) -> tuple[int, frozenset[int]]:
        i = domains.index(lit.feature)
        return i, _literal_support(domains[i], lit)
    body: dict[int, frozenset[int]] = {}
    for i, allowed in map(pair, rule.body):
        body[i] = body[i] & allowed if i in body else allowed
    return tuple(body.items()), None if rule.head is None else pair(rule.head)


def _causal_tables(domains: Domains, rules: Sequence[Rule]) -> tuple[Pairs, ...]:
    """Each causal rule compiled once (:func:`_compile_rule`) into its
    breaking table: the head position with the values the head literal
    refuses, then the body pairs.  The table holds exactly where the rule is
    broken, so it has the shape of a decision rule's body pairs."""
    sizes = domains.sizes
    compiled = (_compile_rule(domains, rule) for rule in rules)
    return tuple(((head, frozenset(range(sizes[head])) - allowed),) + body
                 for body, (head, allowed) in compiled)


def none_holds(tables: Sequence[Pairs], idx: tuple[int, ...]) -> bool:
    """No table holds at the index tuple: each has a pair whose values miss
    the tuple's value there.  On breaking tables this says every causal rule
    holds, on decision bodies that no decision rule fires."""
    for table in tables:
        for i, allowed in table:
            if idx[i] not in allowed:
                break
        else:
            return False
    return True


# Cached views of `_literal_support` and `_compile_rule` for the State-level evaluators
# (`eval_rule`, `actions.is_permitted`).  Problem construction calls the
# uncached functions, so it neither hashes a `Domains` tree nor fills these.
literal_support = lru_cache(maxsize=None)(_literal_support)
compile_rule = lru_cache(maxsize=None)(_compile_rule)


def eval_rule(rule: Rule, state: State) -> bool:
    """Truth of a rule in a state.

    Decision rules are plain conjunctions.  Causal rules are material
    implications: true when the body fails or the head holds.
    """
    domains = state.domains
    body, head = compile_rule(domains, rule)
    body_true = all(state.idx[i] in allowed for i, allowed in body)
    if rule.role == "decision":
        return body_true
    i, allowed = head  # type: ignore[misc]
    return (not body_true) or state.idx[i] in allowed


def is_causally_consistent(state: State, causal_rules: Sequence[Rule]) -> bool:
    """True when every causal implication holds in the state."""
    return all(eval_rule(r, state) for r in causal_rules)


def satisfies_decision(state: State, decision_rules: Sequence[Rule]) -> bool:
    """True when at least one decision rule fires (disjunction over rules)."""
    return any(eval_rule(r, state) for r in decision_rules)


def is_counterfactual(state: State, causal_rules: Sequence[Rule],
                      decision_rules: Sequence[Rule]) -> bool:
    """Goal test: the state satisfies every causal rule and no decision rule."""
    return (is_causally_consistent(state, causal_rules)
            and not satisfies_decision(state, decision_rules))


@dataclass(frozen=True)
class ProblemSpec:
    """A complete recourse planning problem.

    Holds the feature domains, the causal rules, the decision rules that
    currently fire for the individual, the initial state, and an optional cap
    on planner expansions.  The plausibility constraints live on the domains
    alone, as each feature's ``mutable`` and ``monotonicity``, set when a
    feature is built (:func:`~recourseplan.dsl.parse_problem` and
    :func:`~recourseplan.generate.random_problem` do so) or on built domains
    by :meth:`~recourseplan.domains.Domains.with_constraints`.
    Construction re-binds the initial state to ``domains`` when it sits on
    other domains; the state must satisfy every causal rule, and
    construction rejects it otherwise.

    Construction compiles every rule once against the domains,
    without a cache, causal rules first: ``causal_tables`` holds each causal
    rule's breaking table (:func:`_causal_tables`), which :func:`none_holds`
    reads for the initial check, and ``decision_bodies`` each decision rule's
    body pairs.  A body names each feature once in these tables, with the
    intersection of its literals on that feature (:func:`_compile_rule`).
    """

    domains: Domains
    causal_rules: tuple[Rule, ...] = ()
    decision_rules: tuple[Rule, ...] = ()
    initial: State = None  # type: ignore[assignment]
    action_budget: Optional[int] = None
    causal_tables: tuple[Pairs, ...] = field(default=(), init=False, compare=False,
                                             repr=False)
    decision_bodies: tuple[Pairs, ...] = field(default=(), init=False, compare=False,
                                               repr=False)

    def __post_init__(self) -> None:
        if self.initial is None:
            raise SemanticError("missing-initial", "problem has no initial state")
        if self.initial.domains is not self.domains:
            object.__setattr__(self, "initial",
                               State(self.domains, self.initial.idx, self.initial.reps))
        for rule in self.causal_rules:
            if rule.role != "causal":
                raise ValueError(f"rule {rule.id!r} listed as causal but has role {rule.role!r}")
        for rule in self.decision_rules:
            if rule.role != "decision":
                raise ValueError(f"rule {rule.id!r} listed as decision but has role {rule.role!r}")
        # validates features, kinds, alignment
        causal = _causal_tables(self.domains, self.causal_rules)
        object.__setattr__(self, "causal_tables", causal)
        object.__setattr__(self, "decision_bodies", tuple(
            _compile_rule(self.domains, rule)[0] for rule in self.decision_rules))
        rule_ids = [r.id for r in self.causal_rules + self.decision_rules]
        if len(set(rule_ids)) != len(rule_ids):
            raise SemanticError("duplicate-declaration", "rule id declared twice")
        if self.action_budget is not None and self.action_budget <= 0:
            raise ValueError("action budget must be positive")
        if not none_holds(causal, self.initial.idx):
            raise SemanticError("causally-inconsistent-initial",
                                "initial state violates a causal rule")

    @property
    def state_count(self) -> int:
        return self.domains.state_count
