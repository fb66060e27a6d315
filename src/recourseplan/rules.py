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

from .domains import Domains, FeatureDomain, PlausibilityConstraint, State
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
    """A rule's body pairs (feature position, allowed value indices), and its
    head pair when it has one."""
    def pair(lit: Literal) -> tuple[int, frozenset[int]]:
        i = domains.index(lit.feature)
        return i, _literal_support(domains[i], lit)
    return tuple(map(pair, rule.body)), None if rule.head is None else pair(rule.head)


# Cached views of the two functions above for the State-level evaluators
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
    currently fire for the individual, the plausibility constraints (also
    mirrored into the domains), the initial state, and an optional cap on
    planner expansions.  The initial state must satisfy every causal rule;
    construction rejects it otherwise.

    Construction compiles every rule once against the mirrored domains,
    without a cache: ``rule_tables`` holds one :func:`compile_rule` result
    per rule of ``causal_rules + decision_rules``, in that order.
    """

    domains: Domains
    causal_rules: tuple[Rule, ...] = ()
    decision_rules: tuple[Rule, ...] = ()
    constraints: tuple[PlausibilityConstraint, ...] = ()
    initial: State = None  # type: ignore[assignment]
    action_budget: Optional[int] = None
    rule_tables: tuple[CompiledRule, ...] = field(default=(), init=False, compare=False,
                                                  repr=False)

    def __post_init__(self) -> None:
        mirrored = self.domains.with_constraints(self.constraints)
        object.__setattr__(self, "domains", mirrored)
        if self.initial is None:
            raise SemanticError("missing-initial", "problem has no initial state")
        object.__setattr__(
            self, "initial",
            State(mirrored, self.initial.idx, self.initial.reps),
        )
        for rule in self.causal_rules:
            if rule.role != "causal":
                raise ValueError(f"rule {rule.id!r} listed as causal but has role {rule.role!r}")
        for rule in self.decision_rules:
            if rule.role != "decision":
                raise ValueError(f"rule {rule.id!r} listed as decision but has role {rule.role!r}")
        # validates features, kinds, alignment
        tables = tuple(_compile_rule(mirrored, rule)
                       for rule in self.causal_rules + self.decision_rules)
        object.__setattr__(self, "rule_tables", tables)
        rule_ids = [r.id for r in self.causal_rules + self.decision_rules]
        if len(set(rule_ids)) != len(rule_ids):
            raise SemanticError("duplicate-declaration", "rule id declared twice")
        if self.action_budget is not None and self.action_budget <= 0:
            raise ValueError("action budget must be positive")
        idx = self.initial.idx
        if any(idx[i] not in allowed and all(idx[j] in a for j, a in body)
               for body, (i, allowed) in tables[:len(self.causal_rules)]):
            raise SemanticError("causally-inconsistent-initial",
                                "initial state violates a causal rule")

    @property
    def state_count(self) -> int:
        return self.domains.state_count
