"""Rules over feature states and their evaluation.

A rule is a conjunction of comparisons (the body) with an optional single
consequent (the head).  Decision rules are bare conjunctions describing the
classifier's current outcome; a state satisfies the decision layer when any
decision rule fires.  Causal rules are implications ``body => head`` that
every realistic state must satisfy.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import zip_longest
from typing import Optional, Sequence, Union

from .domains import Domains, FeatureDomain, State
from .errors import SemanticError

_COMPARE = {"=": operator.eq, "!=": operator.ne, "=<": operator.le,
            "<": operator.lt, ">=": operator.ge, ">": operator.gt}
COMPARATORS = tuple(_COMPARE)


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


def _cuts(lit: Literal) -> tuple[int, ...]:
    """Where a literal on a numeric feature changes truth, as interval cuts.

    A cut at ``t`` parts the integers ``=< t`` from those ``> t``: ``=<`` and
    ``>`` cut at ``c``, ``<`` and ``>=`` at ``c - 1``, and ``=`` and ``!=``
    at both, isolating ``(c - 1, c]``.  The parser cuts each numeric feature
    at the cuts of every literal on it; :func:`_literal_support` rejects a
    partition that is not cut there.
    """
    if not isinstance(lit.const, int) or isinstance(lit.const, bool):
        raise SemanticError("type-mismatch", f"{lit}: numeric feature needs an integer constant")
    c = lit.const
    if lit.op in ("=<", ">"):
        return (c,)
    if lit.op in ("<", ">="):
        return (c - 1,)
    return (c - 1, c)  # "=", "!="


def _literal_support(domain: FeatureDomain, lit: Literal) -> frozenset[int]:
    """Value indices of ``domain`` on which the literal holds.

    A numeric interval with ``min_element <= t < upper`` for one of the
    literal's cuts ``t`` (:func:`_cuts`) holds values on both sides of the
    comparison and raises ``type-mismatch``.  Otherwise the literal holds on
    an interval exactly where it holds at ``upper``.
    """
    if lit.feature != domain.name:
        raise ValueError(f"literal {lit} does not talk about feature {domain.name!r}")
    compare = _COMPARE[lit.op]
    if domain.kind == "categorical":
        if lit.op not in ("=", "!="):
            raise SemanticError("type-mismatch",
                                f"{lit}: order comparison on categorical feature")
        label = str(lit.const)
        if label not in domain.labels:
            raise SemanticError("type-mismatch",
                                f"{lit}: {label!r} is not a value of {domain.name!r}")
        return frozenset(i for i, l in enumerate(domain.labels) if compare(l, label))
    c, cuts = lit.const, _cuts(lit)
    hold = []
    for i, iv in enumerate(domain.intervals):
        lo, hi = iv.min_element, iv.upper
        for t in cuts:
            if lo <= t < hi:
                raise SemanticError("type-mismatch", f"{lit}: constant {c} is not an "
                                    f"interval boundary of {domain.name!r}")
        if compare(hi, c):
            hold.append(i)
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


_NOTHING: frozenset[int] = frozenset()


def after_one_move(tables: Sequence[Pairs],
                   idx: tuple[int, ...]) -> tuple[list[frozenset[int]], Optional[set[int]]]:
    """Every one-move successor of ``idx`` decided in one pass over the
    tables: ``(gain, named)``, where ``gain[j]`` holds the values whose
    write to feature ``j`` makes some table hold, and ``named`` the features
    every table holding at ``idx`` names, or ``None`` when none holds.

    Writing value ``v`` to feature ``j`` leaves some table holding exactly
    when ``v in gain[j]`` or ``named`` is not ``None`` and lacks ``j``.  A
    move writes one feature and a table has one pair per feature, so:

    - a table that misses ``idx`` on two or more features still misses
      after any move;
    - a table that misses only on feature ``j`` holds after the move iff the
      move writes ``j`` with a value in ``j``'s pair, which ``gain[j]``
      holds;
    - a table that holds at ``idx`` keeps holding unless the move writes a
      feature it names with a value outside that pair: it holds after a
      write to a feature outside ``named`` (some holding table does not
      name it), and after a write of ``j`` with a value in the pair of a
      holding table naming ``j``, which ``gain[j]`` holds too.
    """
    gain = [_NOTHING] * len(idx)
    named: Optional[set[int]] = None
    for table in tables:
        missed = None
        for i, allowed in table:
            if idx[i] not in allowed:
                if missed is not None:
                    break  # missed on two features
                missed, values = i, allowed
        else:
            if missed is not None:
                gain[missed] = gain[missed] | values if gain[missed] else values
                continue
            names = set()
            for j, allowed in table:
                names.add(j)
                gain[j] = gain[j] | allowed if gain[j] else allowed
            named = names if named is None else named & names
    return gain, named


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


@dataclass(frozen=True, eq=False)
class Model:
    """The feature domains and the rules of a problem, without its start.

    Construction checks that every rule is listed under its own role and
    that a rule id is declared once, over the causal and decision rules
    together.  Then it compiles every rule once against the domains, without
    a cache, causal rules first: ``causal_tables`` holds each causal rule's
    breaking table, the head position with the values the head literal
    refuses and then the body pairs, so it holds exactly where the rule is
    broken, in the shape of a decision rule's body pairs, which
    ``decision_bodies`` holds.  A body names each feature once in these
    tables, with the intersection of its literals on that feature
    (:func:`_compile_rule`).  :func:`none_holds` reads both.  The model is
    their only holder: a :class:`ProblemSpec` keeps its model, not a copy
    of its tables.

    Equality is identity, so a memo keyed by a model never compares rules.
    :meth:`problem` binds a start to the model and compiles nothing.
    """

    domains: Domains
    causal_rules: tuple[Rule, ...] = ()
    decision_rules: tuple[Rule, ...] = ()
    causal_tables: tuple[Pairs, ...] = field(default=(), init=False, repr=False)
    decision_bodies: tuple[Pairs, ...] = field(default=(), init=False, repr=False)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for role, rules in (("causal", self.causal_rules), ("decision", self.decision_rules)):
            for rule in rules:
                if rule.role != role:
                    raise ValueError(f"rule {rule.id!r} listed as {role} but has role {rule.role!r}")
                if rule.id in seen:
                    raise SemanticError("duplicate-declaration",
                                        f"rule id {rule.id!r} declared twice")
                seen.add(rule.id)
        # validates features, kinds, alignment
        domains, sizes = self.domains, self.domains.sizes
        compiled = (_compile_rule(domains, rule) for rule in self.causal_rules)
        object.__setattr__(self, "causal_tables", tuple(
            ((head, frozenset(range(sizes[head])) - allowed),) + body
            for body, (head, allowed) in compiled))
        object.__setattr__(self, "decision_bodies", tuple(
            _compile_rule(domains, rule)[0] for rule in self.decision_rules))

    def problem(self, initial: State, action_budget: Optional[int] = None) -> ProblemSpec:
        """The problem of this model from ``initial``, under ``action_budget``.

        It equals ``ProblemSpec`` built from the model's domains and rules
        with that start and budget, and raises the same errors; it shares
        the model and its tables."""
        problem = object.__new__(ProblemSpec)
        vars(problem).update(domains=self.domains, causal_rules=self.causal_rules,
                             decision_rules=self.decision_rules, initial=initial,
                             action_budget=action_budget)
        problem._bind(self)
        return problem


@dataclass(frozen=True)
class ProblemSpec:
    """A complete recourse planning problem: a :class:`Model` and one start.

    Holds the feature domains, the causal rules, the decision rules that
    currently fire for the individual, the initial state, and an optional cap
    on planner expansions.  The plausibility constraints live on the domains
    alone, as each feature's ``mutable`` and ``monotonicity``, set when a
    feature is built (:func:`~recourseplan.dsl.parse_problem` and
    :func:`~recourseplan.generate.random_problem` do so; code that builds a
    problem passes them to :class:`~recourseplan.domains.FeatureDomain`).

    Construction builds the problem's ``model`` from its domains and rules,
    which compiles every rule once, and binds the initial state to it
    (:meth:`_bind`); :meth:`Model.problem` binds a start to a model that
    exists.  The compiled rule tables live on the model alone: the planner
    and the kernel read ``problem.model.causal_tables`` and
    ``problem.model.decision_bodies``.  The model takes no part in
    equality: two problems are equal when their domains, rules, start and
    budget are.
    """

    domains: Domains
    causal_rules: tuple[Rule, ...] = ()
    decision_rules: tuple[Rule, ...] = ()
    initial: State = None  # type: ignore[assignment]
    action_budget: Optional[int] = None
    model: Model = field(default=None, init=False, compare=False,  # type: ignore[assignment]
                         repr=False)

    def __post_init__(self) -> None:
        self._bind(None)

    def _bind(self, model: Optional[Model]) -> None:
        """Bind the initial state to ``model``, or to a model compiled from
        the problem's own domains and rules when it is ``None``.

        The initial state is re-bound to the domains when it sits on other
        domains that declare the same features with the same labels or
        intervals, in order (their constraint flags may differ); otherwise
        ``ValueError`` names the first feature that differs.  A model is
        compiled after that, so a rule's error comes after the initial
        state's and before the budget's.  Then the budget must be positive,
        and the state must satisfy every causal rule."""
        if self.initial is None:
            raise SemanticError("missing-initial", "problem has no initial state")
        if self.initial.domains is not self.domains:
            for f, g in zip_longest(self.domains, self.initial.domains):
                if (f is None or g is None
                        or (f.name, f.labels, f.intervals) != (g.name, g.labels, g.intervals)):
                    raise ValueError(f"the initial state's feature {(f or g).name!r} is not the problem's")
            object.__setattr__(self, "initial",
                               State(self.domains, self.initial.idx, self.initial.reps))
        if model is None:
            model = Model(self.domains, self.causal_rules, self.decision_rules)
        object.__setattr__(self, "model", model)
        if self.action_budget is not None and self.action_budget <= 0:
            raise ValueError("action budget must be positive")
        if not none_holds(model.causal_tables, self.initial.idx):
            raise SemanticError("causally-inconsistent-initial",
                                "initial state violates a causal rule")

    @property
    def state_count(self) -> int:
        return self.domains.state_count
