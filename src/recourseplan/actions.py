"""Construction and application of the finite intervention set.

Every intervention writes exactly one feature.  Direct actions exist for each
(mutable feature, value) pair and may land anywhere, including causally
inconsistent states.  Causal actions are derived from causal rules: guarded
by the rule body, they set the head feature to a value satisfying the head,
and survive construction only if, from every state where the guard holds,
applying them yields a causally consistent state.  Plausibility constraints
never add states; they only filter which actions are permitted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .domains import Domains, FeatureValue, State
from .errors import NotApplicable
from .kernel import CompiledProblem
from .rules import Literal, Pairs, ProblemSpec, Rule, compile_literals, literal_support


@dataclass(frozen=True)
class Action:
    """A named single-feature state transformer."""

    id: str
    kind: str  # "direct" | "causal"
    feature: str
    feature_index: int
    new_index: int
    guard: tuple[Literal, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("direct", "causal"):
            raise ValueError(f"unknown action kind {self.kind!r}")
        if self.kind == "direct" and self.guard:
            raise ValueError("direct actions carry no guard")

    def new_value(self, domains: Domains) -> FeatureValue:
        f = domains[self.feature_index]
        return f.labels[self.new_index] if f.kind == "categorical" else f.intervals[self.new_index]


def build_direct_actions(domains: Domains) -> tuple[Action, ...]:
    """One action per (mutable feature, value), in declaration then domain order."""
    actions = []
    for fi, f in enumerate(domains):
        if not f.mutable:
            continue
        for vi in range(f.size):
            actions.append(Action(
                id=f"direct:{f.name}:{f.value_text(vi)}",
                kind="direct",
                feature=f.name,
                feature_index=fi,
                new_index=vi,
            ))
    return tuple(actions)


def _always_consistent_after(kernel: CompiledProblem, guard: Pairs,
                             feature_index: int, new_index: int) -> bool:
    """Whether setting the feature yields a consistent state from every guard state.

    Only features mentioned by some causal rule or by the guard can influence
    either the guard or consistency, so the sweep ranges over just those and
    pins the rest, keeping verification cheap on large spaces.  A guard
    feature ranges over the values all of its literals allow, and the written
    feature is fixed at its new value.
    """
    relevant = {fi for fi, _ in guard}
    for body, head_pos, _ in kernel.causal:
        relevant.update(i for i, _ in body)
        relevant.add(head_pos)
    axes = [range(f.size) if fi in relevant else range(1) for fi, f in enumerate(kernel.domains)]
    for fi, allowed in guard:
        axes[fi] = sorted(allowed.intersection(axes[fi]))
    axes[feature_index] = (new_index,)
    return all(map(kernel.consistent, itertools.product(*axes)))


def build_causal_actions(causal_rules: Sequence[Rule], domains: Domains) -> tuple[Action, ...]:
    """Verified repairs derived from causal rules.

    For each rule ``body => head`` and each head-feature value satisfying the
    head, the candidate sets that value under the body as guard.  Candidates
    that can produce an inconsistent state from any guard-satisfying state
    are discarded; the same mutation stays reachable as a direct action.
    """
    kernel = CompiledProblem(domains, causal_rules)
    actions = []
    for rule in causal_rules:
        assert rule.head is not None
        fi = domains.index(rule.head.feature)
        f = domains[fi]
        if not f.mutable:
            continue
        guard = compile_literals(domains, rule.body)
        for vi in sorted(literal_support(f, rule.head)):
            if not _always_consistent_after(kernel, guard, fi, vi):
                continue
            actions.append(Action(
                id=f"causal:{rule.id}:{f.name}:{f.value_text(vi)}",
                kind="causal",
                feature=f.name,
                feature_index=fi,
                new_index=vi,
                guard=rule.body,
            ))
    return tuple(actions)


def build_actions(problem: ProblemSpec) -> tuple[Action, ...]:
    """The full ordered action set: causal repairs first, then direct moves."""
    return (build_causal_actions(problem.causal_rules, problem.domains)
            + build_direct_actions(problem.domains))


def is_permitted(action: Action, state: State) -> bool:
    """Whether applying the action to this state is allowed.

    Requires the guard (if any) to hold, the target value to actually change,
    and the move to respect immutability and monotonicity.
    """
    f = state.domains[action.feature_index]
    if not f.mutable:
        return False
    current = state.idx[action.feature_index]
    if current == action.new_index:
        return False
    if f.monotonicity == "nondecreasing" and action.new_index < current:
        return False
    if f.monotonicity == "nonincreasing" and action.new_index > current:
        return False
    for lit in action.guard:
        support = literal_support(state.domains.by_name(lit.feature), lit)
        if state.idx[state.domains.index(lit.feature)] not in support:
            return False
    return True


def apply_action(action: Action, state: State) -> State:
    """Apply a permitted action; the result differs in exactly the target feature."""
    if not is_permitted(action, state):
        raise NotApplicable(f"action {action.id!r} is not permitted in this state")
    return state.with_value(action.feature_index, action.new_index)
