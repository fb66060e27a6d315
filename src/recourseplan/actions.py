"""The finite intervention set at the API boundary, and its application.

Every intervention writes exactly one feature.  Direct actions exist for each
(mutable feature, value) pair and may land anywhere, including causally
inconsistent states.  Causal actions are derived from causal rules: guarded
by the rule body, they set the head feature to a value satisfying the head,
and survive construction only if, from every state where the guard holds,
applying them yields a causally consistent state; a discarded repair's
mutation stays reachable as a direct action.  Plausibility constraints never
add states; they only filter which actions are permitted.

The list is built when a :class:`~recourseplan.kernel.CompiledProblem` is
constructed; :func:`build_actions` is its view as :class:`Action` objects.
:func:`is_permitted` and :func:`apply_action` are the State-level reference
semantics of one action.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domains import State
from .errors import NotApplicable
from .kernel import CompiledProblem
from .rules import Literal, ProblemSpec, literal_support


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


def build_actions(problem: ProblemSpec) -> tuple[Action, ...]:
    """The full ordered action set: causal repairs first, then direct moves.

    A view of the action list one :class:`CompiledProblem` builds, with its
    ids, order and guards (a repair's guard is its rule's body).
    """
    kernel = CompiledProblem(problem)
    domains = kernel.domains
    return tuple(
        Action(id=aid, kind="direct" if rule is None else "causal",
               feature=domains[fi].name, feature_index=fi, new_index=vi,
               guard=() if rule is None else rule.body)
        for aid, rule, (fi, vi, _) in zip(kernel.ids, kernel.rules, kernel.moves))


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
