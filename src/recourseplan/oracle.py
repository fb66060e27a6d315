"""Exhaustive ground truth for planning runs.

Everything here works by enumeration over the finite state space: the
causally consistent set, the decision-consistent set, the goal set, the
one-step transition relation, path validation, and a breadth-first shortest
path.  None of it consults the planner's search, so planner runs can be
checked against these results.  The strata share the planner's compiled rule
tests (``recourseplan.kernel``); the one-step relation and the shortest-path
search work on ``State`` objects, apart from them.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .actions import Action, apply_action, build_actions, is_permitted
from .domains import Domains, State
from .errors import CapExceeded
from .kernel import CompiledProblem
from .planner import CandidatePath
from .rules import ProblemSpec, Rule, is_causally_consistent, is_counterfactual

DEFAULT_STATE_CAP = 10**7
CAP_ENV_VAR = "RECOURSE_MAX_STATES"


def resolve_cap(cap: Optional[int] = None) -> int:
    """The enumeration cap: ``cap`` if given, else the environment, else the default."""
    if cap is not None:
        return cap
    env = os.environ.get(CAP_ENV_VAR)
    if not env:
        return DEFAULT_STATE_CAP
    if not env.strip().isdigit() or int(env) <= 0:
        raise ValueError(f"{CAP_ENV_VAR} must be a positive integer, got {env!r}")
    return int(env)


def _check_cap(domains: Domains, cap: Optional[int]) -> None:
    limit = resolve_cap(cap)
    if domains.state_count > limit:
        raise CapExceeded(domains.state_count, limit)


def enumerate_states(domains: Domains, cap: Optional[int] = None) -> Iterator[State]:
    """Every state exactly once, in declaration-then-domain order."""
    _check_cap(domains, cap)
    axes = [range(f.size) for f in domains]
    for idx in itertools.product(*axes):
        yield State(domains, idx)


def _consistent_states(problem: ProblemSpec,
                       cap: Optional[int]) -> Iterator[tuple[tuple[int, ...], bool]]:
    """The one stratum pass: each causally consistent index tuple, in
    enumeration order, with whether some decision rule fires there."""
    domains = problem.domains
    _check_cap(domains, cap)
    kernel = CompiledProblem(domains, problem.causal_rules, problem.decision_rules)
    fires = kernel.fires
    for idx in filter(kernel.consistent, itertools.product(*(range(f.size) for f in domains))):
        yield idx, fires(idx)


def enumerate_causally_consistent(problem: ProblemSpec,
                                  cap: Optional[int] = None) -> set[State]:
    """The subset of the state space satisfying every causal rule."""
    return {State(problem.domains, idx) for idx, _ in _consistent_states(problem, cap)}


def compute_goal_set(problem: ProblemSpec, cap: Optional[int] = None) -> set[State]:
    """Causally consistent states where no decision rule fires."""
    return {State(problem.domains, idx)
            for idx, fires in _consistent_states(problem, cap) if not fires}


@dataclass(frozen=True)
class StateSetReport:
    """Cardinalities of the state-space strata."""

    total_states: int
    causally_consistent: int
    decision_consistent: int
    goal: int

    def __post_init__(self) -> None:
        ok = (self.goal == self.causally_consistent - self.decision_consistent
              and self.goal <= self.causally_consistent <= self.total_states)
        if not ok:
            raise ValueError("inconsistent state-set cardinalities")


def state_set_report(problem: ProblemSpec, cap: Optional[int] = None) -> StateSetReport:
    """Count the full space, the consistent, decision-consistent and goal strata.

    Decision consistency is counted within the causally consistent stratum,
    so the identity ``goal + decision_consistent == causally_consistent``
    always holds.
    """
    fired = [fires for _, fires in _consistent_states(problem, cap)]
    return StateSetReport(problem.state_count, len(fired), sum(fired), fired.count(False))


# one-step transitions --------------------------------------------------------

def _repair(state: State, causal_rules: tuple[Rule, ...],
            actions: Sequence[Action], seen: set[State]) -> Optional[State]:
    # Depth-first repair: causal actions come first in the action order, no
    # state is entered twice within one chain.  Explicit stack of
    # (state, next action position) pairs so chain depth is unbounded.
    stack: list[tuple[State, int]] = [(state, 0)]
    while stack:
        current, position = stack[-1]
        descended = False
        for i in range(position, len(actions)):
            a = actions[i]
            if not is_permitted(a, current):
                continue
            nxt = apply_action(a, current)
            if nxt in seen:
                continue
            if is_causally_consistent(nxt, causal_rules):
                return nxt
            seen.add(nxt)
            stack[-1] = (current, i + 1)
            stack.append((nxt, 0))
            descended = True
            break
        if not descended:
            stack.pop()
    return None


def delta_oracle(state: State, problem: ProblemSpec,
                 actions: Optional[Sequence[Action]] = None) -> set[State]:
    """All causally consistent states reachable from ``state`` in one step.

    Each permitted action is applied; an inconsistent outcome continues along
    the deterministic repair policy (causal actions first, declaration order,
    no revisits within the chain).  The input state itself is never a member.
    """
    if actions is None:
        actions = build_actions(problem)
    causal_rules = problem.causal_rules
    out: set[State] = set()
    for a in actions:
        if not is_permitted(a, state):
            continue
        raw = apply_action(a, state)
        if is_causally_consistent(raw, causal_rules):
            final: Optional[State] = raw
        else:
            final = _repair(raw, causal_rules, actions, {raw})
        if final is not None and final != state:
            out.add(final)
    return out


def delta_oracle_liberal(state: State, problem: ProblemSpec,
                         actions: Optional[Sequence[Action]] = None) -> set[State]:
    """One-step successors under any repair order, not just the normative one.

    Explores the whole causally inconsistent region reachable from each raw
    action outcome and collects every consistent exit.  Always a superset of
    :func:`delta_oracle`; a strict superset signals that repair order matters
    at this state.
    """
    if actions is None:
        actions = build_actions(problem)
    causal_rules = problem.causal_rules
    out: set[State] = set()
    for a in actions:
        if not is_permitted(a, state):
            continue
        raw = apply_action(a, state)
        if is_causally_consistent(raw, causal_rules):
            out.add(raw)
            continue
        seen = {raw}
        frontier = [raw]
        while frontier:
            u = frontier.pop()
            for b in actions:
                if not is_permitted(b, u):
                    continue
                v = apply_action(b, u)
                if is_causally_consistent(v, causal_rules):
                    out.add(v)
                elif v not in seen:
                    seen.add(v)
                    frontier.append(v)
    out.discard(state)
    return out


# path validation ---------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    """Clause-by-clause verdict on a candidate path.

    The five clauses: the path starts at the initial state, ends in the goal
    set, stays causally consistent throughout, keeps every non-final state
    out of the goal set, and moves only along one-step transitions.
    ``liberal_divergence`` flags steps where a different repair order would
    have offered extra successors (informational only).
    """

    starts_at_initial: bool
    ends_in_goal: bool
    all_causally_consistent: bool
    prefix_avoids_goal: bool
    steps_are_transitions: bool
    liberal_divergence: bool = False

    @property
    def clause_results(self) -> tuple[bool, bool, bool, bool, bool]:
        return (self.starts_at_initial, self.ends_in_goal,
                self.all_causally_consistent, self.prefix_avoids_goal,
                self.steps_are_transitions)

    @property
    def overall(self) -> bool:
        return all(self.clause_results)


def validate_solution_path(path: CandidatePath, problem: ProblemSpec,
                           cap: Optional[int] = None) -> ValidationReport:
    """Check the five solution-path clauses by enumeration only."""
    if not path.states:
        raise ValueError("cannot validate an empty path")
    # one stratum pass: each consistent state, mapped to whether a decision rule fires
    fires = dict(_consistent_states(problem, cap))
    goal = {idx for idx, fired in fires.items() if not fired}
    states = path.states
    actions = build_actions(problem)
    steps_ok = True
    divergence = False
    for a, b in zip(states, states[1:]):
        canonical = delta_oracle(a, problem, actions)
        if b not in canonical:
            steps_ok = False
        if delta_oracle_liberal(a, problem, actions) != canonical:
            divergence = True
    return ValidationReport(
        starts_at_initial=states[0] == problem.initial,
        ends_in_goal=states[-1].idx in goal,
        all_causally_consistent=all(s.idx in fires for s in states),
        prefix_avoids_goal=all(s.idx not in goal for s in states[:-1]),
        steps_are_transitions=steps_ok,
        liberal_divergence=divergence,
    )


def bfs_shortest_path(problem: ProblemSpec, cap: Optional[int] = None,
                      actions: Optional[Sequence[Action]] = None) -> Optional[CandidatePath]:
    """Minimum-length solution path by breadth-first search, or ``None``.

    Used as a completeness and optimality cross-check: when this returns
    ``None`` the goal set is unreachable and a planning run must fail; when
    it returns a path, no correct run can be shorter.
    """
    _check_cap(problem.domains, cap)
    if actions is None:
        actions = build_actions(problem)
    causal_rules, decision_rules = problem.causal_rules, problem.decision_rules
    start = problem.initial
    if is_counterfactual(start, causal_rules, decision_rules):
        return CandidatePath((start,))
    parents: dict[State, State] = {start: start}
    frontier = [start]
    while frontier:
        nxt_frontier: list[State] = []
        for s in frontier:
            for t in sorted(delta_oracle(s, problem, actions), key=lambda x: x.idx):
                if t in parents:
                    continue
                parents[t] = s
                if is_counterfactual(t, causal_rules, decision_rules):
                    chain = [t]
                    while chain[-1] != start:
                        chain.append(parents[chain[-1]])
                    return CandidatePath(tuple(reversed(chain)))
                nxt_frontier.append(t)
        frontier = nxt_frontier
    return None
