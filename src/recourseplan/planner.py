"""Backtracking search from the initial state to a counterfactual state.

The search keeps a visited-states trace of ``(state, actions_taken)`` pairs.
Each step selects the first action (causal repairs before direct moves, then
declaration order) whose outcome is a causally consistent state not seen
before, records any causally inconsistent intermediates the repair chain
passes through, and appends the consistent outcome.  Dead ends backtrack:
the exhausted state is remembered so it is never entered again, which bounds
the whole run by one expansion per consistent state.

A run ends in one of three statuses: ``success`` (the last trace state is a
goal), ``failure`` (every alternative was exhausted), or
``budget-exhausted`` (the expansion budget ran out first).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

from .actions import build_actions
from .domains import State
from .errors import EmptySequenceError, NotASolution, PlanFailure
from .kernel import CompiledProblem, Index
from .rules import ProblemSpec
from .rules import is_counterfactual as is_counterfactual  # re-export: callers import it from here


class TraceEntry(NamedTuple):
    """A visited state together with the action ids attempted from it."""

    state: State
    actions_taken: tuple[str, ...] = ()


# chain completion ----------------------------------------------------------

Reps = tuple[Optional[int], ...]
ChainEdge = tuple[Index, int]
ChainResult = Optional[tuple[Index, tuple[ChainEdge, ...]]]


def _complete(kernel: CompiledProblem, start: Index, dead: set[Index]) -> ChainResult:
    """First causally consistent state reachable from ``start``.

    Depth-first over repair chains: at every inconsistent state the ordered
    action list is tried (causal repairs first), never re-entering a state
    already seen within this chain.  Returns the consistent endpoint plus the
    (state, action position) edges leading to it, or ``None`` when no
    completion exists.

    ``dead`` holds inconsistent states from which no consistent state is
    reachable; they are skipped like seen ones, which changes no result.  A
    failed search expanded every state it saw with every action, so all of
    them are added to it.
    """
    consistent, step = kernel.consistent, kernel.step
    if consistent(start):
        return start, ()
    positions = range(len(kernel.moves))
    seen = {start}
    stack: list[tuple[Index, Iterator[int]]] = [(start, iter(positions))]
    edges: list[ChainEdge] = []
    while stack:
        idx, pending = stack[-1]
        for k in pending:
            nxt = step(k, idx)
            if nxt is None or nxt in seen or nxt in dead:
                continue
            edges.append((idx, k))
            if consistent(nxt):
                return nxt, tuple(edges)
            seen.add(nxt)
            stack.append((nxt, iter(positions)))
            break
        else:
            stack.pop()
            if edges:
                edges.pop()
    dead.update(seen)
    return None


def _written(reps: Reps, feature_index: int) -> Reps:
    """Witnesses after an action writes the feature: its concrete value is gone."""
    return reps[:feature_index] + (None,) + reps[feature_index + 1:]


# the trace -------------------------------------------------------------------

@dataclass
class PathTrace:
    """Mutable record of one planning run.

    ``entries`` is the visited-states list in visit order, including causally
    inconsistent intermediates of repair chains.  The trace also carries the
    run bookkeeping, keyed by index tuples: which states sit on the current
    path, which are known dead ends, memoized repair-chain outcomes together
    with the witnesses of the state each was first computed from, and the
    inconsistent states from which no repair chain completes.
    """

    entries: list[TraceEntry] = field(default_factory=list)
    status: str = "in-progress"  # then: success | failure | budget-exhausted
    expansions: int = 0
    _consistent: list[bool] = field(default_factory=list, repr=False)
    _live: dict[Index, int] = field(default_factory=dict, repr=False)
    _exhausted: set[Index] = field(default_factory=set, repr=False)
    _chain_memo: dict[Index, tuple[Reps, ChainResult]] = field(default_factory=dict, repr=False)
    _dead: set[Index] = field(default_factory=set, repr=False)

    def _push(self, entry: TraceEntry, consistent: bool) -> None:
        self.entries.append(entry)
        self._consistent.append(consistent)
        idx = entry.state.idx
        self._live[idx] = self._live.get(idx, 0) + 1

    def _pop(self) -> tuple[TraceEntry, bool]:
        if not self.entries:
            raise EmptySequenceError("trace is empty")
        entry = self.entries.pop()
        idx = entry.state.idx
        n = self._live[idx] - 1
        if n:
            self._live[idx] = n
        else:
            del self._live[idx]
        return entry, self._consistent.pop()

    def pop_last(self) -> TraceEntry:
        return self._pop()[0]

    def discard_inconsistent_tail(self) -> None:
        while self.entries and not self._consistent[-1]:
            self._pop()

    def _chain(self, kernel: CompiledProblem, idx: Index, reps: Reps) -> tuple[Reps, ChainResult]:
        """Memoized repair chain from ``idx``, with the witnesses it was first found with."""
        if idx in self._dead:
            return reps, None
        hit = self._chain_memo.get(idx)
        if hit is None:
            hit = self._chain_memo[idx] = (reps, _complete(kernel, idx, dead=self._dead))
        return hit

    def entry_records(self) -> Iterator[tuple[TraceEntry, bool]]:
        return zip(self.entries, self._consistent)


@dataclass(frozen=True)
class CandidatePath:
    """The trace with causally inconsistent intermediates removed."""

    states: tuple[State, ...]

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[State]:
        return iter(self.states)


# the algorithm ----------------------------------------------------------------

def _make_consistent(trace: PathTrace, kernel: CompiledProblem, idx: Index,
                     reps: Reps) -> TraceEntry:
    """The consistent entry an action's raw outcome ``idx`` settles in.

    An inconsistent outcome replays its memoized repair chain, with the
    witnesses it was first found with, and records every inconsistent
    intermediate in the trace.
    """
    domains = kernel.domains
    if kernel.consistent(idx):
        return TraceEntry(State(domains, idx, reps))
    reps, result = trace._chain(kernel, idx, reps)
    final, edges = result  # _select_action only picks outcomes whose chain completes
    for source, k in edges:
        trace._push(TraceEntry(State(domains, source, reps), (kernel.ids[k],)), False)
        reps = _written(reps, kernel.moves[k][0])
    return TraceEntry(State(domains, final, reps))


def _select_action(trace: PathTrace, kernel: CompiledProblem, state: State,
                   taken: tuple[str, ...]) -> Optional[tuple[int, Index]]:
    """First action whose consistent outcome is new to this run.

    Skips actions already attempted from this entry, actions not permitted
    here, actions with no consistent completion, and actions whose outcome
    is the current state, sits on the current path, or is a known dead end.
    Returns the action's position and its raw outcome.
    """
    consistent, step, moves = kernel.consistent, kernel.step, kernel.moves
    idx, live, exhausted = state.idx, trace._live, trace._exhausted
    for k, action_id in enumerate(kernel.ids):
        if action_id in taken:
            continue
        raw = step(k, idx)
        if raw is None:
            continue
        if consistent(raw):
            final = raw
        else:
            result = trace._chain(kernel, raw, _written(state.reps, moves[k][0]))[1]
            if result is None:
                continue
            final = result[0]
        if final == idx or final in live or final in exhausted:
            continue
        return k, raw
    return None


def _intervene(trace: PathTrace, kernel: CompiledProblem) -> None:
    entry, consistent = trace._pop()
    while True:
        choice = _select_action(trace, kernel, entry.state, entry.actions_taken)
        if choice is not None:
            break
        trace._exhausted.add(entry.state.idx)
        trace.discard_inconsistent_tail()
        if not trace.entries:
            trace._push(entry, consistent)
            raise PlanFailure("backtracking exhausted the search space", last_entry=entry)
        entry, consistent = trace._pop()
    k, raw = choice
    state = entry.state
    trace._push(TraceEntry(state, entry.actions_taken + (kernel.ids[k],)), consistent)
    reps = _written(state.reps, kernel.moves[k][0])
    trace._push(_make_consistent(trace, kernel, raw, reps), True)


def get_path(problem: ProblemSpec) -> PathTrace:
    """Run the full search and return the visited-states trace.

    Deterministic for a given problem.  The trace ends in ``success`` with a
    goal state last, in ``failure`` when the reachable space holds no goal,
    or in ``budget-exhausted`` when the expansion budget ran out.
    """
    actions = build_actions(problem)
    kernel = CompiledProblem(problem.domains, problem.causal_rules,
                             problem.decision_rules, actions)
    # the default budget is generous for any enumerable instance
    budget = problem.action_budget or max(1, 10 * len(actions) * len(problem.domains))
    trace = PathTrace()
    trace._push(TraceEntry(problem.initial, ()), kernel.consistent(problem.initial.idx))
    while not kernel.goal(trace.entries[-1].state.idx):
        if trace.expansions >= budget:
            trace.status = "budget-exhausted"
            return trace
        try:
            _intervene(trace, kernel)
        except PlanFailure:
            trace.status = "failure"
            return trace
        trace.expansions += 1
    trace.status = "success"
    return trace


def extract_candidate_path(trace: PathTrace) -> CandidatePath:
    """Project a successful trace onto its causally consistent states."""
    if trace.status != "success":
        raise NotASolution(f"trace status is {trace.status!r}")
    states = tuple(entry.state for entry, ok in trace.entry_records() if ok)
    return CandidatePath(states)
