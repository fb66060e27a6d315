"""Backtracking search from the initial state to a counterfactual state.

The search keeps a visited-states trace of ``(state, actions_taken)`` pairs.
Each step selects the first action (causal repairs before direct moves, then
declaration order) whose outcome is a causally consistent state not seen
before, records any causally inconsistent intermediates the repair chain
passes through, and appends the consistent outcome.  Dead ends backtrack:
the exhausted state is remembered so it is never entered again, which bounds
the whole run by one expansion per consistent state.

An action whose outcome breaks a causal rule continues through a repair
chain (:func:`_complete`): the first causally consistent state in
breadth-first order from the raw outcome.  The scan for the next move
(:func:`_select_action`) checks only the causal rules that name the feature
an action writes, since out of a consistent entry no other rule can change.
A rescan after backtracking resumes from the position stored with the entry,
one past its last attempted action, which is exact because every earlier
skip still holds: permission, completion and outcomes never change, the path
below the entry is the same, and the exhausted set only grows.

A run ends in one of three statuses: ``success`` (the last trace state is a
goal), ``failure`` (every alternative was exhausted, or none exists), or
``budget-exhausted`` (the expansion budget ran out first).  A run whose
initial state is a goal succeeds with that one entry.  A run whose initial
state is doomed (:meth:`~recourseplan.kernel.CompiledProblem.doomed`: a
split of its reach box, which holds every state reachable from it, finds no
goal within a fixed number of splits) fails with that one entry, before any
budget is counted.  Only a run
that takes a step builds the action list (the causal-repair guard sweep).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

from .domains import State
from .errors import EmptySequenceError, NotASolution
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
    """First causally consistent state reachable from ``start``, in
    breadth-first order.

    The frontier is expanded in order, each state by the ordered action list
    (causal repairs first), and no state is entered twice.  A state's
    consistency is tested when it is discovered: a consistent one ends the
    chain and is never expanded.  Returns the consistent endpoint plus the
    (state, action position) edges leading to it, or ``None`` when no
    completion exists.  So the chain is a shortest one, and where some action
    repairs the start in one step it is the first such action.

    ``dead`` holds inconsistent states from which no consistent state is
    reachable; they are skipped like entered ones, which changes no result,
    since every state reachable from a dead state is dead too.  A failed search saw
    only states of that kind, so all of them are added to it.  So is a start
    that :meth:`~recourseplan.kernel.CompiledProblem.unrepairable` rules out
    before any search.
    """
    consistent, step = kernel.consistent, kernel.step
    if consistent(start):
        return start, ()
    if kernel.unrepairable(start):
        dead.add(start)
        return None
    positions = range(len(kernel.moves))
    # each entered state: the edge it was discovered along
    parent: dict[Index, Optional[ChainEdge]] = {start: None}
    frontier = [start]
    for idx in frontier:  # grows while it is read: a queue in discovery order
        for k in positions:
            nxt = step(k, idx)
            if nxt is None or nxt in parent or nxt in dead:
                continue
            if consistent(nxt):
                edges: list[ChainEdge] = [(idx, k)]
                while (edge := parent[edges[-1][0]]) is not None:
                    edges.append(edge)
                return nxt, tuple(reversed(edges))
            parent[nxt] = idx, k
            frontier.append(nxt)
    dead.update(parent)
    return None


def _written(reps: Reps, feature_index: int) -> Reps:
    """Witnesses after an action writes the feature: its concrete value is gone."""
    return reps[:feature_index] + (None,) + reps[feature_index + 1:]


# the trace -------------------------------------------------------------------

@dataclass
class PathTrace:
    """Mutable record of one planning run.

    ``entries`` is the visited-states list in visit order, including causally
    inconsistent intermediates of repair chains.  Next to each entry the
    trace keeps whether it is causally consistent and the action position a
    rescan of it resumes from.  It also carries the run bookkeeping, keyed by
    index tuples: which states sit on the current path, which are known dead
    ends, memoized repair-chain outcomes together with the witnesses of the
    state each was first computed from, and the inconsistent states from which
    no repair chain completes (see :func:`_complete`).
    """

    entries: list[TraceEntry] = field(default_factory=list)
    status: str = "in-progress"  # then: success | failure | budget-exhausted
    expansions: int = 0
    _consistent: list[bool] = field(default_factory=list, repr=False)
    _resume: list[int] = field(default_factory=list, repr=False)
    _live: dict[Index, int] = field(default_factory=dict, repr=False)
    _exhausted: set[Index] = field(default_factory=set, repr=False)
    _chain_memo: dict[Index, tuple[Reps, ChainResult]] = field(default_factory=dict, repr=False)
    _dead: set[Index] = field(default_factory=set, repr=False)

    def _push(self, entry: TraceEntry, consistent: bool, resume: int = 0) -> None:
        self.entries.append(entry)
        self._consistent.append(consistent)
        self._resume.append(resume)
        idx = entry.state.idx
        self._live[idx] = self._live.get(idx, 0) + 1

    def _pop(self) -> tuple[TraceEntry, bool, int]:
        if not self.entries:
            raise EmptySequenceError("trace is empty")
        entry = self.entries.pop()
        idx = entry.state.idx
        n = self._live[idx] - 1
        if n:
            self._live[idx] = n
        else:
            del self._live[idx]
        return entry, self._consistent.pop(), self._resume.pop()

    def pop_last(self) -> TraceEntry:
        return self._pop()[0]

    def discard_inconsistent_tail(self) -> None:
        while self.entries and not self._consistent[-1]:
            self._pop()

    def _chain(self, kernel: CompiledProblem, idx: Index, reps: Reps,
               feature_index: int) -> ChainResult:
        """Memoized repair chain from ``idx``, the raw outcome of writing the
        feature of a state with witnesses ``reps``.

        The memo also keeps the outcome's witnesses from the state the chain
        was first found from; they are built only then.
        """
        if idx in self._dead:
            return None
        hit = self._chain_memo.get(idx)
        if hit is None:
            hit = self._chain_memo[idx] = (_written(reps, feature_index),
                                           _complete(kernel, idx, self._dead))
        return hit[1]

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

def _replay_chain(trace: PathTrace, kernel: CompiledProblem, idx: Index) -> None:
    """Record the memoized repair chain from an action's inconsistent outcome
    ``idx``, with the witnesses it was first found with: every inconsistent
    intermediate, then the consistent endpoint."""
    domains = kernel.domains
    reps, (final, edges) = trace._chain_memo[idx]  # _select_action only picks completing chains
    for source, k in edges:
        trace._push(TraceEntry(State(domains, source, reps), (kernel.action_id(k),)), False, k + 1)
        reps = _written(reps, kernel.moves[k][0])
    trace._push(TraceEntry(State(domains, final, reps)), True)


def _select_action(trace: PathTrace, kernel: CompiledProblem, entry: TraceEntry,
                   start: int) -> Optional[tuple[int, Index, bool]]:
    """First action from position ``start`` on (one past the entry's last
    attempted action) whose consistent outcome is new to this run.

    Skips actions not permitted here, actions with no consistent completion,
    and actions whose outcome is the current state, sits on the current path,
    or is a known dead end.  Returns the action's position, its raw outcome
    and whether that outcome is causally consistent.

    Resuming a rescan after backtracking changes no choice: every earlier
    action was attempted or skipped, and each skip still holds.  Permission,
    completion and the outcome of an action never change; the path below the
    entry is the one it had when it was first scanned; and the exhausted set
    only grows.  The entry is consistent (the initial state is, and only
    consistent entries are expanded), and an action writes one feature, so
    only the causal rules that name it are checked.
    """
    state = entry.state
    idx, reps = state.idx, state.reps
    step, moves = kernel.step, kernel.moves
    live, exhausted = trace._live, trace._exhausted
    consistent = kernel.consistent_after
    for k in range(start, len(moves)):
        raw = step(k, idx)
        if raw is None:
            continue
        fi = moves[k][0]
        ok = consistent(fi, raw)
        if ok:
            final = raw
        else:
            result = trace._chain(kernel, raw, reps, fi)
            if result is None:
                continue
            final = result[0]
        if final == idx or final in live or final in exhausted:
            continue
        return k, raw, ok
    return None


def _intervene(trace: PathTrace, kernel: CompiledProblem) -> bool:
    """Take the next move from the last trace entry, backtracking past
    exhausted entries; ``False`` when backtracking exhausts the space."""
    entry, consistent, resume = trace._pop()
    while True:
        choice = _select_action(trace, kernel, entry, resume)
        if choice is not None:
            break
        trace._exhausted.add(entry.state.idx)
        trace.discard_inconsistent_tail()
        if not trace.entries:
            trace._push(entry, consistent, resume)
            return False
        entry, consistent, resume = trace._pop()
    k, raw, ok = choice
    state = entry.state
    trace._push(TraceEntry(state, entry.actions_taken + (kernel.action_id(k),)), consistent, k + 1)
    if ok:
        reps = _written(state.reps, kernel.moves[k][0])
        trace._push(TraceEntry(State(kernel.domains, raw, reps)), True)
    else:
        _replay_chain(trace, kernel, raw)
    return True


def get_path(problem: ProblemSpec) -> PathTrace:
    """Run the full search and return the visited-states trace.

    Deterministic for a given problem.  The trace ends in ``success`` with a
    goal state last, in ``failure`` when the reachable space holds no goal,
    or in ``budget-exhausted`` when the expansion budget ran out.

    A start in the goal set ends the run at once in ``success``, and a
    doomed start (its reach box, split until each part is ruled out, holds
    no goal) in ``failure``, each with the one root entry, no attempted
    action and no expansion, before the action list is built: only a run
    that steps builds it, and the default budget counts its actions.
    """
    kernel = CompiledProblem(problem)
    trace = PathTrace()
    trace._push(TraceEntry(problem.initial, ()), True)  # construction rejects an inconsistent start
    if kernel.goal(problem.initial.idx):
        trace.status = "success"
        return trace
    if kernel.doomed(problem.initial.idx):
        trace.status = "failure"
        return trace
    kernel.compile_actions()
    # the default budget is generous for any enumerable instance
    budget = problem.action_budget or max(1, 10 * len(kernel.moves) * len(problem.domains))
    while True:
        if trace.expansions >= budget:
            trace.status = "budget-exhausted"
            return trace
        if not _intervene(trace, kernel):
            trace.status = "failure"
            return trace
        trace.expansions += 1
        if kernel.goal(trace.entries[-1].state.idx):
            trace.status = "success"
            return trace


def extract_candidate_path(trace: PathTrace) -> CandidatePath:
    """Project a successful trace onto its causally consistent states."""
    if trace.status != "success":
        raise NotASolution(f"trace status is {trace.status!r}")
    states = tuple(entry.state for entry, ok in trace.entry_records() if ok)
    return CandidatePath(states)
