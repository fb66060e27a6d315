"""Backtracking search from the initial state to a counterfactual state.

The search keeps a visited-states trace of ``(state, actions_taken)`` pairs.
Each step selects the first action (causal repairs before direct moves, then
declaration order) whose outcome is a causally consistent state not seen
before, records any causally inconsistent intermediates the repair chain
passes through, and appends the consistent outcome.  Dead ends backtrack:
the exhausted state is remembered so it is never entered again, which bounds
the whole run by one expansion per consistent state.

Repair chains share a per-run exit table (:func:`_complete`).  A state's
first entry steps its actions lazily; its second entry stores every exit,
which later entries read.  Tabling on second entry pays only for states that
chains come back to: on some runs a few thousand states take hundreds of
thousands of entries, on others nearly every state is entered once.  The
scan for the next move (:func:`_select_action`) checks only the causal rules
that name the feature an action writes, since out of a consistent entry no
other rule can change.  A rescan after backtracking resumes after the last
attempted action, which is exact because every earlier skip still holds:
permission, completion and outcomes never change, the path below the entry
is the same, and the exhausted set only grows.

A run ends in one of three statuses: ``success`` (the last trace state is a
goal), ``failure`` (every alternative was exhausted), or
``budget-exhausted`` (the expansion budget ran out first).
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
Exit = tuple[int, Index, bool]  # action position, successor, successor consistent
ExitTable = dict[Index, Optional[list[Exit]]]


def _complete(kernel: CompiledProblem, start: Index, dead: set[Index],
              exits: ExitTable) -> ChainResult:
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

    ``exits`` is the run's exit table.  The first time any chain enters a
    state, it is stepped lazily, one action at a time as the search reads it
    (most states of some runs are entered once, and left after one step).
    The second entry steps every action once and stores the state's
    ``(position, successor, consistent)`` triples, which every later entry
    reads instead of stepping.  ``seen`` and ``dead`` are tested as each exit
    is read, so a stored exit yields exactly what stepping would have.
    """
    consistent, step = kernel.consistent, kernel.step
    if consistent(start):
        return start, ()
    positions = range(len(kernel.moves))
    seen = {start}

    def stepped(idx: Index) -> Iterator[Exit]:
        for k in positions:
            nxt = step(k, idx)
            if nxt is not None and nxt not in seen and nxt not in dead:
                yield k, nxt, consistent(nxt)

    def exits_of(idx: Index) -> Iterator[Exit]:
        if idx not in exits:
            exits[idx] = None
            return stepped(idx)
        table = exits[idx]
        if table is None:
            table = exits[idx] = [(k, nxt, consistent(nxt)) for k in positions
                                  if (nxt := step(k, idx)) is not None]
        return iter(table)

    stack: list[tuple[Index, Iterator[Exit]]] = [(start, exits_of(start))]
    edges: list[ChainEdge] = []
    while stack:
        idx, pending = stack[-1]
        for k, nxt, ok in pending:
            if nxt in seen or nxt in dead:
                continue
            edges.append((idx, k))
            if ok:
                return nxt, tuple(edges)
            seen.add(nxt)
            stack.append((nxt, exits_of(nxt)))
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
    with the witnesses of the state each was first computed from, the
    inconsistent states from which no repair chain completes, and the exit
    table the repair chains share (see :func:`_complete`).
    """

    entries: list[TraceEntry] = field(default_factory=list)
    status: str = "in-progress"  # then: success | failure | budget-exhausted
    expansions: int = 0
    _consistent: list[bool] = field(default_factory=list, repr=False)
    _live: dict[Index, int] = field(default_factory=dict, repr=False)
    _exhausted: set[Index] = field(default_factory=set, repr=False)
    _chain_memo: dict[Index, tuple[Reps, ChainResult]] = field(default_factory=dict, repr=False)
    _dead: set[Index] = field(default_factory=set, repr=False)
    _exits: ExitTable = field(default_factory=dict, repr=False)

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
                                           _complete(kernel, idx, self._dead, self._exits))
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
        trace._push(TraceEntry(State(domains, source, reps), (kernel.ids[k],)), False)
        reps = _written(reps, kernel.moves[k][0])
    trace._push(TraceEntry(State(domains, final, reps)), True)


def _select_action(trace: PathTrace, kernel: CompiledProblem, entry: TraceEntry,
                   entry_consistent: bool) -> Optional[tuple[int, Index, bool]]:
    """First action after the entry's last attempted one whose consistent
    outcome is new to this run.

    Skips actions not permitted here, actions with no consistent completion,
    and actions whose outcome is the current state, sits on the current path,
    or is a known dead end.  Returns the action's position, its raw outcome
    and whether that outcome is causally consistent.

    Resuming a rescan after backtracking changes no choice: every earlier
    action was attempted or skipped, and each skip still holds.  Permission,
    completion and the outcome of an action never change; the path below the
    entry is the one it had when it was first scanned; and the exhausted set
    only grows.  Out of a consistent entry an action writes one feature, so
    only the causal rules that name it are checked.
    """
    state, taken = entry.state, entry.actions_taken
    idx, reps = state.idx, state.reps
    step, moves = kernel.step, kernel.moves
    live, exhausted = trace._live, trace._exhausted
    if entry_consistent:
        consistent = kernel.consistent_after
    else:  # an inconsistent root: rules off the written feature may fail too
        def consistent(feature_index: int, raw: Index) -> bool:
            return kernel.consistent(raw)
    start = kernel.ids.index(taken[-1]) + 1 if taken else 0  # action ids are unique
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
    entry, consistent = trace._pop()
    while True:
        choice = _select_action(trace, kernel, entry, consistent)
        if choice is not None:
            break
        trace._exhausted.add(entry.state.idx)
        trace.discard_inconsistent_tail()
        if not trace.entries:
            trace._push(entry, consistent)
            return False
        entry, consistent = trace._pop()
    k, raw, ok = choice
    state = entry.state
    trace._push(TraceEntry(state, entry.actions_taken + (kernel.ids[k],)), consistent)
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
    """
    kernel = CompiledProblem(problem)
    # the default budget is generous for any enumerable instance
    budget = problem.action_budget or max(1, 10 * len(kernel.moves) * len(problem.domains))
    trace = PathTrace()
    trace._push(TraceEntry(problem.initial, ()), kernel.consistent(problem.initial.idx))
    while not kernel.goal(trace.entries[-1].state.idx):
        if trace.expansions >= budget:
            trace.status = "budget-exhausted"
            return trace
        if not _intervene(trace, kernel):
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
