"""Breadth-first search from the initial state to a counterfactual state.

The search runs over causally consistent states.  It expands its frontier in
discovery order, each state by every action in order (causal repairs before
direct moves, then declaration order).  An action whose outcome is causally
consistent leads there.  One whose outcome breaks a causal rule continues
through a repair chain, which the kernel walks afresh
(:meth:`~recourseplan.kernel.CompiledProblem.complete`): the first causally
consistent state in breadth-first order from the raw outcome.  An action
with no consistent completion leads nowhere.  A move writes one feature, so
one pass over the causal rules' breaking tables and one over the decision
rules' tables at the expanded state decide every one-move outcome
(:func:`~recourseplan.rules.after_one_move`): whether it breaks a causal
rule and, when it does not, whether it is a goal, each by one set lookup.
Only a repair chain's endpoint is tested against the decision rules' tables
by the one membership test (:func:`~recourseplan.rules.none_holds`).

A state is tested for the goal when it is discovered, and no state is
entered twice.  So the found path has the fewest consistent states of any
path these moves make, and each reachable consistent state is expanded at
most once, which bounds the whole run.  The trace is the found path with
each repair chain's inconsistent intermediates, replayed from the repair
positions its hop recorded; every entry carries the one action id that left
it.

A run ends in one of three statuses: ``success`` (the last trace state is a
goal), ``failure`` (the search expanded every reachable consistent state, or
none exists), or ``budget-exhausted`` (the expansion budget ran out first).
The last two keep only the root entry.  A run whose initial state is a goal
succeeds with that one entry.  A run whose initial state is doomed
(:func:`~recourseplan.kernel.doomed`: its reach box, which holds every state
reachable from it, is cut in two along straddled literals until each part is
ruled out, within a fixed number of boxes) fails with that one entry, before
any budget is counted.  Both tests read the problem's tables, so only a run
that searches builds the kernel and its action list (the causal-repair guard
sweep).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

from .domains import CandidatePath, State
from .errors import EmptySequenceError, NotASolution
from .kernel import CompiledProblem, Index, doomed
from .rules import ProblemSpec, after_one_move, none_holds
from .rules import is_counterfactual as is_counterfactual  # re-export: callers import it from here


class TraceEntry(NamedTuple):
    """A path state, the id of the action that left it (none for the last
    state), and whether the state is causally consistent (a repair chain's
    intermediates are not)."""

    state: State
    actions_taken: tuple[str, ...] = ()
    consistent: bool = True


# the trace -------------------------------------------------------------------

@dataclass
class PathTrace:
    """Mutable record of one planning run.

    ``entries`` holds the found path in order.  Each consistent state carries
    the id of the action that left it, each causally inconsistent
    intermediate of a repair chain the id of the repair that left it, and the
    goal none; each entry says itself whether its state is causally
    consistent.  A run that ends in ``failure`` or ``budget-exhausted`` keeps
    the root entry alone, with no action.  ``expansions`` counts the states
    the search expanded.
    """

    entries: list[TraceEntry] = field(default_factory=list)
    status: str = "in-progress"  # then: success | failure | budget-exhausted
    expansions: int = 0

    def pop_last(self) -> TraceEntry:
        if not self.entries:
            raise EmptySequenceError("trace is empty")
        return self.entries.pop()

    def entry_records(self) -> Iterator[tuple[TraceEntry, bool]]:
        return ((entry, entry.consistent) for entry in self.entries)


# the algorithm ----------------------------------------------------------------

# each discovered consistent state: the state it was discovered from, the
# action position that led there and the positions of the repair chain that
# followed it, if any (``None`` for the root)
Parents = dict[Index, Optional[tuple[Index, int, tuple[int, ...]]]]


def _search(trace: PathTrace, kernel: CompiledProblem, budget: int) -> str:
    """Breadth-first search from the trace's root entry; returns the status.

    The frontier is expanded in order, each state by the ordered action list.
    An action's raw outcome is the successor when it is consistent, else the
    end of its repair chain (:meth:`~recourseplan.kernel.CompiledProblem.complete`);
    an action with no completion is skipped.  Each expansion builds the
    one-move tables of the causal and the decision rules at the expanded
    state (:func:`~recourseplan.rules.after_one_move`), so a raw outcome's
    consistency and a consistent one's goal test are set lookups, and only a
    chain's endpoint is tested by :func:`~recourseplan.rules.none_holds`.  A
    successor is tested for the goal when it is discovered, and no state is
    entered twice.  A successor's hop records its predecessor, its action
    and its chain's repair positions, from which, on success, the found path
    replaces the root entry (:func:`_record_path`).
    """
    root = trace.entries[0].state.idx
    step, complete, causal, decision = kernel.step, kernel.complete, kernel.causal, kernel.decision
    moves = kernel.moves
    parents: Parents = {root: None}
    frontier = [root]
    for idx in frontier:  # grows while it is read: a queue in discovery order
        if trace.expansions >= budget:
            return "budget-exhausted"
        trace.expansions += 1
        # idx is consistent and no goal: no breaking table holds there, so an
        # outcome is inconsistent exactly when its value is in ``breaking``,
        # and some decision table does, so ``named`` is a set
        breaking, _ = after_one_move(causal, idx)
        firing, named = after_one_move(decision, idx)
        for k, (fi, target, _) in enumerate(moves):
            raw = step(k, idx)
            if raw is None:
                continue
            if target in breaking[fi]:
                chain = complete(raw)
                if chain is None or chain[0] in parents:
                    continue
                final, repairs = chain
                goal = none_holds(decision, final)
            else:
                if raw in parents:
                    continue
                final, repairs = raw, ()
                goal = fi in named and target not in firing[fi]
            parents[final] = idx, k, repairs
            if goal:
                _record_path(trace, kernel, parents, final)
                return "success"
            frontier.append(final)
    return "failure"


def _record_path(trace: PathTrace, kernel: CompiledProblem, parents: Parents, goal: Index) -> None:
    """Replace the root entry by the path from it to ``goal``, with every
    repair chain's inconsistent intermediates.

    Each hop replays its action, then the repair positions it recorded: a
    hop's first entry is consistent and its repair entries are not.  Each
    entry's state is its predecessor's moved by the action between them
    (:meth:`~recourseplan.domains.State.with_value`), so it keeps the
    predecessor's witnesses except on the feature that action wrote.
    """
    hops = []
    idx = goal
    while (hop := parents[idx]) is not None:
        idx = hop[0]
        hops.append(hop)
    moves, entries = kernel.moves, trace.entries
    state = trace.pop_last().state
    for _, k, repairs in reversed(hops):
        entries.append(TraceEntry(state, (kernel.action_id(k),)))
        state = state.with_value(*moves[k][:2])
        for repair in repairs:
            entries.append(TraceEntry(state, (kernel.action_id(repair),), False))
            state = state.with_value(*moves[repair][:2])
    entries.append(TraceEntry(state))


def get_path(problem: ProblemSpec) -> PathTrace:
    """Run the full search and return the trace.

    Deterministic for a given problem.  The trace ends in ``success`` with a
    shortest path to a goal, in ``failure`` when the reachable space holds no
    goal, or in ``budget-exhausted`` when the expansion budget ran out.

    A start in the goal set ends the run at once in ``success``, and a
    doomed start (its reach box, cut until each part is ruled out, holds
    no goal) in ``failure``, each with the one root entry, no action and no
    expansion, before the kernel is built: only a run that searches builds
    it, and the default budget counts its actions.
    """
    root = problem.initial.idx
    trace = PathTrace([TraceEntry(problem.initial)])
    # construction rejects an inconsistent start, so this is the goal test
    if none_holds(problem.model.decision_bodies, root):
        trace.status = "success"
        return trace
    if doomed(problem, root):
        trace.status = "failure"
        return trace
    kernel = CompiledProblem(problem)
    # the default budget is generous for any enumerable instance
    budget = problem.action_budget or max(1, 10 * len(kernel.moves) * len(problem.domains))
    trace.status = _search(trace, kernel, budget)
    return trace


def extract_candidate_path(trace: PathTrace) -> CandidatePath:
    """Project a successful trace onto its causally consistent states."""
    if trace.status != "success":
        raise NotASolution(f"trace status is {trace.status!r}")
    states = tuple(entry.state for entry in trace.entries if entry.consistent)
    return CandidatePath(states)
