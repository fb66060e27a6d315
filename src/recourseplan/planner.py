"""Planning runs: from the initial state to a counterfactual state.

:func:`get_path` decides two starts itself and hands every other one to the
kernel's breadth-first search over causally consistent states
(:meth:`~recourseplan.kernel.CompiledProblem.search`), which returns the
found path as steps; the planner replays them into the trace.

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

The trace is the found path with each repair chain's inconsistent
intermediates; every entry carries the one action id that left it and says
whether its state is causally consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .domains import CandidatePath, State
from .errors import EmptySequenceError, NotASolution
from .kernel import CompiledProblem, doomed
from .rules import ProblemSpec, none_holds
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
    """Record of one finished planning run; mutable, so a caller may truncate it.

    ``entries`` holds the found path in order.  Each consistent state carries
    the id of the action that left it, each causally inconsistent
    intermediate of a repair chain the id of the repair that left it, and the
    goal none; each entry says itself whether its state is causally
    consistent.  A run that ends in ``failure`` or ``budget-exhausted`` keeps
    the root entry alone, with no action.  ``expansions`` counts the states
    the search expanded.
    """

    entries: list[TraceEntry]
    status: str  # success | failure | budget-exhausted
    expansions: int = 0

    def pop_last(self) -> TraceEntry:
        if not self.entries:
            raise EmptySequenceError("trace is empty")
        return self.entries.pop()

    def entry_records(self) -> Iterator[tuple[TraceEntry, bool]]:
        return ((entry, entry.consistent) for entry in self.entries)


# the algorithm ----------------------------------------------------------------

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
    # construction rejects an inconsistent start, so this is the goal test
    if none_holds(problem.model.decision_bodies, root):
        return PathTrace([TraceEntry(problem.initial)], "success")
    if doomed(problem, root):
        return PathTrace([TraceEntry(problem.initial)], "failure")
    kernel = CompiledProblem(problem)
    # the default budget is generous for any enumerable instance
    budget = problem.action_budget or max(1, 10 * len(kernel.moves) * len(problem.domains))
    status, expansions, steps = kernel.search(root, budget)
    # each entry's state is its predecessor's moved by the action between them
    # (:meth:`~recourseplan.domains.State.with_value`), so it keeps the
    # predecessor's witnesses except on the feature that action wrote
    moves, state, entries = kernel.moves, problem.initial, []
    for k, consistent in steps:
        entries.append(TraceEntry(state, (kernel.action_id(k),), consistent))
        state = state.with_value(*moves[k][:2])
    entries.append(TraceEntry(state))
    return PathTrace(entries, status, expansions)


def extract_candidate_path(trace: PathTrace) -> CandidatePath:
    """Project a successful trace onto its causally consistent states."""
    if trace.status != "success":
        raise NotASolution(f"trace status is {trace.status!r}")
    states = tuple(entry.state for entry in trace.entries if entry.consistent)
    return CandidatePath(states)
