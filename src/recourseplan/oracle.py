"""Exhaustive ground truth for planning runs.

The oracle computes the causally consistent set, the decision-consistent
set, the goal set, the one-step transition relation, path validation, and a
breadth-first shortest path.  None of it consults the planner's search, and
it evaluates rules and actions with its own tables (:class:`_Tables`), one
pair of allowed value indices per feature a rule or guard names
(:func:`_table`), not the planner's compiled kernel: a literal's truth on an
interval is read off the interval's smallest and largest elements, on a
categorical value off label equality.  The oracle builds its own action
list too (:func:`_own_actions`), in the order ``build_actions`` lists the
planner's, so a fault in the planner's repair sweep shows as a path the
oracle refuses; path validation builds it only when the path has a step to
check, and counting never.  ``delta_oracle`` and ``bfs_shortest_path`` also
take a caller's list.  The rule tables are compiled once per model
(:func:`_rule_tables`).  The oracle answers membership, counts and lengths:
the states it returns carry no numeric witnesses, and a verdict never reads
one (``State`` equality ignores them).

The strata are exact counts from one split of boxes (:func:`_leaves`), a
box holding a set of value indices per feature: a box is cut in two along a
pair of a table that holds on part of it until every rule is decided on it,
and counts as the product of its axis sizes.  No state is visited.  Each box
the split visits is non-empty, and the boxes it keeps or drops are disjoint,
so it visits fewer than twice as many boxes as there are declared states:
the cap bounds its work.  Path validation is path-local: the five clauses
are predicates on the path states plus one-step checks, so it enumerates
nothing and no state cap applies to it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Protocol, Sequence, Union

from .domains import CandidatePath, Domains, Monotonicity, State
from .errors import CapExceeded
from .rules import Literal, Model, ProblemSpec

DEFAULT_STATE_CAP = 10**7


def _check_cap(domains: Domains, cap: Optional[int] = None) -> None:
    limit = DEFAULT_STATE_CAP if cap is None else cap
    if domains.state_count > limit:
        raise CapExceeded(domains.state_count, limit)


# the oracle's rule and action tables ---------------------------------------------

Index = tuple[int, ...]
Pair = tuple[int, frozenset[int]]
Table = tuple[Pair, ...]
Box = tuple[frozenset[int], ...]
Successors = tuple[tuple[Index, bool], ...]

_COMPARE = {"=": operator.eq, "!=": operator.ne, "=<": operator.le,
            "<": operator.lt, ">=": operator.ge, ">": operator.gt}


def _literal_table(domains: Domains, lit: Literal, negated: bool = False) -> Pair:
    """The literal's feature position and the value indices where it holds,
    or where it fails when ``negated``.

    A categorical value holds when its label equality matches the operator.
    An interval holds when the comparison is true at both its smallest and
    its largest element (rule constants are interval boundaries, so the two
    agree on every interval of a valid problem).
    """
    pos = domains.index(lit.feature)
    f = domains[pos]
    if f.kind == "categorical":
        wanted = lit.op == "="
        held = (i for i, label in enumerate(f.labels) if (label == str(lit.const)) == wanted)
    else:
        compare = _COMPARE[lit.op]
        held = (i for i, iv in enumerate(f.intervals)
                if compare(iv.min_element, lit.const) and compare(iv.max_element, lit.const))
    return pos, frozenset(range(f.size)).difference(held) if negated else frozenset(held)


def _table(domains: Domains, literals: Sequence[Literal]) -> Table:
    """The states where every literal holds: one pair per feature, in order of
    first mention, with the pairs of a feature named twice intersected."""
    pairs: dict[int, frozenset[int]] = {}
    for i, allowed in (_literal_table(domains, lit) for lit in literals):
        pairs[i] = pairs[i] & allowed if i in pairs else allowed
    return tuple(pairs.items())


def _holds(table: Table, idx: Index) -> bool:
    for i, allowed in table:
        if idx[i] not in allowed:
            return False
    return True


def _on_boxes(tables: Sequence[Table], box: Box) -> tuple[Union[bool, Pair], list[Table]]:
    """``True`` when some table holds throughout ``box``; otherwise the first
    pair along which a table is undecided (its axis meets its values and
    leaves them), or ``False`` when none is, with the undecided tables: the
    only ones a part of ``box`` needs to test.  A table names each feature
    once, so an undecided one holds on part of the box, and one left out on
    none of it."""
    cut: Union[bool, Pair] = False
    live: list[Table] = []
    for table in tables:
        straddled: Optional[Pair] = None
        for i, allowed in table:
            axis = box[i]
            if axis.isdisjoint(allowed):
                break
            if straddled is None and not axis <= allowed:
                straddled = i, allowed
        else:
            if straddled is None:
                return True, []
            live.append(table)
            cut = cut or straddled
    return cut, live


@lru_cache(maxsize=256)
def _may_leave(mutable: bool, monotonicity: Monotonicity, size: int) -> tuple[frozenset[int], ...]:
    """For each target value index of a feature of ``size`` values, the
    current values from which a move may write it: none when the feature is
    immutable, never the target itself, and only from the side of the target
    that the feature's monotonicity allows.  Shared by every problem: at
    most 256 shapes, each holding ``size`` sets of fewer than ``size``
    indices."""
    if not mutable:
        return (frozenset(),) * size
    if monotonicity == "nondecreasing":
        return tuple(frozenset(range(target)) for target in range(size))
    if monotonicity == "nonincreasing":
        return tuple(frozenset(range(target + 1, size)) for target in range(size))
    full = frozenset(range(size))
    return tuple(full - {target} for target in range(size))


class ListedAction(Protocol):
    """What the oracle reads of an action a caller lists, such as
    :func:`~recourseplan.actions.build_actions`' ``Action`` objects."""

    feature_index: int
    new_index: int
    guard: tuple[Literal, ...]


RuleTables = tuple[tuple[Table, ...], tuple[Table, ...]]


@lru_cache(maxsize=1)
def _rule_tables(model: Model) -> RuleTables:
    """The model's causal and decision tables (see :class:`_Tables`),
    compiled once for the last model asked about, so the calls one
    ``validate`` makes and the starts of a model asked about in turn share
    them.  A model is immutable and equal only to itself, so a new model
    never meets another's tables.  One entry: a model the memo keeps alive
    outlives its problem, and a memo of 64 models made ``validate`` calls
    on a stream of new problems about 3% slower."""
    domains = model.domains
    return (tuple((_literal_table(domains, r.head, negated=True),) + _table(domains, r.body)
                  for r in model.causal_rules),
            tuple(_table(domains, r.body) for r in model.decision_rules))


def _own_actions(problem: ProblemSpec) -> Iterator[tuple[int, int, Table]]:
    """The oracle's own action list, as ``(feature index, new index, guard
    table)`` triples in ``build_actions``' order: causal repairs first, then
    one unguarded direct move per (mutable feature, value), in declaration
    then domain order.

    Each causal rule with a mutable head offers one repair per value its head
    allows, in value order, guarded by the rule's body.  The repair survives
    when, from every state of its guard, writing that value leaves every
    causal rule holding: narrow the full box to the guard, pin the head
    feature at the value, and keep the repair when every breaking table
    misses that box.  A guard no state meets gives an empty box, which every
    table misses.
    """
    domains = problem.domains
    causal = _rule_tables(problem.model)[0]
    full = [frozenset(range(n)) for n in domains.sizes]
    for table in causal:
        (fi, refused), guard = table[0], table[1:]
        if not domains[fi].mutable:
            continue
        box = list(full)
        for i, allowed in guard:
            box[i] = allowed
        vacuous = not all(box)
        for vi in sorted(full[fi] - refused):
            box[fi] = frozenset((vi,))
            # no cut and no table throughout: every breaking table misses the box
            if vacuous or not _on_boxes(causal, box)[0]:
                yield fi, vi, guard
    for fi, f in enumerate(domains):
        if f.mutable:
            for vi in range(f.size):
                yield fi, vi, ()


class _Tables:
    """One problem's rules and actions, tabled by the oracle on index tuples.

    ``causal`` holds one table per causal rule, of the states that break it
    (the negated head, then the body, which never names the head's feature),
    and ``decision`` the body table of each decision rule: each table names a
    feature once (:func:`_table`, :func:`_rule_tables`).
    ``moves`` holds one ``(feature index, new index, permission table)``
    triple per action in action order: the oracle's own list
    (:func:`_own_actions`), or the ``actions`` a caller passes.  The
    permission table pairs the written feature with its :func:`_may_leave`
    set for the target and adds the guard.  The layer works on endpoints
    only: which state an action or a repair reaches, never which actions
    led there.  One object serves one top-level call and remembers two
    things for it: the repair found from each raw outcome, and the dead
    states, from which no walk through causally inconsistent states reaches
    a consistent one.
    """

    __slots__ = ("causal", "decision", "moves", "_repairs", "_dead")

    def __init__(self, problem: ProblemSpec,
                 actions: Optional[Sequence[ListedAction]] = None) -> None:
        domains = problem.domains
        self.causal, self.decision = _rule_tables(problem.model)
        listed = (_own_actions(problem) if actions is None
                  else ((a.feature_index, a.new_index, _table(domains, a.guard)) for a in actions))
        leave = [_may_leave(f.mutable, f.monotonicity, f.size) for f in domains]
        self.moves = tuple((fi, target, ((fi, leave[fi][target]),) + guard)
                           for fi, target, guard in listed)
        self._repairs: dict[Index, Index] = {}
        self._dead: set[Index] = set()

    def consistent(self, idx: Index) -> bool:
        """Every causal implication holds: no table of breaking states holds."""
        for broken in self.causal:
            for i, allowed in broken:
                if idx[i] not in allowed:
                    break
            else:
                return False
        return True

    def goal(self, idx: Index) -> bool:
        """Consistent, and no decision rule's body holds."""
        return self.consistent(idx) and not any(_holds(body, idx) for body in self.decision)

    def successors(self, idx: Index) -> Successors:
        """``(outcome, outcome consistent)`` for every action permitted at
        ``idx``, in action order."""
        out = []
        for fi, target, permission in self.moves:
            for i, allowed in permission:
                if idx[i] not in allowed:
                    break
            else:
                raw = list(idx)
                raw[fi] = target
                nxt = tuple(raw)
                out.append((nxt, self.consistent(nxt)))
        return tuple(out)

    def _repair(self, raw: Index) -> Optional[Index]:
        """The state the repair policy reaches from an inconsistent raw
        outcome: the first consistent state in breadth-first order, where the
        frontier is expanded in order, each state by its successors in action
        order (causal repairs first), a state is tested when it is discovered
        and none is entered twice; ``None`` when no completion exists.

        A failed search saw only states from which no consistent state is
        reachable, its raw outcome among them: it adds them all to the dead
        states, which later searches skip like entered ones and which answer
        ``None`` for a dead raw outcome.  Neither changes a result."""
        if raw in self._repairs or raw in self._dead:
            return self._repairs.get(raw)
        dead = self._dead
        entered = {raw}
        frontier = [raw]
        for current in frontier:  # grows while it is read: a queue in discovery order
            for nxt, ok in self.successors(current):
                if nxt in entered or nxt in dead:
                    continue
                if ok:
                    self._repairs[raw] = nxt
                    return nxt
                entered.add(nxt)
                frontier.append(nxt)
        dead.update(entered)
        return None

    def canonical(self, idx: Index, succ: Successors) -> set[Index]:
        """The consistent one-step successors of ``idx``, given its
        :meth:`successors` ``succ``: the repair policy's outcome of each
        permitted action, other than ``idx`` itself (a move never writes the
        value it leaves, so only a repair chain can end there)."""
        finals = (raw if ok else self._repair(raw) for raw, ok in succ)
        return {t for t in finals if t is not None and t != idx}

    def liberal_exits(self, succ: Successors) -> Iterator[Index]:
        """Every consistent state some repair order reaches in one step from
        the state whose :meth:`successors` are ``succ``; only path
        validation's repair-order flag asks.

        One traversal of the causally inconsistent region below all the raw
        outcomes, so exits may repeat and may include the source state.  It
        skips the dead states the repair walks recorded, since none of them
        leads to an exit; :func:`_check_step` runs those walks first.
        """
        dead = self._dead
        seen: set[Index] = set()
        for raw, ok in succ:
            if ok:
                yield raw
                continue
            if raw in seen or raw in dead:
                continue
            seen.add(raw)
            frontier = [raw]
            while frontier:
                for nxt, nxt_ok in self.successors(frontier.pop()):
                    if nxt_ok:
                        yield nxt
                    elif nxt not in seen and nxt not in dead:
                        seen.add(nxt)
                        frontier.append(nxt)


# enumeration -----------------------------------------------------------------------

def enumerate_states(domains: Domains, cap: Optional[int] = None) -> Iterator[State]:
    """Every state exactly once, in declaration-then-domain order; the cap
    is checked at the call, before the first state."""
    _check_cap(domains, cap)
    return (State(domains, idx) for idx in itertools.product(*map(range, domains.sizes)))


def _leaves(problem: ProblemSpec, cap: Optional[int] = None) -> list[tuple[Box, bool]]:
    """Disjoint boxes covering the causally consistent states, each with whether
    a decision rule fires throughout it.  A box is dropped where a causal rule
    is broken throughout, kept where every rule is decided (one decision rule
    firing throughout decides the others), and else cut in two along the first
    pair a rule straddles, causal rules first.  Boxes wait on a stack, as a
    body may be longer than the recursion limit."""
    domains = problem.domains
    _check_cap(domains, cap)
    causal, decision = _rule_tables(problem.model)
    leaves: list[tuple[Box, bool]] = []
    stack = [(tuple(frozenset(range(n)) for n in domains.sizes), causal, decision)]
    while stack:
        box, causal, decision = stack.pop()
        cut, causal = _on_boxes(causal, box)
        if cut is True:
            continue
        if not cut:
            cut, decision = _on_boxes(decision, box)
            if isinstance(cut, bool):
                leaves.append((box, cut))
                continue
        i, allowed = cut
        stack.append((box[:i] + (box[i] - allowed,) + box[i + 1:], causal, decision))
        stack.append((box[:i] + (box[i] & allowed,) + box[i + 1:], causal, decision))
    return leaves


def enumerate_causally_consistent(problem: ProblemSpec) -> set[State]:
    """The subset of the state space satisfying every causal rule."""
    return {State(problem.domains, idx)
            for box, _ in _leaves(problem) for idx in itertools.product(*box)}


def compute_goal_set(problem: ProblemSpec) -> set[State]:
    """Causally consistent states where no decision rule fires."""
    return {State(problem.domains, idx)
            for box, fires in _leaves(problem) if not fires for idx in itertools.product(*box)}


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
    always holds.  Each box :func:`_leaves` keeps counts its axis sizes' product.
    """
    sizes = [(math.prod(map(len, box)), fires) for box, fires in _leaves(problem, cap)]
    consistent = sum(size for size, _ in sizes)
    fired = sum(size for size, fires in sizes if fires)
    return StateSetReport(problem.state_count, consistent, fired, consistent - fired)


# one-step transitions --------------------------------------------------------

def delta_oracle(state: State, problem: ProblemSpec,
                 actions: Optional[Sequence[ListedAction]] = None) -> set[State]:
    """All causally consistent states reachable from ``state`` in one step.

    Each permitted action, of the oracle's own list or of ``actions`` when a
    caller passes them, is applied; an inconsistent outcome continues along
    the deterministic repair policy: the first consistent state in
    breadth-first order, with actions tried in order (causal actions first,
    then declaration order).  The input state itself is never a member, and
    no member carries a numeric witness.
    """
    tables = _Tables(problem, actions)
    return {State(problem.domains, idx)
            for idx in tables.canonical(state.idx, tables.successors(state.idx))}


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


def _check_step(tables: _Tables, a: Index, b: Index, look_for_divergence: bool) -> tuple[bool, bool]:
    """Whether ``b`` is a one-step successor of ``a`` (a member of
    :meth:`_Tables.canonical`), and, when asked, whether some repair order
    reaches a consistent state from ``a`` that the canonical policy does not
    (canonical successors are a subset of the liberal ones, so the first
    such exit settles it)."""
    succ = tables.successors(a)
    canonical = tables.canonical(a, succ)
    diverges = look_for_divergence and any(
        t != a and t not in canonical for t in tables.liberal_exits(succ))
    return b in canonical, diverges


def validate_solution_path(path: CandidatePath, problem: ProblemSpec) -> ValidationReport:
    """Check the five solution-path clauses on the path's own states.

    Consistency and goal membership are tested state by state, and each step
    against :func:`delta_oracle`'s relation, so nothing is enumerated.  The
    repair-order flag is looked for only until one step shows it.  A
    one-state path has no step, so its step clause holds with nothing to
    check and the action list is not built.
    """
    if not path.states:
        raise ValueError("cannot validate an empty path")
    tables = _Tables(problem, None if len(path.states) > 1 else ())
    idxs = [s.idx for s in path.states]
    goal = [tables.goal(idx) for idx in idxs]
    steps_ok = True
    divergence = False
    for a, b in zip(idxs, idxs[1:]):
        step_ok, diverges = _check_step(tables, a, b, not divergence)
        steps_ok = steps_ok and step_ok
        divergence = divergence or diverges
    return ValidationReport(
        starts_at_initial=path.states[0] == problem.initial,
        ends_in_goal=goal[-1],
        all_causally_consistent=all(map(tables.consistent, idxs)),
        prefix_avoids_goal=not any(goal[:-1]),
        steps_are_transitions=steps_ok,
        liberal_divergence=divergence,
    )


def bfs_shortest_path(problem: ProblemSpec,
                      actions: Optional[Sequence[ListedAction]] = None) -> Optional[CandidatePath]:
    """Minimum-length solution path by breadth-first search, or ``None``.

    Used as a completeness and optimality cross-check: when this returns
    ``None`` the goal set is unreachable and a planning run must fail; when
    it returns a path, no correct run can be shorter.  It steps by the
    oracle's own action list unless a caller passes ``actions``.  The path
    starts at ``problem.initial`` itself; the states after it carry no
    numeric witnesses.  The declared state space is bounded by
    :data:`DEFAULT_STATE_CAP`.
    """
    _check_cap(problem.domains)
    tables = _Tables(problem, actions)
    start = problem.initial
    if tables.goal(start.idx):
        return CandidatePath((start,))
    # each reached state: the state it was first reached from (the start: itself)
    reached: dict[Index, Index] = {start.idx: start.idx}
    frontier = [start.idx]
    while frontier:
        nxt_frontier: list[Index] = []
        for s in frontier:
            for t in sorted(tables.canonical(s, tables.successors(s))):
                if t in reached:
                    continue
                reached[t] = s
                if tables.goal(t):
                    tail = [t]
                    while (prev := reached[tail[-1]]) != start.idx:
                        tail.append(prev)
                    return CandidatePath((start,) + tuple(State(problem.domains, i)
                                                          for i in reversed(tail)))
                nxt_frontier.append(t)
        frontier = nxt_frontier
    return None
