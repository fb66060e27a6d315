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
take a caller's list.  The rule tables are compiled once per problem
(:func:`_rule_tables`).

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
import weakref
from dataclasses import dataclass
from typing import Iterator, Optional, Protocol, Sequence, Union

from .domains import CandidatePath, Domains, FeatureDomain, State
from .errors import CapExceeded
from .rules import Literal, ProblemSpec

DEFAULT_STATE_CAP = 10**7


def _check_cap(domains: Domains, cap: Optional[int] = None) -> None:
    limit = DEFAULT_STATE_CAP if cap is None else cap
    if domains.state_count > limit:
        raise CapExceeded(domains.state_count, limit)


# the oracle's rule and action tables ---------------------------------------------

Index = tuple[int, ...]
Reps = tuple[Optional[int], ...]
Pair = tuple[int, frozenset[int]]
Table = tuple[Pair, ...]
Box = tuple[frozenset[int], ...]
Successors = tuple[tuple[int, Index, bool], ...]

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


def _may_leave(f: FeatureDomain, target: int) -> frozenset[int]:
    """Current values of feature ``f`` from which a move may write ``target``:
    none when the feature is immutable, never the target itself, and only
    from the side of the target that the feature's monotonicity allows."""
    if not f.mutable:
        return frozenset()
    if f.monotonicity == "nondecreasing":
        return frozenset(range(target))
    if f.monotonicity == "nonincreasing":
        return frozenset(range(target + 1, f.size))
    return frozenset(range(f.size)) - {target}


class ListedAction(Protocol):
    """What the oracle reads of an action a caller lists, such as
    :func:`~recourseplan.actions.build_actions`' ``Action`` objects."""

    feature_index: int
    new_index: int
    guard: tuple[Literal, ...]


RuleTables = tuple[tuple[Table, ...], tuple[Table, ...]]
# the one problem whose rule tables were compiled last, and those tables
_compiled: tuple[Optional[weakref.ref], RuleTables] = (None, ((), ()))


def _rule_tables(problem: ProblemSpec) -> RuleTables:
    """The problem's causal and decision tables (see :class:`_Tables`),
    compiled once for the last problem asked about, so the calls one
    ``validate`` makes share them.  A problem is immutable, and the memo
    holds it by a weak reference, so a new problem never meets another's
    tables.  The tables are immutable too; two threads racing here at worst
    both compile them."""
    global _compiled
    ref, tables = _compiled
    if ref is None or ref() is not problem:
        domains = problem.domains
        tables = (tuple((_literal_table(domains, r.head, negated=True),) + _table(domains, r.body)
                        for r in problem.causal_rules),
                  tuple(_table(domains, r.body) for r in problem.decision_rules))
        _compiled = weakref.ref(problem), tables
    return tables


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
    causal = _rule_tables(problem)[0]
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
    permission table pairs the written feature with :func:`_may_leave` and
    adds the guard.  One object serves one top-level call and remembers, for
    that call, the successor list of every causally inconsistent state it
    expands, the canonical repair of every raw outcome and the states no
    repair leaves.
    """

    __slots__ = ("causal", "decision", "moves", "_region", "_repairs", "_dead")

    def __init__(self, problem: ProblemSpec,
                 actions: Optional[Sequence[ListedAction]] = None) -> None:
        domains = problem.domains
        self.causal, self.decision = _rule_tables(problem)
        listed = (_own_actions(problem) if actions is None
                  else ((a.feature_index, a.new_index, _table(domains, a.guard)) for a in actions))
        self.moves = tuple((fi, target, ((fi, _may_leave(domains[fi], target)),) + guard)
                           for fi, target, guard in listed)
        self._region: dict[Index, Successors] = {}
        self._repairs: dict[Index, Optional[tuple[Index, tuple[int, ...]]]] = {}
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
        """``(action position, outcome, outcome consistent)`` for every action
        permitted at ``idx``, in action order."""
        out = []
        for k, (fi, target, permission) in enumerate(self.moves):
            for i, allowed in permission:
                if idx[i] not in allowed:
                    break
            else:
                nxt = idx[:fi] + (target,) + idx[fi + 1:]
                out.append((k, nxt, self.consistent(nxt)))
        return tuple(out)

    def _region_successors(self, idx: Index) -> Successors:
        # inconsistent states are revisited by many repair chains and regions
        hit = self._region.get(idx)
        if hit is None:
            hit = self._region[idx] = self.successors(idx)
        return hit

    def _repair(self, raw: Index) -> Optional[tuple[Index, tuple[int, ...]]]:
        """The repair policy from an inconsistent raw outcome: the first
        consistent state in breadth-first order, where the frontier is
        expanded in order, each state by its successors in action order
        (causal repairs first), a state is tested when it is discovered and
        none is entered twice; with the action positions of the chain, or
        ``None`` when no completion exists.

        A failed search saw only states from which no consistent state is
        reachable: later searches skip them like entered ones, which changes
        no result."""
        if raw in self._repairs:
            return self._repairs[raw]
        dead = self._dead
        # each entered state: the state it was discovered from and the action
        parent: dict[Index, Optional[tuple[Index, int]]] = {raw: None}
        frontier = [raw]
        for current in frontier:  # grows while it is read: a queue in discovery order
            for k, nxt, ok in self._region_successors(current):
                if nxt in parent or nxt in dead:
                    continue
                if ok:
                    chain = [k]
                    while (link := parent[current]) is not None:
                        current, position = link
                        chain.append(position)
                    result = self._repairs[raw] = nxt, tuple(reversed(chain))
                    return result
                parent[nxt] = current, k
                frontier.append(nxt)
        dead.update(parent)
        self._repairs[raw] = None
        return None

    def canonical(self, idx: Index, succ: Successors) -> dict[Index, tuple[int, ...]]:
        """The consistent one-step successors of ``idx``, given its
        :meth:`successors` ``succ``: the repair policy's outcome of each
        permitted action, other than ``idx`` itself, with the positions of the
        actions that wrote it along its first route in action order."""
        out: dict[Index, tuple[int, ...]] = {}
        for k, raw, ok in succ:
            if ok:
                out.setdefault(raw, (k,))
                continue
            repaired = self._repair(raw)
            if repaired is not None and repaired[0] != idx:
                out.setdefault(repaired[0], (k,) + repaired[1])
        return out

    def liberal_exits(self, succ: Successors) -> Iterator[Index]:
        """Every consistent state some repair order reaches in one step from
        the state whose :meth:`successors` are ``succ``; only path
        validation's repair-order flag asks.

        One traversal of the causally inconsistent region below all the raw
        outcomes, so exits may repeat and may include the source state.
        """
        seen: set[Index] = set()
        for _, raw, ok in succ:
            if ok:
                yield raw
                continue
            if raw in seen:
                continue
            seen.add(raw)
            frontier = [raw]
            while frontier:
                for _, nxt, nxt_ok in self._region_successors(frontier.pop()):
                    if nxt_ok:
                        yield nxt
                    elif nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)

    def witnesses(self, reps: Reps, written: tuple[int, ...]) -> Reps:
        """Witnesses after the given actions: a written feature loses its own."""
        out = list(reps)
        for k in written:
            out[self.moves[k][0]] = None
        return tuple(out)


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
    causal, decision = _rule_tables(problem)
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
    then declaration order).  The input state itself is never a member.
    """
    tables = _Tables(problem, actions)
    successors = tables.canonical(state.idx, tables.successors(state.idx))
    return {State(problem.domains, idx, tables.witnesses(state.reps, written))
            for idx, written in successors.items()}


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
    oracle's own action list unless a caller passes ``actions``.  The
    declared state space is bounded by :data:`DEFAULT_STATE_CAP`.
    """
    _check_cap(problem.domains)
    tables = _Tables(problem, actions)
    start = problem.initial
    if tables.goal(start.idx):
        return CandidatePath((start,))
    # each reached state: the state it was first reached from, and its witnesses
    reached: dict[Index, tuple[Optional[Index], Reps]] = {start.idx: (None, start.reps)}
    frontier = [start.idx]
    while frontier:
        nxt_frontier: list[Index] = []
        for s in frontier:
            reps = reached[s][1]
            successors = tables.canonical(s, tables.successors(s))
            for t in sorted(successors):
                if t in reached:
                    continue
                reached[t] = (s, tables.witnesses(reps, successors[t]))
                if tables.goal(t):
                    chain: list[Optional[Index]] = [t]
                    while chain[-1] != start.idx:
                        chain.append(reached[chain[-1]][0])
                    return CandidatePath(tuple(State(problem.domains, i, reached[i][1])
                                               for i in reversed(chain)))
                nxt_frontier.append(t)
        frontier = nxt_frontier
    return None
