"""One compiled form of a problem for the hot loops.

The search, its repair chains and the causal-repair guard sweep run here, on
plain index tuples tested against the rules and stepped by actions, millions
of times on large spaces.
:class:`CompiledProblem` reads the tables of (feature position, allowed value
indices) pairs the :class:`~recourseplan.rules.ProblemSpec` compiled for
every rule, one shape for both kinds: a decision rule's table holds where it
fires, a causal rule's where it is broken.  It tests states with the one
membership test :func:`~recourseplan.rules.none_holds`, decides every
one-move outcome of a state at once with
:func:`~recourseplan.rules.after_one_move`, decides whole boxes of states
with the one box test :func:`_decide` and derives the action list
and every action's precondition from the tables, so those loops never touch
:class:`~recourseplan.domains.State`, the domain tree or a cache keyed by
it.  Construction compiles no rule and enumerates no states: each repair
candidate costs one test per causal rule.

What depends on the rules is built per :class:`CompiledProblem`, so once per
``get_path`` call that searches: the guard sweep, the action list and the
run's verdicts on unrepairable reach boxes.  Where a feature can go is
stated once, in :attr:`~recourseplan.domains.Domains.reaches` (filled at
construction from a memo of its own): the reach box reads it, and so does
a per-shape memo here, each mutable feature's direct moves, keyed by
(position, reach axes) (:func:`_direct_moves`, at most 1,024 shapes).  An
entry for a feature of ``n`` values holds ``n`` sets of fewer than ``n``
indices, so the memo retains at most 1,024 n² indices for features of at
most ``n`` values; its keys are ``reaches``' own axes.  The guard sweep's full value sets come
from the other, keyed by size (:func:`_values`, at most 256 sizes, an entry
holding ``n`` indices).  Every box the kernel decides
has a ``frozenset`` of value indices on each axis: a table's subset and
disjointness tests take their fast path only against another set.

Two tests rule a state out before any search, both by the one cover test
:func:`_covered` on the reach box (the values each feature can still reach,
:func:`_reach_box`):
:func:`doomed` (no state of it is a goal), which reads only the problem's
tables, so a start it rules out needs no kernel, and
:meth:`~CompiledProblem.unrepairable` (every state of it breaks a causal
rule).

The search (:meth:`~CompiledProblem.search`) runs breadth-first over causally
consistent states, each expanded by every action in order (causal repairs
before direct moves, then declaration order).  An action whose outcome is
consistent leads there; one whose outcome breaks a causal rule continues
through a repair chain (:meth:`~CompiledProblem.complete`), the first
consistent state in breadth-first order from the raw outcome; one with no
consistent completion leads nowhere.  A state is tested for the goal when it
is discovered, and no state is entered twice, so the found path has the
fewest consistent states of any path these moves make, and each reachable
consistent state is expanded at most once, which bounds the whole run.  Every repair
chain is walked afresh on each call and handed back as its endpoint and
action positions: the one-move tables of the breaking rules at its start
pick a one-step repair when one exists, and only otherwise does
:meth:`~CompiledProblem.unrepairable` run, then the breadth-first walk, whose
failure files a verdict.  The found path comes back as steps, each an action
position and whether the state it leaves is consistent, for the caller to
replay.  ``State`` and :class:`~recourseplan.actions.Action` objects exist
only at the API boundary.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

from .domains import Domains
from .rules import Pairs, ProblemSpec, Rule, after_one_move, none_holds

Index = tuple[int, ...]
Pair = tuple[int, frozenset[int]]
# an action: the feature it writes, the value it writes and its precondition
Move = tuple[int, int, Pairs]
# a repair chain: its consistent endpoint, then each step's action position
Chain = tuple[Index, tuple[int, ...]]
# a found path's step: an action position and whether the state it leaves is
# causally consistent
Step = tuple[int, bool]

# the most boxes :func:`_covered` decides, the first included, before it
# gives up; ``doomed`` on the generated tiers needs at most 10 (12/6/C10 seed 150)
MAX_SPLITS = 2048


def _decide(tables: Sequence[Pairs],
            box: Sequence[frozenset[int]]) -> Union[bool, Pair, None]:
    """Decide every table on ``box`` in one pass, without enumerating it:
    ``True`` when some table holds throughout the box (a causal rule is
    broken or a decision rule fires there), ``None`` when every table fails
    throughout, and otherwise the first pair a table straddles (its axis
    meets the pair's values and leaves them).

    ``box`` holds one non-empty value set per feature; the axes vary
    independently, and a table names each feature once.  So a table
    holds throughout when every axis lies inside its pair's values, and
    fails throughout when one misses them.  Once a cut is found, a later
    table is only checked for holding throughout.
    """
    cut = None
    for table in tables:
        straddled = None
        for i, allowed in table:
            values = box[i]
            if allowed.issuperset(values):
                continue
            if cut is not None or allowed.isdisjoint(values):
                break  # it fails throughout, or an earlier table's cut comes first
            if straddled is None:
                straddled = i, allowed
        else:
            if straddled is None:
                return True
            cut = straddled
    return cut


def _covered(tables: Sequence[Pairs], box: Iterable[frozenset[int]]) -> bool:
    """Every state of ``box`` has some table holding; ``False`` proves nothing.

    Each box, ``box`` first, is decided by :func:`_decide`, so an earlier
    table's cut is taken first.  A box that no table holds throughout is cut
    in two along the pair it returns, into the part inside the pair's values
    and the part outside them, and is covered only if both parts are; the
    outside part is decided next and the inside one waits on a stack.  Both
    parts keep every axis a non-empty set.  A box on which every table fails
    throughout holds an uncovered state, and the test gives up after
    :data:`MAX_SPLITS` boxes.
    """
    box = list(box)
    stack = []
    budget = MAX_SPLITS
    while budget:
        budget -= 1
        cut = _decide(tables, box)
        if cut is True:
            if not stack:
                return True
            box = stack.pop()
        elif cut is None:
            return False  # an uncovered witness
        else:
            i, allowed = cut
            part = box.copy()
            part[i] = box[i] - allowed
            box[i] = box[i] & allowed
            stack.append(box)
            box = part
    return False


def _reach_box(domains: Domains, idx: Index) -> Iterable[frozenset[int]]:
    """Each feature's :attr:`~recourseplan.domains.Domains.reaches` axis at
    its value in ``idx``: the box holding every state reachable from
    ``idx``, since every action (a direct move, a causal repair and so every
    repair-chain step) moves a feature only within its axis."""
    return map(tuple.__getitem__, domains.reaches, idx)


@lru_cache(maxsize=256)
def _values(size: int) -> frozenset[int]:
    """Every value index of a feature of ``size`` values: the guard sweep's
    full axis.  Shared by every problem: at most 256 sizes."""
    return frozenset(range(size))


@lru_cache(maxsize=1024)
def _direct_moves(fi: int, axes: tuple[frozenset[int], ...]) -> tuple[Move, ...]:
    """The direct moves of a mutable feature at position ``fi`` whose
    :attr:`~recourseplan.domains.Domains.reaches` axes are ``axes``, one
    ``(fi, target, ((fi, sources),))`` triple per target in domain order:
    ``sources`` are the other values whose axis holds the target, so a move
    is permitted exactly where the reach box says the feature can go, and a
    feature of one value keeps a move that is never permitted.  Shared by
    every problem: at most 1,024 shapes, each holding ``len(axes)`` sets of
    fewer than ``len(axes)`` indices."""
    return tuple((fi, t, ((fi, frozenset(v for v, axis in enumerate(axes)
                                         if v != t and t in axis)),))
                 for t in range(len(axes)))


def doomed(problem: ProblemSpec, idx: Index) -> bool:
    """No state of the reach box of ``idx`` (:func:`_reach_box`) is a goal,
    so no sequence of actions leads to one; ``False`` proves nothing.

    The box is goal-free when every state of it has some table holding
    (:func:`_covered`): a decision rule's body or a causal rule's breaking
    table, the decision tables first, so a decision rule's cut is taken
    before a causal rule's.  A goal in the box need not be reachable.
    """
    model = problem.model
    return _covered(model.decision_bodies + model.causal_tables,
                    _reach_box(problem.domains, idx))


class CompiledProblem:
    """Rules and actions of one problem, compiled against its domains, for
    one run.

    ``causal`` is the problem model's ``causal_tables``, each causal rule's
    breaking table (the head position with the values the head refuses,
    then the body pairs), and ``decision`` its ``decision_bodies``, the body
    pairs of each decision rule; the kernel reads both from
    :attr:`~recourseplan.rules.ProblemSpec.model` and copies neither.  They
    are all that consistency and firing read
    (:func:`~recourseplan.rules.none_holds`,
    :func:`~recourseplan.rules.after_one_move`).  :meth:`unrepairable` reads
    ``causal`` too, with the domains' reach axes, and keeps no other table.

    Construction runs the guard sweep, builds the action list and starts
    the run's memo of :meth:`unrepairable` verdicts; the
    direct moves, and so every repair's direct precondition, it reads from
    :func:`_direct_moves`, which every problem shares and which derives
    them from :attr:`~recourseplan.domains.Domains.reaches`.  A feature's
    ``mutable`` flag decides whether it has direct moves.  The list comes in
    order: verified causal repairs first, then one direct move per (mutable
    feature, value), in declaration then domain order.  ``rules`` holds the
    causal rule each action repairs (``None`` for a direct move), and
    ``moves`` one ``(feature index, new index, precondition pairs)`` triple
    per action.  A precondition holds exactly where the action is permitted:
    the feature off the target, at a value whose reach axis holds it, and a
    repair's guard (its rule's body pairs, the breaking table after
    the head pair).  Set-up formats no action id: :meth:`action_id` formats
    one when a run records it, and ``ids`` formats them all.

    A repair setting a feature to a value the head allows survives when
    every state of its guard box is consistent afterwards (:func:`_decide`
    returns ``None`` on the causal tables).  The box ranges over every
    feature's values, narrowed on each guard feature to its body pair (what
    all of its literals allow) and pinned at the new value on the written
    feature; an empty guard axis keeps the repair, since the box then holds
    no state.
    """

    __slots__ = ("domains", "causal", "decision", "rules", "moves", "_verdicts")

    def __init__(self, problem: ProblemSpec) -> None:
        model = problem.model
        domains = self.domains = model.domains
        self.causal = model.causal_tables
        self.decision = model.decision_bodies
        full = list(map(_values, domains.sizes))
        # per mutable feature: its direct moves, one per value
        direct = [_direct_moves(fi, axes) if f.mutable else ()
                  for fi, (f, axes) in enumerate(zip(domains, domains.reaches))]

        rules: list[Optional[Rule]] = []
        moves: list[Move] = []
        for rule, table in zip(model.causal_rules, self.causal):
            (fi, refused), guard = table[0], table[1:]
            if not domains[fi].mutable:
                continue
            box = list(full)
            for i, meets in guard:
                box[i] = meets
            vacuous = not all(box)
            for vi in sorted(full[fi] - refused):
                box[fi] = frozenset((vi,))
                if vacuous or _decide(self.causal, box) is None:
                    rules.append(rule)
                    moves.append((fi, vi, direct[fi][vi][2] + guard))
        self.moves = tuple(moves) + tuple(itertools.chain.from_iterable(direct))
        self.rules = tuple(rules) + (None,) * (len(self.moves) - len(moves))
        # the run's dead regions: a verdict's key is its reach box
        self._verdicts: dict[tuple[frozenset[int], ...], bool] = {}

    def action_id(self, k: int) -> str:
        """Action ``k``'s id, formatted on each call:
        ``causal:{rule}:{feature}:{value}`` or ``direct:{feature}:{value}``."""
        fi, vi, _ = self.moves[k]
        f, rule = self.domains[fi], self.rules[k]
        prefix = "direct" if rule is None else f"causal:{rule.id}"
        return f"{prefix}:{f.name}:{f.value_text(vi)}"

    @property
    def ids(self) -> tuple[str, ...]:
        """Every action's id, in action order."""
        return tuple(map(self.action_id, range(len(self.moves))))

    def unrepairable(self, idx: Index) -> bool:
        """Every state of the reach box of ``idx`` (:func:`_reach_box`) breaks
        some causal rule, so no action sequence leads to a consistent state;
        ``False`` proves nothing.  Verdicts last the run, keyed by the reach
        box itself; where :func:`_covered` gives up, a failed :meth:`complete`
        files one under the same key."""
        box = tuple(_reach_box(self.domains, idx))
        verdict = self._verdicts.get(box)
        if verdict is None:
            verdict = self._verdicts[box] = _covered(self.causal, box)
        return verdict

    def search(self, root: Index, budget: int) -> tuple[str, int, tuple[Step, ...]]:
        """Breadth-first search from the consistent, non-goal ``root``; returns
        the status (``success``, ``failure`` or ``budget-exhausted``), the
        expansions and, on success, the found path as steps (none otherwise).

        The frontier is expanded in discovery order, at most ``budget``
        states, each by the ordered action list.  Each expansion builds the
        one-move tables of the causal and the decision rules at the expanded
        state (:func:`~recourseplan.rules.after_one_move`), so a raw outcome's
        consistency and a consistent one's goal test are set lookups, and only
        a repair chain's endpoint (:meth:`complete`) is tested by
        :func:`~recourseplan.rules.none_holds`.  Each entered state keeps
        its predecessor, its action and its chain's repair positions; on
        success the path is backtracked from them into one step per action,
        ``(position, consistent)``, where ``consistent`` says whether the
        state the action leaves is: an action's is, each repair's is not.
        """
        step, complete, causal, decision = self.step, self.complete, self.causal, self.decision
        moves = self.moves
        # each entered state: the state it was discovered from, the action
        # position that led there and its repair chain's positions
        parents: dict[Index, Optional[tuple[Index, int, tuple[int, ...]]]] = {root: None}
        frontier = [root]
        expansions = 0
        for idx in frontier:  # grows while it is read: a queue in discovery order
            if expansions >= budget:
                return "budget-exhausted", expansions, ()
            expansions += 1
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
                    steps: list[Step] = []
                    while (hop := parents[final]) is not None:
                        final, k, repairs = hop
                        steps += [(repair, False) for repair in reversed(repairs)]
                        steps.append((k, True))
                    return "success", expansions, tuple(reversed(steps))
                frontier.append(final)
        return "failure", expansions, ()

    def complete(self, start: Index) -> Optional[Chain]:
        """First causally consistent state reachable from ``start``, in
        breadth-first order; ``start`` itself must be causally inconsistent.

        The frontier is expanded in order, each state by the ordered action
        list (causal repairs first), and no state is entered twice.  A
        state's consistency is tested when it is discovered: a consistent one
        ends the chain and is never expanded.  Returns the consistent endpoint
        plus the positions of the actions leading to it, walked afresh on
        every call, or ``None`` when no completion exists.  So the chain is a
        shortest one, and where some action repairs the start in one step it
        is the first such action.

        That first level is decided before any walk, from the breaking
        tables' one-move tables at ``start``
        (:func:`~recourseplan.rules.after_one_move`): a move leaves ``start``
        consistent exactly when every breaking table names the feature it
        writes and the value it writes makes no table hold, so the first
        permitted such move in action order is the walk's own first-level
        answer.  Only where none exists is :meth:`unrepairable` asked, and
        a start it rules out is not searched; a search that fails files that
        verdict, the one thing a call keeps: each direct move is unguarded
        and permitted from every value whose reach axis holds its target
        (:func:`_direct_moves`), so the search entered all of the start's
        reach box.
        """
        causal, step, moves = self.causal, self.step, self.moves
        positions = range(len(moves))
        # the first level: a move leaves the start consistent exactly when
        # every breaking table names the feature it writes and its value is
        # not in ``gain``
        gain, named = after_one_move(causal, start)
        for k, (fi, target, _) in enumerate(moves):
            if fi in named and target not in gain[fi]:
                nxt = step(k, start)
                if nxt is not None:
                    return nxt, (k,)
        if self.unrepairable(start):
            return None
        # each entered state: the state and action position it was discovered by
        parent: dict[Index, Optional[tuple[Index, int]]] = {start: None}
        frontier = [start]
        for idx in frontier:  # grows while it is read: a queue in discovery order
            for k in positions:
                nxt = step(k, idx)
                if nxt is None or nxt in parent:
                    continue
                if none_holds(causal, nxt):
                    repairs = [k]
                    while (edge := parent[idx]) is not None:
                        idx, k = edge
                        repairs.append(k)
                    return nxt, tuple(reversed(repairs))
                parent[nxt] = idx, k
                frontier.append(nxt)
        self._verdicts[tuple(_reach_box(self.domains, start))] = True
        return None

    def step(self, k: int, idx: Index) -> Optional[Index]:
        """The successor under action ``k``, or ``None`` when it is not permitted."""
        fi, target, pre = self.moves[k]
        for i, allowed in pre:
            if idx[i] not in allowed:
                return None
        nxt = list(idx)
        nxt[fi] = target
        return tuple(nxt)
