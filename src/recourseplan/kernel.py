"""One compiled form of a problem for the hot loops.

Search and the causal-repair guard sweep test plain index tuples against the
rules and step them by actions, millions of times on large spaces.
:class:`CompiledProblem` reads the tables of (feature position, allowed value
indices) pairs the :class:`~recourseplan.rules.ProblemSpec` compiled for
every rule, one shape for both kinds: a decision rule's table holds where it
fires, a causal rule's where it is broken.  It tests states with the one
membership test :func:`~recourseplan.rules.none_holds`, decides whole boxes
of states with the one box test :func:`_decide` and derives the action list
and every action's precondition from the tables, so those loops never touch
:class:`~recourseplan.domains.State`, the domain tree or a cache keyed by
it.  Set-up compiles nothing and enumerates no states: each repair candidate
costs one test per causal rule, and the action list is built only for a run
that steps.  Two tests rule a state out before any search, both by the one
cover test :func:`_covered` on the reach box (the values each feature can
still reach): :meth:`~CompiledProblem.doomed` (no state of it is a goal) and
:meth:`~CompiledProblem.unrepairable` (every state of it breaks a causal
rule).  ``State`` and :class:`~recourseplan.actions.Action` objects exist
only at the API boundary.
"""

from __future__ import annotations

from typing import Collection, Iterable, Optional, Sequence, Union

from .domains import FeatureDomain
from .rules import Pairs, ProblemSpec, Rule, none_holds

Index = tuple[int, ...]
Pair = tuple[int, frozenset[int]]

# the most boxes :func:`_covered` decides, the first included, before it
# gives up; ``doomed`` on the generated tiers needs at most 10 (12/6/C10 seed 150)
MAX_SPLITS = 2048


def _decide(tables: Sequence[Pairs],
            box: Sequence[Collection[int]]) -> Union[bool, Pair, None]:
    """Decide every table on ``box`` in one pass, without enumerating it:
    ``True`` when some table holds throughout the box (a causal rule is
    broken or a decision rule fires there), ``None`` when every table fails
    throughout, and otherwise the first pair a table straddles (its axis
    meets the pair's values and leaves them).

    ``box`` holds one non-empty value set or range per feature; the axes
    vary independently, and a table names each feature once.  So a table
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


def _covered(tables: Sequence[Pairs], box: Iterable[Collection[int]]) -> bool:
    """Every state of ``box`` has some table holding; ``False`` proves nothing.

    Each box, ``box`` first, is decided by :func:`_decide`, so an earlier
    table's cut is taken first.  A box that no table holds throughout is cut
    in two along the pair it returns, into the part inside the pair's values
    and the part outside them, and is covered only if both parts are; the
    outside part is decided next and the inside one waits on a stack.  Both
    parts keep every axis non-empty.  A box on which every table fails
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
            part[i] = frozenset(box[i]) - allowed
            box[i] = allowed.intersection(box[i])
            stack.append(box)
            box = part
    return False


def _reach(feature: FeatureDomain, vi: int) -> range:
    """Every value index the feature can take from ``vi`` on: only ``vi``
    when it is immutable, else those on the side its monotonicity allows."""
    if not feature.mutable:
        return range(vi, vi + 1)
    if feature.monotonicity == "nondecreasing":
        return range(vi, feature.size)
    if feature.monotonicity == "nonincreasing":
        return range(vi + 1)
    return range(feature.size)


class CompiledProblem:
    """Rules and actions of one problem, compiled against its domains.

    Construction compiles nothing.  ``causal`` is the problem's
    ``causal_tables``, each causal rule's breaking table (the head position
    with the values the head refuses, then the body pairs), ``decision`` its
    ``decision_bodies``, the body pairs of each decision rule, and
    ``tables`` the decision tables then the causal ones: a goal is a state
    where none of them holds.  They are all that consistency, firing and
    goal membership read (:func:`~recourseplan.rules.none_holds`).
    :meth:`unrepairable` and :meth:`doomed` read them too, with the domains,
    and keep no other table.

    :meth:`compile_actions` builds the action list, so a run builds it only
    at its first expansion: a start in the goal set, or a doomed one, takes
    no step and needs none.  The list comes in order: verified causal repairs first, then one
    direct move per (mutable feature, value), in declaration then domain
    order.  ``rules`` holds the causal rule each action repairs (``None`` for
    a direct move), and ``moves`` one ``(feature index, new index,
    precondition pairs)`` triple per action.  A precondition holds exactly
    where the action is permitted: the feature off the target, on the side
    of it that monotonicity allows, and a repair's guard (its rule's body
    pairs, the breaking table after the head pair).  Set-up formats no
    action id: :meth:`action_id` formats one when a run records it, and
    ``ids`` formats them all.

    A repair setting a feature to a value the head allows survives when
    every state of its guard box is consistent afterwards (:func:`_decide`
    returns ``None`` on the causal tables).  The box ranges over every
    feature's values, narrowed on each guard feature to its body pair (what
    all of its literals allow) and pinned at the new value on the written
    feature; an empty guard axis keeps the repair, since the box then holds
    no state.
    """

    __slots__ = ("domains", "causal", "decision", "tables", "rules", "moves", "_causal_rules", "_memo")

    def __init__(self, problem: ProblemSpec) -> None:
        self.domains = problem.domains
        self._causal_rules = problem.causal_rules
        self.causal = problem.causal_tables
        self.decision = problem.decision_bodies
        self.tables = self.decision + self.causal
        self._memo = None  # unrepairable's, built on its first call

    def compile_actions(self) -> None:
        """Build the action list, ``rules`` and ``moves``: the guard sweep
        decides the causal repairs, then the direct moves follow."""
        domains = self.domains
        # per mutable feature and value: the direct move's precondition, the
        # values that may move there under monotonicity
        full = [frozenset(range(n)) for n in domains.sizes]
        pre: list[list[Pairs]] = [[] for _ in full]
        direct_moves: list[tuple[int, int, Pairs]] = []
        for fi, f in enumerate(domains):
            if not f.mutable:
                continue
            size, monotonicity = len(full[fi]), f.monotonicity
            for vi in range(size):
                if monotonicity == "nondecreasing":
                    sources = frozenset(range(vi))
                elif monotonicity == "nonincreasing":
                    sources = frozenset(range(vi + 1, size))
                else:
                    sources = full[fi] - {vi}
                pre[fi].append(((fi, sources),))
                direct_moves.append((fi, vi, pre[fi][vi]))

        rules: list[Optional[Rule]] = []
        moves: list[tuple[int, int, Pairs]] = []
        for rule, table in zip(self._causal_rules, self.causal):
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
                    moves.append((fi, vi, pre[fi][vi] + guard))
        self.rules = tuple(rules) + (None,) * len(direct_moves)
        self.moves = tuple(moves + direct_moves)

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

    def _verdicts(self, idx: Index) -> tuple[dict[Index, bool], Index]:
        """:meth:`unrepairable`'s verdicts and ``idx``'s key: the values its reach box depends on."""
        if self._memo is None:
            self._memo = tuple(i for i, f in enumerate(self.domains)
                               if not f.mutable or f.monotonicity != "none"), {}
        pinned, verdicts = self._memo
        return verdicts, tuple(map(idx.__getitem__, pinned))

    def unrepairable(self, idx: Index) -> bool:
        """Every state of the reach box of ``idx`` (:meth:`doomed`) breaks
        some causal rule, so no action sequence leads to a consistent state;
        ``False`` proves nothing.  Verdicts last the kernel's life (one run).
        Where :func:`_covered` gives up, a repair chain that meets no
        consistent state proves one (:meth:`mark_unrepairable`): each direct
        move is unguarded and permitted from every value monotonicity lets
        its feature leave, so the chain enters all of its start's reach box."""
        verdicts, key = self._verdicts(idx)
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = _covered(self.causal, map(_reach, self.domains.features, idx))
        return verdict

    def mark_unrepairable(self, idx: Index) -> None:
        """File the verdict that ``idx`` is :meth:`unrepairable`."""
        verdicts, key = self._verdicts(idx)
        verdicts[key] = True

    def doomed(self, idx: Index) -> bool:
        """No state of the reach box of ``idx`` is a goal, so no sequence of
        actions leads to one; ``False`` proves nothing.

        The reach box is the product of the values each feature can still
        reach from ``idx`` (:func:`_reach`).  It holds every reachable state,
        since every action (a direct move, a causal repair and so every
        repair-chain step) keeps to mutability and monotonicity.  It is
        goal-free when every state of it has some table holding
        (:func:`_covered`), the decision tables first, so a decision rule's
        cut is taken before a causal rule's.  A goal in the box need not be
        reachable.
        """
        return _covered(self.tables, map(_reach, self.domains.features, idx))

    def goal(self, idx: Index) -> bool:
        """Causally consistent and no decision rule fires: no table holds."""
        return none_holds(self.tables, idx)

    def step(self, k: int, idx: Index) -> Optional[Index]:
        """The successor under action ``k``, or ``None`` when it is not permitted."""
        fi, target, pre = self.moves[k]
        for i, allowed in pre:
            if idx[i] not in allowed:
                return None
        return idx[:fi] + (target,) + idx[fi + 1:]
