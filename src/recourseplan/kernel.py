"""One compiled form of a problem for the hot loops.

Search and the causal-repair guard sweep test plain index tuples against the
rules and step them by actions, millions of times on large spaces.
:class:`CompiledProblem` reads the (feature position, allowed value indices)
tables the :class:`~recourseplan.rules.ProblemSpec` compiled for every rule,
tests causal consistency with the one function that owns it
(:func:`~recourseplan.rules.causal_holds`), decides each causal repair with
a per-rule box test and derives the action list and every action's
precondition from the tables, so those loops never touch
:class:`~recourseplan.domains.State`, the domain tree or a cache keyed by
it.  Set-up compiles nothing and enumerates no states: each repair candidate
costs one test per causal rule, and the action list is built only for a run
that steps.  Two tests read mutability and monotonicity off the domains at
call time to rule a state out before any search:
:meth:`~CompiledProblem.unrepairable` (no action sequence restores some
causal rule) and :meth:`~CompiledProblem.doomed` (no state of the reach
box, the product of the values each feature can still reach, is a goal;
decided by cutting the box in two along literals the rules straddle until a
rule rules out each part, a part on which every rule is decided is all
goals, or a fixed number of boxes is spent).  ``State`` and
:class:`~recourseplan.actions.Action` objects exist only at the API boundary.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from .domains import FeatureDomain
from .rules import CausalTable, Pairs, ProblemSpec, Rule, causal_holds

Index = tuple[int, ...]
Pair = tuple[int, frozenset[int]]

# the most boxes :meth:`CompiledProblem.doomed` decides after its root test
# before it gives up and leaves the start to the search; the generated tiers
# need at most 37 (8/5 seed 263)
MAX_SPLITS = 2048


def _always_consistent_after(causal: Sequence[CausalTable],
                             box: Sequence[frozenset[int]]) -> bool:
    """Whether every state of the box is causally consistent: the causal-repair
    guard sweep, decided without enumerating the box.

    ``box`` holds one non-empty value set per feature.  A rule is violated
    somewhere in the product exactly when its head's axis leaves the head's
    allowed values and every body feature's axis meets the rule's values on
    that feature (one pair per feature, its literals intersected): the head
    feature is never in its own body, and the axes vary independently.
    """
    for body, head, allowed in causal:
        if box[head] <= allowed:
            continue
        for i, meets in body:
            if box[i].isdisjoint(meets):
                break
        else:
            return False
    return True


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
    ``causal_tables``, one ``(body pairs, head position, head values)``
    triple per causal rule, and ``decision`` its ``decision_bodies``, the
    body pairs of each decision rule.  They are all that deciding consistency
    (:meth:`consistent`, through
    :func:`~recourseplan.rules.causal_holds`) and goal membership reads.
    :meth:`unrepairable` and :meth:`doomed` read them too, with the domains,
    and keep no table.

    :meth:`compile_actions` builds the action list, so a run builds it only
    at its first expansion: a start in the goal set, or a doomed one, takes
    no step and needs none.  The list comes in order: verified causal repairs first, then one
    direct move per (mutable feature, value), in declaration then domain
    order.  ``rules`` holds the causal rule each action repairs (``None`` for
    a direct move), and ``moves`` one ``(feature index, new index,
    precondition pairs)`` triple per action.  A precondition holds exactly
    where the action is permitted: the feature off the target, on the side
    of it that monotonicity allows, and a repair's guard (its rule's body
    pairs).  Set-up formats no action id: :meth:`action_id` formats one when
    a run records it, and ``ids`` formats them all.

    A repair setting a feature to a value survives when every state of its
    guard box is consistent afterwards.  The box ranges over every feature's
    values, narrowed on each guard feature to its body pair (what all of its
    literals allow) and pinned at the new value on the written feature; an
    empty guard axis keeps the repair, since the box then holds no state.
    """

    __slots__ = ("domains", "causal", "decision", "rules", "moves", "_causal_rules")

    def __init__(self, problem: ProblemSpec) -> None:
        self.domains = problem.domains
        self._causal_rules = problem.causal_rules
        self.causal = problem.causal_tables
        self.decision = problem.decision_bodies

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
        for rule, (body, fi, allowed) in zip(self._causal_rules, self.causal):
            if not domains[fi].mutable:
                continue
            box = list(full)
            for i, meets in body:
                box[i] = meets
            vacuous = not all(box)
            for vi in sorted(allowed):
                box[fi] = frozenset((vi,))
                if vacuous or _always_consistent_after(self.causal, box):
                    rules.append(rule)
                    moves.append((fi, vi, pre[fi][vi] + body))
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

    def consistent(self, idx: Index) -> bool:
        """Every causal implication holds."""
        return causal_holds(self.causal, idx)

    def unrepairable(self, idx: Index) -> bool:
        """Some causal rule is violated at ``idx`` and at every state reachable
        from it, so no sequence of actions leads to a consistent state.

        That holds when the values the head feature can still reach miss the
        head's allowed ones, and those each body feature can still reach stay
        inside its literals, since every action keeps to mutability and
        monotonicity.
        """
        return self._broken(list(map(_reach, self.domains.features, idx)))

    def doomed(self, idx: Index) -> bool:
        """No state of the reach box of ``idx`` is a goal, so no sequence of
        actions leads to one.

        The reach box is the product of the values each feature can still
        reach from ``idx`` (:func:`_reach`).  It holds every reachable state,
        since every action (a direct move, a causal repair and so every
        repair-chain step) keeps to mutability and monotonicity.  The whole
        box is tested first, on the reach ranges (:meth:`_ruled_out`).  A box
        it does not rule out becomes one value set per feature, and boxes are
        then popped off a stack and decided in one pass over the rules
        (:meth:`_decide`).  A box that no rule rules out is cut in two along
        the first pair a rule straddles, into the part inside the pair's
        values and the part outside them, and is goal-free only if both parts
        are; the outside part is popped first.  A box on which every rule is
        decided and none rules it out holds only goals.  A goal in the box
        need not be reachable, and the test gives up after :data:`MAX_SPLITS`
        boxes, so ``False`` proves nothing.
        """
        box = list(map(_reach, self.domains.features, idx))
        if self._ruled_out(box):
            return True
        stack = [list(map(frozenset, box))]
        for _ in range(MAX_SPLITS):
            box = stack.pop()
            cut = self._decide(box)
            if cut is None:
                return False  # a goal witness
            if cut is not True:
                i, allowed = cut
                part = box.copy()
                part[i] = box[i] - allowed
                box[i] = box[i] & allowed
                stack.append(box)
                stack.append(part)
            if not stack:
                return True
        return False

    def _decide(self, box: Sequence[frozenset[int]]) -> Union[bool, Pair, None]:
        """Decide every rule on ``box`` (one value set per feature) in one
        pass: ``True`` when some causal rule is broken throughout it or some
        decision rule fires throughout it, ``None`` when every rule is
        decided and none of them is, so that every state of the box is a
        goal, and otherwise the first pair a rule straddles (its axis meets
        the pair's values and leaves them).  Causal rules come first, and
        within one its head pair before its body pairs."""
        cut = None
        for body, head, head_allowed in self.causal:
            values = box[head]
            if values <= head_allowed:
                continue
            straddled = None if head_allowed.isdisjoint(values) else (head, head_allowed)
            for i, allowed in body:
                values = box[i]
                if values.isdisjoint(allowed):
                    break
                if straddled is None and not values <= allowed:
                    straddled = i, allowed
            else:
                if straddled is None:
                    return True
                cut = cut or straddled
        for body in self.decision:
            straddled = None
            for i, allowed in body:
                values = box[i]
                if values.isdisjoint(allowed):
                    break
                if straddled is None and not values <= allowed:
                    straddled = i, allowed
            else:
                if straddled is None:
                    return True
                cut = cut or straddled
        return cut

    def _ruled_out(self, box: Sequence[Sequence[int]]) -> bool:
        """No state of ``box`` (the reach box, one value range per feature)
        is a goal by one rule: some decision rule's body contains the box on
        every body axis, so the rule fires throughout, or some causal rule is
        broken throughout (:meth:`_broken`)."""
        for body in self.decision:
            for i, allowed in body:
                if not allowed.issuperset(box[i]):
                    break
            else:
                return True
        return self._broken(box)

    def _broken(self, box: Sequence[Sequence[int]]) -> bool:
        """Some causal rule is violated at every state of ``box``: its body
        contains the box on every body axis while the head's axis misses the
        head's allowed values."""
        for body, head, head_allowed in self.causal:
            if head_allowed.isdisjoint(box[head]):
                for i, allowed in body:
                    if not allowed.issuperset(box[i]):
                        break
                else:
                    return True
        return False

    def fires(self, idx: Index) -> bool:
        """Some decision rule's body holds."""
        for body in self.decision:
            for i, allowed in body:
                if idx[i] not in allowed:
                    break
            else:
                return True
        return False

    def goal(self, idx: Index) -> bool:
        """Causally consistent and no decision rule fires."""
        return self.consistent(idx) and not self.fires(idx)

    def step(self, k: int, idx: Index) -> Optional[Index]:
        """The successor under action ``k``, or ``None`` when it is not permitted."""
        fi, target, pre = self.moves[k]
        for i, allowed in pre:
            if idx[i] not in allowed:
                return None
        return idx[:fi] + (target,) + idx[fi + 1:]
