"""One compiled form of a problem for the hot loops.

Search, the causal-repair guard sweep and the state-space enumeration all
test plain index tuples against the rules and step them by actions, millions
of times on large spaces.  :class:`CompiledProblem` resolves every rule and
action to (feature position, allowed value indices) pairs once, so those
loops never touch :class:`~recourseplan.domains.State`, the domain tree or a
cache keyed by it.  ``State`` objects exist only at the API boundary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from .domains import Domains
from .rules import Pairs, Rule, compile_literals, compile_rule

if TYPE_CHECKING:
    from .actions import Action

Index = tuple[int, ...]


def _holds(pairs: Pairs, idx: Index) -> bool:
    for i, allowed in pairs:
        if idx[i] not in allowed:
            return False
    return True


def _preconditions(domains: Domains, action: Action) -> Pairs:
    """Pairs that hold exactly where the action is permitted: its guard, and
    the written feature mutable, off the target, and on the side of it that
    the feature's monotonicity allows."""
    f = domains[action.feature_index]
    target = action.new_index
    sources = frozenset(
        v for v in range(f.size)
        if f.mutable and v != target
        and not (f.monotonicity == "nondecreasing" and target < v)
        and not (f.monotonicity == "nonincreasing" and target > v))
    return ((action.feature_index, sources),) + compile_literals(domains, action.guard)


class CompiledProblem:
    """Rules and actions of one problem, compiled against its domains.

    ``causal`` holds one ``(body pairs, head position, head allowed)`` triple
    per causal rule, and ``causal_on`` the triples of the rules that name each
    feature, in feature order.  ``decision`` holds the body pairs of each
    decision rule, and ``moves`` one ``(feature index, new index, precondition
    pairs)`` triple per action, in action order; ``ids`` are the action ids in
    that order.
    """

    __slots__ = ("domains", "ids", "causal", "causal_on", "decision", "moves")

    def __init__(self, domains: Domains, causal_rules: Sequence[Rule] = (),
                 decision_rules: Sequence[Rule] = (),
                 actions: Sequence[Action] = ()) -> None:
        self.domains = domains
        self.ids = tuple(a.id for a in actions)
        self.causal = tuple((body, *head) for body, head in
                            (compile_rule(domains, rule) for rule in causal_rules))
        causal_on: list[tuple] = [()] * len(domains.features)
        for rule in self.causal:
            named = {rule[1]}
            for i, _ in rule[0]:
                named.add(i)
            for fi in named:
                causal_on[fi] += (rule,)
        self.causal_on = tuple(causal_on)
        self.decision = tuple(compile_rule(domains, rule)[0] for rule in decision_rules)
        self.moves = tuple((a.feature_index, a.new_index, _preconditions(domains, a))
                           for a in actions)

    def consistent(self, idx: Index) -> bool:
        """Every causal implication holds."""
        for body, head_pos, head_allowed in self.causal:
            if idx[head_pos] not in head_allowed and _holds(body, idx):
                return False
        return True

    def consistent_after(self, feature_index: int, idx: Index) -> bool:
        """Every causal implication that names the feature holds.

        Equal to ``consistent(idx)`` when ``idx`` differs from a causally
        consistent state in that feature alone: the other rules read the same
        values as there, where they hold.
        """
        for body, head_pos, head_allowed in self.causal_on[feature_index]:
            if idx[head_pos] not in head_allowed and _holds(body, idx):
                return False
        return True

    def fires(self, idx: Index) -> bool:
        """Some decision rule's body holds."""
        for body in self.decision:
            if _holds(body, idx):
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
