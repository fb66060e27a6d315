"""One compiled form of a problem for the hot loops.

Search and the causal-repair guard sweep test plain index tuples against the
rules and step them by actions, millions of times on large spaces.
:class:`CompiledProblem` resolves every rule to (feature position, allowed
value indices) pairs once per problem, runs the guard sweep on them and
derives the action list and every action's precondition from them, so those
loops never touch :class:`~recourseplan.domains.State`, the domain tree or a
cache keyed by it.  ``State`` and :class:`~recourseplan.actions.Action`
objects exist only at the API boundary.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .domains import FeatureDomain
from .rules import Pairs, ProblemSpec, Rule, compile_rule

Index = tuple[int, ...]


def _holds(pairs: Pairs, idx: Index) -> bool:
    for i, allowed in pairs:
        if idx[i] not in allowed:
            return False
    return True


def _sources(f: FeatureDomain, target: int) -> frozenset[int]:
    """Values a mutable feature may move to ``target`` from: any other value
    on the side of it that the feature's monotonicity allows."""
    below, above = range(target), range(target + 1, f.size)
    if f.monotonicity == "nondecreasing":
        return frozenset(below)
    if f.monotonicity == "nonincreasing":
        return frozenset(above)
    return frozenset(itertools.chain(below, above))


class CompiledProblem:
    """Rules and actions of one problem, compiled against its domains.

    ``causal`` holds one ``(body pairs, head position, head allowed)`` triple
    per causal rule, and ``causal_on`` the triples of the rules that name each
    feature, in feature order.  ``decision`` holds the body pairs of each
    decision rule.

    The action list comes in order: verified causal repairs first, then one
    direct move per (mutable feature, value), in declaration then domain
    order.  ``ids`` are the action ids, ``rules`` the causal rule each action
    repairs (``None`` for a direct move), and ``moves`` one ``(feature index,
    new index, precondition pairs)`` triple per action.  A precondition holds
    exactly where the action is permitted: the feature off the target, on the
    side of it that monotonicity allows, and a repair's guard (its rule's
    body pairs).
    """

    __slots__ = ("domains", "causal", "causal_on", "decision", "ids", "rules", "moves")

    def __init__(self, problem: ProblemSpec) -> None:
        domains = self.domains = problem.domains
        causal_rules = problem.causal_rules
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
        self.decision = tuple(compile_rule(domains, rule)[0] for rule in problem.decision_rules)

        ids: list[str] = []
        rules: list[Optional[Rule]] = []
        moves: list[tuple[int, int, Pairs]] = []
        axes = [range(f.size) if causal_on[fi] else range(1) for fi, f in enumerate(domains)]
        for rule, (body, fi, allowed) in zip(causal_rules, self.causal):
            f = domains[fi]
            if not f.mutable:
                continue
            for vi in sorted(allowed):
                if self._always_consistent_after(axes, body, fi, vi):
                    ids.append(f"causal:{rule.id}:{f.name}:{f.value_text(vi)}")
                    rules.append(rule)
                    moves.append((fi, vi, ((fi, _sources(f, vi)),) + body))
        for fi, f in enumerate(domains):
            if f.mutable:
                for vi in range(f.size):
                    ids.append(f"direct:{f.name}:{f.value_text(vi)}")
                    rules.append(None)
                    moves.append((fi, vi, ((fi, _sources(f, vi)),)))
        self.ids, self.rules, self.moves = tuple(ids), tuple(rules), tuple(moves)

    def _always_consistent_after(self, axes: Sequence[Sequence[int]], guard: Pairs,
                                 feature_index: int, new_index: int) -> bool:
        """Whether setting the feature yields a consistent state from every
        guard state: the causal-repair guard sweep.

        ``axes`` ranges over the features some causal rule names and pins
        the rest, since no other feature can influence the guard or
        consistency.  A guard feature ranges over the values all of its
        literals allow, and the written feature is fixed at its new value.
        """
        axes = list(axes)
        for fi, allowed in guard:
            axes[fi] = sorted(allowed.intersection(axes[fi]))
        axes[feature_index] = (new_index,)
        return all(map(self.consistent, itertools.product(*axes)))

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
