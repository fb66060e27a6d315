"""Seeded random problem instances for stress and property suites.

Instances stay deliberately small (a handful of features, a handful of
values each) so exhaustive enumeration stays cheap while still covering
categorical and interval features, causal rules, decision rules, and every
constraint kind.  The same seed always yields the same instance.
"""

from __future__ import annotations

import random
from typing import Optional

from .domains import Domains, FeatureDomain, PlausibilityConstraint, State, partition_range
from .rules import Literal, ProblemSpec, Rule, _compile_rule


def _random_feature(rng: random.Random, name: str, max_values: int) -> FeatureDomain:
    if rng.random() < 0.5:
        size = rng.randint(2, max_values)
        return FeatureDomain(name, "categorical",
                             labels=tuple(f"v{j}" for j in range(size)))
    lo = rng.randint(0, 5)
    hi = lo + rng.randint(3, 20)
    cuts = rng.randint(0, max_values - 1)
    thresholds = rng.sample(range(lo, hi), min(cuts, hi - lo))
    return FeatureDomain(name, "numeric", intervals=partition_range(lo, hi, thresholds))


def _random_literal(rng: random.Random, feature: FeatureDomain) -> Literal:
    if feature.kind == "categorical":
        return Literal(feature.name, rng.choice(("=", "!=")), rng.choice(feature.labels))
    boundary = rng.choice([iv.upper for iv in feature.intervals])
    return Literal(feature.name, rng.choice(("=<", ">")), boundary)


def random_problem(seed: int, *, max_features: int = 5, max_values: int = 4,
                   max_causal: int = 4, max_decision: int = 3,
                   action_budget: Optional[int] = None) -> ProblemSpec:
    """A small random problem, fully determined by ``seed``."""
    rng = random.Random(seed)
    n = rng.randint(2, max_features)
    domains = Domains(tuple(_random_feature(rng, f"f{i}", max_values) for i in range(n)))

    causal: list[Rule] = []
    for k in range(rng.randint(0, max_causal)):
        head_fi = rng.randrange(n)
        others = [i for i in range(n) if i != head_fi]
        body_fis = rng.sample(others, min(rng.randint(1, 2), len(others)))
        body = tuple(_random_literal(rng, domains[i]) for i in body_fis)
        head = _random_literal(rng, domains[head_fi])
        causal.append(Rule(f"c{k}", "causal", body, head=head))

    decision: list[Rule] = []
    for k in range(rng.choices((0, 1, 2, 3), weights=(1, 4, 3, 2))[0]):
        if k >= max_decision:
            break
        body_fis = rng.sample(range(n), min(rng.randint(1, 2), n))
        body = tuple(_random_literal(rng, domains[i]) for i in body_fis)
        decision.append(Rule(f"q{k}", "decision", body))

    constraints: list[PlausibilityConstraint] = []
    for f in domains:
        roll = rng.random()
        if roll < 0.15:
            constraints.append(PlausibilityConstraint(f.name, "immutable"))
        elif roll < 0.25:
            constraints.append(PlausibilityConstraint(f.name, "nondecreasing"))
        elif roll < 0.35:
            constraints.append(PlausibilityConstraint(f.name, "nonincreasing"))

    initial = _consistent_initial(rng, domains, tuple(causal))
    if initial is None:
        # no consistent state found by sampling; drop the causal layer so the
        # instance stays usable and deterministic
        causal = []
        initial = State(domains, tuple(rng.randrange(f.size) for f in domains))

    return ProblemSpec(
        domains=domains,
        causal_rules=tuple(causal),
        decision_rules=tuple(decision),
        constraints=tuple(constraints),
        initial=initial,
        action_budget=action_budget,
    )


def _consistent_initial(rng: random.Random, domains: Domains,
                        causal: tuple[Rule, ...], tries: int = 300) -> Optional[State]:
    """The first sampled state that satisfies every causal rule.

    Samples index tuples against the rules compiled once, and builds a
    :class:`State` for the accepted tuple only.
    """
    tables = [_compile_rule(domains, rule) for rule in causal]
    for _ in range(tries):
        idx = tuple(rng.randrange(f.size) for f in domains)
        if all(idx[i] in allowed or not all(idx[j] in a for j, a in body)
               for body, (i, allowed) in tables):
            return State(domains, idx)
    return None
