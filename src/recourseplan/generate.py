"""Seeded random problem instances for stress and property suites.

Instances stay deliberately small (a handful of features, a handful of
values each) so exhaustive enumeration stays cheap while still covering
categorical and interval features, causal rules, decision rules, and every
constraint kind.  The same seed always yields the same instance.
"""

from __future__ import annotations

import random
from typing import Optional

from .domains import Domains, FeatureDomain, Interval, State, partition_range
from .rules import Literal, Model, ProblemSpec, Rule, none_holds

# sampled states before a problem gives up its causal rules for want of a
# consistent initial state
INITIAL_TRIES = 300

# a drawn feature before its constraint roll: name, labels (categorical) or
# intervals (numeric); the other is empty
_Part = tuple[str, tuple[str, ...], tuple[Interval, ...]]


def _random_feature(rng: random.Random, name: str, max_values: int) -> _Part:
    if rng.random() < 0.5:
        size = rng.randint(2, max_values)
        return name, tuple(f"v{j}" for j in range(size)), ()
    lo = rng.randint(0, 5)
    hi = lo + rng.randint(3, 20)
    cuts = rng.randint(0, max_values - 1)
    thresholds = rng.sample(range(lo, hi), min(cuts, hi - lo))
    return name, (), partition_range(lo, hi, thresholds)


def _random_literal(rng: random.Random, part: _Part) -> Literal:
    name, labels, intervals = part
    if labels:
        return Literal(name, rng.choice(("=", "!=")), rng.choice(labels))
    boundary = rng.choice([iv.upper for iv in intervals])
    return Literal(name, rng.choice(("=<", ">")), boundary)


def _constrained_feature(rng: random.Random, part: _Part) -> FeatureDomain:
    """The feature built once, with the flags of its one constraint roll."""
    name, labels, intervals = part
    roll = rng.random()
    mutable, monotonicity = True, "none"
    if roll < 0.15:
        mutable = False
    elif roll < 0.25:
        monotonicity = "nondecreasing"
    elif roll < 0.35:
        monotonicity = "nonincreasing"
    return FeatureDomain(name, "categorical" if labels else "numeric", labels=labels,
                         intervals=intervals, mutable=mutable, monotonicity=monotonicity)


def random_problem(seed: int, *, max_features: int = 5, max_values: int = 4,
                   max_causal: int = 4) -> ProblemSpec:
    """A small random problem, fully determined by ``seed``.

    Draws, in this order: the features' values, the causal rules, the
    decision rules, one constraint roll per feature, then initial states.
    Each feature and the domains are built once, with their constraints,
    after the rolls, and the rules are compiled once, into the problem's
    model; the initial state is sampled on those final domains against the
    model's tables and is the problem's own.  ``max_features`` and ``max_values`` must be at
    least 2 and ``max_causal`` at least 0, or :class:`ValueError` names the
    argument.
    """
    for arg, value, least in (("max_features", max_features, 2),
                              ("max_values", max_values, 2), ("max_causal", max_causal, 0)):
        if value < least:
            raise ValueError(f"{arg} must be at least {least}, got {value}")
    rng = random.Random(seed)
    n = rng.randint(2, max_features)
    parts = [_random_feature(rng, f"f{i}", max_values) for i in range(n)]

    causal: list[Rule] = []
    for k in range(rng.randint(0, max_causal)):
        head_fi = rng.randrange(n)
        others = [i for i in range(n) if i != head_fi]
        body_fis = rng.sample(others, min(rng.randint(1, 2), len(others)))
        body = tuple(_random_literal(rng, parts[i]) for i in body_fis)
        head = _random_literal(rng, parts[head_fi])
        causal.append(Rule(f"c{k}", "causal", body, head=head))

    decision: list[Rule] = []
    for k in range(rng.choices((0, 1, 2, 3), weights=(1, 4, 3, 2))[0]):
        body_fis = rng.sample(range(n), min(rng.randint(1, 2), n))
        body = tuple(_random_literal(rng, parts[i]) for i in body_fis)
        decision.append(Rule(f"q{k}", "decision", body))

    domains = Domains(tuple(_constrained_feature(rng, part) for part in parts))
    model = Model(domains, tuple(causal), tuple(decision))
    initial = _consistent_initial(rng, model)
    if initial is None:
        # no consistent state found by sampling; drop the causal layer so the
        # instance stays usable and deterministic
        model = Model(domains, (), model.decision_rules)
        initial = State(domains, tuple(rng.randrange(size) for size in domains.sizes))
    return model.problem(initial)


def _consistent_initial(rng: random.Random, model: Model) -> Optional[State]:
    """The first of :data:`INITIAL_TRIES` sampled states that satisfies every causal rule.

    Samples index tuples on the model's domains against its compiled causal
    tables, and builds a :class:`State` for the accepted tuple only.
    """
    tables, sizes, randrange = model.causal_tables, model.domains.sizes, rng.randrange
    for _ in range(INITIAL_TRIES):
        idx = tuple([randrange(size) for size in sizes])
        if none_holds(tables, idx):
            return State(model.domains, idx)
    return None
