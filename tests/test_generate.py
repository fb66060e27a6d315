import dataclasses
import hashlib

import pytest

from recourseplan.domains import Domains, FeatureDomain, State
from recourseplan.dsl import pretty_print
from recourseplan.generate import random_problem
from recourseplan.rules import is_causally_consistent


def test_same_seed_same_problem():
    assert random_problem(123) == random_problem(123)
    assert pretty_print(random_problem(99)) == pretty_print(random_problem(99))


def test_seeds_cover_distinct_problems():
    texts = {pretty_print(random_problem(seed)) for seed in range(40)}
    assert len(texts) > 30


def test_generated_problems_respect_the_advertised_bounds():
    saw_causal = saw_constraint = saw_numeric = False
    for seed in range(300):
        p = random_problem(seed)
        assert 2 <= len(p.domains) <= 5
        assert all(f.size <= 4 for f in p.domains)
        assert len(p.causal_rules) <= 4
        assert len(p.decision_rules) <= 3
        assert is_causally_consistent(p.initial, p.causal_rules)
        saw_causal = saw_causal or bool(p.causal_rules)
        saw_constraint = saw_constraint or any(
            not f.mutable or f.monotonicity != "none" for f in p.domains)
        saw_numeric = saw_numeric or any(f.kind == "numeric" for f in p.domains)
    assert saw_causal and saw_constraint and saw_numeric


# SHA-256 over the printed text and the budget of every problem in four
# blocks of seeds and size tiers (features/values[/causal]): 8/5, 10/6, the
# default tier and 12/6/C10.  It changes only when a seed's problem changes.
GENERATED_DIGEST = "0928c5c02f9f32e9d553c4f1427f576d19956a4f34f9f9b30827ac0c0c62b2f5"


def test_generated_problems_match_pinned_digest():
    blocks = [(range(350), {"max_features": 8, "max_values": 5}),
              (range(120), {"max_features": 10, "max_values": 6}),
              (range(200), {}),
              (range(60), {"max_features": 12, "max_values": 6, "max_causal": 10})]
    digest = hashlib.sha256()
    for seeds, params in blocks:
        for seed in seeds:
            p = random_problem(seed, **params)
            digest.update(pretty_print(p).encode())
            digest.update(repr(p.action_budget).encode())
    assert digest.hexdigest() == GENERATED_DIGEST


# SHA-256 over the repr of every problem's domains (each feature's full
# interval partition and constraint flags, which the printed text drops),
# rules and initial indices and witnesses, over the same four blocks.
STRUCTURE_DIGEST = "b4ddeba6a721308d5f24b5df0fa0ff5e00d73031797fe06b1bdc583c015a5395"


def test_generated_structure_matches_pinned_digest():
    blocks = [(range(350), {"max_features": 8, "max_values": 5}),
              (range(120), {"max_features": 10, "max_values": 6}),
              (range(200), {}),
              (range(60), {"max_features": 12, "max_values": 6, "max_causal": 10})]
    digest = hashlib.sha256()
    for seeds, params in blocks:
        for seed in seeds:
            p = random_problem(seed, **params)
            digest.update(repr((p.domains, p.causal_rules, p.decision_rules,
                                p.initial.idx, p.initial.reps)).encode())
    assert digest.hexdigest() == STRUCTURE_DIGEST


def test_each_problem_builds_its_features_domains_and_state_once(monkeypatch):
    # every feature is built with its constraint flags, one Domains holds
    # them, and the initial state is sampled on it; nothing is rebuilt
    built = {FeatureDomain: 0, Domains: 0, State: 0}
    for cls in built:
        def counting_post_init(self, cls=cls, real=cls.__post_init__):
            built[cls] += 1
            real(self)
        monkeypatch.setattr(cls, "__post_init__", counting_post_init)
    replaced = []

    def counting_replace(obj, /, **changes):
        replaced.append(obj)
        return real_replace(obj, **changes)
    real_replace = dataclasses.replace
    monkeypatch.setattr(dataclasses, "replace", counting_replace)
    for seed in range(350):
        for cls in built:
            built[cls] = 0
        p = random_problem(seed, max_features=8, max_values=5)
        assert built == {FeatureDomain: len(p.domains), Domains: 1, State: 1}, seed
        assert p.initial.domains is p.domains
    assert replaced == []


@pytest.mark.parametrize("arg, value", [("max_features", 1), ("max_values", 1),
                                        ("max_causal", -1)])
def test_bad_size_arguments_are_named(arg, value):
    with pytest.raises(ValueError, match=arg):
        random_problem(3, **{arg: value})
