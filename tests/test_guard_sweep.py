"""The causal-repair guard sweep's box test against state enumeration.

``CompiledProblem`` decides whether a repair lands consistent from every
guard state with one test per causal rule.  Here it is checked, candidate by
candidate, against the enumerating sweep it replaced, on seeded random
problems (the named problems run the same check in
``tests/test_contract.py``); the crafted edge cases keep the repairs listed
here; and a problem whose guard box holds millions of states shows that the
kernel enumerates none of them.  The oracle's own sweep, over its own literal
tables, is checked against the kernel's list too.
"""

import math

import pytest

from recourseplan import kernel as kernel_module
from recourseplan.dsl import parse_problem
from recourseplan.generate import random_problem
from recourseplan.kernel import CompiledProblem
from recourseplan.rules import none_holds
from tests.contract import BOX_CAP, check_guard_sweep, check_own_list, named_problem

TIERS = [
    ("default", {}, 200),
    ("8/5", dict(max_features=8, max_values=5), 200),
    ("10/6", dict(max_features=10, max_values=6), 200),
    ("12/6/C10", dict(max_features=12, max_values=6, max_causal=10), 60),
]

# (kept, checked, skipped) over each tier's seeds; 12/6/C10 leaves 5 boxes of
# more than 10^6 states unchecked
TIER_COUNTS = {
    "default": (297, 482, 0),
    "8/5": (279, 489, 0),
    "10/6": (297, 602, 0),
    "12/6/C10": (108, 433, 5),
}


@pytest.mark.parametrize("tier,kwargs,seeds", TIERS, ids=[name for name, _, _ in TIERS])
def test_box_test_matches_enumeration_on_random_problems(tier, kwargs, seeds):
    totals = [0, 0, 0]
    for seed in range(seeds):
        for k, n in enumerate(check_guard_sweep(random_problem(seed, **kwargs))):
            totals[k] += n
    assert tuple(totals) == TIER_COUNTS[tier]


# the causal repairs the kernel keeps on the crafted problems of tests/contract.py
CRAFTED_REPAIRS = {
    "guard naming a feature twice": ["causal:r1:y:t", "causal:r2:y:f"],
    "contradictory guard": ["causal:r1:y:t", "causal:r2:y:f"],
    "rule that never fires": ["causal:r1:y:t", "causal:r2:y:f"],
    "immutable head": [],
    "conflicting repairs": [],
    "head inside another rule": ["causal:r2:c:t"],
}


def test_crafted_problems_keep_the_listed_repairs():
    kept = {}
    for name in CRAFTED_REPAIRS:
        kernel = CompiledProblem(named_problem(name))
        kept[name] = [aid for aid, rule in zip(kernel.ids, kernel.rules) if rule is not None]
    assert kept == CRAFTED_REPAIRS


def _wide_problem():
    """Seven eight-valued features and a head y: the guard box of r1's
    repair holds 7 * 8**6 = 1,835,008 states, all of them consistent."""
    labels = ", ".join(f"v{k}" for k in range(8))
    lines = [f"feature a{i}: categorical {{{labels}}}.\n" for i in range(7)]
    lines.append("feature y: categorical {t, f}.\n")
    lines.append("causal r1: y = t :- a0 != v0.\n")
    lines += [f"causal r{i + 1}: a{i} = v1 :- y = f.\n" for i in range(1, 7)]
    values = ", ".join(f"a{i} = v1" for i in range(7))
    lines.append(f"initial {{ {values}, y = t }}.\n")
    return parse_problem("".join(lines))


def test_kernel_enumerates_no_guard_box(monkeypatch):
    problem = _wide_problem()
    domains = problem.domains
    _, (a0, support) = problem.model.causal_tables[0]
    y = domains.index("y")
    assert math.prod(domains.sizes) // (domains.sizes[a0] * domains.sizes[y]) \
        * len(support) >= BOX_CAP
    calls = []
    real = none_holds

    def counting(tables, idx):
        calls.append(idx)
        return real(tables, idx)

    monkeypatch.setattr(kernel_module, "none_holds", counting)
    kernel = CompiledProblem(problem)
    assert calls == []
    # the list the enumerating sweep gives: r1's repair survives, and every
    # r2-r7 repair leaves the other five rules violated
    direct = tuple(f"direct:{f.name}:{f.value_text(v)}" for f in domains for v in range(f.size))
    assert kernel.ids == ("causal:r1:y:t",) + direct


# the oracle's own action list -------------------------------------------------------

# each tier's seeds, and the causal repairs kept over them
OWN_LIST_TIERS = [
    ("8/5", dict(max_features=8, max_values=5), 350, 466),
    ("10/6", dict(max_features=10, max_values=6), 200, 297),
    ("12/6/C10", dict(max_features=12, max_values=6, max_causal=10), 200, 312),
]


@pytest.mark.parametrize("kwargs, seeds, repairs",
                         [(kwargs, seeds, repairs) for _, kwargs, seeds, repairs in OWN_LIST_TIERS],
                         ids=[name for name, *_ in OWN_LIST_TIERS])
def test_oracle_lists_the_planner_actions_on_random_problems(kwargs, seeds, repairs):
    assert sum(check_own_list(random_problem(seed, **kwargs)) for seed in range(seeds)) == repairs
