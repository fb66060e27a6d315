"""The causal-repair guard sweep's box test against state enumeration.

``CompiledProblem`` decides whether a repair lands consistent from every
guard state with one test per causal rule.  Here it is checked, candidate by
candidate, against the enumerating sweep it replaced, on the bundled
scenarios, seeded random problems and hand-made edge cases; and a problem
whose guard box holds millions of states shows that the kernel enumerates
none of them.  The oracle's own sweep, over its own literal tables, is
checked against the kernel's list too.
"""

import itertools
import math

import pytest

from recourseplan import kernel as kernel_module, oracle
from recourseplan.actions import build_actions
from recourseplan.dsl import parse_problem
from recourseplan.generate import random_problem
from recourseplan.ingest import SCENARIO_NAMES, builtin_scenario
from recourseplan.kernel import CompiledProblem
from recourseplan.rules import none_holds

BOX_CAP = 10 ** 6  # boxes beyond this many states are not enumerated here


def _enumerating_sweep(kernel, axes, guard, feature_index, new_index):
    """The sweep as it was before the box test, verbatim but for ``self`` and
    the consistency test, ``none_holds`` on the breaking tables."""
    axes = list(axes)
    for fi, allowed in guard:
        axes[fi] = sorted(allowed.intersection(axes[fi]))
    axes[feature_index] = (new_index,)
    return all(none_holds(kernel.causal, idx) for idx in itertools.product(*axes))


def _compare(problem):
    """Check every repair candidate; return (kept, checked, skipped) counts."""
    kernel = CompiledProblem(problem)
    domains = problem.domains
    named = {i for table in kernel.causal for i, _ in table}
    axes = [range(f.size) if fi in named else range(1) for fi, f in enumerate(domains)]
    kept = {aid for aid, rule in zip(kernel.ids, kernel.rules) if rule is not None}
    expected = []
    checked = skipped = 0
    for rule, ((fi, refused), *body) in zip(problem.causal_rules, kernel.causal):
        f = domains[fi]
        if not f.mutable:
            continue
        allowed = set(range(f.size)) - refused
        for vi in sorted(allowed):
            aid = f"causal:{rule.id}:{f.name}:{f.value_text(vi)}"
            box = [len(axis) for axis in axes]
            for i, support in body:
                box[i] = len(support.intersection(range(box[i])))
            box[fi] = 1
            if math.prod(box) > BOX_CAP:
                skipped += 1
                continue
            checked += 1
            if _enumerating_sweep(kernel, axes, body, fi, vi):
                expected.append(aid)
            assert (aid in kept) == (aid in expected), aid
    # kept repairs come in candidate order
    assert [aid for aid in kernel.ids if aid in expected] == expected
    return len(expected), checked, skipped


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
        for k, n in enumerate(_compare(random_problem(seed, **kwargs))):
            totals[k] += n
    assert tuple(totals) == TIER_COUNTS[tier]


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_box_test_matches_enumeration_on_scenarios(name):
    _compare(builtin_scenario(name).problem)


CRAFTED = {
    # r1's guard names n twice: its box holds 3 =< n =< 7 only, where y = t
    # breaks no rule
    "feature named twice": (
        "feature n: numeric [0, 10].\n"
        "feature y: categorical {t, f}.\n"
        "causal r1: y = t :- n >= 3, n =< 7.\n"
        "causal r2: y = f :- n =< 2.\n"
        "initial { n = 0, y = f }.\n",
        ["causal:r1:y:t", "causal:r2:y:f"]),
    # no n satisfies r1's guard: its box is empty, so the repair is kept,
    # though y = t breaks r2 wherever b = t
    "contradictory guard": (
        "feature n: numeric [0, 10].\n"
        "feature b: categorical {f, t}.\n"
        "feature y: categorical {t, f}.\n"
        "causal r1: y = t :- n >= 8, n =< 2.\n"
        "causal r2: y = f :- b = t.\n"
        "initial { n = 0, b = f, y = f }.\n",
        ["causal:r1:y:t", "causal:r2:y:f"]),
    # r2's body is contradictory, so it never fires and never blocks r1,
    # though each of its literals alone meets r1's box
    "rule that never fires": (
        "feature n: numeric [0, 10].\n"
        "feature b: categorical {f, t}.\n"
        "feature y: categorical {t, f}.\n"
        "causal r1: y = t :- b = t.\n"
        "causal r2: y = f :- n >= 8, n =< 2.\n"
        "initial { n = 0, b = f, y = f }.\n",
        ["causal:r1:y:t", "causal:r2:y:f"]),
    # repairs of an immutable head are never candidates
    "immutable head": (
        "feature a: categorical {f, t}.\n"
        "feature b: categorical {f, t}.\n"
        "causal r1: b = t :- a = t.\n"
        "constraint immutable b.\n"
        "initial { a = f, b = f }.\n",
        []),
    # r1 and r2 demand different values of b when a = t
    "conflicting repairs": (
        "feature a: categorical {f, t}.\n"
        "feature b: categorical {f, t}.\n"
        "causal r1: b = t :- a = t.\n"
        "causal r2: b = f :- a = t.\n"
        "initial { a = f, b = f }.\n",
        []),
    # r2's repair: the box meets r1's and r3's bodies, but its axes on their
    # heads lie inside the allowed values; r3's repair leaves r1 violated at
    # a = z; no rule names u
    "head inside another rule": (
        "feature a: categorical {x, y, z}.\n"
        "feature b: categorical {f, t}.\n"
        "feature c: categorical {f, t}.\n"
        "feature u: categorical {p, q}.\n"
        "causal r1: b = t :- a != x.\n"
        "causal r2: c = t :- b = t, a = y.\n"
        "causal r3: c != f :- a = z.\n"
        "initial { a = x, b = f, c = t, u = p }.\n",
        ["causal:r2:c:t"]),
}


@pytest.mark.parametrize("name", list(CRAFTED))
def test_box_test_matches_enumeration_on_edge_cases(name):
    text, kept = CRAFTED[name]
    problem = parse_problem(text)
    _compare(problem)
    kernel = CompiledProblem(problem)
    assert [aid for aid, rule in zip(kernel.ids, kernel.rules) if rule is not None] == kept


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
    _, (a0, support) = problem.causal_tables[0]
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

def _own_and_planner_lists(problem):
    """``(feature, value, guard table)`` per action of the oracle's own list
    and of ``build_actions``' list, each guard tabled by the oracle."""
    domains = problem.domains
    own = list(oracle._own_actions(problem))
    listed = [(a.feature_index, a.new_index, oracle._table(domains, a.guard))
              for a in build_actions(problem)]
    return own, listed


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
    kept = 0
    for seed in range(seeds):
        own, listed = _own_and_planner_lists(random_problem(seed, **kwargs))
        assert own == listed, seed
        kept += sum(1 for _, _, guard in own if guard)
    assert kept == repairs


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_oracle_lists_the_planner_actions_on_scenarios(name):
    own, listed = _own_and_planner_lists(builtin_scenario(name).problem)
    assert own == listed


@pytest.mark.parametrize("name", list(CRAFTED))
def test_oracle_lists_the_planner_actions_on_edge_cases(name):
    # the first three problems name n twice in one rule: the oracle intersects its pairs
    text, kept = CRAFTED[name]
    own, listed = _own_and_planner_lists(parse_problem(text))
    assert own == listed
    assert sum(1 for _, _, guard in own if guard) == len(kept)
