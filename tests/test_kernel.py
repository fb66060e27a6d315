"""The compiled kernel agrees with the State-level rule and action API, and
its doomed-state test with its reach box, on seeded random problems (the
named problems run the same checks in ``tests/test_contract.py``); the
doomed test's box counts and search budgets; the per-shape tables every
problem shares."""

import dataclasses
import sys

import pytest

from recourseplan import domains as domains_module, kernel, oracle
from recourseplan.actions import Action, build_actions
from recourseplan.domains import FeatureDomain
from recourseplan.dsl import parse_problem
from recourseplan.generate import random_problem
from recourseplan.ingest import SCENARIO_NAMES, builtin_scenario
from recourseplan.kernel import MAX_SPLITS, CompiledProblem
from recourseplan.oracle import bfs_shortest_path, enumerate_causally_consistent
from recourseplan.planner import get_path
from recourseplan.rules import ProblemSpec
from tests.contract import check_doomed, check_kernel, goal, reachable_values


@pytest.mark.parametrize("seed", (0, 5, 6, 12, 27, 30), ids=lambda seed: f"random {seed}")
def test_kernel_matches_state_api_on_every_state(seed):
    check_kernel(random_problem(seed, max_features=6, max_values=5))


def _counting_boxes(monkeypatch) -> list:
    """Count the boxes :func:`kernel.doomed` decides, the reach box
    first: each is one call to :func:`kernel._decide`."""
    boxes = []
    real = kernel._decide

    def counting(tables, box):
        boxes.append(1)
        return real(tables, box)

    monkeypatch.setattr(kernel, "_decide", counting)
    return boxes


def test_no_goal_is_reachable_from_a_doomed_state(monkeypatch):
    # seeds 43, 56, 90 and 118 hold states that only the box split decides
    seeds = [*range(25), 43, 56, 90, 118]
    problems = ([builtin_scenario(name).problem for name in SCENARIO_NAMES]
                + [random_problem(seed, max_features=6, max_values=4) for seed in seeds])
    boxes = _counting_boxes(monkeypatch)
    doomed = split = 0
    for problem in problems:
        for state in enumerate_causally_consistent(problem):
            boxes.clear()
            if kernel.doomed(problem, state.idx):
                doomed += 1
                split += len(boxes) > 1  # the reach box alone did not decide it
                assert bfs_shortest_path(dataclasses.replace(problem, initial=state)) is None
    assert 0 < split < doomed


# the most boxes one start's doomed test visited, the reach box included,
# seeds 0-349, 0-119 and 0-199 (8/5 seed 206, 10/6 seed 2, 12/6/C10 seed
# 150), and the boxes all of a tier's non-goal starts visited
BOX_BOUNDS = [
    ("8/5", dict(max_features=8, max_values=5), 350, 7, 422),
    ("10/6", dict(max_features=10, max_values=6), 120, 5, 134),
    ("12/6/C10", dict(max_features=12, max_values=6, max_causal=10), 200, 10, 297),
]


@pytest.mark.parametrize("tier, seeds, most, total",
                         [(tier, n, most, total) for _, tier, n, most, total in BOX_BOUNDS],
                         ids=[name for name, *_ in BOX_BOUNDS])
def test_doomed_visits_few_boxes(tier, seeds, most, total, monkeypatch):
    # counted rather than timed, so a slow host cannot fail it; twice the
    # measured maximum leaves room for a change of split order, while the
    # exact total pins the order itself (decision cuts before causal cuts)
    # and one pass over the tables per box
    boxes = _counting_boxes(monkeypatch)
    visited = []
    for seed in range(seeds):
        problem = random_problem(seed, **tier)
        if not goal(problem, problem.initial.idx):
            boxes.clear()
            kernel.doomed(problem, problem.initial.idx)
            visited.append(len(boxes))
    assert max(visited) <= 2 * most
    assert sum(visited) == total


def _two_valued_problem(n: int, rules: list[str], constraints: list[str] = ()) -> ProblemSpec:
    """Features f0..f{n-1} over {a, b}, all starting at a."""
    lines = [f"feature f{i}: categorical {{a, b}}." for i in range(n)]
    lines += rules + list(constraints)
    lines.append("initial { " + ", ".join(f"f{i} = a" for i in range(n)) + " }.")
    return parse_problem("\n".join(lines))


def test_doomed_finds_a_goal_deeper_than_the_search_budget(monkeypatch):
    # the one goal, f0..f28 = b and f29 = a, lies in the reach box, and the
    # split meets it after 31 boxes, cutting along d{i}'s f{i} = a and
    # popping f{i} = b first, so the start is not doomed.  The goal is 29
    # monotone moves deep, and the breadth-first search spends the default
    # budget (10 * 60 actions * 30 features) on the states nearer the start.
    rules = [f"decision d{i} :- f{i} = a, f29 = a." for i in range(29)]
    problem = _two_valued_problem(30, rules + ["decision e :- f29 = b."],
                                  [f"constraint nondecreasing f{i}." for i in range(29)])
    boxes = _counting_boxes(monkeypatch)
    assert not kernel.doomed(problem, problem.initial.idx)
    assert len(boxes) <= 1 + MAX_SPLITS
    trace = get_path(problem)
    assert (trace.status, trace.expansions) == ("budget-exhausted", 18000)


def test_doomed_gives_up_after_max_splits_boxes(monkeypatch):
    # 8/5 seed 263 is doomed after 5 boxes; with 4 the split gives up, and
    # the search proves the failure by expanding every reachable consistent
    # state (SEARCHED_FAILURES in test_planner.py)
    monkeypatch.setattr(kernel, "MAX_SPLITS", 4)
    problem = random_problem(263, max_features=8, max_values=5)
    boxes = _counting_boxes(monkeypatch)
    assert not kernel.doomed(problem, problem.initial.idx)
    assert len(boxes) <= 5
    trace = get_path(problem)
    assert (trace.status, trace.expansions) == ("failure", 1615)
    assert bfs_shortest_path(problem) is None


# random_problem tiers small enough to enumerate every start's reach box
EXACT_TIERS = [(dict(max_features=6, max_values=4), 120),
               (dict(max_features=6, max_values=4, max_causal=8), 200)]


def test_doomed_is_exact_on_every_enumerable_reach_box():
    problems = [random_problem(seed, **tier) for tier, n in EXACT_TIERS for seed in range(n)]
    starts = sum(map(check_doomed, problems))
    assert starts > 20000


def test_doomed_splits_more_axes_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 200
    body = ", ".join(f"f{i} = a" for i in range(n))
    trace = get_path(_two_valued_problem(n, [f"decision d :- {body}."]))
    assert (trace.status, trace.expansions) == ("success", 1)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_ids_are_formatted_on_first_use(name, monkeypatch):
    problem = builtin_scenario(name).problem
    calls = []
    real_value_text = FeatureDomain.value_text

    def counting_value_text(self, index):
        calls.append((self.name, index))
        return real_value_text(self, index)

    monkeypatch.setattr(FeatureDomain, "value_text", counting_value_text)
    kernel = CompiledProblem(problem)
    assert calls == []
    # formatted one at a time and in any order, each id is the action list's
    last_first = [kernel.action_id(k) for k in reversed(range(len(kernel.moves)))]
    assert kernel.ids == tuple(reversed(last_first))
    assert kernel.ids == tuple(a.id for a in build_actions(problem))


# one feature position and size under each of its four constraint settings
SHAPE_TEXT = """\
feature x: categorical {{a, b, c}}.
feature y: categorical {{f, t}}.
causal r: y = t :- x = c.
{}initial {{ x = b, y = f }}.
"""
SHAPE_CONSTRAINTS = ("", "constraint nondecreasing x.\n", "constraint nonincreasing x.\n",
                     "constraint immutable x.\n")


@pytest.mark.parametrize("order", (1, -1), ids=("forward", "backward"))
def test_per_shape_tables_are_shared_exactly(order):
    # the memos start empty, and each problem meets the tables the ones
    # before it left; a memo that drops monotonicity or mutability from its
    # key hands one of them another's tables
    for memo in (kernel._direct_moves, domains_module._reaches, oracle._may_leave):
        memo.cache_clear()
    problems = [parse_problem(SHAPE_TEXT.format(c)) for c in SHAPE_CONSTRAINTS[::order]]
    for problem in problems:
        features = problem.domains.features
        check_kernel(problem)
        assert problem.domains.reaches == tuple(
            tuple(frozenset(reachable_values(f, vi)) for vi in range(f.size)) for f in features)
        assert all(type(axis) is frozenset for axes in problem.domains.reaches for axis in axes)
        # every direct move the oracle can be handed, on immutable x too
        listed = [Action(f"direct:{f.name}:{vi}", "direct", f.name, fi, vi)
                  for fi, f in enumerate(features) for vi in range(f.size)]
        for fi, target, ((i, leave), *guard) in oracle._Tables(problem, listed).moves:
            f = features[fi]
            assert (i, guard) == (fi, [])
            assert leave == {vi for vi in range(f.size)
                             if vi != target and target in reachable_values(f, vi)}
