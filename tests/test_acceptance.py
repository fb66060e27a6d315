"""Acceptance suite: three golden scenario paths, property checks over 1000
seeded random instances and over 100 larger ones, the verdicts of the
slowest known seeds, and the determinism contract.

Run ``pytest tests/test_acceptance.py -v -s`` to see one verdict line per
criterion.
"""

import dataclasses
import time
from dataclasses import dataclass
from typing import Optional

import pytest

from recourseplan.actions import Action, build_actions
from recourseplan.domains import Interval
from recourseplan.generate import random_problem
from recourseplan.ingest import builtin_scenario
from recourseplan.oracle import (ValidationReport, bfs_shortest_path,
                                 compute_goal_set, enumerate_states,
                                 validate_solution_path)
from recourseplan.planner import (CandidatePath, PathTrace,
                                  extract_candidate_path, get_path,
                                  is_counterfactual)
from recourseplan.rules import ProblemSpec, is_causally_consistent
from tests.conftest import run_cli

SUITE_SIZE = 1000
SUITE_TIME_BUDGET_SECONDS = 60.0
GOLDEN_TIME_BUDGET_SECONDS = 1.0


@dataclass
class SuiteEntry:
    seed: int
    problem: ProblemSpec
    actions: tuple[Action, ...]
    trace: PathTrace
    path: Optional[CandidatePath]
    report: Optional[ValidationReport]
    shortest: Optional[CandidatePath]


@pytest.fixture(scope="module")
def suite():
    entries = []
    plan_and_validate = 0.0
    for seed in range(SUITE_SIZE):
        problem = random_problem(seed)
        actions = build_actions(problem)
        budget = problem.state_count * max(1, len(actions))
        problem = dataclasses.replace(problem, action_budget=budget)
        started = time.perf_counter()
        trace = get_path(problem)
        path = report = None
        if trace.status == "success":
            path = extract_candidate_path(trace)
            report = validate_solution_path(path, problem)
        plan_and_validate += time.perf_counter() - started
        shortest = bfs_shortest_path(problem, actions=actions)
        entries.append(SuiteEntry(seed, problem, actions, trace, path, report, shortest))
    return entries, plan_and_validate


def _run_golden(name):
    started = time.perf_counter()
    scenario = builtin_scenario(name)
    trace = get_path(scenario.problem)
    path = extract_candidate_path(trace)
    elapsed = time.perf_counter() - started
    return scenario, path, elapsed


def _changed(a, b):
    return {n: (a.value(n), b.value(n)) for n in a.domains.names
            if a.value(n) != b.value(n)}


def test_criterion_01_adult_golden_path():
    scenario, path, elapsed = _run_golden("adult")
    assert len(path) == 2
    changed = _changed(path.states[0], path.states[1])
    assert set(changed) == {"capital_gain"}
    before, after = changed["capital_gain"]
    assert before == Interval(0, 6849) and before.contains(1000)
    assert after == Interval(6849, 99999, lower_open=True)
    assert elapsed < GOLDEN_TIME_BUDGET_SECONDS
    print(f"\nACCEPTANCE 1 PASS: adult path of 2 states, capital_gain "
          f"[0, 6849] -> (6849, 99999], {elapsed:.3f}s")


def test_criterion_02_car_golden_path():
    scenario, path, elapsed = _run_golden("car")
    assert len(path) == 2
    changed = _changed(path.states[0], path.states[1])
    assert changed == {"persons": ("2", "4")}
    assert elapsed < GOLDEN_TIME_BUDGET_SECONDS
    print(f"\nACCEPTANCE 2 PASS: car path of 2 states, persons 2 -> 4, {elapsed:.3f}s")


def test_criterion_03_german_golden_path():
    scenario, path, elapsed = _run_golden("german")
    assert len(path) == 3
    first = _changed(path.states[0], path.states[1])
    second = _changed(path.states[1], path.states[2])
    assert set(first) == {"duration_months"}
    assert path.states[0].value("duration_months").contains(7)
    assert first["duration_months"][1] == Interval(7, 72, lower_open=True)
    assert second == {"checking_account_status": ("no_checking_account", "geq_200")}
    assert elapsed < GOLDEN_TIME_BUDGET_SECONDS
    print(f"\nACCEPTANCE 3 PASS: german path of 3 states, duration 7 -> (7, 72] "
          f"then checking -> geq_200, {elapsed:.3f}s")


def test_criterion_04_soundness_on_random_suite(suite):
    entries, seconds = suite
    successes = [e for e in entries if e.trace.status == "success"]
    assert len(entries) == SUITE_SIZE
    invalid = [e.seed for e in successes if not e.report.overall]
    assert invalid == []
    assert seconds < SUITE_TIME_BUDGET_SECONDS
    print(f"\nACCEPTANCE 4 PASS: {len(successes)}/{SUITE_SIZE} successful runs all "
          f"validate on every clause, plan+validate {seconds:.1f}s")


def test_criterion_05_goal_test_equivalence(suite):
    entries, _ = suite
    checked = mismatches = 0
    for e in entries:
        if e.problem.state_count > 10**5:
            continue
        goal = compute_goal_set(e.problem)
        for state in enumerate_states(e.problem.domains):
            if is_causally_consistent(state, e.problem.causal_rules):
                checked += 1
                member = state in goal
                test = is_counterfactual(state, e.problem.causal_rules,
                                         e.problem.decision_rules)
                if member != test:
                    mismatches += 1
    assert mismatches == 0
    print(f"\nACCEPTANCE 5 PASS: goal test agrees with enumerated goal membership "
          f"on {checked} consistent states across {len(entries)} instances")


def test_criterion_06_step_membership_and_proper_prefix(suite):
    entries, _ = suite
    successes = [e for e in entries if e.trace.status == "success"]
    bad_steps = [e.seed for e in successes if not e.report.steps_are_transitions]
    bad_prefix = [e.seed for e in successes if not e.report.prefix_avoids_goal]
    assert bad_steps == []
    assert bad_prefix == []
    steps = sum(len(e.path) - 1 for e in successes)
    print(f"\nACCEPTANCE 6 PASS: {steps} path steps are all one-step transitions; "
          f"no non-final state is a goal")


def test_criterion_07_failure_matches_unreachability(suite):
    entries, _ = suite
    diverging = [
        e.seed for e in entries
        if (e.trace.status == "failure") != (e.shortest is None)
    ]
    assert diverging == []
    failures = sum(1 for e in entries if e.trace.status == "failure")
    print(f"\nACCEPTANCE 7 PASS: planner failure coincides with oracle "
          f"unreachability on all {SUITE_SIZE} instances ({failures} failures)")


def test_criterion_08_no_budget_exhaustion_at_state_action_budget(suite):
    entries, _ = suite
    exhausted = [e.seed for e in entries if e.trace.status == "budget-exhausted"]
    assert exhausted == []
    print(f"\nACCEPTANCE 8 PASS: zero budget-exhausted outcomes with "
          f"budget = |states| * |actions|")


def test_criterion_09_byte_identical_structured_output():
    for name in ("adult", "car", "german", "german_motivating"):
        code1, first, _ = run_cli("plan", "--scenario", name, "--format", "structured")
        code2, second, _ = run_cli("plan", "--scenario", name, "--format", "structured")
        assert code1 == code2 == 0
        assert first == second
    print("\nACCEPTANCE 9 PASS: repeated runs produce byte-identical structured output")


# acceptance at scale ------------------------------------------------------------------

# random_problem(seed, max_features=9, max_values=5) for these seeds spans
# about 9,000 states on average and 216,000 at most, where the 1000-instance
# suite above averages about 42.
SCALE_SEEDS = range(1000, 1100)


@pytest.fixture(scope="module")
def scale_suite():
    entries = []
    for seed in SCALE_SEEDS:
        problem = random_problem(seed, max_features=9, max_values=5)
        entries.append((seed, problem, get_path(problem)))
    return entries


def _trace_record(trace: PathTrace):
    return (trace.status, trace.expansions,
            [(e.state.idx, e.state.reps, e.actions_taken, ok) for e, ok in trace.entry_records()])


def test_scale_successes_validate_and_are_no_shorter_than_bfs(scale_suite):
    successes = 0
    for seed, problem, trace in scale_suite:
        if trace.status != "success":
            continue
        successes += 1
        path = extract_candidate_path(trace)
        assert validate_solution_path(path, problem).overall, seed
        assert len(path) >= len(bfs_shortest_path(problem)), seed
    assert successes > 0


def test_scale_failures_match_unreachability(scale_suite):
    failures = [(seed, problem) for seed, problem, trace in scale_suite
                if trace.status == "failure"]
    assert failures
    assert [seed for seed, problem in failures if bfs_shortest_path(problem) is not None] == []


def test_scale_runs_are_deterministic(scale_suite):
    for seed, problem, trace in scale_suite:
        assert _trace_record(get_path(problem)) == _trace_record(trace), seed


# the slowest seeds seen on the 8/5 and 12/6/C10 tiers, with their verdicts
# (263 and 25 failed after 1,614 and 923 expansions, and 53 exhausted its
# budget after 4,290, until the doomed-start test split the reach box; a
# decision rule fires at every state reachable from 29's start.  Each run now
# fails before its first expansion.)
NAMED_SLOW_SEEDS = [
    ("8/5 263", dict(max_features=8, max_values=5), 263, ("failure", 0)),
    ("12/6/C10 25", dict(max_features=12, max_values=6, max_causal=10), 25, ("failure", 0)),
    ("12/6/C10 29", dict(max_features=12, max_values=6, max_causal=10), 29, ("failure", 0)),
    ("12/6/C10 53", dict(max_features=12, max_values=6, max_causal=10), 53, ("failure", 0)),
]


@pytest.mark.parametrize("tier, seed, expected",
                         [(tier, seed, expected) for _, tier, seed, expected in NAMED_SLOW_SEEDS],
                         ids=[name for name, *_ in NAMED_SLOW_SEEDS])
def test_named_slow_seed_verdicts(tier, seed, expected):
    trace = get_path(random_problem(seed, **tier))
    assert (trace.status, trace.expansions) == expected


def test_seed_263_fails_and_bfs_finds_no_goal():
    assert bfs_shortest_path(random_problem(263, max_features=8, max_values=5)) is None


def test_seed_29_fails_and_bfs_finds_no_goal():
    problem = random_problem(29, max_features=12, max_values=6, max_causal=10)
    assert bfs_shortest_path(problem) is None
