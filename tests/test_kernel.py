"""The compiled kernel agrees with the State-level rule and action API on
every state of small problems, its action list with ``build_actions``, its
one-feature consistency check with the full one after every action out of a
consistent state, and its doomed-state test with the oracle's reachability."""

import dataclasses

import pytest

from recourseplan.actions import apply_action, build_actions, is_permitted
from recourseplan.domains import FeatureDomain
from recourseplan.generate import random_problem
from recourseplan.ingest import SCENARIO_NAMES, builtin_scenario
from recourseplan.kernel import CompiledProblem
from recourseplan.oracle import bfs_shortest_path, enumerate_causally_consistent, enumerate_states
from recourseplan.planner import is_counterfactual
from recourseplan.rules import is_causally_consistent, satisfies_decision

PROBLEMS = ([(name, lambda name=name: builtin_scenario(name).problem) for name in SCENARIO_NAMES]
            + [(f"random {seed}",
                lambda seed=seed: random_problem(seed, max_features=6, max_values=5))
               for seed in (0, 5, 6, 12, 27, 30)])


@pytest.mark.parametrize("make", [make for _, make in PROBLEMS], ids=[name for name, _ in PROBLEMS])
def test_kernel_matches_state_api_on_every_state(make):
    problem = make()
    domains = problem.domains
    kernel = CompiledProblem(problem)
    kernel.compile_actions()
    actions = build_actions(problem)
    assert kernel.ids == tuple(a.id for a in actions)
    assert all(domains[fi].mutable for fi, _, _ in kernel.moves)
    causal, decision = problem.causal_rules, problem.decision_rules
    for state in enumerate_states(domains):
        idx = state.idx
        consistent = kernel.consistent(idx)
        assert consistent == is_causally_consistent(state, causal)
        assert kernel.fires(idx) == satisfies_decision(state, decision)
        assert kernel.goal(idx) == is_counterfactual(state, causal, decision)
        for k, action in enumerate(actions):
            expected = apply_action(action, state).idx if is_permitted(action, state) else None
            assert kernel.step(k, idx) == expected
            if consistent and expected is not None:
                assert (kernel.consistent_after(action.feature_index, expected)
                        == kernel.consistent(expected))


def test_no_goal_is_reachable_from_a_doomed_state():
    problems = ([builtin_scenario(name).problem for name in SCENARIO_NAMES]
                + [random_problem(seed, max_features=6, max_values=4) for seed in range(25)])
    doomed = 0
    for problem in problems:
        kernel = CompiledProblem(problem)
        for state in enumerate_causally_consistent(problem):
            if kernel.doomed(state.idx):
                doomed += 1
                assert bfs_shortest_path(dataclasses.replace(problem, initial=state)) is None
    assert doomed


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
    kernel.compile_actions()
    assert calls == []
    # formatted one at a time and in any order, each id is formatted once
    # and is the action list's
    last_first = [kernel.action_id(k) for k in reversed(range(len(kernel.moves)))]
    assert kernel.ids == tuple(reversed(last_first))
    assert len(calls) == len(kernel.moves)
    assert kernel.ids == tuple(a.id for a in build_actions(problem))
