"""The compiled kernel agrees with the State-level rule and action API on
every state of small problems, its action list with ``build_actions``, and
its one-feature consistency check with the full one after every action out
of a consistent state."""

import pytest

from recourseplan.actions import apply_action, build_actions, is_permitted
from recourseplan.generate import random_problem
from recourseplan.ingest import SCENARIO_NAMES, builtin_scenario
from recourseplan.kernel import CompiledProblem
from recourseplan.oracle import enumerate_states
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
