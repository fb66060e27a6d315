import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from recourseplan.actions import apply_action, build_actions, is_permitted
from recourseplan.domains import Domains, FeatureDomain
from recourseplan.dsl import parse_problem
from recourseplan.errors import NotApplicable
from recourseplan.generate import random_problem
from recourseplan.ingest import SCENARIO_NAMES, builtin_scenario
from recourseplan.oracle import enumerate_states
from recourseplan.rules import ProblemSpec, is_causally_consistent
from tests.conftest import check_golden, golden_line
from tests.contract import TEXTS, named_problem


def _of_kind(problem, kind):
    return tuple(a for a in build_actions(problem) if a.kind == kind)


def test_direct_action_count_is_sum_of_mutable_domain_sizes(car):
    actions = _of_kind(car.problem, "direct")
    assert len(actions) == 3 + 4 + 4 + 3


def test_car_has_the_persons_four_action(car):
    actions = _of_kind(car.problem, "direct")
    domains = car.problem.domains
    assert any(a.feature == "persons" and domains[a.feature_index].value_text(a.new_index) == "4"
               for a in actions)


def test_immutable_feature_gets_no_actions(adult):
    actions = _of_kind(adult.problem, "direct")
    assert not any(a.feature == "sex" for a in actions)


def test_direct_actions_in_declaration_then_domain_order(german):
    actions = _of_kind(german.problem, "direct")
    assert [a.id for a in actions[:4]] == [
        "direct:duration_months:[1, 7]",
        "direct:duration_months:(7, 72]",
        "direct:checking_account_status:no_checking_account",
        "direct:checking_account_status:geq_200",
    ]


def test_builders_are_deterministic(adult):
    p = adult.problem
    assert build_actions(p) == build_actions(p)


def test_no_causal_rules_no_causal_actions(car):
    assert _of_kind(car.problem, "causal") == ()


def test_husband_rule_yields_one_guarded_action(husband_toy):
    actions = _of_kind(husband_toy, "causal")
    assert len(actions) == 1
    (a,) = actions
    assert a.kind == "causal"
    assert a.feature == "relationship"
    assert husband_toy.domains[a.feature_index].value_text(a.new_index) == "husband"
    assert a.guard == husband_toy.causal_rules[0].body


def test_causal_action_safety_exhaustive(husband_toy):
    # from every guard-satisfying state the action lands in a consistent state
    (action,) = _of_kind(husband_toy, "causal")
    for state in enumerate_states(husband_toy.domains):
        if is_permitted(action, state):
            after = apply_action(action, state)
            assert is_causally_consistent(after, husband_toy.causal_rules)


def test_guard_sweep_does_not_depend_on_literal_order():
    # r1's guard names n twice; the sweep must cover 3 =< n =< 7 only, where
    # setting y = t breaks no rule, whichever literal comes first
    text = TEXTS["guard naming a feature twice"]
    ids = []
    for body in ("n >= 3, n =< 7", "n =< 7, n >= 3"):
        problem = parse_problem(text.replace("n >= 3, n =< 7", body))
        ids.append([a.id for a in _of_kind(problem, "causal")])
    assert ids[0] == ids[1]
    assert "causal:r1:y:t" in ids[0]


def test_conflicting_repairs_are_discarded():
    # two rules demand different values of b when a = t; neither repair can
    # guarantee consistency, so no causal action survives
    assert _of_kind(named_problem("conflicting repairs"), "causal") == ()


def test_causal_action_for_immutable_head_discarded(husband_toy):
    domains = Domains(tuple(dataclasses.replace(f, mutable=False) if f.name == "relationship"
                            else f for f in husband_toy.domains))
    constrained = ProblemSpec(domains=domains, causal_rules=husband_toy.causal_rules,
                              initial=husband_toy.initial)
    actions = _of_kind(constrained, "causal")
    assert actions == ()


def test_apply_changes_exactly_the_target(german):
    p = german.problem
    actions = _of_kind(p, "direct")
    move = next(a for a in actions if a.id == "direct:duration_months:(7, 72]")
    after = apply_action(move, p.initial)
    assert after.value("duration_months").lower_open
    for name in p.domains.names:
        if name != "duration_months":
            assert after.value(name) == p.initial.value(name)


def test_apply_to_same_value_not_applicable(car):
    p = car.problem
    actions = _of_kind(p, "direct")
    stay = next(a for a in actions if a.id == "direct:persons:2")
    assert not is_permitted(stay, p.initial)
    with pytest.raises(NotApplicable):
        apply_action(stay, p.initial)


def test_guard_failure_not_applicable(husband_toy):
    (action,) = _of_kind(husband_toy, "causal")
    assert not is_permitted(action, husband_toy.initial)  # never_married
    with pytest.raises(NotApplicable):
        apply_action(action, husband_toy.initial)


def test_monotone_feature_cannot_move_down():
    text = (
        "feature age: numeric [17, 90].\n"
        "decision young :- age =< 30.\n"
        "constraint nondecreasing age.\n"
        "initial { age = 40 }.\n")
    problem = parse_problem(text)
    actions = _of_kind(problem, "direct")
    down = next(a for a in actions if a.id.endswith("[17, 30]"))
    assert not is_permitted(down, problem.initial)
    with pytest.raises(NotApplicable):
        apply_action(down, problem.initial)


def test_nonincreasing_is_symmetric():
    domains = Domains((
        FeatureDomain("level", "categorical", labels=("low", "mid", "high"),
                      monotonicity="nonincreasing"),
    ))
    mid = domains.make_state({"level": "mid"})
    actions = _of_kind(ProblemSpec(domains=domains, initial=mid), "direct")
    permitted = {domains[a.feature_index].value_text(a.new_index) for a in actions if is_permitted(a, mid)}
    assert permitted == {"low"}


@settings(max_examples=40)
@given(st.integers(0, 2000))
def test_permitted_iff_apply_succeeds(seed):
    problem = random_problem(seed)
    actions = build_actions(problem)
    states = list(enumerate_states(problem.domains))[:40]
    for state in states:
        for action in actions:
            if is_permitted(action, state):
                apply_action(action, state)
            else:
                with pytest.raises(NotApplicable):
                    apply_action(action, state)


@settings(max_examples=40)
@given(st.integers(0, 2000))
def test_every_application_writes_exactly_one_feature(seed):
    problem = random_problem(seed)
    actions = build_actions(problem)
    states = list(enumerate_states(problem.domains))[:40]
    for state in states:
        for action in actions:
            if not is_permitted(action, state):
                continue
            after = apply_action(action, state)
            diff = [n for n in problem.domains.names if after.value(n) != state.value(n)]
            assert diff == [action.feature]


@settings(max_examples=40)
@given(st.integers(0, 2000))
def test_causal_actions_always_land_consistent(seed):
    problem = random_problem(seed)
    causal = _of_kind(problem, "causal")
    states = list(enumerate_states(problem.domains))[:40]
    for state in states:
        for action in causal:
            if is_permitted(action, state):
                after = apply_action(action, state)
                assert is_causally_consistent(after, problem.causal_rules)


@settings(max_examples=30)
@given(st.integers(0, 2000))
def test_monotone_features_never_move_backwards_along_walks(seed):
    # reachable transition sequences respect monotone constraints end to end
    from recourseplan.oracle import delta_oracle

    problem = random_problem(seed)
    monotone = [(i, f.monotonicity) for i, f in enumerate(problem.domains)
                if f.monotonicity != "none"]
    if not monotone:
        return
    actions = build_actions(problem)
    frontier = {problem.initial}
    seen = set(frontier)
    for _ in range(3):
        nxt = set()
        for state in frontier:
            for succ in delta_oracle(state, problem, actions):
                for i, direction in monotone:
                    if direction == "nondecreasing":
                        assert succ.idx[i] >= state.idx[i]
                    else:
                        assert succ.idx[i] <= state.idx[i]
                if succ not in seen:
                    seen.add(succ)
                    nxt.add(succ)
        frontier = nxt


# one line per problem in tests/golden/actions.txt, for the four bundled
# scenarios, then random_problem seeds 0-199 at the default tier and at
# max_features=8, max_values=5: label, action count, repair count, and the hash
# of the list of each action's id, kind, feature index, new index and guard
def test_action_lists_match_pinned_digest():
    problems = [(name, builtin_scenario(name).problem) for name in SCENARIO_NAMES]
    problems += [(f"default:{seed}", random_problem(seed)) for seed in range(200)]
    problems += [(f"8/5:{seed}", random_problem(seed, max_features=8, max_values=5))
                 for seed in range(200)]
    lines = []
    for label, problem in problems:
        actions = build_actions(problem)
        record = [(a.id, a.kind, a.feature_index, a.new_index, a.guard) for a in actions]
        causal = sum(a.kind == "causal" for a in actions)
        lines.append(golden_line(label, len(actions), causal, record=repr(record)))
    check_golden("actions.txt", lines)
