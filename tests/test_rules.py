import itertools

import pytest
from hypothesis import given, strategies as st

from recourseplan.actions import build_actions, is_permitted
from recourseplan.domains import Domains, FeatureDomain, State, partition_range
from recourseplan.dsl import parse_problem, pretty_print
from recourseplan.errors import SemanticError
from recourseplan.generate import random_problem
from recourseplan.ingest import SCENARIO_NAMES, builtin_scenario
from recourseplan.kernel import CompiledProblem
from recourseplan.oracle import enumerate_causally_consistent, enumerate_states, state_set_report
from recourseplan.planner import get_path
from recourseplan.rules import (Literal, ProblemSpec, Rule, compile_rule, eval_rule,
                                is_causally_consistent, literal_support, none_holds,
                                satisfies_decision)
from tests.contract import check_rule_tables


def bool_pair():
    return Domains((
        FeatureDomain("x", "categorical", labels=("f", "t")),
        FeatureDomain("y", "categorical", labels=("f", "t")),
    ))


def test_causal_rule_is_material_implication():
    # brute force over all four states of a two-feature boolean space
    domains = bool_pair()
    rule = Rule("imp", "causal", (Literal("x", "=", "t"),), head=Literal("y", "=", "t"))
    for xv, yv in itertools.product("ft", repeat=2):
        state = domains.make_state({"x": xv, "y": yv})
        expected = (not (xv == "t")) or (yv == "t")
        assert eval_rule(rule, state) == expected


def test_false_antecedent_satisfies_causal_rule(husband_toy):
    rule = husband_toy.causal_rules[0]
    assert eval_rule(rule, husband_toy.initial)  # never_married: body is false


def test_decision_rule_on_interval_state(adult):
    rule = adult.problem.decision_rules[0]  # fires at or below the threshold
    domains = adult.problem.domains
    high = adult.problem.initial.with_value(domains.index("capital_gain"), 1)
    assert eval_rule(rule, adult.problem.initial)
    assert not eval_rule(rule, high)


def test_empty_causal_set_always_consistent(husband_toy):
    for state in enumerate_states(husband_toy.domains):
        assert is_causally_consistent(state, ())


def test_violating_state_detected(husband_toy):
    domains = husband_toy.domains
    bad = domains.make_state(
        {"sex": "male", "marital_status": "married", "relationship": "unmarried"})
    assert not is_causally_consistent(bad, husband_toy.causal_rules)


def test_consistency_agrees_with_enumeration(husband_toy):
    members = enumerate_causally_consistent(husband_toy)
    for state in enumerate_states(husband_toy.domains):
        assert (state in members) == is_causally_consistent(state, husband_toy.causal_rules)


def test_empty_decision_set_never_fires(husband_toy):
    for state in enumerate_states(husband_toy.domains):
        assert not satisfies_decision(state, ())


def test_decision_is_disjunction_of_conjunctions(car):
    # fires when any one rule's body holds
    p = car.problem
    domains = p.domains
    unsafe = p.initial.with_value(domains.index("safety"), 0)   # safety = low
    seats4 = p.initial.with_value(domains.index("persons"), 1)  # persons = 4
    assert satisfies_decision(p.initial, p.decision_rules)      # persons = 2 fires
    assert satisfies_decision(unsafe, p.decision_rules)
    assert not satisfies_decision(seats4, p.decision_rules)


def test_adult_initial_has_the_undesired_decision(adult):
    assert satisfies_decision(adult.problem.initial, adult.problem.decision_rules)


@given(st.integers(0, 400))
def test_consistency_filter_commutes_with_enumeration(seed):
    problem = random_problem(seed)
    members = enumerate_causally_consistent(problem)
    sample = itertools.islice(enumerate_states(problem.domains), 64)
    for state in sample:
        assert (state in members) == is_causally_consistent(state, problem.causal_rules)


def test_literal_support_categorical():
    d = FeatureDomain("c", "categorical", labels=("a", "b", "z"))
    assert literal_support(d, Literal("c", "=", "b")) == frozenset({1})
    assert literal_support(d, Literal("c", "!=", "b")) == frozenset({0, 2})
    with pytest.raises(SemanticError):
        literal_support(d, Literal("c", "=<", "b"))
    with pytest.raises(SemanticError):
        literal_support(d, Literal("c", "=", "missing"))


def test_literal_support_numeric_equality_needs_singleton():
    d = FeatureDomain("n", "numeric", intervals=partition_range(0, 10, {4, 5}))
    # (4, 5] is the singleton {5}
    assert literal_support(d, Literal("n", "=", 5)) == frozenset({1})
    assert literal_support(d, Literal("n", "!=", 5)) == frozenset({0, 2})
    with pytest.raises(SemanticError):
        literal_support(d, Literal("n", "=", 3))  # inside [0, 4], not isolated


def test_head_in_body_rejected():
    with pytest.raises(SemanticError) as exc:
        Rule("r", "causal", (Literal("a", "=", "x"),), head=Literal("a", "=", "y"))
    assert exc.value.kind == "head-in-body"


def test_decision_rule_rejects_head():
    with pytest.raises(ValueError):
        Rule("r", "decision", (Literal("a", "=", "x"),), head=Literal("b", "=", "y"))


def test_problem_rejects_inconsistent_initial():
    domains = Domains((
        FeatureDomain("x", "categorical", labels=("f", "t")),
        FeatureDomain("y", "categorical", labels=("f", "t")),
    ))
    rule = Rule("imp", "causal", (Literal("x", "=", "t"),), head=Literal("y", "=", "t"))
    bad = domains.make_state({"x": "t", "y": "f"})
    with pytest.raises(SemanticError) as exc:
        ProblemSpec(domains=domains, causal_rules=(rule,), initial=bad)
    assert exc.value.kind == "causally-inconsistent-initial"


def test_problem_rejects_undeclared_feature():
    domains = bool_pair()
    rule = Rule("q", "decision", (Literal("missing", "=", "t"),))
    with pytest.raises(SemanticError) as exc:
        ProblemSpec(domains=domains, decision_rules=(rule,),
                    initial=domains.make_state({"x": "f", "y": "f"}))
    assert exc.value.kind == "undeclared-feature"


def test_problem_rebinds_an_initial_state_only_from_the_same_features():
    income = Domains((FeatureDomain("income", "categorical", labels=("low", "high")),))
    # equal features on another Domains object re-bind
    twin = Domains((FeatureDomain("income", "categorical", labels=("low", "high")),))
    assert ProblemSpec(domains=income, initial=State(twin, (1,))).initial.domains is income
    # the same shape on other names or labels does not
    for other in (Domains((FeatureDomain("x", "categorical", labels=("p", "q")),)),
                  Domains((FeatureDomain("income", "categorical", labels=("high", "low")),)),
                  Domains((FeatureDomain("income", "numeric", intervals=partition_range(0, 1, {0})),))):
        with pytest.raises(ValueError, match="'income'"):
            ProblemSpec(domains=income, initial=State(other, (1,)))
    # nor does a state with a feature more or fewer
    wider = Domains(twin.features + (FeatureDomain("age", "categorical", labels=("young", "old")),))
    with pytest.raises(ValueError, match="'age'"):
        ProblemSpec(domains=income, initial=State(wider, (1, 0)))


def test_problem_names_a_rule_id_declared_twice():
    # the one duplicate-id check, for parsed and code-built problems alike
    domains = bool_pair()
    decision = Rule("r", "decision", (Literal("x", "=", "t"),))
    causal = Rule("r", "causal", (Literal("x", "=", "t"),), head=Literal("y", "=", "t"))
    for rules in ({"decision_rules": (decision, decision)},
                  {"causal_rules": (causal,), "decision_rules": (decision,)}):
        with pytest.raises(SemanticError) as exc:
            ProblemSpec(domains=domains, initial=domains.make_state({"x": "f", "y": "f"}),
                        **rules)
        assert str(exc.value) == "duplicate-declaration: rule id 'r' declared twice"


def test_construction_and_planning_leave_the_rule_caches_empty():
    # the caches serve only the State-level evaluators; building a problem
    # compiles its rules without them, and get_path reads those tables
    compile_rule.cache_clear()
    literal_support.cache_clear()
    texts = ([builtin_scenario(name).text for name in SCENARIO_NAMES]
             + [pretty_print(random_problem(seed, max_features=10, max_values=6))
                for seed in range(20)])
    problems = [parse_problem(text) for text in texts]
    problems += [random_problem(seed) for seed in range(20)]
    for problem in problems:
        get_path(problem)
    assert compile_rule.cache_info().currsize == 0
    assert literal_support.cache_info().currsize == 0
    # the State-level evaluators still fill them
    problem, repair = next((p, a) for p in problems for a in build_actions(p) if a.guard)
    eval_rule(problem.causal_rules[0], problem.initial)
    assert compile_rule.cache_info().currsize == 1
    is_permitted(repair, problem.initial)
    assert literal_support.cache_info().currsize >= 1


def test_a_body_naming_a_feature_twice_compiles_to_one_intersected_pair():
    problem = parse_problem(
        "feature n: numeric [0, 10].\n"
        "feature y: categorical {t, f}.\n"
        "feature z: categorical {a, b}.\n"
        "decision d :- n >= 3, z = a, n =< 9.\n"
        "causal r1: y = t :- n >= 3, n =< 7.\n"
        "causal r2: y = f :- n =< 2.\n"
        "initial { n = 0, y = f, z = a }.\n")
    domains = problem.domains
    n, y, z = map(domains.index, "nyz")
    intervals = domains[n].intervals

    def within(lo, hi):
        return frozenset(i for i, iv in enumerate(intervals)
                         if lo <= iv.min_element and iv.max_element <= hi)

    # a causal rule's breaking table: the head with the values it refuses,
    # then one pair per body feature, in order of first mention
    assert problem.causal_tables == (
        ((y, frozenset({1})), (n, within(3, 7))),
        ((y, frozenset({0})), (n, within(0, 2))),
    )
    assert problem.decision_bodies == (((n, within(3, 9)), (z, frozenset({0}))),)
    # the strata, and the kernel's tests, agree with the State-level evaluators
    kernel = CompiledProblem(problem)
    consistent = fired = 0
    for state in enumerate_states(domains):
        ok = is_causally_consistent(state, problem.causal_rules)
        fires = satisfies_decision(state, problem.decision_rules)
        assert none_holds(kernel.causal, state.idx) == ok
        assert (not none_holds(kernel.decision, state.idx)) == fires
        consistent += ok
        fired += ok and fires
    report = state_set_report(problem)
    assert (report.total_states, report.causally_consistent, report.decision_consistent,
            report.goal) == (domains.state_count, consistent, fired, consistent - fired)


@pytest.mark.parametrize("seed", range(30), ids=lambda seed: f"random {seed}")
def test_each_rule_table_agrees_with_eval_rule_on_every_state(seed):
    check_rule_tables(random_problem(seed, max_features=6, max_values=4))
