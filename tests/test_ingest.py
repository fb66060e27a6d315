import pytest

from recourseplan.domains import Interval, partition_range
from recourseplan.errors import EmptyRange, UnknownScenario
from recourseplan.ingest import SCENARIO_NAMES, builtin_scenario
from recourseplan.rules import is_causally_consistent, satisfies_decision


# interval induction ---------------------------------------------------------

def test_induce_intervals_duration():
    parts = partition_range(1, 120, {7, 72})
    assert parts == (Interval(1, 7), Interval(7, 72, True), Interval(72, 120, True))


def test_induce_intervals_without_thresholds():
    assert partition_range(5, 9, ()) == (Interval(5, 9),)


def test_induce_intervals_empty_range():
    with pytest.raises(EmptyRange):
        partition_range(9, 5, ())


# scenarios --------------------------------------------------------------------------

@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_initial_is_consistent_and_currently_decided(name):
    scenario = builtin_scenario(name)
    p = scenario.problem
    assert is_causally_consistent(p.initial, p.causal_rules)
    assert satisfies_decision(p.initial, p.decision_rules)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_golden_metadata_is_domain_valid(name):
    scenario = builtin_scenario(name)
    domains = scenario.problem.domains
    assert scenario.golden_length == len(scenario.golden_steps) + 1
    for step in scenario.golden_steps:
        f = domains.by_name(step.feature)
        texts = {f.value_text(i) for i in range(f.size)}
        assert step.to_value in texts


def test_unknown_scenario():
    with pytest.raises(UnknownScenario):
        builtin_scenario("titanic")
