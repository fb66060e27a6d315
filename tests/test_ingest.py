import csv

import pytest

from recourseplan.domains import Interval, partition_range
from recourseplan.errors import (CausallyInconsistentRecord, CsvRowError,
                                 EmptyRange, OutOfDomain, SchemaMismatch,
                                 UnknownScenario)
from recourseplan.ingest import (SCENARIO_NAMES, DatasetSchema, builtin_scenario,
                                 load_csv, record_to_state)
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


# csv loading ------------------------------------------------------------------

SCHEMA = DatasetSchema(
    columns=(("marital_status", "categorical"), ("capital_gain", "numeric"),
             ("education_num", "numeric"), ("relationship", "categorical"),
             ("sex", "categorical"), ("age", "numeric"), ("income", "categorical")),
    label_column="income",
    positive_label=">50K",
)

HEADER = "marital_status,capital_gain,education_num,relationship,sex,age,income\n"


def test_load_wellformed_rows(tmp_path):
    f = tmp_path / "adult.csv"
    f.write_text(HEADER
                 + "never_married,1000,11,unmarried,male,28,<=50K\n"
                 + "married,8000,13,husband,male,41,>50K\n"
                 + "never_married,0,9,unmarried,female,23,<=50K\n")
    records, issues = load_csv(str(f), SCHEMA)
    assert len(records) == 3 and issues == []
    assert records[0]["capital_gain"] == 1000
    assert records[0]["marital_status"] == "never_married"


def test_malformed_numeric_aborts_with_line(tmp_path):
    f = tmp_path / "adult.csv"
    f.write_text(HEADER + "never_married,lots,11,unmarried,male,28,<=50K\n")
    with pytest.raises(CsvRowError) as exc:
        load_csv(str(f), SCHEMA)
    assert exc.value.line == 2


def test_skip_policy_collects_issues(tmp_path):
    f = tmp_path / "adult.csv"
    f.write_text(HEADER
                 + "never_married,lots,11,unmarried,male,28,<=50K\n"
                 + "never_married,1000,11,unmarried,male,28,<=50K\n"
                 + "too,few,fields\n")
    records, issues = load_csv(str(f), SCHEMA, on_error="skip")
    assert len(records) == 1
    assert [line for line, _ in issues] == [2, 4]


def test_header_mismatch(tmp_path):
    f = tmp_path / "adult.csv"
    f.write_text("a,b\n1,2\n")
    with pytest.raises(SchemaMismatch):
        load_csv(str(f), SCHEMA)


def test_missing_file():
    with pytest.raises(OSError):
        load_csv("/nonexistent/adult.csv", SCHEMA)


def test_round_trip(tmp_path):
    f = tmp_path / "adult.csv"
    rows = [
        {"marital_status": "never_married", "capital_gain": 1000, "education_num": 11,
         "relationship": "unmarried", "sex": "male", "age": 28, "income": "<=50K"},
        {"marital_status": "married", "capital_gain": 0, "education_num": 16,
         "relationship": "husband", "sex": "male", "age": 60, "income": ">50K"},
    ]
    with open(f, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=[n for n, _ in SCHEMA.columns])
        writer.writeheader()
        writer.writerows(rows)
    records, issues = load_csv(str(f), SCHEMA)
    assert issues == []
    assert records == rows


# record conversion ---------------------------------------------------------------

def test_adult_record_maps_to_scenario_initial(adult):
    p = adult.problem
    record = {"marital_status": "never_married", "capital_gain": 1000,
              "education_num": 11, "relationship": "unmarried", "sex": "male",
              "age": 28}
    state = record_to_state(record, p.domains, p.causal_rules)
    assert state == p.initial
    assert state.rep("capital_gain") == 1000


def test_capital_gain_lands_below_threshold(adult):
    p = adult.problem
    record = {"marital_status": "never_married", "capital_gain": 1000,
              "education_num": 11, "relationship": "unmarried", "sex": "male",
              "age": 28}
    state = record_to_state(record, p.domains, p.causal_rules)
    interval = state.value("capital_gain")
    assert interval == Interval(0, 6849)


def test_record_violating_causal_rule_rejected(adult):
    p = adult.problem
    record = {"marital_status": "married", "capital_gain": 1000,
              "education_num": 11, "relationship": "unmarried", "sex": "male",
              "age": 28}
    with pytest.raises(CausallyInconsistentRecord):
        record_to_state(record, p.domains, p.causal_rules)


def test_record_with_unknown_label_rejected(adult):
    p = adult.problem
    record = {"marital_status": "divorced", "capital_gain": 1000,
              "education_num": 11, "relationship": "unmarried", "sex": "male",
              "age": 28}
    with pytest.raises(OutOfDomain) as exc:
        record_to_state(record, p.domains, p.causal_rules)
    assert exc.value.feature == "marital_status"


def test_record_out_of_range_rejected(adult):
    p = adult.problem
    record = {"marital_status": "never_married", "capital_gain": 1000000,
              "education_num": 11, "relationship": "unmarried", "sex": "male",
              "age": 28}
    with pytest.raises(OutOfDomain):
        record_to_state(record, p.domains, p.causal_rules)


def test_record_missing_feature_rejected(adult):
    p = adult.problem
    with pytest.raises(OutOfDomain) as exc:
        record_to_state({"marital_status": "never_married"}, p.domains, p.causal_rules)
    assert exc.value.feature in p.domains.names


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
