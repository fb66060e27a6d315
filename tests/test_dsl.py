import pytest
from hypothesis import given, settings, strategies as st

from recourseplan.domains import Interval
from recourseplan.dsl import parse_problem, pretty_print
from recourseplan.errors import ParseError, SemanticError
from recourseplan.generate import random_problem
from recourseplan.ingest import SCENARIO_NAMES, builtin_scenario

CAR_TEXT = """\
% car evaluation, four features
feature persons: categorical {2, 4, more}.
feature maint: categorical {vhigh, high, med, low}.
feature buying: categorical {vhigh, high, med, low}.
feature safety: categorical {low, med, high}.
decision reject_small :- persons = 2.
initial { persons = 2, maint = med, buying = med, safety = med }.
"""


def test_parse_car_declares_four_features():
    problem = parse_problem(CAR_TEXT)
    assert problem.domains.names == ("persons", "maint", "buying", "safety")
    assert problem.domains.state_count == 144


def test_numeric_labels_are_categorical_values():
    problem = parse_problem(CAR_TEXT)
    assert problem.domains.by_name("persons").labels == ("2", "4", "more")
    assert problem.initial.value("persons") == "2"


def test_empty_decision_section_is_valid():
    problem = parse_problem(
        "feature a: categorical {x, y}.\n"
        "initial { a = x }.\n")
    assert problem.decision_rules == ()


def test_head_in_body_is_semantic_error():
    text = (
        "feature a: categorical {x, y}.\n"
        "causal r: a = y :- a = x.\n"
        "initial { a = x }.\n")
    with pytest.raises(SemanticError) as exc:
        parse_problem(text)
    assert exc.value.kind == "head-in-body"


def test_threshold_induction_from_rules():
    text = (
        "feature n: numeric [1, 120].\n"
        "decision low :- n =< 7.\n"
        "decision mid :- n > 72.\n"
        "initial { n = 7 }.\n")
    problem = parse_problem(text)
    assert problem.domains.by_name("n").intervals == (
        Interval(1, 7), Interval(7, 72, True), Interval(72, 120, True))


def test_strict_and_left_closed_ops_shift_cuts():
    text = (
        "feature n: numeric [0, 10].\n"
        "decision a :- n < 4.\n"
        "decision b :- n >= 8.\n"
        "initial { n = 0 }.\n")
    problem = parse_problem(text)
    assert problem.domains.by_name("n").intervals == (
        Interval(0, 3), Interval(3, 7, True), Interval(7, 10, True))


def test_numeric_equality_isolates_a_singleton():
    text = (
        "feature n: numeric [0, 10].\n"
        "decision hit :- n = 4.\n"
        "initial { n = 0 }.\n")
    problem = parse_problem(text)
    assert Interval(3, 4, True) in problem.domains.by_name("n").intervals


def test_out_of_range_constant_is_just_constant():
    text = (
        "feature n: numeric [1, 10].\n"
        "decision never :- n > 99.\n"
        "decision always :- n =< 99.\n"
        "initial { n = 5 }.\n")
    problem = parse_problem(text)
    assert problem.domains.by_name("n").size == 1
    from recourseplan.rules import eval_rule
    assert not eval_rule(problem.decision_rules[0], problem.initial)
    assert eval_rule(problem.decision_rules[1], problem.initial)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_problem("feature a categorical {x}.\n")
    assert exc.value.line == 1
    assert exc.value.col == 11
    assert "':'" in exc.value.expected


def test_missing_terminator():
    with pytest.raises(ParseError):
        parse_problem("feature a: categorical {x}\nfeature b: categorical {y}.\n")


def test_decimal_constants_rejected():
    with pytest.raises(ParseError) as exc:
        parse_problem("feature n: numeric [0, 10].\ndecision q :- n =< 4.5.\ninitial { n = 1 }.\n")
    assert "decimal" in str(exc.value)


def test_unknown_statement_keyword():
    with pytest.raises(ParseError):
        parse_problem("rule a :- b.\n")


def test_comments_and_blank_lines_ignored():
    problem = parse_problem(
        "% leading comment\n"
        "\n"
        "feature a: categorical {x, y}.  % trailing comment\n"
        "initial { a = y }.\n")
    assert problem.initial.value("a") == "y"


def test_undeclared_feature_in_rule():
    with pytest.raises(SemanticError) as exc:
        parse_problem(
            "feature a: categorical {x}.\n"
            "decision q :- ghost = x.\n"
            "initial { a = x }.\n")
    assert exc.value.kind == "undeclared-feature"


def test_undeclared_feature_in_initial():
    with pytest.raises(SemanticError) as exc:
        parse_problem(
            "feature a: categorical {x}.\n"
            "initial { a = x, ghost = x }.\n")
    assert exc.value.kind == "undeclared-feature"


def test_duplicate_feature_declaration():
    with pytest.raises(SemanticError) as exc:
        parse_problem(
            "feature a: categorical {x}.\n"
            "feature a: categorical {y}.\n"
            "initial { a = x }.\n")
    assert exc.value.kind == "duplicate-declaration"


def test_missing_initial_block():
    with pytest.raises(SemanticError) as exc:
        parse_problem("feature a: categorical {x}.\n")
    assert exc.value.kind == "missing-initial"


def test_incomplete_initial_block():
    with pytest.raises(SemanticError) as exc:
        parse_problem(
            "feature a: categorical {x}.\n"
            "feature b: categorical {y}.\n"
            "initial { a = x }.\n")
    assert exc.value.kind == "missing-initial"


def test_initial_must_respect_causal_rules():
    text = (
        "feature x: categorical {f, t}.\n"
        "feature y: categorical {f, t}.\n"
        "causal imp: y = t :- x = t.\n"
        "initial { x = t, y = f }.\n")
    with pytest.raises(SemanticError) as exc:
        parse_problem(text)
    assert exc.value.kind == "causally-inconsistent-initial"


def test_order_comparison_on_categorical_rejected():
    with pytest.raises(SemanticError) as exc:
        parse_problem(
            "feature a: categorical {x, y}.\n"
            "decision q :- a =< x.\n"
            "initial { a = x }.\n")
    assert exc.value.kind == "type-mismatch"


def test_initial_value_out_of_range():
    with pytest.raises(SemanticError) as exc:
        parse_problem(
            "feature n: numeric [0, 9].\n"
            "initial { n = 50 }.\n")
    assert exc.value.kind == "type-mismatch"


@pytest.mark.parametrize("initial", ["a = z, n = 1", "a = x, n = y"])
def test_initial_value_outside_its_domain_is_a_type_mismatch(initial):
    with pytest.raises(SemanticError) as exc:
        parse_problem(
            "feature a: categorical {x, y}.\n"
            "feature n: numeric [0, 9].\n"
            f"initial {{ {initial} }}.\n")
    assert exc.value.kind == "type-mismatch"


def test_empty_numeric_range_rejected():
    with pytest.raises(SemanticError) as exc:
        parse_problem("feature n: numeric [17, 9].\ninitial { n = 10 }.\n")
    assert exc.value.kind == "type-mismatch"


def test_duplicate_categorical_value_rejected():
    with pytest.raises(SemanticError) as exc:
        parse_problem("feature a: categorical {med, med}.\ninitial { a = med }.\n")
    assert exc.value.kind == "duplicate-declaration"


def test_constraints_parse_into_domains():
    text = (
        "feature a: categorical {x, y}.\n"
        "feature n: numeric [0, 9].\n"
        "constraint immutable a.\n"
        "constraint nondecreasing n.\n"
        "initial { a = x, n = 3 }.\n")
    problem = parse_problem(text)
    assert not problem.domains.by_name("a").mutable
    assert problem.domains.by_name("n").monotonicity == "nondecreasing"


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_round_trip(name):
    problem = builtin_scenario(name).problem
    assert parse_problem(pretty_print(problem)) == problem


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2000))
def test_random_problem_round_trip(seed):
    # Text cannot carry interval cuts that no rule mentions, so normalize the
    # generated problem through text once, then demand an exact fixed point.
    problem = parse_problem(pretty_print(random_problem(seed)))
    printed = pretty_print(problem)
    assert parse_problem(printed) == problem
    assert pretty_print(parse_problem(printed)) == printed
