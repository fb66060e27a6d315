import sys

import pytest
from hypothesis import given, settings, strategies as st

from recourseplan import dsl
from recourseplan.domains import Domains, FeatureDomain, Interval, partition_range
from recourseplan.dsl import parse_problem, pretty_print
from recourseplan.errors import SEMANTIC_KINDS, ParseError, SemanticError
from recourseplan.generate import random_problem
from recourseplan.ingest import SCENARIO_NAMES, builtin_scenario
from recourseplan.rules import ProblemSpec
from tests.conftest import read_parse_rows

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


PARSE_ROWS = read_parse_rows()


@pytest.mark.parametrize("row", PARSE_ROWS, ids=[row.name for row in PARSE_ROWS])
def test_parse_contract(row):
    # an exception of any other class fails the row; the position, expectation
    # and kind a message shows are the error's attributes too
    try:
        parse_problem(row.text)
        outcome = "ok"
    except ParseError as exc:
        outcome = f"ParseError: {exc}"
        assert str(exc).startswith(f"line {exc.line}, col {exc.col}: ")
        assert str(exc).endswith(f" (expected {exc.expected})" if exc.expected else "")
    except SemanticError as exc:
        outcome = f"SemanticError: {exc}"
        assert str(exc).startswith(f"{exc.kind}: ")
    assert outcome == row.outcome


# the message a ParseError starts with, by where it is raised: the tokenizer
# (a character no token starts with, a decimal), then the parser (a lexeme or
# the end of the input where the grammar wants another).  An over-long integer,
# whose limit is the interpreter's, is tested below instead
PARSE_ERROR_ORIGINS = ("unexpected character ", "decimal constant ", "unexpected '",
                       "unexpected end of input ")


def test_parse_contract_covers_every_error_kind_and_origin():
    outcomes = [row.outcome.split(": ", 2) for row in PARSE_ROWS]
    kinds = {outcome[1] for outcome in outcomes if outcome[0] == "SemanticError"}
    messages = [outcome[2] for outcome in outcomes if outcome[0] == "ParseError"]
    assert kinds == set(SEMANTIC_KINDS)
    assert [origin for origin in PARSE_ERROR_ORIGINS
            if not any(message.startswith(origin) for message in messages)] == []


# the interpreter's limit on the digits int() converts (0 when it has none)
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_DIGITS, reason="this interpreter has no int-string limit")
@pytest.mark.parametrize("text, line, col", [
    ("feature n: numeric [0, {huge}].\n", 1, 24),
    ("feature n: numeric [-{huge}, 0].\n", 1, 21),
    ("feature n: numeric [0, 10].\ndecision d :- n >= {huge}.\n", 2, 20),
    ("feature n: numeric [0, 10].\ninitial {{ n = {huge} }}.\n", 2, 15),
], ids=["range bound", "negative range bound", "rule constant", "initial value"])
def test_an_over_long_integer_is_a_parse_error_at_its_token(text, line, col):
    digits = INT_DIGITS + 1
    with pytest.raises(ParseError) as exc:
        parse_problem(text.format(huge="9" * digits))
    assert f"integer constant of {digits} digits is too long" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_comments_and_blank_lines_ignored():
    problem = parse_problem(
        "% leading comment\n"
        "\n"
        "feature a: categorical {x, y}.  % trailing comment\n"
        "initial { a = y }.\n")
    assert problem.initial.value("a") == "y"


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


def test_constraint_order_does_not_change_the_problem():
    # constraints live on the features, so their statement order is not
    # part of the problem; the printer writes them in feature order
    features = ("feature a: categorical {x, y}.\n"
                "feature n: numeric [0, 9].\n"
                "feature m: numeric [0, 9].\n")
    first = parse_problem(features + "constraint immutable a.\n"
                          "constraint nonincreasing m.\n"
                          "constraint nondecreasing n.\n"
                          "initial { a = x, n = 3, m = 5 }.\n")
    second = parse_problem(features + "constraint nondecreasing n.\n"
                           "constraint nonincreasing m.\n"
                           "constraint immutable a.\n"
                           "initial { a = x, n = 3, m = 5 }.\n")
    assert first == second
    assert pretty_print(first) == pretty_print(second)
    printed = [line for line in pretty_print(first).splitlines() if line.startswith("constraint")]
    assert printed == ["constraint immutable a.", "constraint nondecreasing n.",
                       "constraint nonincreasing m."]


def _api_built_problem() -> ProblemSpec:
    """A problem built in code, its constraints set on the features it builds."""
    domains = Domains((
        FeatureDomain("a", "categorical", labels=("x", "y"), mutable=False),
        FeatureDomain("n", "numeric", intervals=partition_range(0, 9, ())),
        FeatureDomain("m", "numeric", intervals=partition_range(0, 9, ()),
                      monotonicity="nonincreasing"),
    ))
    return ProblemSpec(domains=domains, initial=domains.make_state({"a": "y", "n": 4, "m": 2}))


@pytest.mark.parametrize(
    "make", [lambda name=name: builtin_scenario(name).problem for name in SCENARIO_NAMES]
    + [_api_built_problem], ids=[*SCENARIO_NAMES, "api-built"])
def test_scenario_round_trip(make):
    problem = make()
    assert parse_problem(pretty_print(problem)) == problem


@settings(max_examples=60)
@given(st.integers(0, 2000))
def test_random_problem_round_trip(seed):
    # Text cannot carry interval cuts that no rule mentions, so normalize the
    # generated problem through text once, then demand an exact fixed point.
    problem = parse_problem(pretty_print(random_problem(seed)))
    printed = pretty_print(problem)
    assert parse_problem(printed) == problem
    assert pretty_print(parse_problem(printed)) == printed


def test_printed_wide_problems_are_fixed_points():
    # the problems the CLI benchmark reads: 10/6 seeds 0-119 printed once.
    # Printing a generated problem can lose cuts (seed 3's f0 has 5 intervals
    # and reparses with 3); printing a parsed one loses nothing.
    tier = dict(max_features=10, max_values=6)
    generated = random_problem(3, **tier)
    assert parse_problem(pretty_print(generated)).domains[0].size < generated.domains[0].size
    for seed in range(120):
        problem = parse_problem(pretty_print(random_problem(seed, **tier)))
        assert parse_problem(pretty_print(problem)) == problem, seed


def _chain_text(n: int) -> str:
    """N two-valued features, N decision rules and N - 1 causal rules."""
    lines = [f"feature f{i}: categorical {{a, b}}." for i in range(n)]
    lines += [f"decision d{i} :- f{i} = a." for i in range(n)]
    lines += [f"causal c{i}: f{i + 1} = a :- f{i} = a." for i in range(n - 1)]
    lines.append("initial { " + ", ".join(f"f{i} = b" for i in range(n)) + " }.")
    return "\n".join(lines) + "\n"


def _parse_lines_run(text: str) -> int:
    """The number of lines of ``dsl.py`` executed while parsing ``text``: a
    count of work that does not depend on the machine's load."""
    count = 0

    def in_dsl(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return in_dsl

    def calls(frame, event, arg):
        return in_dsl if frame.f_code.co_filename == dsl.__file__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        parse_problem(text)
    finally:
        sys.settrace(previous)
    return count


def test_parse_time_is_linear_in_features_and_rules():
    small, large = _parse_lines_run(_chain_text(100)), _parse_lines_run(_chain_text(400))
    # 4x the input: about 4x the work when linear, 16x when quadratic
    assert large / small < 7
