import io

import pytest

from recourseplan import builtin_scenario, parse_problem
from recourseplan.cli import main

HUSBAND_TOY = """\
feature sex: categorical {male, female}.
feature marital_status: categorical {married, never_married}.
feature relationship: categorical {husband, wife, unmarried}.
causal spouse_role: relationship = husband :- marital_status = married, sex = male.
initial { sex = male, marital_status = never_married, relationship = unmarried }.
"""

BOOLEAN_PAIR = """\
feature x: categorical {f, t}.
feature y: categorical {f, t}.
causal implies: y = t :- x = t.
initial { x = f, y = f }.
"""

UNREACHABLE_GOAL = """\
feature x: categorical {v0, v1}.
decision q0 :- x = v0.
decision q1 :- x = v1.
initial { x = v0 }.
"""

# a decision rule names an immutable feature, so it fires at every reachable state
DOOMED_START = """\
feature age: categorical {young, old}.
feature income: categorical {low, high}.
decision too_young :- age = young.
constraint immutable age.
initial { age = young, income = low }.
"""

REPAIR_CHAIN = """\
feature marital_status: categorical {never_married, married}.
feature relationship: categorical {unmarried, husband}.
feature sex: categorical {male, female}.
causal spouse_role: relationship = husband :- marital_status = married, sex = male.
decision still_single :- relationship = unmarried.
initial { marital_status = never_married, relationship = unmarried, sex = male }.
"""


@pytest.fixture
def husband_toy():
    return parse_problem(HUSBAND_TOY)


@pytest.fixture
def boolean_pair():
    return parse_problem(BOOLEAN_PAIR)


@pytest.fixture
def unreachable_goal():
    return parse_problem(UNREACHABLE_GOAL)


@pytest.fixture
def repair_chain():
    return parse_problem(REPAIR_CHAIN)


@pytest.fixture
def adult():
    return builtin_scenario("adult")


@pytest.fixture
def car():
    return builtin_scenario("car")


@pytest.fixture
def german():
    return builtin_scenario("german")


def run_cli(*args):
    """Invoke the command line in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = main(list(args), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def cli():
    return run_cli
