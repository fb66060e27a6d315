import hashlib
import io
import pathlib

import pytest
from hypothesis import settings

from recourseplan import builtin_scenario, parse_problem
from recourseplan.cli import main

# no wall-clock deadline: a host stall would fail a correct example.  A test's
# own @settings(max_examples=...) inherits this profile
settings.register_profile("tier-1", deadline=None)
settings.load_profile("tier-1")

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


GOLDEN = pathlib.Path(__file__).parent / "golden"


def golden_line(label: str, *fields, record: str) -> str:
    """One line of a golden table: the instance's label, its summary fields,
    and the first 12 hex digits of the SHA-256 of its full record."""
    return " ".join([label, *map(str, fields), hashlib.sha256(record.encode()).hexdigest()[:12]])


def check_golden(name: str, lines: list[str]) -> None:
    """Compare computed lines with the table ``tests/golden/<name>``, one line
    per instance, keyed by its first field.  A failure prints the pinned and
    the computed line of every label that changed, is missing or is extra."""
    pinned = (GOLDEN / name).read_text().splitlines()
    if lines == pinned:
        return
    old = {line.split()[0]: line for line in pinned}
    new = {line.split()[0]: line for line in lines}
    changed = [f"{label}\n  pinned:   {old.get(label, '(none)')}\n"
               f"  computed: {new.get(label, '(none)')}"
               for label in dict.fromkeys([*old, *new]) if old.get(label) != new.get(label)]
    pytest.fail(f"{name}: {len(changed)} instance(s) differ\n" + "\n".join(changed)
                if changed else f"{name}: same lines in another order, or a label twice")
