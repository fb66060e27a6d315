import ast
import hashlib
import io
import pathlib
from typing import NamedTuple

import pytest
from hypothesis import settings

from recourseplan import builtin_scenario
from recourseplan.cli import main
from tests.contract import named_problem

# no wall-clock deadline: a host stall would fail a correct example.  A test's
# own @settings(max_examples=...) inherits this profile
settings.register_profile("tier-1", deadline=None)
settings.load_profile("tier-1")


@pytest.fixture
def husband_toy():
    return named_problem("husband toy")


@pytest.fixture
def boolean_pair():
    return named_problem("boolean pair")


@pytest.fixture
def unreachable_goal():
    return named_problem("unreachable goal")


@pytest.fixture
def repair_chain():
    return named_problem("repair chain")


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


class ParseRow(NamedTuple):
    name: str
    text: str
    outcome: str


def read_parse_rows() -> list[ParseRow]:
    """The rows of ``tests/golden/parse.txt``: ``<name> <literal> => <outcome>``."""
    rows = []
    for line in (GOLDEN / "parse.txt").read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        name, _, rest = line.partition(" ")
        literal, arrow, outcome = rest.rpartition(" => ")
        if not arrow:
            raise ValueError(f"parse.txt: no ' => ' in {line!r}")
        rows.append(ParseRow(name, ast.literal_eval(literal), outcome))
    return rows
