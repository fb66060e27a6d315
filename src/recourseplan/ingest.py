"""Dataset ingestion and the bundled demonstration scenarios.

CSV loading follows RFC-4180 with a required header row.  Records become
states by mapping each numeric value into its containing interval and
rejecting anything outside a declared domain or in conflict with the causal
rules.

The bundled scenarios are compact recourse walk-throughs over three classic
tabular datasets (adult income, German credit, car evaluation).  Each
carries a minimal hand-written rule set and domain layout chosen so that the
scenario's documented recourse path (its golden-path metadata) comes out
exactly; the scenario text below is the whole reconstruction.  Feature
declaration order is load bearing: the searcher tries features in
declaration order, so each documented path's first feature leads its block.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .domains import Domains, State
from .dsl import parse_problem
from .errors import (CausallyInconsistentRecord, CsvRowError, SchemaMismatch,
                     UnknownScenario)
from .rules import ProblemSpec, Rule, is_causally_consistent


@dataclass(frozen=True)
class DatasetSchema:
    """Column layout of a CSV dataset."""

    columns: tuple[tuple[str, str], ...]  # (name, "categorical" | "numeric")
    label_column: str
    positive_label: str

    def __post_init__(self) -> None:
        names = [n for n, _ in self.columns]
        if len(set(names)) != len(names):
            raise SchemaMismatch("duplicate column names")
        if self.label_column not in names:
            raise SchemaMismatch(f"label column {self.label_column!r} not among columns")
        for _, kind in self.columns:
            if kind not in ("categorical", "numeric"):
                raise SchemaMismatch(f"unknown column kind {kind!r}")


Record = dict[str, Union[str, int]]


def load_csv(path: str, schema: DatasetSchema,
             on_error: str = "abort") -> tuple[list[Record], list[tuple[int, str]]]:
    """Load typed records from a CSV file.

    Returns ``(records, issues)`` where issues are ``(line, message)`` pairs
    for malformed rows.  Policy ``abort`` raises on the first malformed row;
    ``skip`` collects it and moves on.
    """
    if on_error not in ("abort", "skip"):
        raise ValueError(f"unknown policy {on_error!r}")
    kinds = dict(schema.columns)
    expected_header = [n for n, _ in schema.columns]
    records: list[Record] = []
    issues: list[tuple[int, str]] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaMismatch("file has no header row") from None
        if header != expected_header:
            raise SchemaMismatch(f"header {header!r} does not match schema {expected_header!r}")
        for line, row in enumerate(reader, start=2):
            if len(row) != len(expected_header):
                problem = f"expected {len(expected_header)} fields, found {len(row)}"
                if on_error == "abort":
                    raise CsvRowError(line, problem)
                issues.append((line, problem))
                continue
            record: Record = {}
            bad = None
            for (name, kind), cell in zip(schema.columns, row):
                if kind == "numeric" and name != schema.label_column:
                    try:
                        record[name] = int(cell)
                    except ValueError:
                        bad = f"column {name!r}: {cell!r} is not an integer"
                        break
                else:
                    record[name] = cell
            if bad is not None:
                if on_error == "abort":
                    raise CsvRowError(line, bad)
                issues.append((line, bad))
                continue
            records.append(record)
    return records, issues


def record_to_state(record: Mapping[str, Union[str, int]], domains: Domains,
                    causal_rules: Sequence[Rule] = ()) -> State:
    """Convert one record to a state, checking domains and causal rules.

    The record decodes as in :meth:`Domains.make_state`, which raises
    :class:`OutOfDomain` for a value outside its feature's domain; a state
    violating a causal rule raises :class:`CausallyInconsistentRecord`.
    """
    state = domains.make_state(record)
    if not is_causally_consistent(state, causal_rules):
        raise CausallyInconsistentRecord("record violates a causal rule")
    return state


# bundled scenarios -----------------------------------------------------------

ADULT_TEXT = """\
% Income classifier scenario: the individual is currently classified into the
% low-income band and wants the opposite decision.  Recourse: move capital
% gain above the learned threshold; everything else can stay put.
feature capital_gain: numeric [0, 99999].
feature marital_status: categorical {never_married, married}.
feature education_num: numeric [1, 16].
feature relationship: categorical {unmarried, husband}.
feature sex: categorical {male, female}.
feature age: numeric [17, 90].

decision low_income :- capital_gain =< 6849.

% A married man's relationship reads husband.
causal spouse_role: relationship = husband :- marital_status = married, sex = male.

constraint immutable sex.
constraint nondecreasing age.

initial { capital_gain = 1000, marital_status = never_married, education_num = 11,
          relationship = unmarried, sex = male, age = 28 }.
"""

CAR_TEXT = """\
% Car evaluation scenario: a two-seater with mid-range trim is currently
% rejected; seating four makes it acceptable.
feature persons: categorical {2, 4, more}.
feature maint: categorical {vhigh, high, med, low}.
feature buying: categorical {vhigh, high, med, low}.
feature safety: categorical {low, med, high}.

decision reject_small :- persons = 2.
decision reject_unsafe :- safety = low.

initial { persons = 2, maint = med, buying = med, safety = med }.
"""

GERMAN_TEXT = """\
% Credit-rating scenario.  The decision rules characterize the individual's
% current (good) rating; the search walks to the nearest state where that
% rating no longer holds, i.e. the listed steps are the changes to avoid.
feature duration_months: numeric [1, 72].
feature checking_account_status: categorical {no_checking_account, geq_200}.
feature credit_history: categorical {all_dues_cleared}.
feature property: categorical {car_or_other}.
feature credit_amount: numeric [250, 20000].
feature job: categorical {skilled_official}.
feature present_employment_since: categorical {geq_1_lt_4}.

decision good_short_duration :- duration_months =< 7.
decision good_no_checking :- checking_account_status = no_checking_account.

initial { duration_months = 7, checking_account_status = no_checking_account,
          credit_history = all_dues_cleared, property = car_or_other,
          credit_amount = 300, job = skilled_official,
          present_employment_since = geq_1_lt_4 }.
"""

GERMAN_MOTIVATING_TEXT = """\
% Loan walk-through variant of the credit scenario: same duration move, but
% the account balance target is above 1000.
feature duration_months: numeric [1, 72].
feature checking_account_status: categorical {no_checking_account, gt_1000}.
feature credit_history: categorical {all_dues_cleared}.
feature property: categorical {no_property}.
feature credit_amount: numeric [250, 20000].

decision good_short_duration :- duration_months =< 7.
decision good_no_checking :- checking_account_status = no_checking_account.

initial { duration_months = 7, checking_account_status = no_checking_account,
          credit_history = all_dues_cleared, property = no_property,
          credit_amount = 300 }.
"""


@dataclass(frozen=True)
class GoldenStep:
    """One expected transition: which feature moves, and to what."""

    feature: str
    to_value: str


@dataclass(frozen=True)
class Scenario:
    """A bundled problem plus its documented expected path."""

    name: str
    problem: ProblemSpec
    text: str
    golden_length: int  # states on the candidate path
    golden_steps: tuple[GoldenStep, ...]
    description: str = ""


_SCENARIOS: dict[str, tuple[str, int, tuple[GoldenStep, ...], str]] = {
    "adult": (
        ADULT_TEXT, 2,
        (GoldenStep("capital_gain", "(6849, 99999]"),),
        "income classification: raise capital gain above the threshold",
    ),
    "car": (
        CAR_TEXT, 2,
        (GoldenStep("persons", "4"),),
        "car evaluation: seat four people instead of two",
    ),
    "german": (
        GERMAN_TEXT, 3,
        (GoldenStep("duration_months", "(7, 72]"),
         GoldenStep("checking_account_status", "geq_200")),
        "credit rating: longer duration, then a checking balance of 200 or more",
    ),
    "german_motivating": (
        GERMAN_MOTIVATING_TEXT, 3,
        (GoldenStep("duration_months", "(7, 72]"),
         GoldenStep("checking_account_status", "gt_1000")),
        "loan walk-through: longer duration, then a balance above 1000",
    ),
}

SCENARIO_NAMES = tuple(_SCENARIOS)


def builtin_scenario(name: str) -> Scenario:
    """One of the bundled scenarios by name; see :data:`SCENARIO_NAMES`."""
    try:
        text, length, steps, description = _SCENARIOS[name]
    except KeyError:
        known = ", ".join(SCENARIO_NAMES)
        raise UnknownScenario(f"unknown scenario {name!r} (known: {known})") from None
    return Scenario(
        name=name,
        problem=parse_problem(text),
        text=text,
        golden_length=length,
        golden_steps=steps,
        description=description,
    )
