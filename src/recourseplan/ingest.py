"""The bundled demonstration scenarios.

Each scenario is a compact recourse walk-through over one of three classic
tabular datasets (adult income, German credit, car evaluation).  Each
carries a minimal hand-written rule set and domain layout chosen so that the
scenario's documented recourse path (its golden-path metadata) comes out
exactly; the scenario text below is the whole reconstruction.  Feature
declaration order is load bearing: the searcher tries features in
declaration order, so each documented path's first feature leads its block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .dsl import parse_problem
from .errors import UnknownScenario
from .rules import ProblemSpec

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
    golden_steps: tuple[GoldenStep, ...]
    description: str = ""

    @property
    def golden_length(self) -> int:
        """States on the candidate path: the start, then one per step."""
        return len(self.golden_steps) + 1


_SCENARIOS: dict[str, tuple[str, tuple[GoldenStep, ...], str]] = {
    "adult": (
        ADULT_TEXT,
        (GoldenStep("capital_gain", "(6849, 99999]"),),
        "income classification: raise capital gain above the threshold",
    ),
    "car": (
        CAR_TEXT,
        (GoldenStep("persons", "4"),),
        "car evaluation: seat four people instead of two",
    ),
    "german": (
        GERMAN_TEXT,
        (GoldenStep("duration_months", "(7, 72]"),
         GoldenStep("checking_account_status", "geq_200")),
        "credit rating: longer duration, then a checking balance of 200 or more",
    ),
    "german_motivating": (
        GERMAN_MOTIVATING_TEXT,
        (GoldenStep("duration_months", "(7, 72]"),
         GoldenStep("checking_account_status", "gt_1000")),
        "loan walk-through: longer duration, then a balance above 1000",
    ),
}

SCENARIO_NAMES = tuple(_SCENARIOS)


def builtin_scenario(name: str, also_known: Sequence[str] = ()) -> Scenario:
    """One of the bundled scenarios by name; see :data:`SCENARIO_NAMES`.

    An unknown name raises :class:`UnknownScenario`, whose message lists the
    bundled names and then ``also_known``, the other names the caller accepts.
    """
    try:
        text, steps, description = _SCENARIOS[name]
    except KeyError:
        known = ", ".join((*SCENARIO_NAMES, *also_known))
        raise UnknownScenario(f"unknown scenario {name!r} (known: {known})") from None
    return Scenario(
        name=name,
        problem=parse_problem(text),
        text=text,
        golden_steps=steps,
        description=description,
    )
