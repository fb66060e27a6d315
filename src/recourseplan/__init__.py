"""Recourse planning for rule-based classifiers.

Given the decision rules a classifier currently fires for an individual,
causal rules among the features, and plausibility constraints on change,
this package plans a sequence of interventions from the individual's state
to a causally consistent state with the opposite decision, and checks the
result against an exhaustive oracle.
"""

from .actions import Action, apply_action, build_actions, is_permitted
from .domains import Domains, FeatureDomain, Interval, State, partition_range
from .dsl import parse_problem, pretty_print
from .errors import (CapExceeded, EmptyRange, EmptySequenceError, NotApplicable,
                     NotASolution, OutOfDomain, ParseError, RecourseError,
                     SemanticError, UnknownScenario)
from .generate import random_problem
from .ingest import GoldenStep, Scenario, SCENARIO_NAMES, builtin_scenario
from .kernel import CompiledProblem
from .oracle import (StateSetReport, ValidationReport, bfs_shortest_path,
                     compute_goal_set, delta_oracle, enumerate_causally_consistent,
                     enumerate_states, state_set_report, validate_solution_path)
from .planner import (CandidatePath, PathTrace, TraceEntry, extract_candidate_path,
                      get_path)
from .rules import (Literal, ProblemSpec, Rule, eval_rule, is_causally_consistent,
                    is_counterfactual, satisfies_decision)

__version__ = "0.1.0"

__all__ = [
    "Action", "CandidatePath", "CapExceeded", "CompiledProblem", "Domains",
    "EmptyRange", "EmptySequenceError", "FeatureDomain", "GoldenStep",
    "Interval", "Literal", "NotApplicable", "NotASolution", "OutOfDomain",
    "ParseError", "PathTrace", "ProblemSpec",
    "RecourseError", "Rule", "SCENARIO_NAMES", "Scenario", "SemanticError",
    "State", "StateSetReport", "TraceEntry", "UnknownScenario",
    "ValidationReport", "apply_action", "bfs_shortest_path", "build_actions",
    "builtin_scenario", "compute_goal_set", "delta_oracle",
    "enumerate_causally_consistent", "enumerate_states", "eval_rule",
    "extract_candidate_path", "get_path", "is_causally_consistent",
    "is_counterfactual", "is_permitted", "parse_problem", "partition_range",
    "pretty_print", "random_problem", "satisfies_decision", "state_set_report",
    "validate_solution_path",
]
