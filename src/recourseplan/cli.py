"""Command-line front end.

Three subcommands::

    recourseplan plan      --scenario adult [--format table|structured] [--validate]
    recourseplan validate  --scenario german [--path-file plan.json]
    recourseplan enumerate --file problem.rp

``plan`` renders the candidate path as a per-feature table (changed cells
carry the action kind) or as a structured JSON record that includes the full
trace with causally inconsistent intermediates.  ``validate`` checks the five
solution-path clauses with the oracle, either on a fresh planning run or on a
previously saved structured record, and prints the state-set counts.
``enumerate`` prints the state-space cardinalities.

Exit codes: 0 success, 1 usage or parse error, 2 planning failure,
3 expansion budget exhausted, 4 enumeration cap exceeded.  Results go to
stdout, diagnostics to stderr.  The ``RECOURSE_MAX_STATES`` environment
variable overrides the default enumeration cap; ``--max-states`` overrides
both.  Only the state-set counts enumerate: path validation is path-local,
so ``plan --validate`` is not subject to the cap.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO

from . import oracle
from .domains import State
from .errors import (CapExceeded, ParseError, RecourseError, SemanticError,
                     UnknownScenario)
from .generate import random_problem
from .ingest import SCENARIO_NAMES, builtin_scenario
from .dsl import parse_problem
from .planner import CandidatePath, PathTrace, extract_candidate_path, get_path
from .rules import ProblemSpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2
EXIT_BUDGET = 3
EXIT_CAP = 4

FORMAT_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """Resolved options of one invocation."""

    input: str                       # scenario name or problem-file path
    is_file: bool = False
    budget: Optional[int] = None
    output_format: str = "table"     # "table" | "structured"
    seed: int = 0
    validate: bool = False
    max_states: Optional[int] = None
    path_file: Optional[str] = None

    def __post_init__(self) -> None:
        if self.budget is not None and self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.max_states is not None and self.max_states <= 0:
            raise ValueError(f"--max-states must be a positive integer, got {self.max_states}")


def _load_problem(config: RunConfig) -> tuple[str, ProblemSpec]:
    if config.is_file:
        with open(config.input, encoding="utf-8") as handle:
            problem = parse_problem(handle.read())
        name = config.input
    elif config.input == "random":
        problem = random_problem(config.seed)
        name = f"random:{config.seed}"
    else:
        scenario = builtin_scenario(config.input)
        problem = scenario.problem
        name = scenario.name
    if config.budget is not None:
        problem = dataclasses.replace(problem, action_budget=config.budget)
    return name, problem


# ---------------------------------------------------------------------------
# presentation helpers

def _transition_actions(trace: PathTrace) -> list[dict[str, str]]:
    """Per-transition map of changed feature to action kind.

    Each committed transition is one consistent trace entry (whose last
    attempted action is the move that advanced) followed by the inconsistent
    intermediates of its repair chain.
    """
    records = list(trace.entry_records())
    kinds: list[dict[str, str]] = []
    current: Optional[dict[str, str]] = None
    for entry, consistent in records:
        if consistent:
            if current is not None:
                kinds.append(current)
            current = {}
        if entry.actions_taken and current is not None:
            parts = entry.actions_taken[-1].split(":")
            kind = parts[0]
            feature = parts[1] if kind == "direct" else parts[2]
            current[feature] = kind
    # the final consistent entry opens an empty map; drop it
    if current:
        kinds.append(current)
    return kinds


def _steps(path: CandidatePath, kinds: list[dict[str, str]]) -> list[list[dict]]:
    steps = []
    for t, (a, b) in enumerate(zip(path.states, path.states[1:])):
        changed = []
        for name in a.domains.names:
            if a.value(name) != b.value(name):
                changed.append({
                    "feature": name,
                    "from": a.display(name),
                    "to": b.display(name),
                    "kind": kinds[t].get(name, "direct") if t < len(kinds) else "direct",
                })
        steps.append(changed)
    return steps


def _render_table(path: CandidatePath, kinds: list[dict[str, str]], out: TextIO) -> None:
    states = path.states
    names = states[0].domains.names
    header = ["Features", "Initial_State"]
    for i in range(1, len(states)):
        header.append("Action")
        header.append("Goal_State" if i == len(states) - 1 else f"Intermediate_State_{i}")
    rows = [header]
    for name in names:
        row = [name, states[0].display(name)]
        for i in range(1, len(states)):
            if states[i - 1].value(name) != states[i].value(name):
                row.append(kinds[i - 1].get(name, "direct").capitalize())
            else:
                row.append("N/A")
            row.append(states[i].display(name))
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    for r, row in enumerate(rows):
        out.write("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n")
        if r == 0:
            out.write("  ".join("-" * w for w in widths) + "\n")


def render_path_table(trace: PathTrace) -> str:
    """Per-feature table of a successful trace's candidate path."""
    path = extract_candidate_path(trace)
    out = io.StringIO()
    _render_table(path, _transition_actions(trace), out)
    return out.getvalue()


def _structured_record(name: str, problem: ProblemSpec, trace: PathTrace) -> dict:
    record = {
        "format_version": FORMAT_VERSION,
        "input": name,
        "status": trace.status,
        "expansions": trace.expansions,
        "trace": [
            {
                "state": entry.state.to_dict(),
                "actions_taken": list(entry.actions_taken),
                "causally_consistent": consistent,
            }
            for entry, consistent in trace.entry_records()
        ],
    }
    if trace.status == "success":
        path = extract_candidate_path(trace)
        kinds = _transition_actions(trace)
        record["candidate_path"] = [s.to_dict() for s in path.states]
        record["steps"] = _steps(path, kinds)
    return record


def _emit_json(record: dict, out: TextIO) -> None:
    out.write(json.dumps(record, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_plan(config: RunConfig, out: TextIO = sys.stdout, err: TextIO = sys.stderr) -> int:
    name, problem = _load_problem(config)
    trace = get_path(problem)
    report = None
    if config.validate and trace.status == "success":
        report = oracle.validate_solution_path(extract_candidate_path(trace), problem)
    if config.output_format == "structured":
        record = _structured_record(name, problem, trace)
        if report is not None:
            record["validation"] = {
                "clauses": {field_name: getattr(report, field_name)
                            for field_name, _ in _CLAUSE_TITLES},
                "overall": report.overall,
                "liberal_divergence": report.liberal_divergence,
            }
        _emit_json(record, out)
    elif trace.status == "success":
        path = extract_candidate_path(trace)
        out.write(f"scenario: {name}\n")
        out.write(f"candidate path: {len(path)} state(s), "
                  f"{len(path) - 1} transition(s)\n\n")
        out.write(render_path_table(trace))
        if report is not None:
            _render_validation(report, out)
    if trace.status == "failure":
        err.write("planning failed: no reachable counterfactual state\n")
        return EXIT_FAILURE
    if trace.status == "budget-exhausted":
        err.write("planning stopped: expansion budget exhausted\n")
        return EXIT_BUDGET
    if report is not None and not report.overall:
        return EXIT_FAILURE
    return EXIT_OK


_CLAUSE_TITLES = (
    ("starts_at_initial", "path starts at the initial state"),
    ("ends_in_goal", "path ends in the goal set"),
    ("all_causally_consistent", "every path state is causally consistent"),
    ("prefix_avoids_goal", "no non-final state is in the goal set"),
    ("steps_are_transitions", "every step is a one-step transition"),
)


def _render_validation(report: oracle.ValidationReport, out: TextIO) -> None:
    for field_name, title in _CLAUSE_TITLES:
        verdict = "PASS" if getattr(report, field_name) else "FAIL"
        out.write(f"{verdict}  {title}\n")
    if report.liberal_divergence:
        out.write("note: repair order matters somewhere along this path "
                  "(alternate-order successors exist)\n")
    out.write(f"overall: {'PASS' if report.overall else 'FAIL'}\n")


def _path_from_file(path_file: str, problem: ProblemSpec) -> CandidatePath:
    with open(path_file, encoding="utf-8") as handle:
        record = json.load(handle)
    if not isinstance(record, dict) or "candidate_path" not in record:
        raise RecourseError("record carries no candidate path (planning did not succeed)")
    try:
        states = tuple(State.from_dict(problem.domains, d)
                       for d in record["candidate_path"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise RecourseError(f"malformed path record: {exc}") from exc
    return CandidatePath(states)


def _counts_record(counts: oracle.StateSetReport) -> dict:
    return {
        "total_states": counts.total_states,
        "causally_consistent": counts.causally_consistent,
        "decision_consistent": counts.decision_consistent,
        "goal": counts.goal,
    }


def cmd_validate(config: RunConfig, out: TextIO = sys.stdout, err: TextIO = sys.stderr) -> int:
    name, problem = _load_problem(config)
    if config.path_file is not None:
        path = _path_from_file(config.path_file, problem)
    else:
        trace = get_path(problem)
        if trace.status != "success":
            err.write(f"nothing to validate: planning ended with {trace.status}\n")
            return EXIT_FAILURE if trace.status == "failure" else EXIT_BUDGET
        path = extract_candidate_path(trace)
    report = oracle.validate_solution_path(path, problem)
    counts = oracle.state_set_report(problem, cap=config.max_states)
    if config.output_format == "structured":
        _emit_json({
            "format_version": FORMAT_VERSION,
            "input": name,
            "clauses": {field_name: getattr(report, field_name)
                        for field_name, _ in _CLAUSE_TITLES},
            "overall": report.overall,
            "liberal_divergence": report.liberal_divergence,
            "counts": _counts_record(counts),
        }, out)
    else:
        out.write(f"scenario: {name}\n")
        _render_validation(report, out)
        _render_counts(counts, out)
    return EXIT_OK if report.overall else EXIT_FAILURE


def _render_counts(counts: oracle.StateSetReport, out: TextIO) -> None:
    out.write(f"states: {counts.total_states}\n")
    out.write(f"causally consistent: {counts.causally_consistent}\n")
    out.write(f"decision consistent: {counts.decision_consistent}\n")
    out.write(f"goal: {counts.goal}\n")


def cmd_enumerate(config: RunConfig, out: TextIO = sys.stdout, err: TextIO = sys.stderr) -> int:
    name, problem = _load_problem(config)
    counts = oracle.state_set_report(problem, cap=config.max_states)
    if config.output_format == "structured":
        _emit_json({
            "format_version": FORMAT_VERSION,
            "input": name,
            "counts": _counts_record(counts),
        }, out)
    else:
        out.write(f"scenario: {name}\n")
        _render_counts(counts, out)
    return EXIT_OK


# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="recourseplan",
        description="plan and check recourse paths for rule-based decisions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("plan", "validate", "enumerate"):
        p = sub.add_parser(command)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--scenario", metavar="NAME",
                         help=f"bundled scenario ({', '.join(SCENARIO_NAMES)}) or 'random'")
        src.add_argument("--file", metavar="PATH", help="problem file to parse")
        if command != "enumerate":
            p.add_argument("--budget", type=int, default=None, metavar="N",
                           help="maximum planner expansions")
        p.add_argument("--format", choices=("table", "structured"), default="table")
        p.add_argument("--seed", type=int, default=0, metavar="N",
                       help="seed for --scenario random")
        if command == "plan":
            p.add_argument("--validate", action="store_true",
                           help="run the oracle's path validation on the result")
        p.add_argument("--max-states", type=int, default=None, metavar="N",
                       help="enumeration cap override")
        if command == "validate":
            p.add_argument("--path-file", metavar="PATH", default=None,
                           help="validate a saved structured planning record")
    return parser


def main(argv: Optional[Sequence[str]] = None,
         out: TextIO = sys.stdout, err: TextIO = sys.stderr) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    handler = {"plan": cmd_plan, "validate": cmd_validate, "enumerate": cmd_enumerate}[ns.command]
    try:
        config = RunConfig(
            input=ns.scenario or ns.file,
            is_file=ns.file is not None,
            budget=getattr(ns, "budget", None),
            output_format=ns.format,
            seed=ns.seed,
            validate=getattr(ns, "validate", False),
            max_states=ns.max_states,
            path_file=getattr(ns, "path_file", None),
        )
        return handler(config, out, err)
    except CapExceeded as exc:
        err.write(f"error: {exc}\n")
        return EXIT_CAP
    except (ParseError, SemanticError, UnknownScenario, OSError, ValueError,
            RecourseError, json.JSONDecodeError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
