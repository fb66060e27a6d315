"""Command-line front end.

Three subcommands::

    recourseplan plan      --scenario adult [--format table|structured] [--validate]
    recourseplan validate  --scenario german [--path-file plan.json]
    recourseplan enumerate --file problem.rp

``plan`` renders the candidate path as a per-feature table (changed cells
carry the action kind) or as a structured JSON record that includes the full
trace with causally inconsistent intermediates; a changed feature's kind is
that of the last action in its transition that wrote it.  ``validate`` checks
the five solution-path clauses with the oracle, either on a fresh planning run
or on a previously saved structured record, and prints the state-set counts.
``enumerate`` prints the state-space cardinalities.

Exit codes: 0 success, 1 usage or parse error, 2 planning failure,
3 expansion budget exhausted, 4 enumeration cap exceeded.  Results go to
stdout, diagnostics to stderr.  ``--max-states`` (on ``validate`` and
``enumerate``, the subcommands that count states) overrides the default
cap on the declared state space.  Only the state-set counts check it: path
validation is path-local, so ``plan --validate`` is not subject to it.  ``--seed``
goes only with ``--scenario random``, and ``--budget`` on ``validate`` only
without ``--path-file``.  :func:`main` is the one entry point,
run by ``python -m recourseplan`` and the ``recourseplan`` console script;
each subcommand reads the parsed arguments as argparse returns them.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
from typing import Optional, Sequence, TextIO

from . import oracle
from .domains import State
from .errors import CapExceeded, RecourseError
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


def _load_problem(ns: argparse.Namespace) -> tuple[str, ProblemSpec]:
    if ns.file is not None:
        with open(ns.file, encoding="utf-8-sig") as handle:
            problem = parse_problem(handle.read())
        name = ns.file
    elif ns.scenario == "random":
        seed = ns.seed or 0
        problem = random_problem(seed)
        name = f"random:{seed}"
    else:
        scenario = builtin_scenario(ns.scenario, also_known=("random",))
        problem = scenario.problem
        name = scenario.name
    if ns.budget is not None:
        problem = problem.model.problem(problem.initial, ns.budget)
    return name, problem


# ---------------------------------------------------------------------------
# presentation helpers

def _transition_kinds(trace: PathTrace) -> list[dict[int, str]]:
    """Per-transition map of written feature position to action kind.

    Each transition is one consistent trace entry followed by the
    inconsistent intermediates of its repair chain.  Every entry but the goal
    carries the one action id that left it, whose first field is its kind; it
    wrote the position where the entry's state differs from the next entry's.
    """
    kinds: list[dict[int, str]] = []
    for entry, nxt in zip(trace.entries, trace.entries[1:]):
        if entry.consistent:
            kinds.append({})
        kind = entry.actions_taken[0].partition(":")[0]
        for i, (a, b) in enumerate(zip(entry.state.idx, nxt.state.idx)):
            if a != b:
                kinds[-1][i] = kind
    return kinds


def _steps(path: CandidatePath, kinds: list[dict[int, str]]) -> list[list[dict]]:
    names = path.states[0].domains.names
    return [[{"feature": name, "from": a.display(name), "to": b.display(name), "kind": kind[i]}
             for i, name in enumerate(names) if a.idx[i] != b.idx[i]]
            for a, b, kind in zip(path.states, path.states[1:], kinds)]


def _render_table(path: CandidatePath, kinds: list[dict[int, str]], out: TextIO) -> None:
    states = path.states
    names = states[0].domains.names
    header = ["Features", "Initial_State"]
    for i in range(1, len(states)):
        header.append("Action")
        header.append("Goal_State" if i == len(states) - 1 else f"Intermediate_State_{i}")
    rows = [header]
    for f, name in enumerate(names):
        row = [name, states[0].display(name)]
        for i in range(1, len(states)):
            changed = states[i - 1].idx[f] != states[i].idx[f]
            row += [kinds[i - 1][f].capitalize() if changed else "N/A", states[i].display(name)]
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
    _render_table(path, _transition_kinds(trace), out)
    return out.getvalue()


def _structured_record(name: str, trace: PathTrace) -> dict:
    record = {
        "format_version": FORMAT_VERSION,
        "input": name,
        "status": trace.status,
        "expansions": trace.expansions,
        "trace": [
            {
                "state": entry.state.to_dict(),
                "actions_taken": list(entry.actions_taken),
                "causally_consistent": entry.consistent,
            }
            for entry in trace.entries
        ],
    }
    if trace.status == "success":
        path = extract_candidate_path(trace)
        record["candidate_path"] = [s.to_dict() for s in path.states]
        record["steps"] = _steps(path, _transition_kinds(trace))
    return record


def _emit_json(record: dict, out: TextIO) -> None:
    out.write(json.dumps(record, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_plan(ns: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    name, problem = _load_problem(ns)
    trace = get_path(problem)
    report = None
    if ns.validate and trace.status == "success":
        report = oracle.validate_solution_path(extract_candidate_path(trace), problem)
    if ns.format == "structured":
        record = _structured_record(name, trace)
        if report is not None:
            record["validation"] = _validation_record(report)
        _emit_json(record, out)
    elif trace.status == "success":
        path = extract_candidate_path(trace)
        out.write(f"scenario: {name}\n")
        out.write(f"candidate path: {len(path)} state(s), "
                  f"{len(path) - 1} transition(s)\n\n")
        _render_table(path, _transition_kinds(trace), out)
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


def _validation_record(report: oracle.ValidationReport) -> dict:
    return {
        "clauses": {field_name: getattr(report, field_name) for field_name, _ in _CLAUSE_TITLES},
        "overall": report.overall,
        "liberal_divergence": report.liberal_divergence,
    }


def _render_validation(report: oracle.ValidationReport, out: TextIO) -> None:
    for field_name, title in _CLAUSE_TITLES:
        verdict = "PASS" if getattr(report, field_name) else "FAIL"
        out.write(f"{verdict}  {title}\n")
    if report.liberal_divergence:
        out.write("note: repair order matters somewhere along this path "
                  "(alternate-order successors exist)\n")
    out.write(f"overall: {'PASS' if report.overall else 'FAIL'}\n")


def _path_from_file(path_file: str, problem: ProblemSpec) -> CandidatePath:
    with open(path_file, encoding="utf-8-sig") as handle:
        try:
            record = json.load(handle)
        except (RecursionError, ValueError) as exc:  # not UTF-8 JSON, or nested too deep
            raise RecourseError(f"malformed path record: {exc}") from exc
    if not isinstance(record, dict) or "candidate_path" not in record:
        raise RecourseError("record carries no candidate path (planning did not succeed)")
    try:
        states = tuple(State.from_dict(problem.domains, d)
                       for d in record["candidate_path"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        raise RecourseError(f"malformed path record: {message}") from exc
    return CandidatePath(states)


def cmd_validate(ns: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    name, problem = _load_problem(ns)
    if ns.path_file is not None:
        path = _path_from_file(ns.path_file, problem)
    else:
        trace = get_path(problem)
        if trace.status != "success":
            err.write(f"nothing to validate: planning ended with {trace.status}\n")
            return EXIT_FAILURE if trace.status == "failure" else EXIT_BUDGET
        path = extract_candidate_path(trace)
    report = oracle.validate_solution_path(path, problem)
    counts = oracle.state_set_report(problem, cap=ns.max_states)
    if ns.format == "structured":
        _emit_json({"format_version": FORMAT_VERSION, "input": name,
                    **_validation_record(report), "counts": _counts_record(counts)}, out)
    else:
        out.write(f"scenario: {name}\n")
        _render_validation(report, out)
        _render_counts(counts, out)
    return EXIT_OK if report.overall else EXIT_FAILURE


def _counts_record(counts: oracle.StateSetReport) -> dict:
    return {"total_states": counts.total_states,
            "causally_consistent": counts.causally_consistent,
            "decision_consistent": counts.decision_consistent,
            "goal": counts.goal}


def _render_counts(counts: oracle.StateSetReport, out: TextIO) -> None:
    out.write(f"states: {counts.total_states}\n")
    out.write(f"causally consistent: {counts.causally_consistent}\n")
    out.write(f"decision consistent: {counts.decision_consistent}\n")
    out.write(f"goal: {counts.goal}\n")


def cmd_enumerate(ns: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    name, problem = _load_problem(ns)
    counts = oracle.state_set_report(problem, cap=ns.max_states)
    if ns.format == "structured":
        _emit_json({"format_version": FORMAT_VERSION, "input": name,
                    "counts": _counts_record(counts)}, out)
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
    # what a subcommand does not register reads as unset
    parser.set_defaults(budget=None, validate=False, max_states=None, path_file=None)
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
        p.add_argument("--seed", type=int, default=None, metavar="N",
                       help="seed for --scenario random (default 0)")
        if command == "plan":
            p.add_argument("--validate", action="store_true",
                           help="run the oracle's path validation on the result")
        else:
            p.add_argument("--max-states", type=int, default=None, metavar="N",
                           help="enumeration cap override")
        if command == "validate":
            p.add_argument("--path-file", metavar="PATH", default=None,
                           help="validate a saved structured planning record")
    return parser


def main(argv: Optional[Sequence[str]] = None,
         out: Optional[TextIO] = None, err: Optional[TextIO] = None) -> int:
    out, err = out or sys.stdout, err or sys.stderr  # the streams at call time
    parser = _build_parser()
    try:
        # argparse prints help and usage errors itself; they go to out and err
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    handler = {"plan": cmd_plan, "validate": cmd_validate, "enumerate": cmd_enumerate}[ns.command]
    try:
        if ns.max_states is not None and ns.max_states <= 0:
            raise ValueError(f"--max-states must be a positive integer, got {ns.max_states}")
        if ns.seed is not None and ns.scenario != "random":
            raise ValueError("--seed applies only to --scenario random")
        if ns.budget is not None and ns.path_file is not None:
            raise ValueError("--budget applies only when validate plans (not with --path-file)")
        return handler(ns, out, err)
    except CapExceeded as exc:
        err.write(f"error: {exc}\n")
        return EXIT_CAP
    except (OSError, ValueError, RecourseError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE
