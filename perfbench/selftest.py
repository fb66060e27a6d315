"""Self-test of the benchmark harness.

Checks that a run emits every metric listed in BENCHMARK.json with its unit,
prints the report-only metrics, and that the correctness gate trips on
planted wrong verdicts: a planner verdict on plan-8x5, and on certify-cli an
oracle that passes an invalid path and one that miscounts the state sets.
Runs small blocks in-process in a minute or two::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

problems: list[str] = []
# seeds per workload in the self-test's small blocks
SMALL = {"plan-8x5": 12, "wide-12x6": 3, "certify-cli": 3}


def expect(condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)


def run_small(workload: str, trace: int = 0, count: int = 0) -> tuple[str, dict]:
    """Run a small block in-process: (printed report, JSON line)."""
    import harness

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        line = harness.run_workload(workload, 0, bool(trace), count or SMALL[workload])
    return out.getvalue(), line


def check_metrics(spec: dict, harness) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        expect(listed == dict(harness.END_TO_END if trace == 0 else harness.PER_LAYER),
               f"{key} in BENCHMARK.json differs from the harness's list")
        for workload in run.WORKLOAD_NAMES:
            text, line = run_small(workload, trace)
            where = f"{workload} --trace {trace}"
            expect(line["correct"], f"{where}: run not correct")
            expect(set(line) == {"correct", "attempted", "failed", "metrics"},
                   f"{where}: JSON line keys {sorted(line)}")
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            expect(got == listed, f"{where}: metrics {got} differ from {listed}")
            for name, unit in harness.REPORT_ONLY[trace]:
                expect(any(l.split()[:1] == [name] and l.rstrip().split()[2:3] == [unit]
                           for l in text.splitlines()),
                       f"{where}: report lacks {name} [{unit}]")
            if trace == 0:
                expect(all(line["metrics"][name]["value"] > 0 for name in listed),
                       f"{where}: an end-to-end metric is not positive")
            else:
                expect("tracing overhead:" in text, f"{where}: no tracing overhead line")


def expect_wrong(where: str, text: str, line: dict, reason: str) -> None:
    expect(line["correct"] is False and line["failed"] > 0, f"{where}: JSON line {line}")
    expect(any("WRONG VERDICT" in l and reason in l for l in text.splitlines()),
           f"{where}: no wrong verdict naming '{reason}'")


def check_planted_wrong_verdicts() -> None:
    from recourseplan import cli, oracle, planner
    from recourseplan.oracle import StateSetReport, ValidationReport

    original = planner.get_path

    def wrong_on_success(problem):
        trace = original(problem)
        if trace.status == "success":
            trace.status = "failure"
        return trace

    planner.get_path = wrong_on_success
    try:
        text, line = run_small("plan-8x5", count=5)
    finally:
        planner.get_path = original
    expect_wrong("planted failure verdict", text, line, "reference reaches a goal")

    def truncated(problem):
        trace = original(problem)
        if trace.status == "success" and len(trace.entries) > 1:
            trace.pop_last()
        return trace

    validate = oracle.validate_solution_path
    planner.get_path = cli.get_path = truncated
    oracle.validate_solution_path = lambda path, problem, cap=None: ValidationReport(
        True, True, True, True, True)
    try:
        text, line = run_small("certify-cli")
    finally:
        planner.get_path = cli.get_path = original
        oracle.validate_solution_path = validate
    expect_wrong("oracle passing an invalid path", text, line, "overall verdict True")

    report = oracle.state_set_report

    def miscount(problem, cap=None):
        r = report(problem, cap)
        return StateSetReport(r.total_states, r.causally_consistent + 1,
                              r.decision_consistent, r.goal + 1)

    oracle.state_set_report = miscount
    try:
        text, line = run_small("certify-cli")
    finally:
        oracle.state_set_report = report
    expect_wrong("oracle miscounting the state sets", text, line, "state-set counts")

    import gate
    from recourseplan.generate import random_problem
    for seed in range(100):
        problem = random_problem(seed)
        trace = original(problem)
        if trace.status == "success" and trace.expansions:
            break
    path = planner.extract_candidate_path(trace).states
    expect(gate.path_problems(tuple(reversed(path)), problem, None) != [],
           "a reversed success path passes the path clauses")


def main() -> int:
    if not run.load_program():
        print("selftest: no program under src/", file=sys.stderr)
        return 2
    import harness  # imports the program, so only after load_program

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metrics(spec, harness)
    check_planted_wrong_verdicts()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
