"""Reference answers and the correctness gate, run after the timed loop.

Each decided instance gets one reference answer from ``bfs_shortest_path``:
whether a goal is reachable and, if so, the shortest path length.  The answer
is ``unknown`` when the search hits the state cap or the per-instance limit.
A verdict that disagrees with its reference, or a success path that breaks a
solution-path clause, is a wrong verdict.  ``validate --format structured``
prints no path, so for certify-cli the gate re-plans the parsed problem
(``get_path`` is deterministic) and checks that path, the oracle's
``overall`` against it, and the printed state-set counts against a count of
its own.
"""

from __future__ import annotations

import io
import itertools
import json
from dataclasses import dataclass, field
from typing import Optional

from recourseplan import cli, planner
from recourseplan.actions import build_actions
from recourseplan.domains import State
from recourseplan.errors import CapExceeded
from recourseplan.ingest import builtin_scenario
from recourseplan.oracle import bfs_shortest_path, delta_oracle
from recourseplan.planner import is_counterfactual
from recourseplan.rules import is_causally_consistent, satisfies_decision

from workloads import Outcome, run_limited


@dataclass
class Reference:
    reachable: Optional[bool]      # None: unknown
    length: Optional[int] = None   # states on a shortest path
    actions: Optional[tuple] = None
    why_unknown: str = ""          # "cap", "limit" or "error: ..."


def reference_answer(problem, limit: float) -> Reference:
    def search():
        actions = build_actions(problem)
        try:
            shortest = bfs_shortest_path(problem, actions=actions)
        except CapExceeded:
            return Reference(None, actions=actions, why_unknown="cap")
        if shortest is None:
            return Reference(False, actions=actions)
        return Reference(True, len(shortest), actions)

    timed = run_limited(search, limit)
    if timed.timed_out:
        return Reference(None, why_unknown="limit")
    if timed.error is not None:
        return Reference(None, why_unknown=f"error: {timed.error}")
    return timed.value


def path_problems(path: tuple[State, ...], problem, actions) -> list[str]:
    """Solution-path clauses broken by a success path; empty when it is valid."""
    causal, decision = problem.causal_rules, problem.decision_rules
    found = []
    if path[0] != problem.initial:
        found.append("path does not start at the initial state")
    if not all(is_causally_consistent(s, causal) for s in path):
        found.append("a path state is causally inconsistent")
    if not is_counterfactual(path[-1], causal, decision):
        found.append("path does not end in a counterfactual state")
    if any(is_counterfactual(s, causal, decision) for s in path[:-1]):
        found.append("an earlier path state is already counterfactual")
    if actions is not None and any(b not in delta_oracle(a, problem, actions)
                                   for a, b in zip(path, path[1:])):
        found.append("a step is not a one-step transition")
    return found


def state_counts(problem) -> dict:
    """The state-set counts ``validate`` prints, counted state by state."""
    domains, causal, decision = problem.domains, problem.causal_rules, problem.decision_rules
    total = consistent = goal = 0
    for idx in itertools.product(*(range(f.size) for f in domains)):
        state = State(domains, idx)
        total += 1
        if is_causally_consistent(state, causal):
            consistent += 1
            goal += not satisfies_decision(state, decision)
    return {"total_states": total, "causally_consistent": consistent,
            "decision_consistent": consistent - goal, "goal": goal}


def _record_problems(record: dict, problem, path_valid: bool) -> list[str]:
    found = []
    if record.get("overall") is not path_valid:
        found.append(f"the oracle's overall verdict {record.get('overall')} disagrees "
                     f"with the path clauses ({'valid' if path_valid else 'invalid'} path)")
    counts = state_counts(problem)
    if record.get("counts") != counts:
        found.append(f"state-set counts {record.get('counts')}, counted {counts}")
    return found


def golden_problems(name: str) -> list[str]:
    """Plan a bundled scenario through the CLI and compare with its golden steps."""
    scenario = builtin_scenario(name)
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(["plan", "--scenario", scenario.name, "--format", "structured"], out, err)
    if code != cli.EXIT_OK:
        return [f"plan exited with {code}"]
    domains = scenario.problem.domains
    states = [State.from_dict(domains, d) for d in json.loads(out.getvalue())["candidate_path"]]
    if len(states) != scenario.golden_length:
        return [f"path has {len(states)} states, golden path {scenario.golden_length}"]
    for k, (a, b, step) in enumerate(zip(states, states[1:], scenario.golden_steps)):
        changed = [(f.name, f.value_text(j)) for f, i, j in zip(domains, a.idx, b.idx) if i != j]
        if changed != [(step.feature, step.to_value)]:
            return [f"step {k + 1} changes {changed}, golden {step.feature} -> {step.to_value}"]
    return []


@dataclass
class GateReport:
    wrong: list[tuple[str, str]] = field(default_factory=list)   # (instance, reason)
    errors: list[tuple[str, str]] = field(default_factory=list)
    reachable: int = 0
    unreachable: int = 0
    unknown: list[tuple[str, str]] = field(default_factory=list)  # (instance, cause)

    @property
    def correct(self) -> bool:
        return not self.wrong and not self.errors


def check(outcomes: list[Outcome], limit: float) -> GateReport:
    report = GateReport()
    for o in outcomes:
        inst = o.instance
        if o.status == "error":
            report.errors.append((inst.label, o.detail))
            continue
        if not o.decided:
            continue
        problem = inst.reference_problem()
        ref = reference_answer(problem, limit)
        if ref.why_unknown.startswith("error"):
            report.errors.append((inst.label, f"reference search: {ref.why_unknown}"))
            continue
        if ref.reachable is None:
            report.unknown.append((inst.label, ref.why_unknown))
        elif ref.reachable:
            report.reachable += 1
        else:
            report.unreachable += 1
        found = []
        if o.status == "failure":
            if ref.reachable:
                found.append("planning failed but the reference reaches a goal")
        else:
            if ref.reachable is False:
                found.append("a path was found but the reference says no goal is reachable")
            path = o.path
            if o.record is not None:
                trace = planner.get_path(problem)
                if trace.status == "success":
                    path = planner.extract_candidate_path(trace).states
                else:
                    found.append(f"validate planned a path, but get_path ends in {trace.status}")
            if path is not None:
                broken = path_problems(path, problem, ref.actions)
                found += broken
                if ref.length is not None and len(path) < ref.length:
                    found.append(f"path of {len(path)} states beats the shortest, {ref.length}")
                if o.record is not None:
                    found += _record_problems(o.record, problem, not broken)
        if inst.scenario:
            found += golden_problems(inst.scenario)
        report.wrong += [(inst.label, reason) for reason in found]
    return report
