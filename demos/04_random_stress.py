"""Seeded random instances: the planner against the oracle at scale.

Every instance is tiny but adversarial in aggregate: random interval
features, causal rules, decision rules, and plausibility constraints.  For
each one the planner runs with budget |states| * |actions|, successful paths
are validated clause by clause, and failures are compared against
breadth-first reachability.
"""

import dataclasses
import time

from recourseplan import (bfs_shortest_path, build_actions, extract_candidate_path,
                          get_path, random_problem, validate_solution_path)

RUNS = 100

started = time.perf_counter()
outcomes = {"success": 0, "failure": 0, "budget-exhausted": 0}
validated = 0
path_lengths = []
slack = 0  # planner steps beyond the shortest possible

for seed in range(RUNS):
    problem = random_problem(seed)
    actions = build_actions(problem)
    problem = dataclasses.replace(
        problem, action_budget=problem.state_count * max(1, len(actions)))
    trace = get_path(problem)
    outcomes[trace.status] += 1
    shortest = bfs_shortest_path(problem)
    if trace.status == "success":
        path = extract_candidate_path(trace)
        report = validate_solution_path(path, problem)
        assert report.overall, f"seed {seed}: invalid path"
        assert shortest is not None, f"seed {seed}: oracle disagrees on reachability"
        validated += 1
        path_lengths.append(len(path))
        slack += len(path) - len(shortest)
    elif trace.status == "failure":
        assert shortest is None, f"seed {seed}: a path existed"

elapsed = time.perf_counter() - started
print(f"{RUNS} seeded instances in {elapsed:.2f}s")
print(f"outcomes: {outcomes}")
print(f"validated paths: {validated}, all five clauses each")
print(f"mean path length: {sum(path_lengths) / len(path_lengths):.2f}")
print(f"steps beyond shortest (total): {slack}")
print("failure always coincides with oracle unreachability: OK")
