"""Checking planner output against the oracle.

The oracle never looks at the search: it counts the state-space strata by
splitting boxes of value sets until every rule is decided on each, computes
one-step transitions directly, and validates a path clause by clause.  A
breadth-first sweep over those transitions gives a shortest path to compare
against.
"""

from recourseplan import (bfs_shortest_path, builtin_scenario, compute_goal_set,
                          delta_oracle, extract_candidate_path, get_path,
                          state_set_report, validate_solution_path)

scenario = builtin_scenario("german")
problem = scenario.problem

print("state-space strata")
print("-" * 50)
report = state_set_report(problem)
print(f"  all states:           {report.total_states}")
print(f"  causally consistent:  {report.causally_consistent}")
print(f"  decision consistent:  {report.decision_consistent}")
print(f"  goal states:          {report.goal}")

print()
print("one-step transitions from the initial state")
print("-" * 50)
for successor in sorted(delta_oracle(problem.initial, problem), key=lambda s: s.idx):
    changed = [f"{n}: {problem.initial.display(n)} -> {successor.display(n)}"
               for n in problem.domains.names
               if successor.value(n) != problem.initial.value(n)]
    print("  " + "; ".join(changed))

print()
print("clause-by-clause validation of the planned path")
print("-" * 50)
trace = get_path(problem)
path = extract_candidate_path(trace)
verdict = validate_solution_path(path, problem)
for clause, ok in (
    ("starts at the initial state", verdict.starts_at_initial),
    ("ends in the goal set", verdict.ends_in_goal),
    ("every state causally consistent", verdict.all_causally_consistent),
    ("no goal before the final state", verdict.prefix_avoids_goal),
    ("every step a one-step transition", verdict.steps_are_transitions),
):
    print(f"  {'PASS' if ok else 'FAIL'}  {clause}")

print()
print("breadth-first cross-check")
print("-" * 50)
shortest = bfs_shortest_path(problem)
print(f"  planner path length: {len(path)}")
print(f"  shortest path length: {len(shortest)}")
assert len(shortest) <= len(path)

# The goal set itself is small enough to look at here.
print()
print("the full goal set")
print("-" * 50)
for state in sorted(compute_goal_set(problem), key=lambda s: s.idx):
    print("  " + ", ".join(f"{n}={state.display(n)}" for n in problem.domains.names))
