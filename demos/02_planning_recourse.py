"""Planning recourse paths on the bundled scenarios.

Each scenario encodes a rule-based classifier's current (undesired) decision
for one individual.  The search walks from that individual's state to a
causally consistent state where no decision rule fires any more, one
intervention at a time, and reports the trace of the path it found plus the
candidate path (the trace with causally inconsistent repair intermediates
removed).
"""

from recourseplan import SCENARIO_NAMES, builtin_scenario, extract_candidate_path, get_path
from recourseplan.cli import render_path_table

for name in SCENARIO_NAMES:
    scenario = builtin_scenario(name)
    trace = get_path(scenario.problem)
    path = extract_candidate_path(trace)
    print("=" * 72)
    print(f"scenario {name}: {scenario.description}")
    print(f"status: {trace.status}, expansions: {trace.expansions}, "
          f"candidate path: {len(path)} states")
    print()
    print(render_path_table(trace))

# A path with a repair chain: changing marital status alone would break the
# spouse rule, so the same step also repairs the relationship feature.  The
# inconsistent intermediate shows up in the trace but not the candidate path.
CHAIN = """\
feature marital_status: categorical {never_married, married}.
feature relationship: categorical {unmarried, husband}.
feature sex: categorical {male, female}.
causal spouse_role: relationship = husband :- marital_status = married, sex = male.
decision still_single :- relationship = unmarried.
initial { marital_status = never_married, relationship = unmarried, sex = male }.
"""

from recourseplan import parse_problem

problem = parse_problem(CHAIN)
trace = get_path(problem)
print("=" * 72)
print("repair-chain example: trace vs candidate path")
for entry, consistent in trace.entry_records():
    mark = "ok " if consistent else "BAD"
    values = ", ".join(f"{n}={entry.state.display(n)}" for n in problem.domains.names)
    print(f"  [{mark}] {values}   action: {list(entry.actions_taken)}")
path = extract_candidate_path(trace)
print(f"candidate path keeps {len(path)} of {len(trace.entries)} trace states")
