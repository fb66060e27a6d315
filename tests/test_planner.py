import ast
import dataclasses
import itertools
import pathlib
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from recourseplan import kernel as kernel_module, planner, rules as rules_module
from recourseplan.actions import build_actions
from recourseplan.domains import FeatureDomain, State
from recourseplan.dsl import parse_problem, pretty_print
from recourseplan.errors import EmptySequenceError, NotASolution
from recourseplan.generate import random_problem
from recourseplan.ingest import SCENARIO_NAMES, builtin_scenario
from recourseplan.kernel import CompiledProblem
from recourseplan.oracle import (_Tables, bfs_shortest_path, delta_oracle,
                                 enumerate_causally_consistent, validate_solution_path)
from recourseplan.planner import (PathTrace, TraceEntry, extract_candidate_path, get_path,
                                  is_counterfactual)
from recourseplan.rules import ProblemSpec, is_causally_consistent, none_holds
from tests.conftest import check_golden, golden_line
from tests.contract import (check_chains, goal, inconsistent_states, named_problem,
                            reachable_values)


# goal test ----------------------------------------------------------------------

def test_goal_requires_consistency_and_no_decision(german):
    p = german.problem
    domains = p.domains
    goal = p.initial.with_value(domains.index("duration_months"), 1) \
                    .with_value(domains.index("checking_account_status"), 1)
    assert is_counterfactual(goal, p.causal_rules, p.decision_rules)
    assert not is_counterfactual(p.initial, p.causal_rules, p.decision_rules)


def test_inconsistent_state_is_never_a_goal(husband_toy):
    p = husband_toy
    bad = p.domains.make_state(
        {"sex": "male", "marital_status": "married", "relationship": "wife"})
    assert not is_counterfactual(bad, p.causal_rules, ())


# get_path -------------------------------------------------------------------------

def test_initial_goal_gives_single_entry_success(boolean_pair):
    trace = get_path(boolean_pair)  # no decision rules: the start is a goal
    assert trace.status == "success"
    assert trace.entries == [TraceEntry(boolean_pair.initial, ())]
    assert extract_candidate_path(trace).states == (boolean_pair.initial,)


@pytest.fixture(scope="module")
def one_expansion_runs():
    """Every start that is not a goal among the four scenarios and 8/5 seeds
    0-349, with its run under a budget of one expansion and the oracle's
    one-step successors."""
    problems = [builtin_scenario(name).problem for name in SCENARIO_NAMES]
    problems += [random_problem(seed, max_features=8, max_values=5) for seed in range(350)]
    runs = []
    for p in problems:
        if is_counterfactual(p.initial, p.causal_rules, p.decision_rules):
            continue
        trace = get_path(dataclasses.replace(p, action_budget=1))
        runs.append((p, trace, delta_oracle(p.initial, p, build_actions(p))))
    assert len(runs) == 180
    return runs


def test_first_expansion_takes_first_productive_move(one_expansion_runs):
    # the goal test on discovery: one expansion reaches a goal one step away
    for p, trace, successors in one_expansion_runs:
        one_step = any(is_counterfactual(s, p.causal_rules, p.decision_rules) for s in successors)
        assert (trace.status == "success") == one_step


def test_first_expansion_is_an_oracle_transition(one_expansion_runs):
    successes = 0
    for p, trace, successors in one_expansion_runs:
        if trace.status == "success":
            successes += 1
            path = extract_candidate_path(trace).states
            assert len(path) == 2
            assert path[-1] in successors
    assert successes


def test_fails_without_actions_and_keeps_the_root():
    p = parse_problem(
        "feature only: categorical {one}.\n"
        "decision q :- only = one.\n"
        "constraint immutable only.\n"
        "initial { only = one }.\n")
    assert build_actions(p) == ()
    trace = get_path(p)
    assert trace.status == "failure"
    assert trace.entries == [TraceEntry(p.initial, ())]  # root kept for diagnostics


# a decision rule fires at every state reachable from the start, though other
# features can move
@pytest.mark.parametrize("name", ["doomed start", "monotone feature at its end value"],
                         ids=["immutable feature", "monotone feature at its end value"])
def test_doomed_start_fails_without_expanding(name, monkeypatch):
    problem = named_problem(name)
    assert build_actions(problem)  # a search would have moves to try
    built = []
    real_init = CompiledProblem.__init__

    def counting_init(self, *args):
        built.append(args)
        real_init(self, *args)

    monkeypatch.setattr(CompiledProblem, "__init__", counting_init)
    trace = get_path(problem)
    assert (trace.status, trace.expansions) == ("failure", 0)
    assert trace.entries == [TraceEntry(problem.initial, ())]
    assert built == []


def test_unreachable_goal_fails(unreachable_goal):
    trace = get_path(unreachable_goal)
    assert trace.status == "failure"
    with pytest.raises(NotASolution):
        extract_candidate_path(trace)


def test_budget_exhaustion_reported(german):
    p = dataclasses.replace(german.problem, action_budget=1)
    trace = get_path(p)
    assert trace.status == "budget-exhausted"
    assert trace.expansions == 1


def test_runs_are_deterministic(german):
    a = get_path(german.problem)
    b = get_path(german.problem)
    assert a.entries == b.entries
    assert a.status == b.status
    assert a.expansions == b.expansions


def test_trace_attempts_are_duplicate_free(unreachable_goal):
    trace = get_path(unreachable_goal)
    for entry in trace.entries:
        assert len(set(entry.actions_taken)) == len(entry.actions_taken)


def test_trace_is_the_path_with_the_action_that_left_each_state():
    problems = [builtin_scenario(name).problem for name in SCENARIO_NAMES]
    problems += [random_problem(seed, max_features=8, max_values=5) for seed in range(100)]
    problems.append(dataclasses.replace(builtin_scenario("german").problem, action_budget=1))
    for p in problems:
        trace = get_path(p)
        if trace.status != "success":
            assert trace.entries == [TraceEntry(p.initial, ())]
            continue
        *steps, goal = trace.entries
        assert goal.actions_taken == ()
        names = p.domains.names
        for entry, following in zip(steps, trace.entries[1:]):
            (action_id,) = entry.actions_taken
            written = names.index(action_id.split(":")[-2])
            # the witnesses are the predecessor's, less the written feature's
            assert following.state.reps == tuple(None if i == written else r
                                                 for i, r in enumerate(entry.state.reps))
            assert [i for i, (a, b) in enumerate(zip(entry.state.idx, following.state.idx))
                    if a != b] == [written]


def test_live_consistent_states_are_distinct():
    for seed in range(60):
        p = random_problem(seed)
        trace = get_path(p)
        consistent = [e.state for e, ok in trace.entry_records() if ok]
        assert len(set(consistent)) == len(consistent)


def test_pop_last_on_an_empty_trace_raises():
    with pytest.raises(EmptySequenceError):
        PathTrace().pop_last()


# candidate path extraction ----------------------------------------------------------

def test_german_candidate_path_equals_trace_states(german):
    trace = get_path(german.problem)
    path = extract_candidate_path(trace)
    assert [e.state for e in trace.entries] == list(path.states)
    assert len(path) == 3


def test_inconsistent_intermediates_are_filtered(repair_chain):
    # the first move breaks the spouse rule; the repair is recorded in the
    # trace but not in the candidate path
    trace = get_path(repair_chain)
    assert trace.status == "success"
    flags = [ok for _, ok in trace.entry_records()]
    assert False in flags
    path = extract_candidate_path(trace)
    assert len(path) == 2
    assert all(is_causally_consistent(s, repair_chain.causal_rules) for s in path)
    goal = path.states[-1]
    assert goal.value("marital_status") == "married"
    assert goal.value("relationship") == "husband"


def test_repair_chain_records_each_intermediate_with_its_repair(repair_chain):
    trace = get_path(repair_chain)
    (broken,) = [e for e, ok in trace.entry_records() if not ok]
    assert broken.state.value("marital_status") == "married"
    assert broken.state.value("relationship") == "unmarried"
    assert len(broken.actions_taken) == 1
    assert broken.actions_taken[0].startswith("causal:spouse_role")


def test_candidate_path_starts_at_initial_and_ends_in_goal(adult):
    p = adult.problem
    trace = get_path(p)
    path = extract_candidate_path(trace)
    assert path.states[0] == p.initial
    assert is_counterfactual(path.states[-1], p.causal_rules, p.decision_rules)


@settings(max_examples=60)
@given(st.integers(0, 3000))
def test_candidate_paths_move_along_oracle_transitions(seed):
    problem = random_problem(seed)
    trace = get_path(problem)
    if trace.status != "success":
        return
    path = extract_candidate_path(trace)
    actions = build_actions(problem)
    for a, b in zip(path.states, path.states[1:]):
        assert b in delta_oracle(a, problem, actions)


# dead regions -----------------------------------------------------------------------

def _reaches_a_consistent_state(kernel, sources) -> bool:
    reached = set(sources)
    frontier = list(reached)
    while frontier:
        idx = frontier.pop()
        for k in range(len(kernel.moves)):
            nxt = kernel.step(k, idx)
            if nxt is None or nxt in reached:
                continue
            if none_holds(kernel.causal, nxt):
                return True
            reached.add(nxt)
            frontier.append(nxt)
    return False


# 8/5 seeds of 0-119 with at most 2,000 states, and four larger ones
CHAIN_SEEDS = [seed for seed in range(120)
               if random_problem(seed, max_features=8, max_values=5).state_count <= 2000]
CHAIN_SEEDS += [106, 111, 172, 329]


@pytest.mark.parametrize("seed", CHAIN_SEEDS)
def test_chains_match_the_breadth_first_reference(seed):
    check_chains(random_problem(seed, max_features=8, max_values=5))


def test_seed_263_repair_chains_are_short(monkeypatch):
    # the depth-first walk made chains of 301 steps on average here; get_path
    # does not search from this doomed start, so the search loop is run past
    # the doomed-start test
    steps = []
    real_complete = CompiledProblem.complete

    def counting_complete(self, start):
        result = real_complete(self, start)
        steps.append(0 if result is None else len(result[1]))
        return result

    monkeypatch.setattr(CompiledProblem, "complete", counting_complete)
    _search(random_problem(263, max_features=8, max_values=5))
    assert steps
    assert sum(steps) / len(steps) <= 2


UNREPAIRABLE_SEEDS = [4, 14, 20, 48, 63, 66, 72, 92]


@pytest.mark.parametrize("seed", UNREPAIRABLE_SEEDS)
def test_unrepairable_states_reach_no_consistent_state(seed):
    problem = random_problem(seed, max_features=8, max_values=5)
    kernel = CompiledProblem(problem)
    ruled_out = [idx for idx in inconsistent_states(problem, kernel) if kernel.unrepairable(idx)]
    assert ruled_out
    assert not _reaches_a_consistent_state(kernel, ruled_out)


@pytest.mark.parametrize("seed, max_splits",
                         [pytest.param(seed, kernel_module.MAX_SPLITS, id=str(seed))
                          for seed in UNREPAIRABLE_SEEDS]
                         + [pytest.param(seed, 1, id=f"{seed}-one-box") for seed in UNREPAIRABLE_SEEDS])
def test_unrepairable_means_no_state_of_the_reach_box_is_consistent(seed, max_splits, monkeypatch):
    # brute force on the State-level evaluator: list every state of the box.
    # With one box the cover test gives up unless a rule is broken throughout
    # the reach box, and a failed repair chain files the verdict instead.
    monkeypatch.setattr(kernel_module, "MAX_SPLITS", max_splits)
    problem = random_problem(seed, max_features=8, max_values=5)
    kernel = CompiledProblem(problem)
    domains, causal = problem.domains, problem.causal_rules
    verdicts = []
    for idx in inconsistent_states(problem, kernel):
        box = itertools.product(*map(reachable_values, domains.features, idx))
        no_exit = not any(is_causally_consistent(State(domains, s), causal) for s in box)
        covered = kernel.unrepairable(idx)
        if max_splits == 1:
            assert no_exit or not covered, idx
        else:
            assert covered == no_exit, idx
        assert (kernel.complete(idx) is None) == no_exit, idx
        assert kernel.unrepairable(idx) == no_exit, idx
        verdicts.append(no_exit)
    assert any(verdicts)


def _seed_459() -> ProblemSpec:
    # 30 features of up to 8 values and 24 causal rules: a repair chain from
    # the first expansion walked an inconsistent region until memory ran out
    return random_problem(459, max_features=30, max_values=8, max_causal=24)


def test_seed_459_raw_outcome_is_unrepairable_though_no_rule_is_broken_throughout():
    problem = _seed_459()
    kernel = CompiledProblem(problem)
    root = problem.initial.idx
    raw = [nxt for nxt in (kernel.step(k, root) for k in range(len(kernel.moves)))
           if nxt is not None and not none_holds(kernel.causal, nxt)]
    # the second inconsistent raw outcome in action order: two causal rules
    # cover its reach box between them, and the box test alone cuts it
    reach = list(map(reachable_values, problem.domains.features, raw[1]))
    assert kernel_module._decide(kernel.causal, reach) is not True
    assert kernel.unrepairable(raw[1])


def _cap_steps(monkeypatch, cap: int) -> list:
    """Record every ``CompiledProblem.step`` call's action, failing past
    ``cap``: counted rather than timed, since every state a repair chain
    enters is a step."""
    taken = []
    real_step = CompiledProblem.step

    def capped_step(self, k, idx):
        if len(taken) == cap:
            raise AssertionError(f"more than {cap} steps")
        taken.append(k)
        return real_step(self, k, idx)

    monkeypatch.setattr(CompiledProblem, "step", capped_step)
    return taken


def test_seed_459_succeeds_after_one_expansion(monkeypatch):
    # its first expansion takes 77 steps (73 actions from the root, 4 in the
    # first levels of repair chains); a runaway chain passes the cap long
    # before it fills memory
    taken = _cap_steps(monkeypatch, 10_000)
    trace = get_path(_seed_459())
    assert (trace.status, trace.expansions) == ("success", 1)
    assert len(taken) == 77


def test_failed_chains_file_their_verdict_where_the_cover_test_gives_up(monkeypatch):
    # With one box the cover test decides only a reach box some causal rule
    # is broken throughout.  Every other unrepairable start is searched by a
    # repair chain, whose failure files the verdict for its reach box; a
    # search that filed nothing walks the same regions again and passes the cap.
    monkeypatch.setattr(kernel_module, "MAX_SPLITS", 1)
    _cap_steps(monkeypatch, 200_000)
    trace = get_path(random_problem(68, max_features=12, max_values=6, max_causal=10))
    assert (trace.status, trace.expansions) == ("failure", 320)


def test_unrepairable_verdicts_last_one_run(monkeypatch):
    covered, completed = [], []
    real_covered, real_complete = kernel_module._covered, CompiledProblem.complete

    def counting_covered(tables, box):
        covered.append(tables)
        return real_covered(tables, box)

    def counting_complete(self, start):
        completed.append(start)
        return real_complete(self, start)

    monkeypatch.setattr(kernel_module, "_covered", counting_covered)
    monkeypatch.setattr(CompiledProblem, "complete", counting_complete)
    # the root's doomed test, then one reach box shared by the three of the
    # repair chains of 15 starts that no one-step repair ends
    problem = random_problem(297, max_features=8, max_values=5)
    assert get_path(problem).status == "success"
    assert (len(covered), len(set(completed))) == (2, 15)
    # a second run decides that reach box afresh: no verdict outlives its run
    completed.clear()
    get_path(problem)
    assert (len(covered), len(set(completed))) == (4, 15)
    # a goal start tests no box
    covered.clear()
    trace = get_path(random_problem(0, max_features=8, max_values=5))
    assert (trace.status, trace.expansions, covered) == ("success", 0, [])


def test_a_forced_walk_keeps_no_repair_chain_in_the_kernel():
    # a decision table that holds everywhere leaves no goal, so the search
    # runs out its budget, calling ``complete`` about a dozen times per
    # expansion.  Under Python 3.11 a kernel that memoized every chain
    # retained 18.5 MB at the end, and one that keeps none retains 0.5 MB.
    problem = random_problem(0, max_features=16, max_values=8, max_causal=14)
    tracemalloc.start()
    try:
        kernel = CompiledProblem(problem)
        kernel.decision = ((),)
        trace = PathTrace([TraceEntry(problem.initial)])
        assert planner._search(trace, kernel, 3_000) == "budget-exhausted"
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 2_000_000


def test_wide_seed_68_fails_and_bfs_finds_no_goal():
    # the reach box of the start holds no goal, so no search runs
    problem = random_problem(68, max_features=12, max_values=6, max_causal=10)
    trace = get_path(problem)
    assert (trace.status, trace.expansions) == ("failure", 0)
    assert bfs_shortest_path(problem) is None


# one search path -----------------------------------------------------------------

def test_planner_steps_and_checks_states_only_through_the_kernel():
    tree = ast.parse(pathlib.Path(planner.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert not imported & {"apply_action", "is_causally_consistent", "build_actions"}


# problems with both causal and decision rules; the last one starts in the goal set
PROBLEMS_WITH_RULES = ([("adult", lambda: builtin_scenario("adult").problem)]
                       + [(f"random {seed}",
                           lambda seed=seed: random_problem(seed, max_features=8, max_values=5))
                          for seed in (106, 111, 172)]
                       + [("goal start",
                           lambda: random_problem(28, max_features=10, max_values=6))])


@pytest.mark.parametrize("make", [make for _, make in PROBLEMS_WITH_RULES],
                         ids=[name for name, _ in PROBLEMS_WITH_RULES])
def test_get_path_compiles_the_problem_once(make, monkeypatch):
    built, compiled = [], []
    real_kernel, real_compile = planner.CompiledProblem, rules_module._compile_rule

    def counting_kernel(*args):
        built.append(args)
        return real_kernel(*args)

    def counting_compile(domains, rule):
        compiled.append(rule)
        return real_compile(domains, rule)

    problem = make()
    monkeypatch.setattr(planner, "CompiledProblem", counting_kernel)
    for module in list(sys.modules.values()):  # every module that imported the name too
        if (getattr(module, "__name__", "").startswith("recourseplan")
                and getattr(module, "_compile_rule", None) is real_compile):
            monkeypatch.setattr(module, "_compile_rule", counting_compile)
    # construction compiles each rule once, in rule order ...
    problem = dataclasses.replace(problem)
    assert compiled == list(problem.causal_rules + problem.decision_rules)
    # ... and planning reads those tables
    compiled.clear()
    trace = get_path(problem)
    # one kernel for a run that expands, none for a goal or doomed start
    assert len(built) == (1 if trace.expansions else 0)
    assert compiled == []


def test_a_start_bound_to_the_model_plans_as_a_rebuilt_problem():
    # every consistent start of the default tier, bound to its problem's
    # model or built into a new problem, gives the same run
    def run(problem):
        trace = get_path(problem)
        return trace.status, trace.expansions, [
            (e.state.idx, e.state.reps, e.actions_taken, e.consistent) for e in trace.entries]

    starts = 0
    for seed in range(300):
        problem = random_problem(seed)
        for state in enumerate_causally_consistent(problem):
            assert (run(problem.model.problem(state))
                    == run(dataclasses.replace(problem, initial=state))), (seed, state.idx)
            starts += 1
    assert starts > 10_000


def test_goal_start_builds_no_action_list(monkeypatch):
    problem = random_problem(28, max_features=10, max_values=6)
    assert problem.causal_rules and problem.decision_rules
    swept = []
    real_decide = kernel_module._decide

    def counting_decide(*args):
        swept.append(args)
        return real_decide(*args)

    monkeypatch.setattr(kernel_module, "_decide", counting_decide)
    build_actions(problem)
    assert swept  # building the action list decides a repair candidate here
    swept.clear()
    trace = get_path(problem)
    assert swept == []
    assert (trace.status, trace.expansions) == ("success", 0)
    assert list(trace.entry_records()) == [(TraceEntry(problem.initial, ()), True)]


def test_planner_never_reads_the_full_id_tuple():
    tree = ast.parse(pathlib.Path(planner.__file__).read_text())
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "ids"]
    assert reads == []


@pytest.mark.parametrize("make", [make for _, make in PROBLEMS_WITH_RULES],
                         ids=[name for name, _ in PROBLEMS_WITH_RULES])
def test_get_path_formats_only_the_ids_it_records(make, monkeypatch):
    problem = make()
    calls = []
    real_value_text = FeatureDomain.value_text

    def counting_value_text(self, index):
        calls.append((self.name, index))
        return real_value_text(self, index)

    monkeypatch.setattr(FeatureDomain, "value_text", counting_value_text)
    trace = get_path(problem)
    recorded = {action for entry in trace.entries for action in entry.actions_taken}
    assert len(calls) <= len(recorded) < len(build_actions(problem))


# trace identity ---------------------------------------------------------------------

def _search(problem: ProblemSpec) -> PathTrace:
    """``get_path``'s search loop with no budget, run from a start that is not
    a goal past the doomed-start test."""
    kernel = CompiledProblem(problem)
    trace = PathTrace([TraceEntry(problem.initial)])
    trace.status = planner._search(trace, kernel, sys.maxsize)
    return trace


# one line per run in tests/golden/traces.txt, for the four bundled scenarios
# and random_problem(seed, max_features=8, max_values=5) for seeds 0-99, then
# that tier's seeds 106, 111, 172, 196, 268 and 271 and the printed and
# reparsed random_problem(seed, max_features=10, max_values=6) for seeds 11,
# 24, 52, 81 and 83, which are all doomed starts: label, status, entry count,
# expansions, and the hash of the status and, per entry, the state's indices
# and witnesses, the action ids and the consistency flag
def test_traces_match_pinned_digest():
    problems = [(name, builtin_scenario(name).problem) for name in SCENARIO_NAMES]
    problems += [(f"8/5:{seed}", random_problem(seed, max_features=8, max_values=5))
                 for seed in (*range(100), 106, 111, 172, 196, 268, 271)]
    problems += [(f"10/6-printed:{seed}",
                  parse_problem(pretty_print(random_problem(seed, max_features=10, max_values=6))))
                 for seed in (11, 24, 52, 81, 83)]
    lines = []
    for label, problem in problems:
        trace = get_path(problem)
        record = (trace.status, [(e.state.idx, e.state.reps, e.actions_taken, ok)
                                 for e, ok in trace.entry_records()])
        lines.append(golden_line(label, trace.status, len(trace.entries), trace.expansions,
                                 record=repr(record)))
    check_golden("traces.txt", lines)


# failures that get_path decides before any expansion, with the expansions
# of the search loop run past that test: every consistent state reachable
# from the start
SEARCHED_FAILURES = [
    ("8/5 263", dict(max_features=8, max_values=5), 263, 1615),
    ("12/6/C10 25", dict(max_features=12, max_values=6, max_causal=10), 25, 924),
    ("12/6/C10 68", dict(max_features=12, max_values=6, max_causal=10), 68, 320),
]


@pytest.mark.parametrize("tier, seed, expansions",
                         [(tier, seed, n) for _, tier, seed, n in SEARCHED_FAILURES],
                         ids=[name for name, *_ in SEARCHED_FAILURES])
def test_search_loop_still_exhausts_formerly_searched_failures(tier, seed, expansions):
    problem = random_problem(seed, **tier)
    trace = _search(problem)
    assert (trace.status, trace.expansions) == ("failure", expansions)
    assert bfs_shortest_path(problem) is None
    # the oracle's one-step relation reaches exactly as many states from the
    # start, none of them a goal, as the search expanded
    tables = _Tables(problem)
    closure = [problem.initial.idx]
    seen = set(closure)
    for idx in closure:  # grows while it is read
        new = tables.canonical(idx, tables.successors(idx)) - seen
        seen |= new
        closure += new
    assert not any(map(tables.goal, closure))
    assert len(closure) == expansions


@pytest.fixture(scope="module")
def benchmark_tiers():
    """8/5 seeds 0-349, then the printed and reparsed 10/6 seeds 0-119, each
    with its run and the oracle's shortest path (``None`` when no goal is
    reachable)."""
    problems = [random_problem(seed, max_features=8, max_values=5) for seed in range(350)]
    problems += [parse_problem(pretty_print(random_problem(seed, max_features=10, max_values=6)))
                 for seed in range(120)]
    return [(problem, get_path(problem), bfs_shortest_path(problem)) for problem in problems]


def test_every_failure_fails_before_expanding(benchmark_tiers):
    failures = [trace for _, trace, _ in benchmark_tiers if trace.status == "failure"]
    assert len(failures) == 87 + 26
    assert {(trace.expansions, len(trace.entries)) for trace in failures} == {(0, 1)}


def test_search_fails_from_every_doomed_start(benchmark_tiers):
    # the oracle's breadth-first search, which shares no search code with
    # the planner, reaches no goal from a start the kernel calls doomed
    doomed = []
    for problem, _, shortest in benchmark_tiers:
        idx = problem.initial.idx
        if not goal(problem, idx) and kernel_module.doomed(problem, idx):
            doomed.append(shortest)
    assert len(doomed) == 113
    assert doomed == [None] * len(doomed)


def test_every_path_is_as_short_as_the_oracles(benchmark_tiers):
    successes = 0
    for problem, trace, shortest in benchmark_tiers:
        assert trace.status in ("success", "failure")
        if trace.status == "failure":
            assert shortest is None
        else:
            successes += 1
            assert len(extract_candidate_path(trace)) == len(shortest)
    assert successes == 263 + 94


# inputs the depth-first search left undecided or long, with their path
# length and expansions: 10/6 seed 291 and 12/6/C10 seed 118 ended
# budget-exhausted after 3,600 and 4,440 expansions, and 10/6 seed 297's path
# had 6 states after 1,580
SHORTENED = [
    ("10/6 291", dict(max_features=10, max_values=6), 291, 4, 172),
    ("12/6/C10 118", dict(max_features=12, max_values=6, max_causal=10), 118, 2, 1),
    ("10/6 297", dict(max_features=10, max_values=6), 297, 2, 1),
]


@pytest.mark.parametrize("tier, seed, length, expansions",
                         [case[1:] for case in SHORTENED],
                         ids=[name for name, *_ in SHORTENED])
def test_formerly_long_searches_find_shortest_paths(tier, seed, length, expansions):
    problem = random_problem(seed, **tier)
    trace = get_path(problem)
    assert (trace.status, trace.expansions) == ("success", expansions)
    assert len(extract_candidate_path(trace)) == len(bfs_shortest_path(problem)) == length


def test_huge_space_one_step_from_a_goal():
    # 14/6/C12 seed 86 declares 388.8 M states, past the oracle's enumeration
    # cap, so the path is checked step by step; the depth-first search ended
    # budget-exhausted after 7,980 expansions
    problem = random_problem(86, max_features=14, max_values=6, max_causal=12)
    trace = get_path(problem)
    assert (trace.status, trace.expansions) == ("success", 1)
    path = extract_candidate_path(trace)
    assert len(path) == 2
    assert validate_solution_path(path, problem).overall
