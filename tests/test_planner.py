import ast
import dataclasses
import hashlib
import itertools
import pathlib
import sys

import pytest
from hypothesis import given, settings, strategies as st

from recourseplan import planner, rules as rules_module
from recourseplan.actions import build_actions
from recourseplan.dsl import parse_problem, pretty_print
from recourseplan.errors import NotASolution
from recourseplan.generate import random_problem
from recourseplan.ingest import SCENARIO_NAMES, builtin_scenario
from recourseplan.kernel import CompiledProblem
from recourseplan.oracle import bfs_shortest_path, delta_oracle
from recourseplan.planner import (TraceEntry, _complete, extract_candidate_path,
                                  get_path, is_counterfactual)
from recourseplan.rules import ProblemSpec, is_causally_consistent


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


def test_first_expansion_takes_first_productive_move(german):
    trace = get_path(dataclasses.replace(german.problem, action_budget=1))
    last = trace.entries[-1].state
    assert str(last.value("duration_months")) == "(7, 72]"
    assert last.value("checking_account_status") == "no_checking_account"


def test_first_expansion_is_an_oracle_transition(german):
    p = german.problem
    trace = get_path(dataclasses.replace(p, action_budget=1))
    assert trace.entries[-1].state in delta_oracle(p.initial, p, build_actions(p))


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


def test_live_consistent_states_are_distinct():
    for seed in range(60):
        p = random_problem(seed)
        trace = get_path(p)
        consistent = [e.state for e, ok in trace.entry_records() if ok]
        assert len(set(consistent)) == len(consistent)


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


@settings(max_examples=60, deadline=None)
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

def _inconsistent_states(problem: ProblemSpec, kernel: CompiledProblem):
    for idx in itertools.product(*(range(f.size) for f in problem.domains)):
        if not kernel.consistent(idx):
            yield idx


@pytest.mark.parametrize("seed", [172, 329])
def test_dead_set_changes_no_repair_chain(seed):
    problem = random_problem(seed, max_features=8, max_values=5)
    kernel = CompiledProblem(problem)
    dead: set = set()
    exits: dict = {}
    for idx in _inconsistent_states(problem, kernel):
        assert _complete(kernel, idx, dead, exits) == _complete(kernel, idx, set(), {})
    # seed 329 has chains that fail, so later calls ran against a filled set
    assert bool(dead) == (seed == 329)


def _stepping_complete(kernel, start, dead):
    """The repair-chain search as it was before the exit table: every entry
    steps its state afresh.  Kept verbatim as the reference."""
    consistent, step = kernel.consistent, kernel.step
    if consistent(start):
        return start, ()
    positions = range(len(kernel.moves))
    seen = {start}
    stack = [(start, iter(positions))]
    edges = []
    while stack:
        idx, pending = stack[-1]
        for k in pending:
            nxt = step(k, idx)
            if nxt is None or nxt in seen or nxt in dead:
                continue
            edges.append((idx, k))
            if consistent(nxt):
                return nxt, tuple(edges)
            seen.add(nxt)
            stack.append((nxt, iter(positions)))
            break
        else:
            stack.pop()
            if edges:
                edges.pop()
    dead.update(seen)
    return None


@pytest.mark.parametrize("seed", [106, 111, 172, 329])
def test_tabled_chains_match_the_stepping_reference(seed):
    problem = random_problem(seed, max_features=8, max_values=5)
    kernel = CompiledProblem(problem)
    # one table and one dead set for all calls, as in a run: later calls read
    # the exits that earlier ones stored
    dead: set = set()
    exits: dict = {}
    reference_dead: set = set()
    for idx in _inconsistent_states(problem, kernel):
        assert _complete(kernel, idx, dead, exits) == _stepping_complete(kernel, idx, reference_dead)
    assert dead == reference_dead
    assert any(table is not None for table in exits.values())


def test_wide_seed_68_fails_and_bfs_finds_no_goal():
    # used to re-explore the same dead region for each of 1,392 repair chains
    problem = random_problem(68, max_features=12, max_values=6, max_causal=10)
    trace = get_path(problem)
    assert (trace.status, trace.expansions) == ("failure", 319)
    assert bfs_shortest_path(problem) is None


# one search path -----------------------------------------------------------------

def test_planner_steps_and_checks_states_only_through_the_kernel():
    tree = ast.parse(pathlib.Path(planner.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert not imported & {"apply_action", "is_causally_consistent", "build_actions"}


# problems with both causal and decision rules
PROBLEMS_WITH_RULES = ([("adult", lambda: builtin_scenario("adult").problem)]
                       + [(f"random {seed}",
                           lambda seed=seed: random_problem(seed, max_features=8, max_values=5))
                          for seed in (106, 111, 172)])


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
    get_path(problem)
    assert len(built) == 1
    assert compiled == []


# trace identity ---------------------------------------------------------------------

def _trace_digest(problems) -> str:
    digest = hashlib.sha256()
    for problem in problems:
        trace = get_path(problem)
        record = (trace.status, trace.expansions,
                  [(e.state.idx, e.state.reps, e.actions_taken, ok)
                   for e, ok in trace.entry_records()])
        digest.update(repr(record).encode())
    return digest.hexdigest()


# SHA-256 over every trace of the four bundled scenarios and of
# random_problem(seed, max_features=8, max_values=5) for seeds 0-99: status,
# expansions, and per entry the state's indices and witnesses, the attempted
# action ids and the consistency flag.  Any change to search order, repair
# chains or witness bookkeeping changes it.
TRACE_DIGEST = "66d1ae1c6d958fb6ccbd91aaaaf09f9456f37bd809ad6fa0b96ff746a75745fe"


def test_traces_match_pinned_digest():
    problems = [builtin_scenario(name).problem for name in SCENARIO_NAMES]
    problems += [random_problem(seed, max_features=8, max_values=5) for seed in range(100)]
    assert _trace_digest(problems) == TRACE_DIGEST


# The same digest over runs that TRACE_DIGEST leaves out:
# random_problem(seed, max_features=8, max_values=5) for seeds 106, 111, 172,
# 196, 268 and 271, then the printed and reparsed random_problem(seed,
# max_features=10, max_values=6) for seeds 11, 24, 52, 81 and 83.  Recorded
# before repair chains read an exit table.
WIDE_TRACE_DIGEST = "58a5cfe879e419ef935c7d4403007477b8fd6dfe9052569d02128c13da9ea7fa"


def test_more_traces_match_second_pinned_digest():
    problems = [random_problem(seed, max_features=8, max_values=5)
                for seed in (106, 111, 172, 196, 268, 271)]
    problems += [parse_problem(pretty_print(random_problem(seed, max_features=10, max_values=6)))
                 for seed in (11, 24, 52, 81, 83)]
    assert _trace_digest(problems) == WIDE_TRACE_DIGEST
