import dataclasses
import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from recourseplan.actions import build_actions
from recourseplan.domains import Domains, FeatureDomain
from recourseplan.dsl import parse_problem
from recourseplan.errors import NotASolution, PlanFailure
from recourseplan.generate import random_problem
from recourseplan.ingest import SCENARIO_NAMES, builtin_scenario
from recourseplan.kernel import CompiledProblem
from recourseplan.oracle import bfs_shortest_path, delta_oracle
from recourseplan.planner import (PathTrace, TraceEntry, _complete,
                                  extract_candidate_path, get_path,
                                  intervene, is_counterfactual, make_consistent,
                                  update)
from recourseplan.rules import ProblemSpec, is_causally_consistent


# update ----------------------------------------------------------------------

def test_update_records_attempt_and_steps(car):
    p = car.problem
    actions = build_actions(p)
    move = next(a for a in actions if a.id == "direct:persons:4")
    trace = PathTrace(causal_rules=p.causal_rules)
    (state, taken), trace = update(p.initial, trace, (), move)
    assert trace.entries == [TraceEntry(p.initial, (move.id,))]
    assert state.value("persons") == "4"
    assert taken == ()


def test_two_updates_from_same_state_accumulate_attempts(car):
    p = car.problem
    actions = build_actions(p)
    a1 = next(a for a in actions if a.id == "direct:persons:4")
    a2 = next(a for a in actions if a.id == "direct:persons:more")
    trace = PathTrace(causal_rules=p.causal_rules)
    _, trace = update(p.initial, trace, (), a1)
    popped = trace.pop_last()
    _, trace = update(popped.state, trace, popped.actions_taken, a2)
    assert trace.entries[-1].actions_taken == (a1.id, a2.id)


def test_update_never_mutates_prior_entries(car):
    p = car.problem
    actions = build_actions(p)
    a1 = next(a for a in actions if a.id == "direct:persons:4")
    a2 = next(a for a in actions if a.id == "direct:maint:low")
    trace = PathTrace(causal_rules=p.causal_rules)
    (s1, taken1), trace = update(p.initial, trace, (), a1)
    first = trace.entries[0]
    update(s1, trace, taken1, a2)
    assert trace.entries[0] is first


# make_consistent ---------------------------------------------------------------

def test_make_consistent_noop_on_consistent_state(husband_toy):
    p = husband_toy
    actions = build_actions(p)
    trace = PathTrace(causal_rules=p.causal_rules)
    entry, trace = make_consistent(p.initial, ("x",), trace, p.causal_rules, actions)
    assert entry == TraceEntry(p.initial, ("x",))
    assert trace.entries == []


def test_make_consistent_applies_causal_repair(husband_toy):
    p = husband_toy
    actions = build_actions(p)
    broken = p.domains.make_state(
        {"sex": "male", "marital_status": "married", "relationship": "unmarried"})
    trace = PathTrace(causal_rules=p.causal_rules)
    entry, trace = make_consistent(broken, (), trace, p.causal_rules, actions)
    assert entry.state.value("relationship") == "husband"
    assert is_causally_consistent(entry.state, p.causal_rules)
    # the inconsistent input was recorded, with the repair as its attempt
    assert len(trace.entries) == 1
    assert trace.entries[0].state == broken
    assert trace.entries[0].actions_taken[-1].startswith("causal:spouse_role")


def test_make_consistent_fails_when_no_completion_exists():
    text = (
        "feature a: categorical {f, t}.\n"
        "feature b: categorical {f, t}.\n"
        "causal r1: b = t :- a = t.\n"
        "causal r2: b = f :- a = t.\n"
        "constraint immutable a.\n"
        "constraint immutable b.\n"
        "initial { a = f, b = f }.\n")
    p = parse_problem(text)
    actions = build_actions(p)
    stuck = p.domains.make_state({"a": "t", "b": "f"})
    trace = PathTrace(causal_rules=p.causal_rules)
    with pytest.raises(PlanFailure):
        make_consistent(stuck, (), trace, p.causal_rules, actions)


def test_make_consistent_falls_back_to_prior_consistent_entry():
    text = (
        "feature a: categorical {f, t}.\n"
        "feature b: categorical {f, t}.\n"
        "causal r1: b = t :- a = t.\n"
        "causal r2: b = f :- a = t.\n"
        "constraint immutable a.\n"
        "constraint immutable b.\n"
        "initial { a = f, b = f }.\n")
    p = parse_problem(text)
    actions = build_actions(p)
    stuck = p.domains.make_state({"a": "t", "b": "f"})
    trace = PathTrace(causal_rules=p.causal_rules)
    trace.append(TraceEntry(p.initial, ("earlier",)))
    entry, trace = make_consistent(stuck, (), trace, p.causal_rules, actions)
    assert entry == TraceEntry(p.initial, ("earlier",))
    assert trace.entries == []


# intervene ---------------------------------------------------------------------

def test_intervene_takes_first_productive_move(german):
    p = german.problem
    actions = build_actions(p)
    trace = PathTrace(causal_rules=p.causal_rules)
    trace.append(TraceEntry(p.initial, ()))
    trace = intervene(trace, p.causal_rules, actions)
    last = trace.last().state
    assert str(last.value("duration_months")) == "(7, 72]"
    assert last.value("checking_account_status") == "no_checking_account"


def test_intervene_fails_with_no_actions():
    domains = Domains((FeatureDomain("only", "categorical", labels=("one",)),))
    p = ProblemSpec(domains=domains, initial=domains.make_state({"only": "one"}))
    trace = PathTrace()
    trace.append(TraceEntry(p.initial, ()))
    with pytest.raises(PlanFailure):
        intervene(trace, p.causal_rules, build_actions(p))
    assert trace.entries == [TraceEntry(p.initial, ())]  # root kept for diagnostics


def test_intervene_steps_are_oracle_transitions(german):
    p = german.problem
    actions = build_actions(p)
    trace = PathTrace(causal_rules=p.causal_rules)
    trace.append(TraceEntry(p.initial, ()))
    trace = intervene(trace, p.causal_rules, actions)
    assert trace.last().state in delta_oracle(p.initial, p, actions)


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

def _kernel(problem: ProblemSpec) -> CompiledProblem:
    return CompiledProblem(problem.domains, problem.causal_rules, problem.decision_rules,
                           build_actions(problem))


@pytest.mark.parametrize("seed", [172, 329])
def test_dead_set_changes_no_repair_chain(seed):
    problem = random_problem(seed, max_features=8, max_values=5)
    kernel = _kernel(problem)
    dead: set = set()
    for idx in itertools.product(*(range(f.size) for f in problem.domains)):
        if not kernel.consistent(idx):
            assert _complete(kernel, idx, dead=dead) == _complete(kernel, idx)
    # seed 329 has chains that fail, so later calls ran against a filled set
    assert bool(dead) == (seed == 329)


def test_failed_chain_with_excluded_first_hop_marks_nothing_dead(repair_chain):
    kernel = _kernel(repair_chain)
    start = repair_chain.domains.make_state(
        {"marital_status": "married", "relationship": "unmarried", "sex": "male"}).idx
    assert _complete(kernel, start) is not None
    dead: set = set()
    assert _complete(kernel, start, frozenset(range(len(kernel.moves))), dead) is None
    assert dead == set()


def test_wide_seed_68_fails_and_bfs_finds_no_goal():
    # used to re-explore the same dead region for each of 1,392 repair chains
    problem = random_problem(68, max_features=12, max_values=6, max_causal=10)
    trace = get_path(problem)
    assert (trace.status, trace.expansions) == ("failure", 319)
    assert bfs_shortest_path(problem) is None


# trace identity ---------------------------------------------------------------------

# SHA-256 over every trace of the four bundled scenarios and of
# random_problem(seed, max_features=8, max_values=5) for seeds 0-99: status,
# expansions, and per entry the state's indices and witnesses, the attempted
# action ids and the consistency flag.  Any change to search order, repair
# chains or witness bookkeeping changes it.
TRACE_DIGEST = "66d1ae1c6d958fb6ccbd91aaaaf09f9456f37bd809ad6fa0b96ff746a75745fe"


def test_traces_match_pinned_digest():
    problems = [builtin_scenario(name).problem for name in SCENARIO_NAMES]
    problems += [random_problem(seed, max_features=8, max_values=5) for seed in range(100)]
    digest = hashlib.sha256()
    for problem in problems:
        trace = get_path(problem)
        record = (trace.status, trace.expansions,
                  [(e.state.idx, e.state.reps, e.actions_taken, ok)
                   for e, ok in trace.entry_records()])
        digest.update(repr(record).encode())
    assert digest.hexdigest() == TRACE_DIGEST
