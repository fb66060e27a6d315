import dataclasses
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from recourseplan import oracle
from recourseplan.actions import Action, apply_action, build_actions, is_permitted
from recourseplan.domains import Domains, FeatureDomain, State
from recourseplan.dsl import parse_problem, pretty_print
from recourseplan.errors import CapExceeded, NotApplicable
from recourseplan.generate import random_problem
from recourseplan.ingest import SCENARIO_NAMES, builtin_scenario
from recourseplan.oracle import (_leaves, _Tables, bfs_shortest_path, compute_goal_set,
                                 delta_oracle, enumerate_causally_consistent,
                                 enumerate_states, state_set_report, validate_solution_path)
from recourseplan.planner import (CandidatePath, extract_candidate_path, get_path,
                                  is_counterfactual)
from recourseplan.rules import ProblemSpec, is_causally_consistent
from tests.contract import NAMED, check_strata, named_problem


# enumeration -------------------------------------------------------------------

def test_car_state_count(car):
    states = list(enumerate_states(car.problem.domains))
    assert len(states) == 144
    assert len(set(states)) == 144


def test_single_value_feature_single_state():
    d = Domains((FeatureDomain("only", "categorical", labels=("one",)),))
    assert [s.idx for s in enumerate_states(d)] == [(0,)]


def test_enumeration_order_is_deterministic(husband_toy):
    a = [s.idx for s in enumerate_states(husband_toy.domains)]
    b = [s.idx for s in enumerate_states(husband_toy.domains)]
    assert a == b
    assert a[0] == (0, 0, 0) and a[-1] == (1, 1, 2)


@given(st.integers(0, 500))
def test_stream_length_is_domain_product(seed):
    problem = random_problem(seed)
    count = sum(1 for _ in enumerate_states(problem.domains))
    assert count == problem.state_count


def test_cap_exceeded():
    d = Domains((FeatureDomain("a", "categorical", labels=tuple("abcdefgh")),
                 FeatureDomain("b", "categorical", labels=tuple("abcdefgh"))))
    with pytest.raises(CapExceeded):
        enumerate_states(d, cap=63)  # at the call, before any state is asked for
    assert sum(1 for _ in enumerate_states(d, cap=64)) == 64


def test_empty_causal_rules_keep_every_state(car):
    members = enumerate_causally_consistent(car.problem)
    assert len(members) == 144


def test_husband_toy_excludes_exactly_two_states(husband_toy):
    members = enumerate_causally_consistent(husband_toy)
    assert len(members) == 10
    domains = husband_toy.domains
    excluded = {
        domains.make_state({"sex": "male", "marital_status": "married",
                            "relationship": "wife"}),
        domains.make_state({"sex": "male", "marital_status": "married",
                            "relationship": "unmarried"}),
    }
    assert excluded.isdisjoint(members)
    assert len(members | excluded) == 12


# goal sets ----------------------------------------------------------------------

def test_no_decision_rules_goal_is_everything_consistent(husband_toy):
    assert compute_goal_set(husband_toy) == enumerate_causally_consistent(husband_toy)


def test_covering_decisions_empty_goal_and_failure(unreachable_goal):
    assert compute_goal_set(unreachable_goal) == set()
    assert get_path(unreachable_goal).status == "failure"


def test_goal_test_matches_enumerated_goal_set(adult):
    p = adult.problem
    goal = compute_goal_set(p)
    for state in enumerate_states(p.domains):
        if is_causally_consistent(state, p.causal_rules):
            assert is_counterfactual(state, p.causal_rules, p.decision_rules) \
                == (state in goal)


def test_report_counts_and_set_identity(husband_toy):
    report = state_set_report(husband_toy)
    assert report.total_states == 12
    assert report.causally_consistent == 10
    assert report.goal + report.decision_consistent == report.causally_consistent


@given(st.integers(0, 500))
def test_report_matches_enumerations(seed):
    problem = random_problem(seed)
    report = state_set_report(problem)
    consistent = enumerate_causally_consistent(problem)
    goal = compute_goal_set(problem)
    assert report.total_states == problem.state_count
    assert report.causally_consistent == len(consistent)
    assert report.goal == len(goal)
    assert report.decision_consistent == len(consistent) - len(goal)


# the strata from the box split, against a state-by-state count ------------------

def _singleton_chain(n: int, k: int) -> ProblemSpec:
    """``n`` features over ``k`` values and, for each pair of neighbours and
    each value, a decision rule whose literals each hold on that one value:
    a decision fires where two neighbours agree.  The split keeps about a
    fifth as many boxes as there are states at 5 features of 6 values."""
    values = ", ".join(f"v{j}" for j in range(k))
    lines = [f"feature f{i}: categorical {{{values}}}." for i in range(n)]
    lines += [f"decision d{i}_{j} :- f{i} = v{j}, f{i + 1} = v{j}."
              for i in range(n - 1) for j in range(k)]
    lines.append("initial { " + ", ".join(f"f{i} = v{i % 2}" for i in range(n)) + " }.")
    return parse_problem("\n".join(lines))


STRATA_PROBLEMS = (
    [(f"random {seed}", lambda seed=seed: random_problem(seed, max_features=6, max_values=4))
     for seed in range(50)]
    + [(f"8/5 {seed}", lambda seed=seed: random_problem(seed, max_features=8, max_values=5))
       for seed in range(60)]
    # as the command line reads them: printed, then parsed back
    + [(f"printed 10/6 {seed}", lambda seed=seed: parse_problem(pretty_print(
        random_problem(seed, max_features=10, max_values=6)))) for seed in range(30)]
    + [("singleton chain 5x6", lambda: _singleton_chain(5, 6))])


@pytest.mark.parametrize("make", [make for _, make in STRATA_PROBLEMS],
                         ids=[name for name, _ in STRATA_PROBLEMS])
def test_projected_strata_match_a_state_by_state_count(make):
    check_strata(make())


def test_stratum_pass_leaves_out_features_no_rule_names():
    problem = named_problem("unnamed features")
    domains = problem.domains
    leaves = _leaves(problem)
    assert leaves
    for box, _ in leaves:
        for name in ("u", "w"):
            i = domains.index(name)
            assert box[i] == frozenset(range(domains[i].size))
    no_rules = named_problem("no rules")
    assert _leaves(no_rules) == [(tuple(frozenset(range(f.size)) for f in no_rules.domains),
                                  False)]


def _counting_boxes(monkeypatch) -> list:
    """Record each box the split decides.  The split asks about one box at a
    time, at most twice (its causal rules, then its decision rules), so a box
    is new when it is not the last one recorded."""
    boxes = []
    real_on_boxes = oracle._on_boxes

    def counting_on_boxes(tables, box):
        if not boxes or boxes[-1] is not box:
            boxes.append(box)
        return real_on_boxes(tables, box)

    monkeypatch.setattr(oracle, "_on_boxes", counting_on_boxes)
    return boxes


def test_split_cuts_no_rule_that_holds_nowhere(monkeypatch):
    # a split that cuts along d1, which holds nowhere, or along c1's two x
    # literals one at a time visits 13 boxes and keeps 6
    problem = named_problem("rules naming a feature twice")
    boxes = _counting_boxes(monkeypatch)
    report = state_set_report(problem)
    assert (report.total_states, report.causally_consistent, report.decision_consistent,
            report.goal) == (18, 15, 2, 13)
    assert len(boxes) <= 7
    assert len(_leaves(problem)) == 3


def _box_test_problems():
    for name in NAMED:
        yield name, named_problem(name)
    for seed in range(100):
        yield f"8/5 {seed}", random_problem(seed, max_features=8, max_values=5)


def test_box_test_is_exact(monkeypatch):
    # each verdict of the split's box test, against the box's states: a table
    # left out holds at none of them, and a live one at some but not all
    real_on_boxes = oracle._on_boxes

    def checked_on_boxes(tables, box):
        cut, live = real_on_boxes(tables, box)
        states = list(itertools.product(*box))
        held = [sum(oracle._holds(table, idx) for idx in states) for table in tables]
        if cut is True:
            assert len(states) in held, name
        else:
            for table, n in zip(tables, held):
                assert (0 < n < len(states)) if table in live else n == 0, name
            assert (cut is False) == (not live), name
            assert cut is False or any(cut in table for table in live), name
        return cut, live

    monkeypatch.setattr(oracle, "_on_boxes", checked_on_boxes)
    for name, problem in _box_test_problems():
        for table in itertools.chain(*oracle._rule_tables(problem.model)):
            assert len({i for i, _ in table}) == len(table), name
        state_set_report(problem)


# the most boxes one state_set_report visited, seeds 0-499 and 0-199 (seed 38
# of 12/6/C10 exceeds the cap, so the split never starts on it)
BOX_BOUNDS = [
    ("10/6", dict(max_features=10, max_values=6), 500, 107),
    ("12/6/C10", dict(max_features=12, max_values=6, max_causal=10), 200, 245),
]


@pytest.mark.parametrize("tier, seeds, most", [(tier, n, most) for _, tier, n, most in BOX_BOUNDS],
                         ids=[name for name, *_ in BOX_BOUNDS])
def test_state_set_report_visits_few_boxes(tier, seeds, most, monkeypatch):
    # counted rather than timed, so a slow host cannot fail it, while a
    # return to per-state work would; twice the measured maximum leaves room
    # for a change of split order
    boxes = _counting_boxes(monkeypatch)
    visited = []
    for seed in range(seeds):
        problem = random_problem(seed, **tier)
        if problem.state_count <= oracle.DEFAULT_STATE_CAP:
            boxes.clear()
            state_set_report(problem)
            visited.append(len(boxes))
    assert max(visited) <= 2 * most


def _split_problems():
    yield from (builtin_scenario(name).problem for name in SCENARIO_NAMES)
    yield from (random_problem(seed, max_features=8, max_values=5) for seed in range(350))
    yield from (parse_problem(pretty_print(random_problem(seed, max_features=10, max_values=6)))
                for seed in range(120))


def test_split_visits_fewer_boxes_than_twice_the_declared_states(monkeypatch):
    # each visited box is non-empty and the leaves (kept or dropped) are
    # disjoint, so the binary split tree has fewer than 2 * states nodes
    boxes = _counting_boxes(monkeypatch)
    for problem in _split_problems():
        boxes.clear()
        state_set_report(problem)
        assert all(all(box) for box in boxes)
        assert len(boxes) < 2 * problem.state_count


def test_report_counts_exactly_beyond_any_enumeration():
    # 2**1200 states, and one decision body longer than the recursion limit:
    # the split pins one feature after another and keeps a box for each
    n = 1200
    lines = [f"feature f{i}: categorical {{a, b}}." for i in range(n)]
    lines.append("decision d :- " + ", ".join(f"f{i} = a" for i in range(n)) + ".")
    lines.append("initial { " + ", ".join(f"f{i} = b" for i in range(n)) + " }.")
    problem = parse_problem("\n".join(lines))
    with pytest.raises(CapExceeded):
        state_set_report(problem)
    report = state_set_report(problem, cap=2**n)
    assert (report.total_states, report.causally_consistent, report.decision_consistent,
            report.goal) == (2**n, 2**n, 1, 2**n - 1)


# transitions ---------------------------------------------------------------------

def test_delta_empty_without_permitted_actions():
    d = Domains((FeatureDomain("only", "categorical", labels=("one",)),))
    p = ProblemSpec(domains=d, initial=d.make_state({"only": "one"}))
    assert delta_oracle(p.initial, p) == set()


def test_delta_of_german_initial_contains_duration_move(german):
    p = german.problem
    successors = delta_oracle(p.initial, p)
    moved = p.initial.with_value(p.domains.index("duration_months"), 1)
    assert moved in successors
    assert p.initial not in successors


def test_delta_closure_and_irreflexivity(husband_toy):
    p = husband_toy
    actions = build_actions(p)
    for state in enumerate_causally_consistent(p):
        succ = delta_oracle(state, p, actions)
        assert state not in succ
        for t in succ:
            assert is_causally_consistent(t, p.causal_rules)


def test_delta_includes_repaired_two_feature_move(adult):
    # moving marital status triggers the spouse repair inside the same step
    p = adult.problem
    domains = p.domains
    succ = delta_oracle(p.initial, p)
    repaired = p.initial.with_value(domains.index("marital_status"), 1) \
                        .with_value(domains.index("relationship"), 1)
    assert repaired in succ


def test_listed_move_on_an_immutable_feature_is_refused(adult):
    # no action list the program builds holds such a move; only a caller's can
    p = adult.problem
    move = Action("direct:sex:female", "direct", "sex", p.domains.index("sex"), 1)
    assert not is_permitted(move, p.initial)
    with pytest.raises(NotApplicable):
        apply_action(move, p.initial)
    assert delta_oracle(p.initial, p, (move,)) == set()
    assert bfs_shortest_path(p, (move,)) is None
    actions = build_actions(p)
    assert delta_oracle(p.initial, p, actions + (move,)) == delta_oracle(p.initial, p, actions)


def _liberal_exits(p: ProblemSpec, state: State) -> set:
    """The consistent states other than ``state`` that some repair order
    reaches from it in one step, as validation's repair-order flag reads them."""
    tables = _Tables(p, build_actions(p))
    return set(tables.liberal_exits(tables.successors(state.idx))) - {state.idx}


def test_liberal_delta_is_superset_and_flags_order_sensitivity():
    p = named_problem("repair order sensitive")
    canonical = {s.idx for s in delta_oracle(p.initial, p)}
    liberal = _liberal_exits(p, p.initial)
    assert canonical < liberal  # strictly more successors under other orders
    assert liberal - canonical == {(1, 1, 0)}


def test_liberal_delta_equal_when_no_chains(german):
    p = german.problem
    assert _liberal_exits(p, p.initial) == {s.idx for s in delta_oracle(p.initial, p)}


# validation -----------------------------------------------------------------------

def test_trivial_single_state_path_validates(boolean_pair):
    report = validate_solution_path(CandidatePath((boolean_pair.initial,)), boolean_pair)
    assert report.overall
    assert report.clause_results == (True, True, True, True, True)


def test_german_golden_path_validates(german):
    trace = get_path(german.problem)
    report = validate_solution_path(extract_candidate_path(trace), german.problem)
    assert report.overall


def test_validation_flags_wrong_start(german):
    trace = get_path(german.problem)
    states = extract_candidate_path(trace).states
    report = validate_solution_path(CandidatePath(states[1:]), german.problem)
    assert not report.starts_at_initial
    assert not report.overall


def test_validation_flags_non_goal_end(german):
    trace = get_path(german.problem)
    states = extract_candidate_path(trace).states
    report = validate_solution_path(CandidatePath(states[:2]), german.problem)
    assert report.starts_at_initial
    assert not report.ends_in_goal
    assert not report.overall


def test_validation_flags_inconsistent_state(repair_chain):
    p = repair_chain
    trace = get_path(p)
    states = extract_candidate_path(trace).states
    domains = p.domains
    broken = p.initial.with_value(domains.index("marital_status"), 1)
    report = validate_solution_path(
        CandidatePath((states[0], broken, states[1])), p)
    assert not report.all_causally_consistent
    assert not report.overall


def test_validation_flags_goal_in_prefix(boolean_pair):
    p = boolean_pair  # no decision rules: every consistent state is a goal
    other = next(iter(delta_oracle(p.initial, p)))
    report = validate_solution_path(CandidatePath((p.initial, other)), p)
    assert not report.prefix_avoids_goal


def test_validation_flags_non_transition_jump(german):
    p = german.problem
    trace = get_path(p)
    states = extract_candidate_path(trace).states
    report = validate_solution_path(CandidatePath((states[0], states[2])), p)
    assert report.starts_at_initial and report.ends_in_goal
    assert not report.steps_are_transitions
    assert not report.overall


def test_validation_records_order_sensitivity_note():
    p = named_problem("repair order sensitive")
    trace = get_path(p)
    report = validate_solution_path(extract_candidate_path(trace), p)
    assert report.overall
    assert report.liberal_divergence


def test_validation_rejects_empty_path(german):
    with pytest.raises(ValueError):
        validate_solution_path(CandidatePath(()), german.problem)


def test_validation_builds_the_action_list_only_for_a_path_with_a_step(boolean_pair, german,
                                                                       monkeypatch):
    built = []
    real_build = oracle._own_actions

    def counting_build(problem):
        built.append(problem)
        return real_build(problem)

    monkeypatch.setattr(oracle, "_own_actions", counting_build)
    # one state, a goal or not: the step clause holds with no step to check
    report = validate_solution_path(CandidatePath((boolean_pair.initial,)), boolean_pair)
    assert report.clause_results == (True, True, True, True, True)
    p = german.problem
    report = validate_solution_path(CandidatePath((p.initial,)), p)
    assert report.clause_results == (True, False, True, True, True)
    assert built == []
    report = validate_solution_path(extract_candidate_path(get_path(p)), p)
    assert report.overall
    assert built == [p]


def test_counting_builds_no_action_list_and_shares_the_rule_tables(german, monkeypatch):
    # validate's two oracle calls on one problem compile its rule tables once
    built, compiled = [], []
    real_build, real_table = oracle._own_actions, oracle._table

    def counting_build(problem):
        built.append(problem)
        return real_build(problem)

    def counting_table(domains, literals):
        compiled.append(literals)
        return real_table(domains, literals)

    monkeypatch.setattr(oracle, "_own_actions", counting_build)
    monkeypatch.setattr(oracle, "_table", counting_table)
    p = dataclasses.replace(german.problem)  # an object no earlier call compiled
    tables = len(p.causal_rules) + len(p.decision_rules)
    state_set_report(p)
    assert built == []
    assert len(compiled) == tables
    validate_solution_path(extract_candidate_path(get_path(p)), p)
    state_set_report(p)
    assert built == [p]
    assert len(compiled) == tables
    # a new problem object, even an equal one, is compiled afresh
    state_set_report(dataclasses.replace(p))
    assert len(compiled) == 2 * tables


def test_validation_scans_each_step_once(monkeypatch):
    # while the repair-order flag stays unset, a step's successor scan serves
    # both its canonical successors and its liberal exits; the repair walks
    # scan inconsistent states only
    scanned = []
    real_successors = _Tables.successors

    def counting_successors(self, idx):
        if self.consistent(idx):
            scanned.append(idx)
        return real_successors(self, idx)

    monkeypatch.setattr(_Tables, "successors", counting_successors)
    checked = 0
    for name in SCENARIO_NAMES:
        p = builtin_scenario(name).problem
        path = extract_candidate_path(get_path(p))
        scanned.clear()
        report = validate_solution_path(path, p)
        assert report.overall
        if not report.liberal_divergence:
            assert scanned == [s.idx for s in path.states[:-1]]
            checked += 1
    assert checked


# shortest paths ---------------------------------------------------------------------

def test_bfs_trivial_when_start_is_goal(boolean_pair):
    path = bfs_shortest_path(boolean_pair)
    assert path is not None and path.states == (boolean_pair.initial,)


def test_bfs_none_when_unreachable(unreachable_goal):
    assert bfs_shortest_path(unreachable_goal) is None


def test_bfs_german_needs_three_states(german):
    path = bfs_shortest_path(german.problem)
    assert path is not None and len(path) == 3


def test_bfs_result_is_itself_a_valid_solution(german):
    path = bfs_shortest_path(german.problem)
    assert validate_solution_path(path, german.problem).overall


@settings(max_examples=60)
@given(st.integers(0, 3000))
def test_bfs_never_longer_than_the_planner(seed):
    problem = random_problem(seed)
    trace = get_path(problem)
    shortest = bfs_shortest_path(problem)
    if trace.status == "success":
        assert shortest is not None
        assert len(shortest) <= len(extract_candidate_path(trace))
    elif trace.status == "failure":
        assert shortest is None


def test_bfs_keeps_no_successor_lists():
    # seed 68's 12/6/C10 problem has no recourse: BFS reaches every state it
    # can, and remembers of each one only its parent, beside the repair walks'
    # found repairs and dead states
    problem = random_problem(68, max_features=12, max_values=6, max_causal=10)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        assert bfs_shortest_path(problem) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 3_000_000
