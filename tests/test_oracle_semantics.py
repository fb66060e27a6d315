"""The oracle's own rule tables and one-step layer against State-level
references, on every state of small problems.

The references below are the oracle's earlier ``State``-level algorithms,
kept verbatim apart from the repair walk, which follows the breadth-first
repair policy: they step states with ``is_permitted``/``apply_action`` and
test them with the ``rules`` evaluators, which share nothing with the
oracle's index-tuple tables.
"""

import ast
import inspect
from typing import Optional, Sequence

import pytest

from recourseplan import oracle
from recourseplan.actions import Action, apply_action, build_actions, is_permitted
from recourseplan.domains import State
from recourseplan.dsl import parse_problem
from recourseplan.generate import random_problem
from recourseplan.ingest import SCENARIO_NAMES, builtin_scenario
from recourseplan.oracle import (_literal_table, _Tables, bfs_shortest_path, delta_oracle,
                                 enumerate_states, validate_solution_path)
from recourseplan.planner import CandidatePath, extract_candidate_path, get_path
from recourseplan.rules import (ProblemSpec, Rule, is_causally_consistent,
                                is_counterfactual, literal_support)


def _random(seed: int) -> ProblemSpec:
    return random_problem(seed, max_features=6, max_values=4)


# The references step State objects and re-explore a whole inconsistent
# region per action, up to states^2 * actions^2 work per problem, so the
# seeded problems are the first 50 with at most 128 states (a few larger
# ones take minutes each).
SEEDS = [seed for seed in range(200) if _random(seed).state_count <= 128][:50]

# Numeric features with concrete witnesses, a repair chain that writes one
# (x = t is repaired by c setting m), and shortest paths whose second step
# writes another feature than the first: witnesses must follow each route.
WITNESSES = """\
feature n: numeric [0, 10].
feature m: numeric [0, 10].
feature x: categorical {f, t}.
causal c: m >= 5 :- x = t.
decision q1 :- n =< 4.
decision q2 :- x = f.
initial { n = 2, m = 1, x = f }.
"""

PROBLEMS = ([(name, lambda name=name: builtin_scenario(name).problem) for name in SCENARIO_NAMES]
            + [(f"random {seed}", lambda seed=seed: _random(seed)) for seed in SEEDS]
            + [("witnesses", lambda: parse_problem(WITNESSES)),
               # repair searches that meet dead ends (immutable and
               # monotone features), which no problem above exercises
               ("random 105", lambda: _random(105))])
IDS = [name for name, _ in PROBLEMS]
MAKERS = [make for _, make in PROBLEMS]


# State-level references ------------------------------------------------------------

def _repair(state: State, causal_rules: tuple[Rule, ...],
            actions: Sequence[Action]) -> Optional[State]:
    # Breadth-first repair: the frontier is expanded in order, each state by
    # the actions in order (causal actions first), a state is tested when it
    # is discovered, and none is entered twice.
    seen = {state}
    frontier = [state]
    for current in frontier:
        for a in actions:
            if not is_permitted(a, current):
                continue
            nxt = apply_action(a, current)
            if nxt in seen:
                continue
            if is_causally_consistent(nxt, causal_rules):
                return nxt
            seen.add(nxt)
            frontier.append(nxt)
    return None


def reference_delta(state: State, problem: ProblemSpec,
                    actions: Optional[Sequence[Action]] = None) -> set[State]:
    if actions is None:
        actions = build_actions(problem)
    causal_rules = problem.causal_rules
    out: set[State] = set()
    for a in actions:
        if not is_permitted(a, state):
            continue
        raw = apply_action(a, state)
        if is_causally_consistent(raw, causal_rules):
            final: Optional[State] = raw
        else:
            final = _repair(raw, causal_rules, actions)
        if final is not None and final != state:
            out.add(final)
    return out


def reference_liberal(state: State, problem: ProblemSpec,
                      actions: Optional[Sequence[Action]] = None) -> set[State]:
    if actions is None:
        actions = build_actions(problem)
    causal_rules = problem.causal_rules
    out: set[State] = set()
    for a in actions:
        if not is_permitted(a, state):
            continue
        raw = apply_action(a, state)
        if is_causally_consistent(raw, causal_rules):
            out.add(raw)
            continue
        seen = {raw}
        frontier = [raw]
        while frontier:
            u = frontier.pop()
            for b in actions:
                if not is_permitted(b, u):
                    continue
                v = apply_action(b, u)
                if is_causally_consistent(v, causal_rules):
                    out.add(v)
                elif v not in seen:
                    seen.add(v)
                    frontier.append(v)
    out.discard(state)
    return out


def reference_bfs(problem: ProblemSpec,
                  actions: Optional[Sequence[Action]] = None) -> Optional[CandidatePath]:
    if actions is None:
        actions = build_actions(problem)
    causal_rules, decision_rules = problem.causal_rules, problem.decision_rules
    start = problem.initial
    if is_counterfactual(start, causal_rules, decision_rules):
        return CandidatePath((start,))
    parents: dict[State, State] = {start: start}
    frontier = [start]
    while frontier:
        nxt_frontier: list[State] = []
        for s in frontier:
            for t in sorted(reference_delta(s, problem, actions), key=lambda x: x.idx):
                if t in parents:
                    continue
                parents[t] = s
                if is_counterfactual(t, causal_rules, decision_rules):
                    chain = [t]
                    while chain[-1] != start:
                        chain.append(parents[chain[-1]])
                    return CandidatePath(tuple(reversed(chain)))
                nxt_frontier.append(t)
        frontier = nxt_frontier
    return None


def _with_witnesses(states) -> set:
    return {(s.idx, s.reps) for s in states}


# the tables ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_literal_tables_match_literal_support(make):
    problem = make()
    domains = problem.domains
    literals = [lit for rule in problem.causal_rules + problem.decision_rules
                for lit in rule.body + ((rule.head,) if rule.head is not None else ())]
    literals += [lit for action in build_actions(problem) for lit in action.guard]
    for lit in literals:
        assert _literal_table(domains, lit) == (
            domains.index(lit.feature), literal_support(domains.by_name(lit.feature), lit))


# the one-step layer -------------------------------------------------------------------

@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_one_step_relations_match_the_state_level_reference(make):
    problem = make()
    actions = build_actions(problem)
    for state in enumerate_states(problem.domains):
        canonical = delta_oracle(state, problem, actions)
        assert _with_witnesses(canonical) == _with_witnesses(
            reference_delta(state, problem, actions))
        # the liberal exits from the sources validation asks about: the
        # reference costs an order of magnitude more from inconsistent states
        if is_causally_consistent(state, problem.causal_rules):
            tables = _Tables(problem, actions)
            liberal = set(tables.liberal_exits(tables.successors(state.idx))) - {state.idx}
            assert liberal == {t.idx for t in reference_liberal(state, problem, actions)}
            assert {t.idx for t in canonical} <= liberal


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_bfs_matches_the_state_level_reference(make):
    problem = make()
    found, expected = bfs_shortest_path(problem), reference_bfs(problem)
    assert (found is None) == (expected is None)
    if found is not None:
        assert [(s.idx, s.reps) for s in found] == [(s.idx, s.reps) for s in expected]


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_divergence_flag_matches_liberal_versus_canonical(make):
    problem = make()
    trace = get_path(problem)
    if trace.status != "success":
        return
    path = extract_candidate_path(trace)
    actions = build_actions(problem)
    expected = any(reference_liberal(a, problem, actions) != reference_delta(a, problem, actions)
                   for a in path.states[:-1])
    assert validate_solution_path(path, problem).liberal_divergence == expected


def test_oracle_does_not_import_the_planner_semantics():
    # of the package, oracle.py imports only domains, errors and rules, and of
    # rules none of the evaluators: it builds its own action list and tables
    imported: set[str] = set()
    modules: set[str] = set()
    for node in ast.walk(ast.parse(inspect.getsource(oracle))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
            if node.level or (node.module or "").startswith("recourseplan"):
                modules.add((node.module or "").rpartition(".")[2])
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
            modules.update(alias.name.rpartition(".")[2] for alias in node.names
                           if alias.name.startswith("recourseplan"))
    assert modules == {"domains", "errors", "rules"}
    forbidden = {"planner", "kernel", "actions", "CompiledProblem", "build_actions",
                 "compile_rule", "compile_literals", "literal_support", "is_permitted",
                 "apply_action", "eval_rule", "is_causally_consistent", "satisfies_decision",
                 "is_counterfactual", "causal_holds", "none_holds"}
    assert not imported & forbidden
