"""The oracle's own rule tables, one-step layer, BFS and repair-order flag
against the State-level references of ``tests/contract.py``, on every state
of seeded random problems (the named problems run the same checks in
``tests/test_contract.py``); and the oracle's independence of the planner's
semantics."""

import ast
import inspect

import pytest

from recourseplan import oracle
from recourseplan.generate import random_problem
from recourseplan.rules import ProblemSpec
from tests.contract import check_bfs, check_divergence, check_literal_tables, check_one_step


def _random(seed: int) -> ProblemSpec:
    return random_problem(seed, max_features=6, max_values=4)


# The references step State objects and re-explore a whole inconsistent
# region per action, up to states^2 * actions^2 work per problem, so the
# seeded problems are the first 50 with at most 128 states (a few larger
# ones take minutes each), and seed 105, whose repair searches meet dead ends
# (immutable and monotone features).
SEEDS = [seed for seed in range(200) if _random(seed).state_count <= 128][:50] + [105]
SEEDED = pytest.mark.parametrize("seed", SEEDS, ids=lambda seed: f"random {seed}")


@SEEDED
def test_literal_tables_match_literal_support(seed):
    check_literal_tables(_random(seed))


# the problems above with a consistent state one of whose raw outcomes is
# dead (no repair leaves it) before the repair-order walk starts there
MEETS_DEAD = {"random 0", "random 14", "random 36", "random 61", "random 105"}


@SEEDED
def test_one_step_relations_match_the_state_level_reference(seed, request):
    met_dead = check_one_step(_random(seed))
    assert met_dead or request.node.callspec.id not in MEETS_DEAD


@SEEDED
def test_bfs_matches_the_state_level_reference(seed):
    check_bfs(_random(seed))


@SEEDED
def test_divergence_flag_matches_liberal_versus_canonical(seed):
    check_divergence(_random(seed))


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
