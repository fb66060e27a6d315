"""The every-state contract: the suite's named problems, the State-level
references, and one function per check of the program against them.

Each check walks every state (or every start) of one problem and compares the
planner's compiled forms and the oracle with a reference that steps
``State`` objects through ``is_permitted``/``apply_action`` and tests them
with the ``rules`` evaluators, or, for the kernel's repair chains and the
guard sweep, with a plain enumeration over ``kernel.step`` and the breaking
tables.  ``tests/test_contract.py`` runs every check in :data:`CHECKS` on
every problem in :data:`NAMED`; the seeded blocks of the other test modules
run the same functions on ``random_problem`` tiers and pin their totals.

To add a named problem, add its text to :data:`TEXTS`.
"""

from __future__ import annotations

import collections
import itertools
import math
from typing import Callable, Optional, Sequence
from unittest import mock

from recourseplan import kernel as kernel_module, oracle
from recourseplan.actions import Action, apply_action, build_actions, is_permitted
from recourseplan.domains import FeatureDomain, State
from recourseplan.dsl import parse_problem
from recourseplan.ingest import SCENARIO_NAMES, builtin_scenario
from recourseplan.kernel import MAX_SPLITS, CompiledProblem
from recourseplan.oracle import (_literal_table, _Tables, bfs_shortest_path, compute_goal_set,
                                 delta_oracle, enumerate_causally_consistent, enumerate_states,
                                 state_set_report, validate_solution_path)
from recourseplan.planner import CandidatePath, extract_candidate_path, get_path
from recourseplan.rules import (ProblemSpec, Rule, eval_rule, is_causally_consistent,
                                is_counterfactual, literal_support, none_holds,
                                satisfies_decision)

# the named problems ----------------------------------------------------------------

TEXTS = {
    "husband toy": """\
feature sex: categorical {male, female}.
feature marital_status: categorical {married, never_married}.
feature relationship: categorical {husband, wife, unmarried}.
causal spouse_role: relationship = husband :- marital_status = married, sex = male.
initial { sex = male, marital_status = never_married, relationship = unmarried }.
""",
    "boolean pair": """\
feature x: categorical {f, t}.
feature y: categorical {f, t}.
causal implies: y = t :- x = t.
initial { x = f, y = f }.
""",
    "unreachable goal": """\
feature x: categorical {v0, v1}.
decision q0 :- x = v0.
decision q1 :- x = v1.
initial { x = v0 }.
""",
    # a decision rule names an immutable feature, so it fires at every
    # reachable state
    "doomed start": """\
feature age: categorical {young, old}.
feature income: categorical {low, high}.
decision too_young :- age = young.
constraint immutable age.
initial { age = young, income = low }.
""",
    "repair chain": """\
feature marital_status: categorical {never_married, married}.
feature relationship: categorical {unmarried, husband}.
feature sex: categorical {male, female}.
causal spouse_role: relationship = husband :- marital_status = married, sex = male.
decision still_single :- relationship = unmarried.
initial { marital_status = never_married, relationship = unmarried, sex = male }.
""",
    "repair order sensitive": """\
feature a: categorical {f, t}.
feature b: categorical {f, t}.
feature c: categorical {f, t}.
causal r1: b = t :- a = t.
decision q :- c = t.
initial { a = f, b = f, c = t }.
""",
    "no rules": """\
feature a: categorical {x, y, z}.
feature n: numeric [0, 10].
initial { a = x, n = 3 }.
""",
    "decision only": """\
feature a: categorical {x, y, z}.
feature b: categorical {p, q}.
feature n: numeric [0, 10].
decision d1 :- a = x.
decision d2 :- b = q, n >= 4.
initial { a = x, b = p, n = 2 }.
""",
    # u and w are named by no rule, so the box split never cuts them
    "unnamed features": """\
feature u: categorical {u0, u1, u2}.
feature a: categorical {f, t}.
feature w: categorical {w0, w1, w2, w3}.
feature b: categorical {f, t}.
feature c: categorical {f, t}.
causal r: b = t :- a = t.
decision q :- c = f.
initial { u = u0, a = f, w = w0, b = f, c = f }.
""",
    # d1 and c1 name x twice: d1's body holds nowhere, c1 breaks where
    # 2 < x =< 5 and z = p, and the oracle's split cuts along neither of
    # d1's literals
    "rules naming a feature twice": """\
feature x: numeric [0, 9].
feature y: categorical {a, b, c}.
feature z: categorical {p, q}.
decision d1 :- x > 5, x =< 2.
decision d2 :- y = a, y != b, z = p.
causal c1: z = q :- x > 2, x =< 5.
initial { x = 0, y = a, z = p }.
""",
    # r1's guard names n twice: its box holds 3 =< n =< 7 only, where y = t
    # breaks no rule
    "guard naming a feature twice": """\
feature n: numeric [0, 10].
feature y: categorical {t, f}.
causal r1: y = t :- n >= 3, n =< 7.
causal r2: y = f :- n =< 2.
initial { n = 0, y = f }.
""",
    # no n satisfies r1's guard: its box is empty, so the repair is kept,
    # though y = t breaks r2 wherever b = t
    "contradictory guard": """\
feature n: numeric [0, 10].
feature b: categorical {f, t}.
feature y: categorical {t, f}.
causal r1: y = t :- n >= 8, n =< 2.
causal r2: y = f :- b = t.
initial { n = 0, b = f, y = f }.
""",
    # r2's body is contradictory, so it never fires and never blocks r1,
    # though each of its literals alone meets r1's box
    "rule that never fires": """\
feature n: numeric [0, 10].
feature b: categorical {f, t}.
feature y: categorical {t, f}.
causal r1: y = t :- b = t.
causal r2: y = f :- n >= 8, n =< 2.
initial { n = 0, b = f, y = f }.
""",
    # repairs of an immutable head are never candidates
    "immutable head": """\
feature a: categorical {f, t}.
feature b: categorical {f, t}.
causal r1: b = t :- a = t.
constraint immutable b.
initial { a = f, b = f }.
""",
    # r1 and r2 demand different values of b when a = t
    "conflicting repairs": """\
feature a: categorical {f, t}.
feature b: categorical {f, t}.
causal r1: b = t :- a = t.
causal r2: b = f :- a = t.
initial { a = f, b = f }.
""",
    # r2's repair: the box meets r1's and r3's bodies, but its axes on their
    # heads lie inside the allowed values; r3's repair leaves r1 violated at
    # a = z; no rule names u
    "head inside another rule": """\
feature a: categorical {x, y, z}.
feature b: categorical {f, t}.
feature c: categorical {f, t}.
feature u: categorical {p, q}.
causal r1: b = t :- a != x.
causal r2: c = t :- b = t, a = y.
causal r3: c != f :- a = z.
initial { a = x, b = f, c = t, u = p }.
""",
    # numeric features with concrete witnesses, a repair chain that writes
    # one (x = t is repaired by c setting m), and shortest paths whose second
    # step writes another feature than the first: numeric repair routes that
    # one-step membership and BFS must follow
    "witnesses": """\
feature n: numeric [0, 10].
feature m: numeric [0, 10].
feature x: categorical {f, t}.
causal c: m >= 5 :- x = t.
decision q1 :- n =< 4.
decision q2 :- x = f.
initial { n = 2, m = 1, x = f }.
""",
    # a decision rule fires at every state reachable from the start, since
    # age can only grow, though income can move
    "monotone feature at its end value": """\
feature age: numeric [17, 90].
feature income: categorical {low, high}.
decision too_old :- age > 60, income = low.
decision still_old :- age > 60.
constraint nondecreasing age.
initial { age = 70, income = low }.
""",
    # rating can only fall, from fair (neither end) to poor only: from poor
    # every reachable state is refused, though the states above it hold
    # goals; from fair, pledging collateral breaks long_term, and the repair
    # chain sets term
    "nonincreasing feature": """\
feature rating: categorical {poor, fair, good}.
feature collateral: categorical {none, pledged}.
feature term: categorical {short, long}.
decision low_rating :- rating = poor.
decision unsecured :- collateral = none, rating != good.
causal long_term: term = long :- collateral = pledged.
constraint nonincreasing rating.
initial { rating = fair, collateral = none, term = short }.
""",
    # with k = a, r1 and r2 refuse every value of y and k is immutable, so
    # the first reach box a chain walk asks about is unrepairable; with
    # k = b, breaking c1 and c2 together needs two repairs, and the guard
    # sweep keeps neither, since either leaves the other broken, so a
    # breadth-first walk takes the first direct move's branch where a
    # depth-first one would take the last
    "two-step repairs beside a dead region": """\
feature k: categorical {a, b}.
feature y: categorical {f, t}.
feature u: categorical {f, t}.
feature v: categorical {f, t}.
causal r1: y = t :- k = a.
causal r2: y = f :- k = a.
causal c1: u = t :- k = b.
causal c2: v = t :- k = b.
decision q :- y = f, u = t.
constraint immutable k.
initial { k = b, y = f, u = t, v = t }.
""",
    # every numeric comparator: no scenario or generated problem uses <, >=
    # or a numeric !=
    "comparators": """\
feature income: numeric [0, 100].
feature debt: numeric [0, 50].
feature age: numeric [18, 70].
feature owner: categorical {yes, no}.
decision d1 :- income < 40.
decision d2 :- debt > 20, age != 30.
decision d3 :- age =< 20.
causal c1: owner = yes :- income >= 60.
initial { income = 10, debt = 30, age = 19, owner = no }.
""",
}

NAMED = (*SCENARIO_NAMES, *TEXTS)


def named_problem(name: str) -> ProblemSpec:
    """The bundled scenario or the parsed text called ``name``."""
    return builtin_scenario(name).problem if name in SCENARIO_NAMES else parse_problem(TEXTS[name])


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


BOX_CAP = 10 ** 6  # guard boxes beyond this many states are not enumerated


def _enumerating_sweep(kernel, axes, guard, feature_index, new_index):
    """The guard sweep as it was before the box test, verbatim but for
    ``self`` and the consistency test, ``none_holds`` on the breaking tables."""
    axes = list(axes)
    for fi, allowed in guard:
        axes[fi] = sorted(allowed.intersection(axes[fi]))
    axes[feature_index] = (new_index,)
    return all(none_holds(kernel.causal, idx) for idx in itertools.product(*axes))


def count_state_by_state(problem: ProblemSpec) -> tuple[set, set]:
    """The causally consistent states and the goals, by the State-level
    evaluators on every state."""
    domains = problem.domains
    consistent, goal = set(), set()
    for idx in itertools.product(*(range(f.size) for f in domains)):
        state = State(domains, idx)
        if is_causally_consistent(state, problem.causal_rules):
            consistent.add(state)
            if not satisfies_decision(state, problem.decision_rules):
                goal.add(state)
    return consistent, goal


def inconsistent_states(problem: ProblemSpec, kernel: CompiledProblem):
    for idx in itertools.product(*(range(f.size) for f in problem.domains)):
        if not none_holds(kernel.causal, idx):
            yield idx


def breadth_first_complete(kernel, start):
    """The repair policy stated plainly: breadth-first over ``kernel.step``
    from ``start``, actions in order, ending at the first consistent state
    discovered, with no unrepairability test."""
    if none_holds(kernel.causal, start):
        return start, ()
    parent = {start: None}
    queue = collections.deque([start])
    while queue:
        idx = queue.popleft()
        for k in range(len(kernel.moves)):
            nxt = kernel.step(k, idx)
            if nxt is None or nxt in parent:
                continue
            parent[nxt] = (idx, k)
            if none_holds(kernel.causal, nxt):
                edges = []
                node = nxt
                while parent[node] is not None:
                    edges.append(parent[node])
                    node = parent[node][0]
                return nxt, tuple(reversed(edges))
            queue.append(nxt)
    return None


def reachable_values(feature: FeatureDomain, vi: int) -> range:
    """The reach box's axis: the values ``feature`` can take from ``vi`` on
    under its mutability and monotonicity."""
    if not feature.mutable:
        return range(vi, vi + 1)
    if feature.monotonicity == "nondecreasing":
        return range(vi, feature.size)
    if feature.monotonicity == "nonincreasing":
        return range(vi + 1)
    return range(feature.size)


def goal(problem: ProblemSpec, idx: tuple[int, ...]) -> bool:
    """No table of the problem holds at ``idx``: no decision rule fires and
    no causal rule is broken there."""
    return none_holds(problem.model.decision_bodies + problem.model.causal_tables, idx)


# the checks ----------------------------------------------------------------------------

def check_kernel(problem: ProblemSpec) -> None:
    """The kernel's action list is ``build_actions``', and its consistency,
    decision and step tests agree with the State API on every state."""
    domains = problem.domains
    kernel = CompiledProblem(problem)
    actions = build_actions(problem)
    assert kernel.ids == tuple(a.id for a in actions)
    assert all(domains[fi].mutable for fi, _, _ in kernel.moves)
    causal, decision = problem.causal_rules, problem.decision_rules
    for state in enumerate_states(domains):
        idx = state.idx
        assert none_holds(kernel.causal, idx) == is_causally_consistent(state, causal)
        assert (not none_holds(kernel.decision, idx)) == satisfies_decision(state, decision)
        for k, action in enumerate(actions):
            expected = apply_action(action, state).idx if is_permitted(action, state) else None
            assert kernel.step(k, idx) == expected


def check_rule_tables(problem: ProblemSpec) -> None:
    """Rule by rule, so a wrong table that another rule masks still shows: a
    causal rule's breaking table holds exactly where ``eval_rule`` finds the
    rule false, a decision rule's body exactly where it finds it true."""
    causal = list(zip(problem.causal_rules, problem.model.causal_tables))
    decision = list(zip(problem.decision_rules, problem.model.decision_bodies))
    for state in enumerate_states(problem.domains):
        idx = state.idx
        for rule, table in causal:
            assert none_holds((table,), idx) == eval_rule(rule, state), (rule.id, idx)
        for rule, body in decision:
            assert (not none_holds((body,), idx)) == eval_rule(rule, state), (rule.id, idx)


def check_strata(problem: ProblemSpec) -> None:
    """The oracle's strata from its box split against a state-by-state count."""
    consistent, goals = count_state_by_state(problem)
    report = state_set_report(problem)
    assert (report.total_states, report.causally_consistent, report.decision_consistent,
            report.goal) == (problem.state_count, len(consistent),
                             len(consistent) - len(goals), len(goals))
    assert enumerate_causally_consistent(problem) == consistent
    assert compute_goal_set(problem) == goals


def check_literal_tables(problem: ProblemSpec) -> None:
    """The oracle's table of every rule and guard literal is
    ``literal_support``'s."""
    domains = problem.domains
    literals = [lit for rule in problem.causal_rules + problem.decision_rules
                for lit in rule.body + ((rule.head,) if rule.head is not None else ())]
    literals += [lit for action in build_actions(problem) for lit in action.guard]
    for lit in literals:
        assert _literal_table(domains, lit) == (
            domains.index(lit.feature), literal_support(domains.by_name(lit.feature), lit))


def _with_witnesses(states) -> set:
    return {(s.idx, s.reps) for s in states}


def check_one_step(problem: ProblemSpec) -> int:
    """The oracle's canonical successors of every state, and the liberal
    exits of every consistent one, against the references.  Returns how many
    consistent states have a raw outcome that is dead (no repair leaves it)
    before the repair-order walk starts there."""
    actions = build_actions(problem)
    # one table for the whole run, as validation keeps one along a path
    walked = _Tables(problem, actions)
    met_dead = 0
    for state in enumerate_states(problem.domains):
        canonical = delta_oracle(state, problem, actions)
        assert _with_witnesses(canonical) == _with_witnesses(
            reference_delta(state, problem, actions))
        # the liberal exits from the sources validation asks about: the
        # reference costs an order of magnitude more from inconsistent states
        if is_causally_consistent(state, problem.causal_rules):
            expected = {t.idx for t in reference_liberal(state, problem, actions)}
            tables = _Tables(problem, actions)
            liberal = set(tables.liberal_exits(tables.successors(state.idx))) - {state.idx}
            assert liberal == expected
            assert {t.idx for t in canonical} <= liberal
            # after the repair walks, as in validation: the repair-order walk
            # skips the dead states those walks recorded
            succ = walked.successors(state.idx)
            assert walked.canonical(state.idx, succ) == {t.idx for t in canonical}
            met_dead += any(not ok and raw in walked._dead for raw, ok in succ)
            assert set(walked.liberal_exits(succ)) - {state.idx} == expected
    return met_dead


def check_bfs(problem: ProblemSpec) -> None:
    """The oracle's shortest path is the reference's, state for state."""
    found, expected = bfs_shortest_path(problem), reference_bfs(problem)
    assert (found is None) == (expected is None)
    if found is not None:
        assert found.states[0] is problem.initial
        assert [s.idx for s in found] == [s.idx for s in expected]


def check_divergence(problem: ProblemSpec) -> None:
    """Validation flags the planner's path as repair-order sensitive exactly
    where the references' liberal and canonical successors differ."""
    trace = get_path(problem)
    if trace.status != "success":
        return
    path = extract_candidate_path(trace)
    actions = build_actions(problem)
    expected = any(reference_liberal(a, problem, actions) != reference_delta(a, problem, actions)
                   for a in path.states[:-1])
    assert validate_solution_path(path, problem).liberal_divergence == expected


def check_guard_sweep(problem: ProblemSpec) -> tuple[int, int, int]:
    """The kernel keeps a causal repair exactly where the enumerating sweep
    finds every state of its guard box consistent, in candidate order.
    Returns the (kept, checked, skipped) candidates; a box of more than
    :data:`BOX_CAP` states is skipped."""
    kernel = CompiledProblem(problem)
    domains = problem.domains
    named = {i for table in kernel.causal for i, _ in table}
    axes = [range(f.size) if fi in named else range(1) for fi, f in enumerate(domains)]
    kept = {aid for aid, rule in zip(kernel.ids, kernel.rules) if rule is not None}
    expected = []
    checked = skipped = 0
    for rule, ((fi, refused), *body) in zip(problem.causal_rules, kernel.causal):
        f = domains[fi]
        if not f.mutable:
            continue
        allowed = set(range(f.size)) - refused
        for vi in sorted(allowed):
            aid = f"causal:{rule.id}:{f.name}:{f.value_text(vi)}"
            box = [len(axis) for axis in axes]
            for i, support in body:
                box[i] = len(support.intersection(range(box[i])))
            box[fi] = 1
            if math.prod(box) > BOX_CAP:
                skipped += 1
                continue
            checked += 1
            if _enumerating_sweep(kernel, axes, body, fi, vi):
                expected.append(aid)
            assert (aid in kept) == (aid in expected), aid
    # kept repairs come in candidate order
    assert [aid for aid in kernel.ids if aid in expected] == expected
    return len(expected), checked, skipped


def check_own_list(problem: ProblemSpec) -> int:
    """The oracle's own action list is ``build_actions``' list, each guard
    tabled by the oracle.  Returns how many causal repairs it keeps."""
    domains = problem.domains
    own = list(oracle._own_actions(problem))
    listed = [(a.feature_index, a.new_index, oracle._table(domains, a.guard))
              for a in build_actions(problem)]
    assert own == listed
    return sum(1 for _, _, guard in own if guard)


def check_doomed(problem: ProblemSpec) -> int:
    """From every consistent start, ``doomed`` says whether the reach box
    holds no goal, not only whether no goal is reachable, and decides within
    ``MAX_SPLITS`` boxes.  Returns the number of starts."""
    features = problem.domains.features
    goal_free = {}  # per reach box
    starts = 0
    boxes = []  # one entry per box decided: each is one call to kernel._decide
    real = kernel_module._decide

    def counting(tables, box):
        # the kernel's box test is written for set axes; a range would
        # pass it too, but by the slow path of every subset test
        assert all(type(axis) is frozenset for axis in box), box
        boxes.append(box)
        return real(tables, box)

    with mock.patch.object(kernel_module, "_decide", counting):
        for state in enumerate_causally_consistent(problem):
            reach = tuple(map(reachable_values, features, state.idx))
            if reach not in goal_free:
                goal_free[reach] = not any(goal(problem, idx) for idx in itertools.product(*reach))
            boxes.clear()
            assert kernel_module.doomed(problem, state.idx) == goal_free[reach], state.idx
            assert len(boxes) <= MAX_SPLITS
            starts += 1
    return starts


def check_chains(problem: ProblemSpec) -> int:
    """From every inconsistent state, ``complete`` ends where the
    breadth-first chain does, by the same edges, and fails only where
    ``unrepairable`` holds.  One kernel serves every call, as in a run, so
    later calls read the verdicts earlier ones filed.  Returns the number of
    inconsistent states."""
    kernel = CompiledProblem(problem)
    count = 0
    for idx in inconsistent_states(problem, kernel):
        result = kernel.complete(idx)
        assert result == breadth_first_complete(kernel, idx)
        if result is None:
            assert kernel.unrepairable(idx)
        count += 1
    return count


CHECKS: dict[str, Callable[[ProblemSpec], object]] = {
    "kernel": check_kernel,
    "rule_tables": check_rule_tables,
    "strata": check_strata,
    "literal_tables": check_literal_tables,
    "one_step": check_one_step,
    "bfs": check_bfs,
    "divergence": check_divergence,
    "guard_sweep": check_guard_sweep,
    "own_list": check_own_list,
    "doomed": check_doomed,
    "chains": check_chains,
}
