import hashlib
import json

import pytest

from recourseplan import cli, oracle
from recourseplan.dsl import pretty_print
from recourseplan.generate import random_problem
from recourseplan.ingest import GERMAN_TEXT
from tests.conftest import UNREACHABLE_GOAL, run_cli


def test_plan_car_table_marks_direct_on_persons():
    code, out, err = run_cli("plan", "--scenario", "car")
    assert code == 0
    persons_row = next(line for line in out.splitlines() if line.startswith("persons"))
    assert "Direct" in persons_row
    assert "Goal_State" in out
    for line in out.splitlines():
        if line.startswith(("maint", "buying", "safety")):
            assert "N/A" in line and "Direct" not in line


def test_plan_adult_structured_has_two_path_states():
    code, out, err = run_cli("plan", "--scenario", "adult", "--format", "structured")
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "success"
    assert len(record["candidate_path"]) == 2
    (step,) = record["steps"]
    assert [c["feature"] for c in step] == ["capital_gain"]
    assert step[0]["kind"] == "direct"


def test_plan_structured_trace_includes_repair_intermediates(tmp_path):
    text = (
        "feature marital_status: categorical {never_married, married}.\n"
        "feature relationship: categorical {unmarried, husband}.\n"
        "feature sex: categorical {male, female}.\n"
        "causal spouse_role: relationship = husband :- marital_status = married, sex = male.\n"
        "decision still_single :- relationship = unmarried.\n"
        "initial { marital_status = never_married, relationship = unmarried, sex = male }.\n")
    f = tmp_path / "chain.rp"
    f.write_text(text)
    code, out, err = run_cli("plan", "--file", str(f), "--format", "structured")
    assert code == 0
    record = json.loads(out)
    flags = [e["causally_consistent"] for e in record["trace"]]
    assert False in flags
    assert len(record["candidate_path"]) == 2
    kinds = {c["feature"]: c["kind"] for c in record["steps"][0]}
    assert kinds == {"marital_status": "direct", "relationship": "causal"}


def test_plan_missing_file_is_usage_error():
    code, out, err = run_cli("plan", "--file", "missing.cfg")
    assert code == 1
    assert "error" in err


def test_plan_unknown_scenario_is_usage_error():
    code, out, err = run_cli("plan", "--scenario", "titanic")
    assert code == 1


def test_plan_budget_exhaustion_exit_code():
    code, out, err = run_cli("plan", "--scenario", "german", "--budget", "1")
    assert code == 3


def test_plan_failure_exit_code(tmp_path):
    f = tmp_path / "stuck.rp"
    f.write_text(UNREACHABLE_GOAL)
    code, out, err = run_cli("plan", "--file", str(f))
    assert code == 2
    assert "failed" in err


def test_enumerate_counts(tmp_path):
    f = tmp_path / "toy.rp"
    f.write_text(
        "feature sex: categorical {male, female}.\n"
        "feature marital_status: categorical {married, never_married}.\n"
        "feature relationship: categorical {husband, wife, unmarried}.\n"
        "causal spouse_role: relationship = husband :- marital_status = married, sex = male.\n"
        "initial { sex = male, marital_status = never_married, relationship = unmarried }.\n")
    code, out, err = run_cli("enumerate", "--file", str(f))
    assert code == 0
    assert "states: 12" in out
    assert "causally consistent: 10" in out
    assert "goal: 10" in out


def test_validate_german_passes():
    code, out, err = run_cli("validate", "--scenario", "german")
    assert code == 0
    assert out.count("PASS") == 6  # five clauses plus the overall line
    assert "overall: PASS" in out


def test_plan_with_validate_flag():
    code, out, err = run_cli("plan", "--scenario", "adult", "--validate")
    assert code == 0
    assert "overall: PASS" in out


def test_plan_structured_with_validate_stays_one_json_document():
    code, out, err = run_cli("plan", "--scenario", "adult",
                             "--format", "structured", "--validate")
    assert code == 0
    record = json.loads(out)  # a single well-formed document
    assert record["validation"]["overall"] is True
    assert all(record["validation"]["clauses"].values())


def test_validate_from_artifact_matches_in_process(tmp_path):
    code, planned, _ = run_cli("plan", "--scenario", "german", "--format", "structured")
    assert code == 0
    artifact = tmp_path / "german.json"
    artifact.write_text(planned)
    code1, direct_out, _ = run_cli("validate", "--scenario", "german")
    code2, artifact_out, _ = run_cli("validate", "--scenario", "german",
                                     "--path-file", str(artifact))
    assert (code1, direct_out) == (code2, artifact_out)


def test_validate_corrupted_path_fails_step_clause(tmp_path):
    code, planned, _ = run_cli("plan", "--scenario", "german", "--format", "structured")
    record = json.loads(planned)
    del record["candidate_path"][1]  # jump straight to the goal: not a transition
    artifact = tmp_path / "bad.json"
    artifact.write_text(json.dumps(record))
    code, out, err = run_cli("validate", "--scenario", "german",
                             "--path-file", str(artifact))
    assert code == 2
    assert "FAIL  every step is a one-step transition" in out
    assert "overall: FAIL" in out


def test_validate_garbage_artifact_is_usage_error(tmp_path):
    artifact = tmp_path / "bad.json"
    artifact.write_text("not json at all")
    code, out, err = run_cli("validate", "--scenario", "german",
                             "--path-file", str(artifact))
    assert code == 1


def test_validate_artifact_with_wrong_features_is_usage_error(tmp_path):
    artifact = tmp_path / "wrong.json"
    artifact.write_text(json.dumps({"candidate_path": [{"bogus": "x"}]}))
    code, out, err = run_cli("validate", "--scenario", "german",
                             "--path-file", str(artifact))
    assert code == 1
    assert "malformed path record" in err


def test_validate_artifact_from_failed_run_is_usage_error(tmp_path):
    artifact = tmp_path / "failed.json"
    artifact.write_text(json.dumps({"status": "failure", "trace": []}))
    code, out, err = run_cli("validate", "--scenario", "german",
                             "--path-file", str(artifact))
    assert code == 1
    assert "no candidate path" in err


def test_validate_on_unplannable_problem(tmp_path):
    f = tmp_path / "stuck.rp"
    f.write_text(UNREACHABLE_GOAL)
    code, out, err = run_cli("validate", "--file", str(f))
    assert code == 2


def test_validate_trivial_single_state_path(tmp_path):
    # no decision rules: the initial state is already a goal
    f = tmp_path / "done.rp"
    f.write_text(
        "feature a: categorical {x, y}.\n"
        "initial { a = x }.\n")
    code, out, err = run_cli("validate", "--file", str(f))
    assert code == 0
    assert "overall: PASS" in out


def test_structured_output_is_byte_identical_between_runs():
    _, first, _ = run_cli("plan", "--scenario", "german", "--format", "structured")
    _, second, _ = run_cli("plan", "--scenario", "german", "--format", "structured")
    assert first == second


def test_random_scenario_is_seed_deterministic():
    _, a, _ = run_cli("plan", "--scenario", "random", "--seed", "7",
                      "--format", "structured")
    _, b, _ = run_cli("plan", "--scenario", "random", "--seed", "7",
                      "--format", "structured")
    assert a == b


def test_max_states_cap_exit_code():
    # car's rules name 2 of its 4 features (9 of its 144 states), and the cap
    # bounds the declared space, not that projection
    code, out, err = run_cli("enumerate", "--scenario", "car", "--max-states", "10")
    assert code == 4
    # validate counts the state sets, so the cap applies; path validation
    # alone enumerates nothing
    code, out, err = run_cli("validate", "--scenario", "car", "--max-states", "10")
    assert code == 4
    code, out, err = run_cli("plan", "--validate", "--scenario", "car", "--max-states", "10")
    assert code == 0
    for bad in ("-1", "0"):
        code, out, err = run_cli("enumerate", "--scenario", "car", "--max-states", bad)
        assert code == 1
        assert "--max-states" in err


def test_env_var_overrides_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("RECOURSE_MAX_STATES", "10")
    code, out, err = run_cli("enumerate", "--scenario", "car")
    assert code == 4
    monkeypatch.setenv("RECOURSE_MAX_STATES", "1000")
    code, out, err = run_cli("enumerate", "--scenario", "car")
    assert code == 0
    for bad in ("-5", "0", "abc"):
        monkeypatch.setenv("RECOURSE_MAX_STATES", bad)
        code, out, err = run_cli("enumerate", "--scenario", "car")
        assert code == 1
        assert "RECOURSE_MAX_STATES" in err


def test_file_problems_plan_like_scenarios(tmp_path):
    f = tmp_path / "german.rp"
    f.write_text(GERMAN_TEXT)
    code, out, err = run_cli("plan", "--file", str(f))
    assert code == 0
    assert "Goal_State" in out


def test_enumerate_structured_record():
    code, out, err = run_cli("enumerate", "--scenario", "car",
                             "--format", "structured")
    assert code == 0
    record = json.loads(out)
    assert record["counts"] == {"total_states": 144, "causally_consistent": 144,
                                "decision_consistent": 80, "goal": 64}


def test_validate_structured_record():
    code, out, err = run_cli("validate", "--scenario", "german",
                             "--format", "structured")
    assert code == 0
    record = json.loads(out)
    assert record["overall"] is True
    assert set(record["clauses"]) == {
        "starts_at_initial", "ends_in_goal", "all_causally_consistent",
        "prefix_avoids_goal", "steps_are_transitions"}
    assert all(record["clauses"].values())
    assert record["counts"]["goal"] == 1


# ``validate --format structured`` on random_problem(seed, max_features=10,
# max_values=6) printed to a file, for the seeds whose validation used to
# enumerate the liberal one-step relation for seconds to a minute; digests
# recorded before validation became path-local
SLOW_VALIDATION_DIGESTS = {
    8: "4edf187930b0c2aded911d8972197f3dfbdc8abe26bd39e08a2fedd8811a0ab0",
    47: "d656986f4577d7716473a86823cbf47b6f0963c20418d1f5ff7260bd3ab31138",
    61: "a0267647290e93dba2042411b17a46e577c0c03d13e50596185025e8fe379f5d",
    102: "347563c01fe510bfca31b3c5ed46dba28f6a56dcd6dbd1cd1af16de1816d2904",
    106: "d43670b270e458c3422c1dd63dad0bacbc7fea7682da4c51e17937bb9585e4e7",
}


@pytest.mark.parametrize("seed", sorted(SLOW_VALIDATION_DIGESTS))
def test_validate_output_of_formerly_slow_seeds_is_pinned(seed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    name = f"seed-{seed}.rp"
    (tmp_path / name).write_text(pretty_print(random_problem(seed, max_features=10, max_values=6)))
    code, out, err = run_cli("validate", "--file", name, "--format", "structured")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SLOW_VALIDATION_DIGESTS[seed]


# one parser per process -------------------------------------------------------------

PARSER_SEQUENCE = [
    ("validate", "--scenario", "german", "--no-such-flag"),
    ("validate", "--scenario", "german", "--format", "structured"),
    ("plan", "--scenario", "car"),
    # each flag is registered only on the subcommands that read it:
    # --path-file on validate, --validate on plan, --budget on plan and validate
    ("plan", "--scenario", "german", "--path-file", "record.json"),
    ("enumerate", "--scenario", "car", "--validate"),
    ("validate", "--scenario", "car", "--validate"),
    ("enumerate", "--scenario", "car", "--budget", "3"),
]


def test_reused_parser_answers_like_a_fresh_one(capsys):
    fresh = []
    for args in PARSER_SEQUENCE:
        cli._build_parser.cache_clear()
        fresh.append((run_cli(*args), capsys.readouterr()))
    reused = [(run_cli(*args), capsys.readouterr()) for args in PARSER_SEQUENCE]
    assert reused == fresh
    assert cli._build_parser.cache_info().currsize == 1
    assert [code for (code, _, _), _ in reused] == [1, 0, 0, 1, 1, 1, 1]
    # argparse reports usage errors on the process's stderr
    assert "unrecognized arguments: --path-file" in reused[3][1].err
    for (_, out, _), captured in reused[4:]:
        assert out == ""
        assert "unrecognized arguments: --" in captured.err


# the layer calls the benchmark traces --------------------------------------------

def test_main_looks_up_layer_calls_at_call_time(tmp_path, monkeypatch):
    """``cli.main`` must reach these functions through the module attributes,
    so that wrappers swapped in there (as the benchmark's tracer does) see
    every call."""
    called = []
    for module, name in ((cli, "parse_problem"), (cli, "builtin_scenario"), (cli, "get_path"),
                         (oracle, "validate_solution_path"), (oracle, "state_set_report")):
        def wrapper(*args, name=name, original=getattr(module, name), **kwargs):
            called.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    f = tmp_path / "german.rp"
    f.write_text(GERMAN_TEXT)
    assert run_cli("validate", "--file", str(f))[0] == 0
    assert called == ["parse_problem", "get_path", "validate_solution_path", "state_set_report"]
    called.clear()
    assert run_cli("validate", "--scenario", "german")[0] == 0
    assert called == ["builtin_scenario", "get_path", "validate_solution_path",
                      "state_set_report"]
