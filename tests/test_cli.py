import contextlib
import io
import json
import pathlib
import re

import pytest

from recourseplan import cli, oracle
from recourseplan.domains import Domains, FeatureDomain, State
from recourseplan.dsl import parse_problem, pretty_print
from recourseplan.generate import random_problem
from recourseplan.ingest import GERMAN_TEXT, SCENARIO_NAMES
from recourseplan.planner import CandidatePath, get_path
from recourseplan.rules import Literal, ProblemSpec, Rule
from tests.cli_contract import failures, make_inputs, read_rows
from tests.conftest import check_golden, golden_line, run_cli
from tests.contract import TEXTS

ROWS = read_rows()


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("contract")
    make_inputs(folder, lambda args: run_cli(*args))
    return folder


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_cli_contract(row, contract_inputs, monkeypatch):
    monkeypatch.chdir(contract_inputs)
    code, out, err = run_cli(*row.args)
    found = failures(row, code, out, err)
    assert not found, "\n".join([*found, "--- stdout", out, "--- stderr", err])


def test_a_budget_rebinds_the_problem_without_recompiling(compiled_rules):
    # --budget binds the parsed problem's start to its model under the budget
    german = parse_problem(GERMAN_TEXT)
    compiled_rules.clear()
    code, _, _ = run_cli("plan", "--scenario", "german", "--budget", "1")
    assert code == 3  # budget-exhausted
    assert compiled_rules == list(german.causal_rules + german.decision_rules)


def test_readme_shows_the_german_table_row():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text().splitlines()
    (row,) = [row for row in ROWS if row.name == "german-table"]
    missing = [line for kind, line in row.expect if kind == "out" and line not in readme]
    assert not missing


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
    f = tmp_path / "chain.rp"
    f.write_text(TEXTS["repair chain"])
    code, out, err = run_cli("plan", "--file", str(f), "--format", "structured")
    assert code == 0
    record = json.loads(out)
    flags = [e["causally_consistent"] for e in record["trace"]]
    assert False in flags
    assert len(record["candidate_path"]) == 2
    kinds = {c["feature"]: c["kind"] for c in record["steps"][0]}
    assert kinds == {"marital_status": "direct", "relationship": "causal"}


def test_table_reads_kinds_off_states_when_labels_hold_colons():
    """A step's kind comes from the trace's states, not from splitting an
    action id whose value label itself contains ``:``."""
    domains = Domains((FeatureDomain("m", "categorical", labels=("single", "wed:yes")),
                       FeatureDomain("r", "categorical", labels=("u", "h:x"))))
    problem = ProblemSpec(
        domains,
        causal_rules=(Rule("c", "causal", (Literal("m", "=", "wed:yes"),),
                           head=Literal("r", "=", "h:x")),),
        decision_rules=(Rule("q", "decision", (Literal("m", "=", "single"),)),),
        initial=State(domains, (0, 0)))
    trace = get_path(problem)
    assert trace.status == "success"
    assert [entry.actions_taken for entry in trace.entries] == [
        ("direct:m:wed:yes",), ("causal:c:r:h:x",), ()]
    rows = {line.split()[0]: line.split() for line in cli.render_path_table(trace).splitlines()}
    assert rows["m"] == ["m", "single", "Direct", "wed:yes"]
    assert rows["r"] == ["r", "u", "Causal", "h:x"]


@pytest.mark.parametrize("command", ["plan", "validate", "enumerate"])
@pytest.mark.parametrize("name", ["", "titanic"])
def test_unknown_scenario_error_names_it_and_lists_random(command, name):
    known = "adult, car, german, german_motivating, random"
    assert run_cli(command, "--scenario", name) == (
        1, "", f"error: unknown scenario {name!r} (known: {known})\n")


def test_plan_doomed_start_fails_before_expanding(tmp_path):
    f = tmp_path / "doomed.rp"
    f.write_text(TEXTS["doomed start"])
    code, out, err = run_cli("plan", "--file", str(f), "--format", "structured")
    assert (code, err) == (2, "planning failed: no reachable counterfactual state\n")
    record = json.loads(out)
    assert (record["status"], record["expansions"]) == ("failure", 0)
    assert [entry["actions_taken"] for entry in record["trace"]] == [[]]


def test_plan_structured_with_validate_stays_one_json_document():
    code, out, err = run_cli("plan", "--scenario", "adult",
                             "--format", "structured", "--validate")
    assert code == 0
    record = json.loads(out)  # a single well-formed document
    assert record["validation"]["overall"] is True
    assert all(record["validation"]["clauses"].values())


def test_plan_validate_exits_2_when_the_oracle_refuses_the_path(monkeypatch):
    # the planner's path is correct, so only a refusing oracle reaches this
    # branch; the command line looks the oracle's function up at call time
    refused = oracle.ValidationReport(True, True, True, True, False)
    monkeypatch.setattr(oracle, "validate_solution_path", lambda path, problem: refused)
    code, out, err = run_cli("plan", "--scenario", "german", "--validate")
    assert code == 2
    assert "FAIL  every step is a one-step transition" in out.splitlines()
    assert "overall: FAIL" in out
    assert err == ""
    code, out, err = run_cli("plan", "--scenario", "german", "--validate",
                             "--format", "structured")
    assert code == 2
    assert json.loads(out)["validation"]["overall"] is False


def test_validate_from_artifact_matches_in_process(contract_inputs):
    saved = str(contract_inputs / "german.json")
    assert (run_cli("validate", "--scenario", "german", "--path-file", saved)
            == run_cli("validate", "--scenario", "german"))


def test_path_record_with_a_byte_order_mark_reads_like_one_without(contract_inputs, tmp_path):
    artifact = tmp_path / "german.json"
    artifact.write_text((contract_inputs / "german.json").read_text(), encoding="utf-8-sig")
    assert artifact.read_bytes().startswith(b"\xef\xbb\xbf")
    assert (run_cli("validate", "--scenario", "german", "--path-file", str(artifact))
            == run_cli("validate", "--scenario", "german"))


def _validate_edited_record(tmp_path, edit):
    """Validate german's saved plan after ``edit`` changed its record."""
    _, planned, _ = run_cli("plan", "--scenario", "german", "--format", "structured")
    record = json.loads(planned)
    edit(record["candidate_path"])
    artifact = tmp_path / "edited.json"
    artifact.write_text(json.dumps(record))
    return run_cli("validate", "--scenario", "german", "--path-file", str(artifact))


# (path state, feature, field, value) edits to german's saved record that the
# problem contradicts: the interval index is not an integer or not one of the
# feature's 2 intervals, the bounds are not the declared interval's, or the
# witness is not an integer inside it
CONTRADICTING_EDITS = [
    (1, "duration_months", "value", 3),
    (0, "credit_amount", "value", "lots"),
    (0, "credit_amount", "value", 300.0),
    (0, "credit_amount", "value", 20001),
    (1, "duration_months", "interval_index", True),
    (1, "duration_months", "interval_index", "1"),
    (1, "duration_months", "interval_index", 1.0),
    (1, "duration_months", "interval_index", 2),
    (1, "duration_months", "interval_index", 99),
    (1, "duration_months", "interval_index", -1),
    (1, "duration_months", "lower", 8),
    (1, "duration_months", "upper", 71),
    (1, "duration_months", "lower_open", False),
]


@pytest.mark.parametrize("position, feature, field, value", CONTRADICTING_EDITS)
def test_validate_artifact_contradicting_the_problem_is_usage_error(
        position, feature, field, value, tmp_path):
    def edit(path):
        path[position][feature][field] = value

    code, out, err = _validate_edited_record(tmp_path, edit)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: malformed path record: {feature}: ")


# (edit, error message) pairs that leave an entry of german's saved record
# incomplete or of the wrong kind: each message names the feature, unquoted
MALFORMED_ENTRIES = [
    *[(lambda path, field=field: path[1]["duration_months"].pop(field),
       f"duration_months: missing field '{field}'")
      for field in ("interval_index", "lower", "upper", "lower_open")],
    (lambda path: path[0].update(credit_amount=5000),
     "credit_amount: entry 5000 is not an object"),
    (lambda path: path[0].pop("credit_amount"), "missing feature 'credit_amount'"),
]


@pytest.mark.parametrize("edit, message", MALFORMED_ENTRIES,
                         ids=[message for _, message in MALFORMED_ENTRIES])
def test_validate_artifact_with_a_malformed_entry_names_the_feature(edit, message, tmp_path):
    assert _validate_edited_record(tmp_path, edit) == (
        1, "", f"error: malformed path record: {message}\n")


# records nested past the JSON decoder's recursion limit, bare and under the key
NESTED_RECORDS = ["[" * 200_000 + "]" * 200_000,
                  '{"candidate_path": ' + "[" * 200_000 + "]" * 200_000 + "}"]


@pytest.mark.parametrize("text", NESTED_RECORDS, ids=["bare", "candidate_path"])
def test_validate_deeply_nested_record_is_usage_error(text, tmp_path):
    artifact = tmp_path / "nested.json"
    artifact.write_text(text)
    code, out, err = run_cli("validate", "--scenario", "car", "--path-file", str(artifact))
    assert (code, out) == (1, "")
    assert err.startswith("error: malformed path record: ")


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
    args = ("plan", "--scenario", "german", "--format", "structured")
    assert run_cli(*args) == run_cli(*args)


def test_random_scenario_is_seed_deterministic():
    args = ("plan", "--scenario", "random", "--seed", "7", "--format", "structured")
    assert run_cli(*args) == run_cli(*args)


def test_max_states_cap_exit_code(monkeypatch):
    # the default cap, like --max-states (the cap rows of tests/golden/cli.txt),
    # applies to enumerate but not to plan --validate, which enumerates nothing
    monkeypatch.setattr(oracle, "DEFAULT_STATE_CAP", 10)
    assert run_cli("plan", "--validate", "--scenario", "car")[0] == 0
    assert run_cli("enumerate", "--scenario", "car")[0] == 4


def test_cap_environment_variable_is_not_read(monkeypatch):
    # only --max-states (or cap= in the library) replaces the default cap
    monkeypatch.setenv("RECOURSE_MAX_STATES", "10")
    code, out, err = run_cli("enumerate", "--scenario", "car")
    assert code == 0


@pytest.mark.parametrize("text", [GERMAN_TEXT, "feature a: numeric [1, 2].\n  @\n"],
                         ids=["plans", "error position"])
def test_file_with_a_byte_order_mark_reads_like_one_without(text, tmp_path):
    f = tmp_path / "problem.rp"
    f.write_text(text, encoding="utf-8")
    without = run_cli("plan", "--file", str(f))
    f.write_text(text, encoding="utf-8-sig")
    assert f.read_bytes().startswith(b"\xef\xbb\xbf")
    assert run_cli("plan", "--file", str(f)) == without


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


@pytest.fixture(scope="module")
def printed_sources(tmp_path_factory):
    """A folder holding random_problem(seed, max_features=10, max_values=6)
    printed to ``seed-<seed>.rp`` for seeds 0-119, and the (label, source
    arguments) of the four scenarios and those files, relative to the folder."""
    folder = tmp_path_factory.mktemp("printed")
    sources = [(name, ("--scenario", name)) for name in SCENARIO_NAMES]
    for seed in range(120):
        name = f"seed-{seed}.rp"
        (folder / name).write_text(pretty_print(random_problem(seed, max_features=10,
                                                               max_values=6)))
        sources.append((f"10/6:{seed}", ("--file", name)))
    return folder, sources


# one line per source in tests/golden/certify.txt: label, exit code and the
# hash of the (exit code, stdout, stderr) of ``validate --format structured``;
# 64 goal starts, 26 failures and 34 paths with steps
def test_validate_output_on_scenarios_and_seeds_0_to_119_is_pinned(printed_sources, monkeypatch):
    folder, sources = printed_sources
    monkeypatch.chdir(folder)
    lines = []
    for label, source in sources:
        record = run_cli("validate", *source, "--format", "structured")
        lines.append(golden_line(label, record[0], record=repr(record)))
    check_golden("certify.txt", lines)


def _without_expansions(stdout: str) -> tuple[str, int]:
    """A structured record's text without its top-level ``expansions`` line,
    and the count that line held."""
    match = re.search(r'^  "expansions": (\d+),\n', stdout, re.MULTILINE)
    return stdout[:match.start()] + stdout[match.end():], int(match.group(1))


# one line per source in tests/golden/plan.txt: label, exit code of ``plan``,
# candidate-path length ("-" on a failure), expansions, and one hash over the
# (exit code, stdout, stderr) of ``plan`` and ``plan --validate``, each in table
# and structured form, with each structured record's ``expansions`` line cut
# out; both structured records report the same expansions
def test_plan_output_on_scenarios_and_seeds_0_to_119_is_pinned(printed_sources, monkeypatch):
    folder, sources = printed_sources
    monkeypatch.chdir(folder)
    lines = []
    for label, source in sources:
        records, expansions = [], set()
        for flags in ((), ("--validate",)):
            for fmt in ("table", "structured"):
                code, out, err = run_cli("plan", *source, *flags, "--format", fmt)
                if fmt == "structured":
                    path = json.loads(out).get("candidate_path")
                    out, count = _without_expansions(out)
                    expansions.add(count)
                records.append((code, out, err))
        (count,) = expansions
        length = "-" if path is None else len(path)
        lines.append(golden_line(label, records[0][0], length, count,
                                 record="".join(map(repr, records))))
    check_golden("plan.txt", lines)


@pytest.mark.parametrize("command", ["plan", "validate"])
@pytest.mark.parametrize("budget", ["0", "-1"])
def test_non_positive_budget_is_usage_error(command, budget):
    assert run_cli(command, "--scenario", "german", "--budget", budget) == (
        1, "", "error: action budget must be positive\n")


# one parser per process -------------------------------------------------------------

PARSER_SEQUENCE = [
    ("validate", "--scenario", "german", "--no-such-flag"),
    ("validate", "--scenario", "german", "--format", "structured"),
    ("plan", "--scenario", "car"),
    # each flag is registered only on the subcommands that read it:
    # --path-file on validate, --validate on plan, --budget on plan and validate,
    # --max-states on validate and enumerate
    ("plan", "--scenario", "german", "--path-file", "record.json"),
    ("enumerate", "--scenario", "car", "--validate"),
    ("validate", "--scenario", "car", "--validate"),
    ("enumerate", "--scenario", "car", "--budget", "3"),
    ("plan", "--scenario", "car", "--max-states", "10"),
    # --seed goes only with --scenario random
    ("enumerate", "--scenario", "car", "--seed", "5"),
    ("plan", "--file", "problem.rp", "--seed", "3"),
]


def test_reused_parser_answers_like_a_fresh_one(capsys):
    fresh = []
    for args in PARSER_SEQUENCE:
        cli._build_parser.cache_clear()
        fresh.append(run_cli(*args))
    reused = [run_cli(*args) for args in PARSER_SEQUENCE]
    assert reused == fresh
    assert cli._build_parser.cache_info().currsize == 1
    assert [code for code, _, _ in reused] == [1, 0, 0, 1, 1, 1, 1, 1, 1, 1]
    # argparse reports usage errors on main's err, not the process's stderr
    assert "unrecognized arguments: --path-file" in reused[3][2]
    for _, out, err in reused[4:8]:
        assert out == ""
        assert "unrecognized arguments: --" in err
    for _, out, err in reused[8:]:
        assert out == ""
        assert err == "error: --seed applies only to --scenario random\n"
    assert capsys.readouterr() == ("", "")


def test_help_goes_to_mains_out(capsys):
    code, out, err = run_cli("--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: ")
    assert capsys.readouterr() == ("", "")


def test_main_without_streams_writes_to_the_redirected_ones():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(["enumerate", "--scenario", "car"]) == 0
        assert cli.main(["plan", "--scenario", "titanic"]) == 1
    assert out.getvalue() == run_cli("enumerate", "--scenario", "car")[1] != ""
    assert err.getvalue() == run_cli("plan", "--scenario", "titanic")[2] != ""


# the layer calls the benchmark traces --------------------------------------------

def test_main_looks_up_layer_calls_at_call_time(tmp_path, monkeypatch):
    """``cli.main`` must reach these functions through the module attributes,
    so that wrappers swapped in there (as the benchmark's tracer does) see
    every call, and must call the oracle with the argument shapes the
    benchmark's planted faulty oracles take: ``(path, problem)`` and
    ``(problem, cap=...)``."""
    called, shapes = [], {}
    for module, name in ((cli, "parse_problem"), (cli, "builtin_scenario"), (cli, "get_path"),
                         (oracle, "validate_solution_path"), (oracle, "state_set_report")):
        def wrapper(*args, name=name, original=getattr(module, name), **kwargs):
            called.append(name)
            shapes[name] = ([type(a) for a in args], kwargs)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    f = tmp_path / "german.rp"
    f.write_text(GERMAN_TEXT)
    assert run_cli("validate", "--file", str(f))[0] == 0
    assert called == ["parse_problem", "get_path", "validate_solution_path", "state_set_report"]
    assert shapes["validate_solution_path"] == ([CandidatePath, ProblemSpec], {})
    assert shapes["state_set_report"] == ([ProblemSpec], {"cap": None})
    called.clear()
    assert run_cli("validate", "--scenario", "german", "--max-states", "100")[0] == 0
    assert called == ["builtin_scenario", "get_path", "validate_solution_path",
                      "state_set_report"]
    assert shapes["validate_solution_path"] == ([CandidatePath, ProblemSpec], {})
    assert shapes["state_set_report"] == ([ProblemSpec], {"cap": 100})
