import ast
import copy
import hashlib
import os
import pathlib
import pickle
import runpy
import shutil
import subprocess
import sys

import pytest

import recourseplan
from recourseplan import errors, rules
from recourseplan.dsl import pretty_print
from recourseplan.generate import random_problem
from tests.conftest import run_cli
from tests.mutants import ROOT as MUTANTS_ROOT, read_mutants

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))
SOURCES = sorted(pathlib.Path(recourseplan.__file__).parent.glob("*.py"))


def test_every_exported_name_resolves():
    missing = [name for name in recourseplan.__all__ if not hasattr(recourseplan, name)]
    assert missing == []


# one instance of every error type, ParseError with and without `expected`
ERRORS = [
    errors.RecourseError("base"),
    errors.ParseError("unexpected token", 3, 7, "'.'"),
    errors.ParseError("stray character", 1, 2),
    errors.SemanticError("type-mismatch", "x needs an integer"),
    errors.NotApplicable("not permitted"),
    errors.EmptySequenceError("trace is empty"),
    errors.NotASolution("trace status is 'failure'"),
    errors.CapExceeded(1000, 10),
    errors.EmptyRange("[3, 1]"),
    errors.OutOfDomain("age", "200 is out of range"),
    errors.UnknownScenario("nope"),
]


def test_every_error_type_is_exercised():
    classes = {cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.RecourseError)}
    assert classes == {type(e) for e in ERRORS}


@pytest.mark.parametrize("error", ERRORS, ids=lambda e: type(e).__name__)
@pytest.mark.parametrize("clone", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy],
                         ids=["pickle", "copy"])
def test_errors_survive_pickle_and_copy(error, clone):
    # a multiprocessing worker's error reaches the parent pickled
    twin = clone(error)
    assert type(twin) is type(error)
    assert (str(twin), twin.args, vars(twin)) == (str(error), error.args, vars(error))


# values built from outside the program that each input check refuses, with
# the error it raises
_X = recourseplan.FeatureDomain("x", "categorical", labels=("a", "b"))
_DOMAINS = recourseplan.Domains((_X,))
_LIT = recourseplan.Literal("x", "=", "a")
_DECISION = recourseplan.Rule("d", "decision", (_LIT,))
_INITIAL = recourseplan.State(_DOMAINS, (1,))
BAD_VALUES = [
    ("comparator", lambda: recourseplan.Literal("x", "~", "a"),
     ValueError, "unknown comparator '~'"),
    ("headless causal rule", lambda: recourseplan.Rule("c", "causal", (_LIT,)),
     ValueError, "c: causal rules need a head"),
    ("rule role", lambda: recourseplan.Rule("r", "constraint", (_LIT,)),
     ValueError, "r: unknown role 'constraint'"),
    ("numeric feature with labels",
     lambda: recourseplan.FeatureDomain("n", "numeric", labels=("a",),
                                        intervals=(recourseplan.Interval(0, 9),)),
     ValueError, "n: numeric features need intervals only"),
    ("feature kind", lambda: recourseplan.FeatureDomain("k", "ordinal", labels=("a",)),
     ValueError, "k: unknown kind 'ordinal'"),
    ("monotonicity",
     lambda: recourseplan.FeatureDomain("m", "categorical", labels=("a",), monotonicity="up"),
     ValueError, "m: bad monotonicity 'up'"),
    ("state arity", lambda: recourseplan.State(_DOMAINS, (0, 0)),
     ValueError, "state arity does not match the declared features"),
    ("witness arity", lambda: recourseplan.State(_DOMAINS, (0,), (None, None)),
     ValueError, "witness arity does not match the declared features"),
    ("moved value out of range", lambda: _INITIAL.with_value(-1, 2),
     ValueError, "x: value index 2 out of range"),
    ("no initial state", lambda: recourseplan.ProblemSpec(_DOMAINS),
     errors.SemanticError, "missing-initial: problem has no initial state"),
    ("rule under the wrong role",
     lambda: recourseplan.ProblemSpec(_DOMAINS, causal_rules=(_DECISION,), initial=_INITIAL),
     ValueError, "rule 'd' listed as causal but has role 'decision'"),
    ("budget", lambda: recourseplan.ProblemSpec(_DOMAINS, initial=_INITIAL, action_budget=0),
     ValueError, "action budget must be positive"),
    ("semantic error kind", lambda: errors.SemanticError("bogus", "message"),
     ValueError, "unknown semantic error kind: bogus"),
    ("action kind", lambda: recourseplan.Action("a", "swap", "x", 0, 1),
     ValueError, "unknown action kind 'swap'"),
    ("guarded direct action", lambda: recourseplan.Action("a", "direct", "x", 0, 1, (_LIT,)),
     ValueError, "direct actions carry no guard"),
    ("state-set counts", lambda: recourseplan.StateSetReport(10, 5, 3, 1),
     ValueError, "inconsistent state-set cardinalities"),
    ("literal on another feature",
     lambda: rules.literal_support(recourseplan.builtin_scenario("adult").problem.domains[0],
                                   recourseplan.Literal("sex", "=", "male")),
     ValueError, "literal sex = male does not talk about feature 'capital_gain'"),
]


@pytest.mark.parametrize("build, error, message", [case[1:] for case in BAD_VALUES],
                         ids=[case[0] for case in BAD_VALUES])
def test_input_checks_refuse_bad_values(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_package_imports_only_itself_and_the_standard_library():
    # pyproject.toml declares no dependencies, so every import in the package
    # must be relative or name a standard-library module
    foreign = []
    for source in SOURCES:
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(source.name, node.lineno, name) for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert len(SOURCES) > 10
    assert foreign == []


# the unbounded caches src/ may hold; every other memo states its bound
UNBOUNDED_CACHES = {("cli", "_build_parser"), ("rules", "literal_support"),
                    ("rules", "compile_rule")}


def _unbounded(maker: ast.expr) -> bool:
    """``maker`` makes an unbounded cache: ``functools.cache``, or
    ``lru_cache`` given a maxsize of ``None``."""
    call = maker if isinstance(maker, ast.Call) else None
    func = call.func if call else maker
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if call is None:
        return name == "cache"
    if name != "lru_cache":
        return False
    size = call.args[0] if call.args else next(
        (k.value for k in call.keywords if k.arg == "maxsize"), None)
    return isinstance(size, ast.Constant) and size.value is None


def _unbounded_caches(module: str, source: str) -> set[tuple[str, str]]:
    """Each unbounded cache in ``source``, as decorator or as call, named by
    the function it decorates or the name the call is assigned to."""
    tree = ast.parse(source)
    assigned = {id(node.value): node.targets[0].id for node in ast.walk(tree)
                if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update((module, node.name) for deco in node.decorator_list if _unbounded(deco))
        elif isinstance(node, ast.Call) and _unbounded(node.func):
            found.add((module, assigned.get(id(node), f"line {node.lineno}")))
    return found


def test_only_the_listed_caches_are_unbounded():
    found = set().union(*(_unbounded_caches(source.stem, source.read_text()) for source in SOURCES))
    assert found <= UNBOUNDED_CACHES


# the compile step a model owns: no other module of src/ may name it
COMPILE_STEPS = {"_compile_rule", "_causal_tables"}


def _names(source: str) -> set[str]:
    """Every name ``source`` reads or binds, as a name, attribute or import."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def _compile_step_names(source: str) -> set[str]:
    """The compile steps ``source`` names, as a name, attribute or import."""
    return _names(source) & COMPILE_STEPS


def test_only_the_model_compiles_rules():
    named = {source.stem: _compile_step_names(source.read_text()) for source in SOURCES}
    assert {module for module, names in named.items() if names} == {"rules"}
    assert _compile_step_names("from .rules import _causal_tables\nrules._compile_rule(d, r)\n") \
        == COMPILE_STEPS


# where a feature can go: the planner side reads it from ``Domains.reaches``
# alone, never from a feature's monotonicity flag
PLANNER_SIDE = {"kernel", "planner"}


def test_the_planner_side_reads_no_monotonicity():
    planner_side = [source for source in SOURCES if source.stem in PLANNER_SIDE]
    assert {source.stem for source in planner_side} == PLANNER_SIDE
    for source in planner_side:
        assert "monotonicity" not in _names(source.read_text()), source.stem
    assert "monotonicity" in _names("if f.monotonicity == 'nondecreasing': pass\n")
    assert "monotonicity" in _names("from .domains import monotonicity\n")


# the index-level search is the kernel's: the planner imports none of its
# tools and reads no kernel table or walk, only ``moves``, ``action_id`` and
# ``search``
SEARCH_TOOLS = {"after_one_move", "Index"}
KERNEL_INTERNALS = {"causal", "decision", "step", "complete"}


def _search_reads(source: str) -> set[str]:
    """The search tools ``source`` imports and the kernel internals it reads
    as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias) and node.name in SEARCH_TOOLS:
            found.add(node.name)
        elif isinstance(node, ast.Attribute) and node.attr in KERNEL_INTERNALS:
            found.add(node.attr)
    return found


def test_the_planner_runs_no_search_of_its_own():
    planner = next(source for source in SOURCES if source.stem == "planner")
    assert _search_reads(planner.read_text()) == set()
    assert _search_reads("from .kernel import CompiledProblem, Index\n"
                         "from .rules import after_one_move\n"
                         "k.causal, k.decision, k.step(0, i), k.complete(i)\n") \
        == SEARCH_TOOLS | KERNEL_INTERNALS


# what a parse read is the parser's own: the problem language defines no
# record besides its parser, and no dataclass
def _classes_and_dataclass_imports(source: str) -> tuple[list[str], int]:
    """The classes ``source`` defines, and how many of its imports read
    ``dataclasses``."""
    classes, imports = [], 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            classes.append(node.name)
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            imports += 1
        elif isinstance(node, ast.Import):
            imports += sum(alias.name == "dataclasses" for alias in node.names)
    return classes, imports


def test_the_parser_keeps_what_a_parse_read():
    dsl = next(source for source in SOURCES if source.stem == "dsl")
    assert _classes_and_dataclass_imports(dsl.read_text()) == (["_Parser"], 0)
    assert _classes_and_dataclass_imports(
        "import dataclasses\nfrom dataclasses import dataclass\n"
        "class _Parser: pass\nclass _Parsed: pass\n") == (["_Parser", "_Parsed"], 2)


# every rule error is the model's: the problem language's domain builder
# raises nothing, its model is built before the start is read, and it binds
# a start to that model rather than building a problem itself
def _rule_check_boundary(source: str) -> tuple[int, bool, bool]:
    """How many ``raise`` statements ``_build_domains`` holds, whether
    ``parse_problem`` calls ``Model(`` before ``_build_initial(``, and
    whether ``source`` imports ``ProblemSpec``."""
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    raises = sum(isinstance(node, ast.Raise) for node in ast.walk(functions["_build_domains"]))
    calls = [name for _, _, name in sorted(
        (node.lineno, node.col_offset, ast.unparse(node.func))
        for node in ast.walk(functions["parse_problem"]) if isinstance(node, ast.Call))]
    model_first = {"Model", "_build_initial"} <= set(calls) \
        and calls.index("Model") < calls.index("_build_initial")
    imports = any(isinstance(node, ast.alias) and node.name == "ProblemSpec"
                  for node in ast.walk(tree))
    return raises, model_first, imports


PLANTED_PARSE = """\
from .rules import Model, ProblemSpec

def _build_domains(parser):
    for lit in parser.literals:
        if lit.feature not in parser.features:
            raise SemanticError("undeclared-feature", lit.feature)
    return Domains(())

def parse_problem(text):
    parser = _Parser(text)
    domains = _build_domains(parser)
    initial = _build_initial(parser, domains)
    model = Model(domains, tuple(parser.causal), tuple(parser.decision))
    return ProblemSpec(domains, model.causal_rules, model.decision_rules, initial)
"""


def test_the_model_owns_every_rule_check():
    dsl = next(source for source in SOURCES if source.stem == "dsl")
    assert _rule_check_boundary(dsl.read_text()) == (0, True, False)
    assert _rule_check_boundary(PLANTED_PARSE) == (1, False, True)


# a start is bound by one path: a problem builds its model and then binds the
# start to it, and the command line leaves the budget check to that binder
def _start_binding_boundary(rules_source: str, cli_source: str) -> tuple[bool, bool, bool, bool]:
    """Whether ``ProblemSpec.__post_init__`` calls ``Model(``, whether
    ``ProblemSpec._bind`` calls ``Model(``, whether it tests ``model is
    None``, and whether ``main`` in ``cli_source`` compares a budget with a
    number."""
    spec = next(node for node in ast.parse(rules_source).body
                if isinstance(node, ast.ClassDef) and node.name == "ProblemSpec")
    methods = {node.name: node for node in spec.body if isinstance(node, ast.FunctionDef)}

    def calls_model(function: ast.FunctionDef) -> bool:
        return any(isinstance(node, ast.Call) and ast.unparse(node.func) == "Model"
                   for node in ast.walk(function))

    tests_none = any(isinstance(node, ast.Compare) and ast.unparse(node) == "model is None"
                     for node in ast.walk(methods["_bind"]))
    main = next(node for node in ast.parse(cli_source).body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    compares_budget = any(
        isinstance(node, ast.Compare) and "budget" in ast.unparse(node)
        and any(isinstance(o, ast.Constant) and type(o.value) is int
                for o in (node.left, *node.comparators))
        for node in ast.walk(main))
    return (calls_model(methods["__post_init__"]), calls_model(methods["_bind"]), tests_none,
            compares_budget)


PLANTED_BIND = """\
class ProblemSpec:
    def __post_init__(self):
        self._bind(None)

    def _bind(self, model):
        if model is None:
            model = Model(self.domains, self.causal_rules, self.decision_rules)

def main(argv=None):
    ns = parser.parse_args(argv)
    if ns.budget is not None and ns.budget <= 0:
        raise ValueError("budget must be positive")
"""


def test_a_start_is_bound_to_a_model_built_first():
    rules_text, cli_text = (next(source for source in SOURCES if source.stem == stem).read_text()
                            for stem in ("rules", "cli"))
    assert _start_binding_boundary(rules_text, cli_text) == (True, False, False, False)
    assert _start_binding_boundary(PLANTED_BIND, PLANTED_BIND) == (False, True, True, True)


PLANTED_CACHES = """\
import functools
from functools import cache, lru_cache

@functools.lru_cache(maxsize=None)
def a(): pass

@lru_cache(None)
def b(): pass

@cache
def c(): pass

@functools.cache
def d(): pass

e = lru_cache(maxsize=None)(len)
f = functools.cache(len)

@lru_cache
def bounded_default(): pass

@lru_cache(maxsize=64)
def bounded(): pass

g = lru_cache(16)(len)
"""


def test_the_cache_check_finds_each_planted_unbounded_cache():
    assert _unbounded_caches("planted", PLANTED_CACHES) == {
        ("planted", name) for name in "abcdef"}


# every row of tests/mutants.txt still applies: each edit's snippet occurs once
# in its file, and its test file defines the test it names, so a refactor that
# moves mutated code fails here and not only in the slow mutant run
@pytest.mark.parametrize("mutant", read_mutants(), ids=lambda mutant: mutant.name)
def test_every_mutant_row_applies(mutant):
    for edit in mutant.edits:
        assert (MUTANTS_ROOT / edit.path).read_text(encoding="utf-8").count(edit.snippet) == 1, \
            (edit.path, edit.snippet)
    path, _, node = mutant.test.partition("::")
    tree = ast.parse((MUTANTS_ROOT / path).read_text(encoding="utf-8"))
    defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert node.partition("[")[0] in defined, mutant.test


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, capsys):
    # a demo that imports a removed public name, or whose checks fail, raises here
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


# the first 12 hex digits of the SHA-256 of each demo's stdout; demo 04's
# line "N seeded instances in T s" is dropped first, as it prints a time
DEMO_DIGESTS = {
    "01_problems_and_rules": "c40a2529945e",
    "02_planning_recourse": "0dc0a690ec9b",
    "03_oracle_checks": "850057220985",  # prints delta_oracle's successors
    "04_random_stress": "cba07e7c50dd",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_output_matches_its_digest(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    lines = capsys.readouterr().out.splitlines(keepends=True)
    out = "".join(line for line in lines if " seeded instances in " not in line)
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == DEMO_DIGESTS[demo.stem]


def test_benchmark_selftest_passes(tmp_path):
    # the benchmark imports the program's API; a refactor that breaks it fails here.
    # It runs in a copy, so perfbench/out/ keeps the last benchmark run's records
    root = pathlib.Path(__file__).parent.parent
    skip = shutil.ignore_patterns("out", "__pycache__", "*.egg-info")
    for folder in ("perfbench", "src"):
        shutil.copytree(root / folder, tmp_path / folder, ignore=skip)
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "-W", "error", "perfbench/selftest.py"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest: ok" in done.stdout


PLANTED_GIVEN = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_planted_failure(n):
    assert n < 10


def test_after_the_failure():
    pass
"""

PLANTED_WARNING = """\
import warnings


def test_planted_deprecation():
    warnings.warn("planted", DeprecationWarning)
"""


def test_tier_1_settings_fail_a_warning_and_report_a_falsifying_example(tmp_path):
    # two planted files under a copy of the repo's pytest settings, and none from the
    # environment: a warning fails its test, and a failing @given test prints its
    # example without ending the run (hypothesis' report imports libcst where installed)
    shutil.copy(pathlib.Path(__file__).parent.parent / "pyproject.toml", tmp_path)
    (tmp_path / "test_given.py").write_text(PLANTED_GIVEN)
    (tmp_path / "test_warning.py").write_text(PLANTED_WARNING)
    env = {k: v for k, v in os.environ.items() if k not in ("PYTEST_ADDOPTS", "PYTHONWARNINGS")}
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "test_given.py", "test_warning.py"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example: test_planted_failure(" in out, out
    assert "FAILED test_warning.py::test_planted_deprecation - DeprecationWarning: planted" in out
    assert out.splitlines()[-1].startswith("2 failed, 1 passed in "), out


def _run_module(*args):
    root = pathlib.Path(__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run([sys.executable, "-m", "recourseplan", *args], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_m_runs_the_cli_from_the_checkout(tmp_path):
    problem_file = tmp_path / "problem.rp"
    problem_file.write_text(pretty_print(random_problem(3, max_features=10, max_values=6)))
    args = ("validate", "--file", str(problem_file), "--format", "structured")
    done = _run_module(*args)
    code, out, _ = run_cli(*args)
    assert (done.returncode, done.stdout) == (code, out)


def test_python_m_reports_a_stray_character_with_its_position(tmp_path):
    problem_file = tmp_path / "bad.rp"
    problem_file.write_text("feature a: categorical {x, y}.\n\n% a comment\n  @ initial { a = x }.\n")
    done = _run_module("validate", "--file", str(problem_file))
    assert done.returncode == 1
    assert done.stderr == "error: line 4, col 3: unexpected character '@'\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits") or not sys.get_int_max_str_digits(),
                    reason="this interpreter has no int-string limit")
def test_python_m_reports_an_over_long_integer_with_its_position(tmp_path):
    digits = sys.get_int_max_str_digits() + 1
    problem_file = tmp_path / "huge.rp"
    problem_file.write_text(f"feature n: numeric [0, 10].\ninitial {{ n = {'7' * digits} }}.\n")
    done = _run_module("validate", "--file", str(problem_file))
    assert done.returncode == 1
    assert done.stderr == (f"error: line 2, col 15: integer constant of {digits} digits"
                           " is too long\n")
