"""The command line's contract: every row of ``tests/golden/cli.txt``, run in
a temporary directory that :func:`make_inputs` fills with the files the rows
name.  ``tests/test_cli.py::test_cli_contract`` runs each row through
``cli.main``; run from the checkout's root, this module runs each row through
the ``recourseplan`` console script on ``PATH``::

    python -m tests.cli_contract
"""

from __future__ import annotations

import json
import pathlib
import shlex
import subprocess
import sys
import tempfile
from typing import NamedTuple

from recourseplan import pretty_print, random_problem
from recourseplan.ingest import GERMAN_TEXT
from tests.conftest import DOOMED_START, HUSBAND_TOY, UNREACHABLE_GOAL

TABLE = pathlib.Path(__file__).parent / "golden" / "cli.txt"

# every numeric comparator: no scenario or generated problem uses <, >= or a
# numeric !=
COMPARATORS = """\
feature income: numeric [0, 100].
feature debt: numeric [0, 50].
feature age: numeric [18, 70].
feature owner: categorical {yes, no}.
decision d1 :- income < 40.
decision d2 :- debt > 20, age != 30.
decision d3 :- age =< 20.
causal c1: owner = yes :- income >= 60.
initial { income = 10, debt = 30, age = 19, owner = no }.
"""

# rules that name a feature twice: d1's body holds nowhere, and the oracle's
# split cuts along neither of its literals
TWICE = """\
feature x: numeric [0, 9].
feature y: categorical {a, b, c}.
feature z: categorical {p, q}.
decision d1 :- x > 5, x =< 2.
decision d2 :- y = a, y != b, z = p.
causal c1: z = q :- x > 2, x =< 5.
initial { x = 0, y = a, z = p }.
"""

LINE_KINDS = ("out", "err", "out-never-starts")
EMPTY_KINDS = ("out-empty", "err-empty")


class Row(NamedTuple):
    name: str
    args: list[str]
    code: int
    expect: list[tuple[str, str]]  # (kind, value) pairs


def read_rows() -> list[Row]:
    rows = []
    for line in TABLE.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        call, arrow, expected = line.partition(" => ")
        if not arrow:
            raise ValueError(f"cli.txt: no ' => ' in {line!r}")
        name, *args = shlex.split(call)
        code, *tokens = shlex.split(expected)
        expect = []
        for token in tokens:
            kind, sep, value = token.partition("=")
            if kind not in (LINE_KINDS if sep else EMPTY_KINDS):
                raise ValueError(f"cli.txt: row {name}: bad expectation {token!r}")
            expect.append((kind, value))
        rows.append(Row(name, args, int(code), expect))
    return rows


def failures(row: Row, code: int, out: str, err: str) -> list[str]:
    """What of ``row`` the call's exit code, stdout and stderr break."""
    found = [] if code == row.code else [f"exit code {code}, expected {row.code}"]
    lines = {"out": out.splitlines(), "err": err.splitlines()}
    for kind, value in row.expect:
        stream = kind[:3]
        if kind in ("out", "err") and value not in lines[stream]:
            found.append(f"no {stream} line {value!r}")
        elif kind == "out-never-starts" and any(l.startswith(value) for l in lines[stream]):
            found.append(f"an out line starts with {value!r}")
        elif kind in EMPTY_KINDS and lines[stream]:
            found.append(f"{stream} is not empty")
    return found


def make_inputs(folder: pathlib.Path, invoke) -> None:
    """Write every file the rows name into ``folder``; ``invoke(args)`` returns
    a call's (exit code, stdout, stderr)."""
    code, planned, err = invoke(["plan", "--scenario", "german", "--format", "structured"])
    if code != 0:
        raise RuntimeError(f"plan --scenario german --format structured exited {code}: {err}")
    skipped = json.loads(planned)
    del skipped["candidate_path"][1]  # jump straight to the goal: not a transition
    problem = pretty_print(random_problem(4))
    if not any(line.startswith("constraint ") for line in problem.splitlines()):
        raise RuntimeError("random_problem(4) no longer prints a constraint line")
    texts = {
        "german.json": planned,
        "skip.json": json.dumps(skipped),
        "problem.rp": problem,
        "bom.rp": "\ufeff" + problem,
        "comparators.rp": COMPARATORS,
        "twice.rp": TWICE,
        "unreachable.rp": UNREACHABLE_GOAL,
        "doomed.rp": DOOMED_START,
        "husband.rp": HUSBAND_TOY,
        "german.rp": GERMAN_TEXT,
        "garbage.json": "not json at all",
        "wrong.json": json.dumps({"candidate_path": [{"bogus": "x"}]}),
        "failed.json": json.dumps({"status": "failure", "trace": []}),
    }
    for name, text in texts.items():
        (folder / name).write_text(text, encoding="utf-8")
    # a record saved as UTF-16 with its byte-order mark, b"\xff\xfe" first
    (folder / "utf16.json").write_text("\ufeff" + planned, encoding="utf-16-le")


def main() -> int:
    rows, broken = read_rows(), 0
    with tempfile.TemporaryDirectory() as tmp:
        def invoke(args: list[str]) -> tuple[int, str, str]:
            done = subprocess.run(["recourseplan", *args], cwd=tmp, capture_output=True,
                                  encoding="utf-8", timeout=120)
            return done.returncode, done.stdout, done.stderr

        make_inputs(pathlib.Path(tmp), invoke)
        for row in rows:
            code, out, err = invoke(row.args)
            found = failures(row, code, out, err)
            if found:
                broken += 1
                print(f"FAIL {row.name}: {'; '.join(found)}\n--- stdout\n{out}--- stderr\n{err}")
    print(f"{len(rows) - broken} of {len(rows)} rows pass")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
