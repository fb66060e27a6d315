"""Planted mutants and the tests that must kill them: every mutant of
``tests/mutants.txt``, each applied to its own copy of the checkout in a
temporary directory, with only its named test run there.  Run from the
checkout's root::

    python -m tests.mutants            # every mutant
    python -m tests.mutants NAME...    # the named ones

First every named test runs once on an unmutated copy and must pass, so a
test that fails anyway kills nothing.  Then a mutant is killed when its test
fails (pytest exits 1); it survives when the test passes, and it is stale
when a snippet does not occur exactly once in its file or the test cannot be
collected, so a refactor that moves the code restates its mutants.  Exits 1
unless every mutant run is killed.  Needs only the standard library and
pytest.
"""

from __future__ import annotations

import ast
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "mutants.txt"
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 "*.egg-info", "build", "dist", "out")


class Edit(NamedTuple):
    path: str  # relative to the checkout's root
    snippet: str
    replacement: str


class Mutant(NamedTuple):
    name: str
    edits: list[Edit]
    test: str  # a pytest node id


def read_mutants() -> list[Mutant]:
    """The rows of ``tests/mutants.txt``, ``<name> <file> <snippet>,
    <replacement> => <test>`` with the snippet and its replacement as Python
    string literals; rows sharing a name are one mutant, applied together."""
    mutants: dict[str, Mutant] = {}
    for line in TABLE.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        head, arrow, test = line.rpartition(" => ")
        fields, test = head.split(" ", 2), test.strip()
        edit = ast.literal_eval(fields[2]) if arrow and len(fields) == 3 else None
        if not (test and isinstance(edit, tuple) and len(edit) == 2
                and all(isinstance(s, str) for s in edit)):
            raise ValueError(f"mutants.txt: malformed row {line!r}")
        name, path = fields[:2]
        mutant = mutants.setdefault(name, Mutant(name, [], test))
        if mutant.test != test:
            raise ValueError(f"mutants.txt: mutant {name} names two tests")
        mutant.edits.append(Edit(path, *edit))
    return list(mutants.values())


def pytest_exit(tree: pathlib.Path, tests: list[str]) -> int:
    """Run ``tests`` alone in ``tree``, against its own ``src``; pytest's exit code."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def outcome(mutant: Mutant, scratch: pathlib.Path) -> str:
    """``killed``, ``SURVIVED`` or why the mutant is stale."""
    tree = scratch / mutant.name
    shutil.copytree(ROOT, tree, ignore=IGNORED)
    for edit in mutant.edits:
        target = tree / edit.path
        text = target.read_text(encoding="utf-8")
        count = text.count(edit.snippet)
        if count != 1:
            return f"STALE: snippet occurs {count} times in {edit.path}: {edit.snippet!r}"
        target.write_text(text.replace(edit.snippet, edit.replacement), encoding="utf-8")
    code = pytest_exit(tree, [mutant.test])
    if code == 0:
        return "SURVIVED"
    return "killed" if code == 1 else f"STALE: pytest exited {code} on {mutant.test}"


def main(argv: list[str]) -> int:
    mutants = read_mutants()
    unknown = set(argv) - {m.name for m in mutants}
    if unknown:
        print(f"error: no mutant named {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in mutants if not argv or m.name in argv]
    with tempfile.TemporaryDirectory() as scratch_dir:
        scratch = pathlib.Path(scratch_dir)
        clean = scratch / "unmutated"
        shutil.copytree(ROOT, clean, ignore=IGNORED)
        tests = sorted({m.test for m in chosen})
        if pytest_exit(clean, tests) != 0:
            print("error: not every named test passes on the unmutated tree:\n  "
                  + "\n  ".join(tests), file=sys.stderr)
            return 1
        ok = True
        for mutant in chosen:
            result = outcome(mutant, scratch)
            ok = ok and result == "killed"
            print(f"{result}  {mutant.name}  ({mutant.test})", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
