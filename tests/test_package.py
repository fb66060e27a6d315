import pathlib
import runpy
import subprocess
import sys

import pytest

import recourseplan

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_every_exported_name_resolves():
    missing = [name for name in recourseplan.__all__ if not hasattr(recourseplan, name)]
    assert missing == []


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, capsys):
    # a demo that imports a removed public name, or whose checks fail, raises here
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


def test_benchmark_selftest_passes():
    # the benchmark imports the program's API; a refactor that breaks it fails here
    root = pathlib.Path(__file__).parent.parent
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest: ok" in done.stdout
