"""The benchmark's workloads and the per-instance wall-clock limit.

A workload is a contiguous block of generator seeds that starts at the base
seed.  Set-up turns the block into program inputs before any timing; the
timed operation hands one input to the program and returns its raw result;
``summarize`` reduces that result, outside the timed region, to what the
correctness gate needs.
"""

from __future__ import annotations

import io
import json
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from recourseplan import cli, dsl, generate, ingest, planner
from recourseplan.domains import State
from recourseplan.rules import ProblemSpec

DECIDED = ("success", "failure")
UNDECIDED = ("timeout", "budget-exhausted")


class InstanceTimeout(BaseException):
    """Raised by the alarm when an instance runs past the per-instance limit.

    Derived from ``BaseException`` so that no ``except Exception`` inside the
    program under test can swallow it.
    """


def _on_alarm(signum, frame):
    raise InstanceTimeout()


@dataclass
class Timed:
    """One call made under the limit."""

    value: Any
    elapsed: float
    timed_out: bool = False
    error: Optional[str] = None


def run_limited(fn: Callable[[], Any], limit: float) -> Timed:
    """Call ``fn`` with a wall-clock limit; only the call itself is timed."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        start = time.perf_counter()
        try:
            value = fn()
            elapsed = time.perf_counter() - start
        except InstanceTimeout:
            return Timed(None, time.perf_counter() - start, timed_out=True)
        except Exception as exc:  # the program failed on this input: a failed operation
            return Timed(None, time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return Timed(value, elapsed)
    except InstanceTimeout:
        # the alarm landed between the call returning and the timer being cleared
        return Timed(None, limit, timed_out=True)
    finally:
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Instance:
    """One program input."""

    label: str
    seed: Optional[int]
    problem: Optional[ProblemSpec] = None   # plan workloads: the input itself
    argv: tuple[str, ...] = ()              # certify-cli: the command line
    text: str = ""                          # certify-cli: the .rp text of a seed
    file: str = ""                          # certify-cli: where argv expects that text
    scenario: str = ""                      # certify-cli: a bundled scenario's name

    def reference_problem(self) -> ProblemSpec:
        """The problem as the program sees it, made on first use.

        For certify-cli this parses the text (or loads the scenario) after the
        program has, so the harness's copy never seeds the program's rule caches.
        """
        if self.problem is None:
            self.problem = (ingest.builtin_scenario(self.scenario).problem if self.scenario
                            else dsl.parse_problem(self.text))
        return self.problem


@dataclass
class Outcome:
    """What one timed run of an instance produced."""

    instance: Instance
    status: str                    # success | failure | budget-exhausted | timeout | error
    elapsed: float
    path: Optional[tuple[State, ...]] = None
    record: Optional[dict] = None  # certify-cli structured output
    detail: str = ""

    @property
    def decided(self) -> bool:
        return self.status in DECIDED


def _summarize_plan(inst: Instance, timed: Timed) -> Outcome:
    if timed.timed_out:
        return Outcome(inst, "timeout", timed.elapsed)
    if timed.error is not None:
        return Outcome(inst, "error", timed.elapsed, detail=timed.error)
    trace = timed.value
    path = planner.extract_candidate_path(trace).states if trace.status == "success" else None
    return Outcome(inst, trace.status, timed.elapsed, path=path)


def _summarize_cli(inst: Instance, timed: Timed) -> Outcome:
    if timed.timed_out:
        return Outcome(inst, "timeout", timed.elapsed)
    if timed.error is not None:
        return Outcome(inst, "error", timed.elapsed, detail=timed.error)
    code, stdout, stderr = timed.value
    record = json.loads(stdout) if stdout.strip() else None
    if record is not None:
        # a record means planning succeeded; exit 0 or 2 then carries the oracle's
        # verdict on the path, which the gate checks through ``overall``
        status = "success" if code in (cli.EXIT_OK, cli.EXIT_FAILURE) else "error"
    elif code == cli.EXIT_FAILURE:
        status = "failure"
    elif code == cli.EXIT_BUDGET:
        status = "budget-exhausted"
    else:
        status = "error"
    detail = stderr.strip() if status == "error" else ""
    return Outcome(inst, status, timed.elapsed, record=record, detail=detail)


def _plan_op(inst: Instance):
    return planner.get_path(inst.problem)


def _cli_op(inst: Instance):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(list(inst.argv), out, err)
    return code, out.getvalue(), err.getvalue()


def _random_block(base: int, count: int, params: dict) -> tuple[list[tuple[int, ProblemSpec]], float]:
    problems, gen_s = [], 0.0
    for seed in range(base, base + count):
        start = time.perf_counter()
        problem = generate.random_problem(seed, **params)
        gen_s += time.perf_counter() - start
        problems.append((seed, problem))
    return problems, gen_s


def _plan_setup(params: dict):
    def setup(base: int, count: int, workdir: str) -> tuple[list[Instance], float]:
        problems, gen_s = _random_block(base, count, params)
        return [Instance(f"seed {seed}", seed, problem=p) for seed, p in problems], gen_s
    return setup


CERTIFY_PARAMS = {"max_features": 10, "max_values": 6}


def _certify_setup(base: int, count: int, workdir: str) -> tuple[list[Instance], float]:
    instances = [Instance(f"scenario {name}", None,
                          argv=("validate", "--scenario", name, "--format", "structured"),
                          scenario=name)
                 for name in ingest.SCENARIO_NAMES]
    problems, gen_s = _random_block(base, count, CERTIFY_PARAMS)
    for seed, problem in problems:
        file = os.path.relpath(os.path.join(workdir, f"seed-{seed}.rp"))
        instances.append(Instance(f"seed {seed}", seed, text=dsl.pretty_print(problem), file=file,
                                  argv=("validate", "--file", file, "--format", "structured")))
    return instances, gen_s


def write_inputs(instances: list[Instance]) -> None:
    """Write the .rp files the command lines name (outside the timed set-up:
    file writes made its time spread 30% between runs)."""
    for inst in instances:
        if inst.file:
            with open(inst.file, "w", encoding="utf-8") as handle:
                handle.write(inst.text)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "plan": get_path on ProblemSpecs; "cli": cli.main on .rp files
    count: int                     # generator seeds in the block
    limit_s: float                 # per-instance wall-clock limit
    passes: int                    # timed passes over the decided instances (harness.py)
    setup: Callable[[int, int, str], tuple[list[Instance], float]]

    def op(self, inst: Instance):
        return _plan_op(inst) if self.kind == "plan" else _cli_op(inst)

    def summarize(self, inst: Instance, timed: Timed) -> Outcome:
        return _summarize_plan(inst, timed) if self.kind == "plan" else _summarize_cli(inst, timed)


# Each limit sits in the widest gap of the workload's measured per-instance
# times over the blocks of base seeds 0-10 (2-vCPU x86 VM; one instance's
# first call varies by up to 2x between runs): plan-8x5 decides seeds 0-379
# within 0.6 s while seed 111 needs 1.7-3.2 s; wide-12x6 decides seeds 0-129
# within 1.35 s while seed 118 needs about 3.0 s; certify-cli ends seeds
# 0-130 within 0.22 s in a benchmark run (0.31 s at worst), or needs 0.42 s
# and more.
# The blocks are fixed in size, so the inputs depend on the base seed alone.
# On that VM a whole run takes about 20-30 s (plan-8x5), 13-17 s
# (certify-cli) and 45 s (wide-12x6).  wide-12x6 is not in BENCHMARK.json:
# the whole set of benchmark runs has to fit a time budget that leaves no
# room for it, and its p50 moved 27% between neighbouring base seeds in a
# block small enough to fit.  BENCHMARK.json says why each of the others was
# chosen.
WORKLOADS = {
    w.name: w for w in (
        Workload("plan-8x5", "plan", 350, 0.9, 3,
                 _plan_setup({"max_features": 8, "max_values": 5})),
        Workload("wide-12x6", "plan", 100, 2.0, 5,
                 _plan_setup({"max_features": 12, "max_values": 6, "max_causal": 10})),
        Workload("certify-cli", "cli", 120, 0.35, 3, _certify_setup),
    )
}
