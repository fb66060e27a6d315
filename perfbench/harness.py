"""Measurement, metrics and report of one workload run.

Untraced runs (``--trace 0``) set up the block ``SETUP_REPEATS`` times and
time the first set.  The first set is the one the program's rule caches were
filled from, as for a caller that makes each input once; later sets are
equal in value, and a cache hit on an equal but different key pays a deep
equality test on every call (passes over fresh copies of plan-8x5 ran about
1.5x slower).  Each decided instance is timed in several passes over the
same inputs (``Workload.passes``) and its fastest call kept: on the 2-vCPU
VM the benchmark was tuned on, the host slows a process by up to 2x for
stretches of a fraction of a second to a whole run, and single-pass figures
spread 12-25% from run to run.  A plan workload's repeat does the same work
on the same objects.  A certify-cli repeat parses the same text afresh and
meets rule caches that hold equal rules, which made its median call about
1.3x slower than the first pass; so the fastest call is mostly the first,
and the repeats replace the ones the host slowed (over ten runs, three
passes cut the p50's spread from 8% to 5%).

The end-to-end times are scaled to a reference host speed.  On that host
the CPU time of a fixed piece of work (not only its wall time) changes in
the same way, and even the fastest of several passes spreads 12-40% between
runs of neighbouring blocks.  A fixed pure-Python kernel is timed before
every set-up and every timed call, and each of those times is multiplied by
``CALIBRATION_REF_S`` over the median of the ``CALIBRATION_WINDOW`` kernel
times centred on it.  Over five runs each, this cut the spread of
decided_per_s and of the p50 from 12-22% to 6-8% on plan-8x5 and wide-12x6;
one factor per run, or a window of one, did no better than no scaling.  The
kernel's times go to the run record in ``perfbench/out/``.  Per-layer times
are not scaled.

Traced runs (``--trace 1``) set up once and make one pass.  Per instance: a
traced call, a separate traced ``build_actions`` call, then an untraced and
a traced call in alternating order.  The first call meets the rule caches as
a batch caller leaves them, so the per-layer figures and cache counters come
from it; the last two both find the instance warm, and their difference is
the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from recourseplan.actions import build_actions
from recourseplan.rules import compile_rule, literal_support

from gate import check
from tracing import Tracer
from workloads import UNDECIDED, WORKLOADS, Outcome, run_limited, write_inputs

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 15
CALIBRATION_REF_S = 0.0002   # about the kernel's time on the 2-vCPU VM in a fast stretch
CALIBRATION_WINDOW = 5
TAIL_BEYOND = 10

# (name, unit) of the metrics on the JSON line, as listed in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s"),
    ("decided_per_s", "1/s"),
    ("verdict_ms.p50", "ms"),
)
PER_LAYER = (
    ("actions.build_s", "s"),
    ("actions.count", "count"),
    ("actions.causal_count", "count"),
    ("planner.get_path_s", "s"),
    ("planner.search_s", "s"),
    ("planner.expansions", "count"),
    ("planner.trace_entries", "count"),
    ("planner.inconsistent_entries", "count"),
    ("planner.us_per_expansion", "us"),
    ("oracle.states_enumerated", "count"),
    ("oracle.liberal_divergent", "count"),
    ("rules.compile_calls", "count"),
    ("rules.compile_hit_ratio", "ratio"),
    ("rules.compile_cache_entries", "count"),
    ("rules.literal_support_cache_entries", "count"),
    ("cli.output_bytes", "bytes"),
    ("generate.random_problem_s", "s"),
    ("domains.state_space_total", "count"),
)
# Printed but not on the JSON line.  The counts read zero on some runs and the
# per-layer times on some workloads by construction (a time that is always
# zero is not a measurement).  The tail and peak RSS spread 25-40% between
# runs of neighbouring base seeds: the tail is the 11th-slowest of about a
# hundred instances and moves a whole rank when one heavy seed enters or
# leaves the block, and certify-cli's peak RSS came out at either about 31 or
# about 44 MB with the same seeds timing out.
REPORT_ONLY = {
    0: (("verdict_ms.tail", "ms"), ("peak_rss_mb", "MB"), ("undecided", "count"),
        ("wrong_verdicts", "count"), ("failed_ratio", "ratio")),
    1: (("oracle.validate_s", "s"), ("oracle.state_set_report_s", "s"),
        ("oracle.us_per_state", "us"), ("dsl.parse_s", "s"),
        ("ingest.builtin_scenario_s", "s"), ("cli.self_s", "s")),
}


def commit_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def tail(sorted_ms: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile (one decimal, nearest rank) with at least
    ``TAIL_BEYOND`` samples beyond it: (value, percentile, samples beyond)."""
    n = len(sorted_ms)
    if n <= TAIL_BEYOND:
        return sorted_ms[-1], 100.0, 0
    pct10 = 1000 * (n - TAIL_BEYOND) // n
    rank = -(-pct10 * n // 1000)
    return sorted_ms[rank - 1], pct10 / 10, n - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# Built once and small: the kernel allocates no container, so it never sets
# off a garbage collection (whose cost grows with the program's heap, not with
# the host's speed), and its data is small enough to stay in the CPU caches.
_CALIBRATION_KEYS = [(i, (1, 2, 3)) for i in range(32)]


def _calibration_kernel() -> None:
    table: dict = {}
    for _ in range(47):
        for k in _CALIBRATION_KEYS:
            table[k] = table.get(k, 0) + 1


class SpeedProbe:
    """Tracks host speed by timing a fixed kernel between the measured calls."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> int:
        """Time the kernel once; return the sample's index."""
        start = time.perf_counter()
        _calibration_kernel()
        self.samples.append(time.perf_counter() - start)
        return len(self.samples) - 1

    def scale(self, k: int) -> float:
        """Factor that turns a time measured just after sample ``k`` into one
        at reference speed; it uses later samples too, so ask once the run is over."""
        lo = max(0, k - CALIBRATION_WINDOW // 2)
        return CALIBRATION_REF_S / statistics.median(self.samples[lo:lo + CALIBRATION_WINDOW])


def set_up(workload, base, count, workdir):
    """Make the block's inputs: (instances, set-up seconds, generator seconds)."""
    start = time.perf_counter()
    instances, generate_s = workload.setup(base, count, workdir)
    setup_s = time.perf_counter() - start
    gc.collect()  # set-up garbage is not the program's to collect
    return instances, setup_s, generate_s


def untraced_pass(workload, base, count, workdir, probe):
    """Outcomes (elapsed: the fastest pass, unscaled), the scaled seconds of
    the decided instances (the fastest pass) and of each set-up, and the peak
    RSS of the timed part."""
    setups, instances = [], None   # setups: (seconds, kernel sample before it)
    for _ in range(SETUP_REPEATS):
        k = probe.sample()
        made, setup_s, _ = set_up(workload, base, count, workdir)
        setups.append((setup_s, k))
        instances = instances or made
    write_inputs(instances)
    calls: dict[int, list] = {}    # instance index -> [(seconds, kernel sample)] of decided calls

    def timed(i, inst):
        k = probe.sample()
        outcome = workload.summarize(inst, run_limited(lambda: workload.op(inst), workload.limit_s))
        if outcome.decided:
            calls.setdefault(i, []).append((outcome.elapsed, k))
        return outcome

    outcomes = [timed(i, inst) for i, inst in enumerate(instances)]
    for p in range(1, workload.passes):
        for i, first in enumerate(outcomes):
            if not first.decided:
                continue
            again = timed(i, first.instance)
            if again.status == "error" or (again.decided and again.status != first.status):
                outcomes[i] = Outcome(first.instance, "error", first.elapsed, detail=(
                    f"pass {p + 1} gave {again.status} after {first.status} {again.detail}"))
            elif again.decided:
                first.elapsed = min(first.elapsed, again.elapsed)
    scaled = [min(t * probe.scale(k) for t, k in calls[i])
              for i, o in enumerate(outcomes) if o.decided]
    return outcomes, scaled, [t * probe.scale(k) for t, k in setups], peak_rss_mb()


def traced_pass(workload, base, count, workdir, tracer):
    """Traced outcomes, (traced, untraced) seconds of the warm pairs, generator seconds."""
    root = "planner.get_path" if workload.kind == "plan" else "cli.main"

    def traced(inst):
        if workload.kind == "plan":
            return run_limited(lambda: tracer.call(root, workload.op, inst), workload.limit_s)
        with tracer.cli_layers():
            return run_limited(lambda: tracer.call(root, workload.op, inst), workload.limit_s)

    def untraced(inst):
        return run_limited(lambda: workload.op(inst), workload.limit_s)

    instances, _, generate_s = set_up(workload, base, count, workdir)
    write_inputs(instances)
    outcomes, pairs = [], []
    for k, inst in enumerate(instances):
        tracer.instance = inst.label
        outcome = workload.summarize(inst, traced(inst))
        outcomes.append(outcome)
        if not outcome.decided:
            continue
        problem = inst.reference_problem()
        run_limited(lambda: tracer.call("actions.build_actions", build_actions, problem),
                    workload.limit_s)
        tracer.instance = f"{inst.label} (overhead)"
        if k % 2:
            plain, again = untraced(inst), traced(inst)
        else:
            again, plain = traced(inst), untraced(inst)
        if not (again.timed_out or plain.timed_out or again.error or plain.error):
            pairs.append((again.elapsed, plain.elapsed))
    return outcomes, pairs, generate_s


def latency(seconds: list[float]) -> tuple[dict, str]:
    ms = sorted(t * 1000 for t in seconds)
    value, pct, beyond = tail(ms)
    return ({"decided_per_s": len(ms) / sum(seconds), "verdict_ms.p50": statistics.median(ms),
             "verdict_ms.tail": value}, f"p{pct:g}, {len(ms)} decided, {beyond} beyond")


def end_to_end(outcomes, scaled_s, setup_samples, rss_mb, gate) -> dict:
    undecided = sum(1 for o in outcomes if o.status in UNDECIDED)
    wrong = len({label for label, _ in gate.wrong})
    metrics, note = latency(scaled_s)
    metrics.update({
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": rss_mb,
        "undecided": undecided,
        "wrong_verdicts": wrong,
        "failed_ratio": (undecided + wrong) / len(outcomes),
        "tail_note": note,
    })
    return metrics


def per_layer(outcomes, tracer, generate_s) -> dict:
    decided = {o.instance.label for o in outcomes if o.decided}
    times = tracer.layer_times(decided)
    counts = tracer.total_counts(decided)

    def total(name):
        return times[name]["total_s"] if name in times else 0.0

    # rule compilations made by the program itself, not by the separate build_actions call
    roots = [s for s in tracer.spans if s.instance in decided and s.parent is None
             and s.name in ("planner.get_path", "cli.main")]
    hits = sum(s.compile_hits for s in roots)
    calls = hits + sum(s.compile_misses for s in roots)
    search_s = total("planner.get_path") - total("actions.build_actions")
    states = counts["oracle.states_enumerated"]
    return {
        "actions.build_s": total("actions.build_actions"),
        "actions.count": counts["actions.count"],
        "actions.causal_count": counts["actions.causal_count"],
        "planner.get_path_s": total("planner.get_path"),
        "planner.search_s": search_s,
        "planner.expansions": counts["planner.expansions"],
        "planner.trace_entries": counts["planner.trace_entries"],
        "planner.inconsistent_entries": counts["planner.inconsistent_entries"],
        "planner.us_per_expansion": search_s * 1e6 / max(1, counts["planner.expansions"]),
        "oracle.validate_s": total("oracle.validate_solution_path"),
        "oracle.state_set_report_s": total("oracle.state_set_report"),
        "oracle.states_enumerated": states,
        "oracle.us_per_state": total("oracle.state_set_report") * 1e6 / states if states else 0.0,
        "oracle.liberal_divergent": counts["oracle.liberal_divergent"],
        "rules.compile_calls": calls,
        "rules.compile_hit_ratio": hits / calls if calls else 0.0,
        "rules.compile_cache_entries": compile_rule.cache_info().currsize,
        "rules.literal_support_cache_entries": literal_support.cache_info().currsize,
        "dsl.parse_s": total("dsl.parse_problem"),
        "ingest.builtin_scenario_s": total("ingest.builtin_scenario"),
        "cli.self_s": times["cli.main"]["self_s"] if "cli.main" in times else 0.0,
        "cli.output_bytes": counts["cli.output_bytes"],
        "generate.random_problem_s": generate_s,
        "domains.state_space_total": sum(o.instance.reference_problem().state_count
                                         for o in outcomes),
    }


def run_workload(name: str, base: int, trace: bool, count: int = 0) -> dict:
    """Measure one workload, check its verdicts, print the report; return the JSON line.

    ``count`` overrides the workload's block size (the self-test runs small blocks).
    """
    workload = WORKLOADS[name]
    count = count or workload.count
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT_DIR)
    tracer = Tracer() if trace else None
    probe = SpeedProbe()
    try:
        start = time.perf_counter()
        if trace:
            outcomes, pairs, generate_s = traced_pass(workload, base, count, workdir, tracer)
            # before the gate, whose reference searches also fill the rule caches
            metrics = per_layer(outcomes, tracer, generate_s)
        else:
            outcomes, scaled_s, setup_samples, rss_mb = untraced_pass(
                workload, base, count, workdir, probe)
        loop_s = time.perf_counter() - start
        start = time.perf_counter()
        gate = check(outcomes, workload.limit_s)
        check_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not any(o.decided for o in outcomes):
        raise SystemExit(f"error: no instance of {name} reached a verdict; widen the block")
    record = {
        "workload": name,
        "commit": commit_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "base_seed": base,
        "generator_seeds": [base, base + count - 1],
        "instances": len(outcomes),
        "limit_s": workload.limit_s,
        "trace": int(trace),
        "passes": 1 if trace else workload.passes,
        "loop_s": round(loop_s, 3),
        "check_s": round(check_s, 3),
    }
    dump = {"record": record}
    if trace:
        dump.update(overhead_pairs_s=pairs, spans=tracer.to_json())
    else:
        metrics = end_to_end(outcomes, scaled_s, setup_samples, rss_mb, gate)
        dump.update(setup_samples_s=setup_samples, calibration_s=probe.samples,
                    calibration_ref_s=CALIBRATION_REF_S)
    listed = PER_LAYER if trace else END_TO_END
    print_report(record, outcomes, gate, metrics, listed + REPORT_ONLY[int(trace)])
    if trace:
        print_spans(tracer, {o.instance.label for o in outcomes if o.decided}, pairs)
    # elapsed: unscaled seconds (the fastest pass of a plan workload)
    dump.update(metrics=metrics, wrong=gate.wrong, errors=gate.errors, unknown=gate.unknown,
                instances=[(o.instance.label, o.status, o.elapsed) for o in outcomes])
    path = OUT_DIR / f"{name}-seed{base}-trace{int(trace)}.json"
    path.write_text(json.dumps(dump) + "\n", encoding="utf-8")
    print(f"record written to {path.relative_to(ROOT)}")
    return {
        "correct": gate.correct,
        "attempted": len(outcomes),
        "failed": len({label for label, _ in gate.wrong}) + len(gate.errors),
        "metrics": {n: {"value": metrics[n], "unit": unit} for n, unit in listed},
    }


def seeds_with(outcomes: list[Outcome], status: str) -> list:
    return [o.instance.seed if o.instance.seed is not None else o.instance.label
            for o in outcomes if o.status == status]


def print_report(record, outcomes, gate, metrics, shown):
    statuses = ("success", "failure", "budget-exhausted", "timeout", "error")
    print(f"== {record['workload']}  "
          + "  ".join(f"{k}={v}" for k, v in record.items() if k != "workload"))
    print("outcomes: " + "  ".join(f"{s}={sum(o.status == s for o in outcomes)}"
                                   for s in statuses))
    for status in ("timeout", "budget-exhausted", "error"):
        seeds = seeds_with(outcomes, status)
        if seeds:
            print(f"  {status}: seeds {', '.join(map(str, seeds))}")
    print(f"reference answers: reachable={gate.reachable} unreachable={gate.unreachable} "
          f"unknown={len(gate.unknown)}")
    for label, cause in gate.unknown:
        print(f"  unknown ({cause}): {label}")
    for label, reason in gate.wrong:
        print(f"  WRONG VERDICT {label}: {reason}")
    for label, reason in gate.errors:
        print(f"  FAILED OPERATION {label}: {reason}")
    print("per-layer metrics (decided instances):" if record["trace"]
          else "end-to-end metrics (times at reference speed; latency over decided instances):")
    for name, unit in shown:
        note = f"  ({metrics['tail_note']})" if name == "verdict_ms.tail" else ""
        print(f"  {name:38s} {metrics[name]:>14.6g} {unit}{note}")


def print_spans(tracer, decided, pairs):
    print("spans (decided instances): calls, total s, self s")
    for name, row in sorted(tracer.layer_times(decided).items()):
        print(f"  {name:34s} {row['calls']:>7d} {row['total_s']:>12.6f} {row['self_s']:>12.6f}")
    traced = sum(t for t, _ in pairs)
    untraced = sum(u for _, u in pairs)
    if untraced:
        print(f"tracing overhead: {100 * (traced - untraced) / untraced:+.2f}% "
              f"(traced {traced:.4f} s vs untraced {untraced:.4f} s, {len(pairs)} warm pairs)")
