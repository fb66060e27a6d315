"""Spans around calls into the program's layers, kept in memory.

A span records its name, start, end, parent span and instance, plus the rule
compilations made while it was open (hits and misses of
``compile_rule.cache_info()``).  Spans come from the benchmark's own code:
around the calls it makes itself, and around the calls ``cli.main`` makes
into other layers, by swapping wrappers into the module attributes the CLI
looks those functions up through.  Nothing inside the program is changed.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Optional

from recourseplan import cli, oracle, rules

# (module, attribute, span name) for each layer call cli.main makes
CLI_CALLS = (
    (cli, "parse_problem", "dsl.parse_problem"),
    (cli, "builtin_scenario", "ingest.builtin_scenario"),
    (cli, "get_path", "planner.get_path"),
    (oracle, "validate_solution_path", "oracle.validate_solution_path"),
    (oracle, "state_set_report", "oracle.state_set_report"),
)


@dataclass
class Span:
    id: int
    name: str
    instance: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    compile_hits: int = 0
    compile_misses: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _compile_counts() -> tuple[int, int]:
    info = rules.compile_rule.cache_info()
    return info.hits, info.misses


class Tracer:
    """Records spans and per-instance counts; writes nothing until asked."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.instance = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        hits, misses = _compile_counts()
        span = Span(len(self.spans), name, self.instance,
                    self._open[-1] if self._open else None, time.perf_counter())
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            now_hits, now_misses = _compile_counts()
            span.compile_hits, span.compile_misses = now_hits - hits, now_misses - misses
            self._open.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        with self.span(name):
            value = fn(*args, **kwargs)
        self._observe(name, value)
        return value

    def _observe(self, name: str, value: Any) -> None:
        counts = self.counts[self.instance]
        if name == "planner.get_path":
            counts["planner.expansions"] += value.expansions
            counts["planner.trace_entries"] += len(value.entries)
            counts["planner.inconsistent_entries"] += sum(
                1 for _, consistent in value.entry_records() if not consistent)
        elif name == "actions.build_actions":
            counts["actions.count"] += len(value)
            counts["actions.causal_count"] += sum(1 for a in value if a.kind == "causal")
        elif name == "oracle.validate_solution_path":
            counts["oracle.liberal_divergent"] += int(value.liberal_divergence)
        elif name == "oracle.state_set_report":
            counts["oracle.states_enumerated"] += value.total_states
        elif name == "cli.main":
            counts["cli.output_bytes"] += len(value[1].encode("utf-8"))

    @contextmanager
    def cli_layers(self):
        """Trace the layer calls made by ``cli.main`` while the block is open."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in CLI_CALLS]
        for (module, attr, name), (_, _, original) in zip(CLI_CALLS, saved):
            setattr(module, attr, self._wrap(name, original))
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def layer_times(self, instances: set[str]) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds over the given instances.

        Self time is a span's duration minus the time its child spans cover.
        """
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for s in self.spans:
            if s.instance in instances:
                row = out[s.name]
                row["calls"] += 1
                row["total_s"] += s.duration
                row["self_s"] += s.duration - child_time[s.id]
        return out

    def total_counts(self, instances: set[str]) -> dict[str, int]:
        total: dict[str, int] = defaultdict(int)
        for inst in instances:
            for key, value in self.counts.get(inst, {}).items():
                total[key] += value
        return total

    def to_json(self) -> list[list]:
        return [[s.id, s.name, s.instance, s.parent, s.start, s.end, s.compile_hits, s.compile_misses]
                for s in self.spans]
