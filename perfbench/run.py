"""Benchmark for recourseplan: end-to-end and per-layer figures per workload.

Run from the repository root::

    python3 perfbench/run.py                      # every workload in turn, untraced
    python3 perfbench/run.py --workload plan-8x5 --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload certify-cli --trace 1
    python3 perfbench/selftest.py                 # checks the harness itself

One process, one thread, a closed loop with one client: instances go to the
program one at a time, each a fresh input made during set-up.  ``--seed``
is the base of the workload's contiguous block of generator seeds.  Each
block has a fixed number of seeds (``workloads.py``), so the inputs depend
on ``--seed`` alone; on a 2-vCPU VM a run takes 13-45 s.  ``--seconds`` is
accepted for a uniform command line and changes nothing.  After the timed
loop every verdict is checked against a reference answer (``gate.py``).
With ``--workload all`` the workloads share one process, so later ones meet
the rule caches the earlier ones filled and the peak RSS covers all of them
so far; each workload on its own is the measured configuration, and
BENCHMARK.json lists the ones that are measured run after run.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each
instance traced and reports the per-layer metrics and the tracing overhead
(``harness.py``).  A human-readable report comes first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` (wrong verdicts plus failed operations) and ``metrics``.  Spans,
per-instance outcomes and the run record go to ``perfbench/out/``.

Exit status: 0 when every verdict checks out, 1 on a wrong verdict or a
failed operation, 2 on bad arguments or when ``src/recourseplan`` is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("plan-8x5", "wide-12x6", "certify-cli")


def load_program() -> bool:
    """Put the checkout's ``src`` first on the import path, if it holds the program."""
    src = ROOT / "src"
    if not (src / "recourseplan" / "__init__.py").is_file():
        return False
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0, help="base generator seed of the block")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="accepted and ignored: the blocks are fixed in size")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not load_program():
        print(f"error: no program at {ROOT / 'src' / 'recourseplan'}", file=sys.stderr)
        return 2
    import harness  # imports the program, so only after load_program

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        line = harness.run_workload(name, args.seed, bool(args.trace))
        ok = ok and line["correct"]
        print(json.dumps(line), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
