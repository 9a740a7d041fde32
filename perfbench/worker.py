"""One workload iteration in a fresh process; started by run.py.

Usage (run.py builds this command line):

    python3 perfbench/worker.py --workload NAME --seed N --work-dir DIR \
        --result FILE --spawned-at T [--traced] [--setup-only]

The process generates the workload's inputs from the seed, runs the set-up
calls, then the timed ``pathineq.cli.main`` calls, then the output checks,
and writes a JSON record to ``--result``.  ``setup_s`` runs from
``--spawned-at`` (the parent's ``time.monotonic()`` just before it started
this process; the clock is system-wide) to the first timed call.  With
``--traced`` the span wrappers are installed from before input generation to
the end of the checks, each phase (setup, timed, checks) is a root span, and
the spans are written to the work directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _usage():
    """CPU seconds and peak RSS in KiB of this process and its waited-for children.

    Children count, so that work a change moves into subprocesses stays in the figures.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss)


def _run_checks(check):
    try:
        return [(name, bool(ok), str(detail)) for name, ok, detail in check()]
    except Exception:  # a crashing check is a failed check, reported with its traceback
        return [("checks", False, traceback.format_exc(limit=3))]


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import pathineq
    from pathineq.cli import main as cli_main

    if Path(pathineq.__file__).resolve().parent != (SRC / "pathineq").resolve():
        raise SystemExit(f"pathineq imported from {pathineq.__file__}, not {SRC}")

    from spans import SpanRecorder, Tracer
    from workloads import WORKLOADS

    work = Path(args.work_dir)
    recorder = tracer = None
    if args.traced:
        recorder = SpanRecorder(f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer = Tracer(recorder).install()

    ops = []

    def phase(name):
        return recorder.span(name) if recorder is not None else contextlib.nullcontext()

    with phase("setup"):
        plan = WORKLOADS[args.workload](args.seed, work)
        for call in plan.setup:
            rc = cli_main(call)
            ops.append((f"setup {call[0]}", rc == 0, f"exit {rc}"))
    t_first = time.monotonic()
    record = {"setup_s": t_first - args.spawned_at}

    if not args.setup_only:
        cli_wall = {}
        cpu0, _ = _usage()
        w0 = time.perf_counter()
        with phase("timed"):
            for command, call in plan.timed:
                t = time.perf_counter()
                rc = cli_main(call)
                cli_wall[command] = cli_wall.get(command, 0.0) + time.perf_counter() - t
                ops.append((command, rc == 0, f"exit {rc}"))
        wall = time.perf_counter() - w0
        cpu, peak_kb = _usage()
        cpu -= cpu0
        if all(ok for _, ok, _ in ops):
            with phase("checks"):
                ops += _run_checks(plan.check)
        record.update(
            wall_s=wall,
            cpu_s=cpu,
            items=plan.items,
            peak_rss_mb=peak_kb / 1024.0,
            cli_wall_s=cli_wall,
        )
    if tracer is not None:
        tracer.restore()
        recorder.write(work / "spans.npz")

    record["ops"] = ops
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
