"""Benchmark of the pathineq loop-space chain, estimators and transfer engine.

Run from the repository root:

    python3 perfbench/run.py --workload loop_h3 --seed 20090 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Workloads: loop_h3, loop_h2, estimate, certify (see workloads.py and
README.md).  Every iteration runs in a fresh worker process (worker.py) with
its own scratch directory under ``.perfbench_tmp/``, removed when the
iteration ends.

``--trace 0`` starts iterations until ``--seconds`` have passed (at least
one), plus set-up-only iterations until set-up was measured five times, and
reports the end-to-end metrics as medians over iterations.  ``--trace 1`` runs
a traced iteration between two plain ones and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric by name and unit, and the machine and versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = ROOT / ".perfbench_tmp"

WORKLOADS = ("loop_h3", "loop_h2", "estimate", "certify")
DEFAULT_SEED = 20090
HELD_OUT_SEED = 53077  # for rechecking a claim on a seed not used while developing it
MIN_SETUPS = 5
RUN_BUDGET_S = 165.0  # a run must end within 180 s

PROCESS_METRICS = (
    "cli.sample.wall_s",
    "cli.estimate.wall_s",
    "cli.transfer.wall_s",
    "cpu_s",
    "cpu_util",
    "trace.overhead_s",
    "fail_frac",
)
END_TO_END_UNITS = {"wall_s": "s", "items_per_s": "items/s", "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def per_layer_unit(name):
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls"):
        return "count"
    last = name.rsplit(".", 1)[-1]
    if last in ("points", "normals", "radii", "bytes"):
        return last
    return "ratio"


def nproc():
    return len(os.sched_getaffinity(0))


def child_env(run_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(run_dir)
    env.pop("PATHINEQ_OUT", None)
    cap = nproc()
    for var in THREAD_VARS:
        current = env.get(var, "")
        env[var] = str(min(int(current), cap)) if current.isdigit() and int(current) > 0 else str(cap)
    return env


def environment():
    import numpy
    import scipy

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu_model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = read(index / "size")
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = out.stdout.strip() or None
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model,
        "l2_cache": caches.get("l2"),
        "l3_cache": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


class Run:
    """Worker processes of one workload run and the operations they counted."""

    def __init__(self, workload, seed, run_dir, deadline):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = child_env(run_dir)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._k = 0

    def spawn(self, traced=False, setup_only=False):
        """One worker iteration; returns its record (with spans), or None."""
        self._k += 1
        work = self.run_dir / f"i{self._k}"
        work.mkdir()
        result = work / "result.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--work-dir", str(work),
            "--result", str(result),
        ]
        cmd += ["--traced"] * traced + ["--setup-only"] * setup_only
        try:
            timeout = max(1.0, self.deadline - time.monotonic())
            cmd += ["--spawned-at", repr(time.monotonic())]
            proc = subprocess.run(
                cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=timeout,
            )
            if proc.returncode != 0 or not result.exists():
                return self._fail(f"worker exited {proc.returncode}: {proc.stderr[-3000:]}")
            with open(result) as fh:
                record = json.load(fh)
            if traced:
                from spans import load_spans

                record["spans"] = load_spans(work / "spans.npz")
        except subprocess.TimeoutExpired:
            return self._fail("worker timed out")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for name, ok, detail in record["ops"]:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(f"{name}: {detail}")
        return record

    def _fail(self, why):
        self.attempted += 1
        self.failed += 1
        self.failures.append(why)
        return None


def end_to_end(run, seconds):
    full = []
    t0 = time.monotonic()
    while True:
        start = time.monotonic()
        record = run.spawn()
        if record is not None:
            full.append(record)
        now = time.monotonic()
        if now - t0 >= seconds or now + (now - start) > run.deadline:
            break
    if not full:
        return None
    setups = [r["setup_s"] for r in full]
    while len(setups) < MIN_SETUPS and time.monotonic() + 2 * max(setups) < run.deadline:
        record = run.spawn(setup_only=True)
        if record is not None:
            setups.append(record["setup_s"])
    med = statistics.median
    return {
        "wall_s": med(r["wall_s"] for r in full),
        "items_per_s": med(r["items"] / r["wall_s"] for r in full),
        "setup_s": med(setups),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in full),
    }


def per_layer(run):
    """A traced iteration between two plain ones; the plain figures are their medians."""
    from spans import summarize

    before = run.spawn()
    traced = run.spawn(traced=True)
    after = run.spawn()
    if before is None or traced is None or after is None:
        return None
    plain = (before, after)
    med = statistics.median
    m = summarize(traced["spans"])
    for command in ("sample", "estimate", "transfer"):
        m[f"cli.{command}.wall_s"] = med(r["cli_wall_s"].get(command, 0.0) for r in plain)
    m["cpu_s"] = med(r["cpu_s"] for r in plain)
    m["cpu_util"] = med(r["cpu_s"] / r["wall_s"] for r in plain)
    m["trace.overhead_s"] = traced["wall_s"] - med(r["wall_s"] for r in plain)
    m["fail_frac"] = run.failed / run.attempted
    return m


def run_workload(workload, seed, seconds, trace):
    run_dir = TMP / f"{workload}-{seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    run = Run(workload, seed, run_dir, time.monotonic() + RUN_BUDGET_S)
    try:
        metrics = per_layer(run) if trace else end_to_end(run, seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass  # another run still uses it
    for why in run.failures:
        print(f"{workload} FAILED {why}", file=sys.stderr)
    return metrics, run


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "pathineq" / "__init__.py").is_file():
        print(f"error: no pathineq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(), sort_keys=True))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        metrics, run = run_workload(workload, args.seed, args.seconds, args.trace)
        if metrics is None:
            print(f"error: {workload}: no iteration completed", file=sys.stderr)
            return 1
        out["attempted"] += run.attempted
        out["failed"] += run.failed
        prefix = f"{workload}." if len(names) > 1 else ""
        for name, value in metrics.items():
            unit = per_layer_unit(name) if args.trace else END_TO_END_UNITS[name]
            print(f"{workload:9s} {name:40s} {value:14.6g} {unit}")
            out["metrics"][prefix + name] = {"value": value, "unit": unit}
        if not args.trace:
            print(f"{workload:9s} {'fail_frac':40s} {run.failed / run.attempted:14.6g} ratio")
    out["correct"] = out["failed"] == 0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
