"""Measure the benchmark's baseline: repeated runs, cross-seed runs and traced runs.

    python3 perfbench/campaign.py --out perfbench/baseline.json

A fixed procedure.  For k = 1..10 it runs every workload twice with
``run.py --trace 0 --seconds <run_seconds of BENCHMARK.json>``: once at the
default seed (the *repeat* set, which is the baseline) and once at seed k (the
*seeds* set, as a check that the figures do not hang on one seed's inputs).
Cycling through the workloads and alternating the two sets lets slow drift of
the machine reach all of them alike.  For each set and end-to-end metric it
records the values, the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median; and
for each metric how much worse the seeds median is than the repeat median, as
a share of the repeat median, next to the metric's bound.  It then makes two
traced runs per workload at the default seed, records the per-layer metrics of
the first, and whether the count metrics of both repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, ROOT, WORKLOADS, environment  # noqa: E402

RUNS = 10
CROSS_SEEDS = range(1, RUNS + 1)
TRACED_RUNS = 2
COUNT_UNITS = {"count", "points", "normals", "radii", "bytes"}


def bench(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stderr, end="", flush=True)
    return result


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def summarize_set(results):
    return {
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "end_to_end": {
            name: quartiles([r["metrics"][name]["value"] for r in results]) for name in results[0]["metrics"]
        },
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", default=None, help="write the summary to this JSON file")
    args = p.parse_args(argv)

    bench_def = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench_def["run_seconds"]
    metric_defs = {m["name"]: m for m in bench_def["end_to_end"]}

    raw = {w: {"repeat": [], "seeds": []} for w in WORKLOADS}
    for seed in CROSS_SEEDS:
        for w in WORKLOADS:
            for label, s in (("repeat", DEFAULT_SEED), ("seeds", seed)):
                result = bench(w, s, seconds, 0)
                raw[w][label].append(result)
                values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"{w} {label} seed={s} correct={result['correct']} {values}", flush=True)

    summary = {
        "env": environment(),
        "seconds": seconds,
        "repeat_seed": DEFAULT_SEED,
        "cross_seeds": list(CROSS_SEEDS),
        "workloads": {},
    }
    for w, sets in raw.items():
        entry = {label: summarize_set(results) for label, results in sets.items()}
        agreement = {}
        for name, d in metric_defs.items():
            base = entry["repeat"]["end_to_end"][name]["median"]
            other = entry["seeds"]["end_to_end"][name]["median"]
            worse = (other - base) / base if d["better"] == "lower" else (base - other) / base
            agreement[name] = {"worse_by": worse, "bound": d["bound"], "within_bound": worse <= d["bound"]}
        entry["agreement"] = agreement
        for label in ("repeat", "seeds"):
            for name, q in entry[label]["end_to_end"].items():
                print(
                    f"{w:9s} {label:6s} {name:12s} median={q['median']:.6g} q1={q['q1']:.6g} "
                    f"q3={q['q3']:.6g} spread={q['spread']:.4f}"
                )
        for name, a in agreement.items():
            print(f"{w:9s} seeds vs repeat {name:12s} worse_by={a['worse_by']:+.4f} bound={a['bound']}")

        traced = [bench(w, DEFAULT_SEED, seconds, 1) for _ in range(TRACED_RUNS)]
        counts = [{k: v["value"] for k, v in t["metrics"].items() if v["unit"] in COUNT_UNITS} for t in traced]
        entry["traced_seed"] = DEFAULT_SEED
        entry["counts_repeat"] = all(c == counts[0] for c in counts)
        entry["per_layer"] = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        print(f"{w:9s} traced runs={TRACED_RUNS} counts_repeat={entry['counts_repeat']}", flush=True)
        summary["workloads"][w] = entry

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
