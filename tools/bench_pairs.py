"""Measurements for the BENCH_*.json files at the repository root.

Run from the repository root, with the commit to compare against checked out in ``../parent``:

    python3 tools/bench_pairs.py repeat --base ../parent --case flat --repeats 3 --into BENCH_repeat.json
    python3 tools/bench_pairs.py pairs --base ../parent --workload loop_h3 --seed 20090 --pairs 10 \\
        --into BENCH_repeat.json
    python3 tools/bench_pairs.py outputs --base ../parent --seed 20090 --into BENCH_repeat.json

``repeat`` runs one entry of ``CASES``.  Its ``setup(seed, tmp)`` runs here and returns the case's
variants, each a name and the arguments of its ``run``.  For each variant and repeat, ``run`` runs in a
fresh process per side (``repeat-side``), with pathineq from that side's checkout, the side that runs
first alternating, and returns a flat dict: its keys ending in ``sha256`` are digests, and its other
numbers are measurements.  The record gives, per variant, each side's digests and whether they agree
(one value per key over the repeats, the same on both sides), each measurement's median, quartiles and
runs per side, and the fields the case's ``compare`` draws from both sides' runs.

``pairs`` runs ``perfbench/run.py --trace 0 --seconds S``, S being ``run_seconds`` in ``BENCHMARK.json``,
in both checkouts, pair by pair, the side that runs first alternating.  It records every run's end-to-end
metrics with their medians and quartiles, the reason ``run.py`` gave for each failed operation, and for
each metric a verdict (``_verdict``): the pairs the change wins and loses, whether a claimed gain holds
and whether the change's median is worse than the base's by more than the metric's bound.

``outputs`` runs each workload of ``perfbench/workloads.py`` once per side, in a fresh
``perfbench/worker.py`` process and the same scratch directory.  It records the SHA-256 of every output
file but the ``*_report.json`` files (they hold timings) and of the list of check results, and lists the
files whose digests differ; each ``.pens`` file that differs is also said to hold equal or different
arrays, by its digest as its side's ``load_ensemble`` reads it (``_pens_sha256``, in the child
``pens-side``), so a change of the file format reads "arrays equal" where no array moved.

Each command stores its record under its own key in ``--into`` (created if missing), with the command
line (``--base`` shown as ``BASE``, ``--into`` by its file name), the machine, the package versions and
the load average before the first run and after the last.  The record is labelled by both checkouts'
commits as they were before its first run, and, where either moved or became dirty by the end of its
last run, by their commits then too (``commits_after``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("wall_s", "items_per_s", "setup_s", "peak_rss_mb")


def _commit(checkout):
    try:
        out = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty", "--abbrev=7"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _commits(base):
    return {"base": _commit(base), "change": _commit(ROOT)}


def _machine():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def _child(cmd, **kw):
    """The finished process of ``cmd``, its output captured; a nonzero exit raises with the child's stderr."""
    out = subprocess.run(cmd, capture_output=True, text=True, **kw)
    if out.returncode:
        raise RuntimeError(f"{' '.join(cmd)} exited with {out.returncode}; its stderr:\n{out.stderr}")
    return out


def _last_json(cmd, **kw):
    """The JSON record that ``cmd`` prints on its last line, and what it wrote to stderr."""
    out = _child(cmd, **kw)
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stderr


def _in_side(checkout, command, *args):
    """What the child ``command`` (``repeat-side`` or ``pens-side``) prints, run on ``args`` in a fresh process
    with pathineq from ``checkout``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), command, "--src", str(checkout / "src"), *map(str, args)]
    return _last_json(cmd)[0]


def _side(checkout, case, *args):
    """The dict that ``CASES[case].run(*args)`` returns in a fresh process with pathineq from ``checkout``."""
    return _in_side(checkout, "repeat-side", "--case", case, *args)


def _alternating(base, repeats, run):
    """``run(checkout, i)`` in the ``base`` checkout and in this one for i < ``repeats``, the side that runs
    first alternating; returns each side's results in order."""
    runs = {"base": [], "change": []}
    sides = (("base", base), ("change", ROOT))
    for i in range(repeats):
        for side, checkout in sides if i % 2 == 0 else sides[::-1]:
            runs[side].append(run(checkout, i))
    return runs


def _summary(xs):
    xs = [round(x, 4) for x in xs]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"median": med, "q1": q1, "q3": q3, "runs": xs}


def _workloads():
    """perfbench's workload builders, with pathineq from this checkout."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    return WORKLOADS


def _config_paths(call):
    return [a for prev, a in zip(call, call[1:]) if prev == "--config"]


def _peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _array_sha256(a):
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(a).data).hexdigest()


def _arrays(ens):
    """An ensemble's named arrays: its points and its diagnostic arrays."""
    import numpy as np

    return {"points": ens.points} | {k: v for k, v in ens.diagnostics.items() if isinstance(v, np.ndarray)}


# ---------------------------------------------------------------------------
# The cases of ``repeat``: each ``run`` imports pathineq, which ``repeat-side`` takes from its side's checkout


EXACT_SUM_N = 1_000_000


def exact_sum_run(seed):
    import numpy as np

    from pathineq.estimators import exact_sum

    x = np.random.default_rng(int(seed)).standard_normal(EXACT_SUM_N)
    out = {}
    for name, a in (("normals", x), ("x2logx2", x * x * np.log(x * x))):
        sums = {}
        for key, f in (("exact_sum", exact_sum), ("fsum", math.fsum)):
            t = time.perf_counter()
            sums[key] = struct.pack("<d", f(a))
            out[f"{name}.{key}_ms"] = 1e3 * (time.perf_counter() - t)
        if sums["exact_sum"] != sums["fsum"]:
            raise SystemExit(f"exact_sum differs from math.fsum on {name}")
        out[f"{name}.sha256"] = hashlib.sha256(sums["fsum"]).hexdigest()
    return out


BRIDGE_SHAPES = {"h3": (3, 50_000, 128), "h2": (2, 30_000, 64)}  # dim, paths, steps before the tail


def bridge_run(shape, seed):
    import numpy as np

    from pathineq import hyperbolic as hyp
    from pathineq import samplers

    dim, n_paths, n_steps = BRIDGE_SHAPES[shape]
    grid = samplers.TimeGrid.with_geometric_tail(1.0, n_steps, 0.5, 1e-6)
    out, pooled = {"workers_pooled": samplers._WORKERS}, samplers._WORKERS
    for key in ("drift_build_first_s", "drift_build_s"):  # the first pays any lazy import
        t = time.perf_counter()
        samplers._make_drift(hyp.HeatKernelParams(n=dim), 1.0, grid.array())
        out[key] = time.perf_counter() - t
    cfg = samplers.SamplerConfig(seed=int(seed), n_paths=n_paths, grid=grid, dim=dim)
    for mode, workers in (("serial", 1), ("pooled", pooled)):
        samplers._WORKERS, ens = workers, None  # the last run's points freed before the next is drawn
        t, c = time.perf_counter(), time.process_time()
        ens = samplers.sample_hyperbolic_bridge(cfg)
        out[f"{mode}.wall_s"], out[f"{mode}.cpu_s"] = time.perf_counter() - t, time.process_time() - c
    out["sha256"] = _array_sha256(ens.points)
    out["sheet_residual_max"] = max(float(np.abs(hyp.minkowski_dot(p, p) + 1.0).max())
                                    for p in np.array_split(ens.points, 20))  # 20 slabs: no full-size temporaries
    out["cap_event_fraction"] = ens.diagnostics["cap_event_fraction"]
    out["u"] = ens.diagnostics["sup_distance"].tolist()
    return out


def bridge_compare(base, change):
    """The sides' sup distances u: their two-sample KS and the path-by-path |u_change - u_base|."""
    import numpy as np
    from scipy import stats

    ub, uc = np.array(base[0]["u"]), np.array(change[0]["u"])
    ks, du = stats.ks_2samp(ub, uc), np.abs(uc - ub)
    return {"ks_statistic": float(ks.statistic), "ks_pvalue": float(ks.pvalue), "abs_du_max": float(du.max()),
            "abs_du_median": float(np.median(du))}


AGREE_CASES = 200  # random (C, r0) at which both sides' optimizers must agree


def optimizer_setup(seed, tmp):
    _workloads()["certify"](seed, tmp)
    return [("certify", [tmp / "cfg", seed])]


def optimizer_run(cfg_dir, seed):
    import numpy as np

    from pathineq.config import load_config
    from pathineq.transfer import TransferError, optimize_dyadic_params, poincare_objective

    def fields(C, r0):
        """The result's fields (their reprs, so the scalar types count) and its objective, or the error."""
        try:
            p = optimize_dyadic_params(C, r0)
        except TransferError as exc:
            return f"TransferError: {exc}", None
        return [repr(getattr(p, k)) for k in ("delta0", "delta", "epsilon", "A")], float(poincare_objective(p, C))

    paths = sorted(Path(cfg_dir).glob("*.yaml"))
    t = time.perf_counter()
    loaded = [load_config(p) for p in paths]
    out = {"load_config_s": time.perf_counter() - t, "configs": len(paths)}
    calls = [(st["beta"]["C"], st["beta"]["r0"])
             for data, _ in loaded for st in data["pipeline"] if st.get("params") == "auto"]
    for key in ("optimizer_cold_s", "optimizer_warm_s"):
        t = time.perf_counter()
        for call in calls:
            optimize_dyadic_params(*call)
        out[key] = time.perf_counter() - t
    rng = np.random.default_rng(int(seed))
    cases = zip(np.exp(rng.uniform(math.log(0.25), math.log(8.0), AGREE_CASES)),
                np.exp(rng.uniform(math.log(1e-6), math.log(5.0), AGREE_CASES)))
    out["cases"] = [fields(float(C), float(r0)) for C, r0 in cases]
    results = [f for f, _ in out["cases"]]
    out["optimizer_calls"], out["infeasible"] = len(calls), sum(isinstance(r, str) for r in results)
    out["params_sha256"] = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    out["configs_sha256"] = hashlib.sha256(json.dumps(loaded).encode()).hexdigest()
    return out


def optimizer_compare(base, change):
    """The random cases whose fields differ, and by how much the change's objective lies at most below and
    at most above the base's in them, relative to the base's."""
    moved = [(b, c) for b, c in zip(base[0]["cases"], change[0]["cases"]) if b[0] != c[0]]
    rel = [(c[1] - b[1]) / b[1] for b, c in moved if b[1] is not None and c[1] is not None]
    return {"params_differ_cases": len(moved), "objective_rel_below_base_max": max((-x for x in rel), default=0.0),
            "objective_rel_above_base_max": max(rel, default=0.0)}


FLAT_SAMPLERS = ("wiener", "flat_bridge", "ou")
FLAT_SHAPE = (3, 100_000, 128)  # dim, paths, steps before the tail, as BRIDGE_SHAPES


def _rss_mb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:")) / 1024.0


def flat_run(sampler, seed):
    from pathineq import samplers

    dim, n_paths, n_steps = FLAT_SHAPE
    grid = samplers.TimeGrid.with_geometric_tail(1.0, n_steps, 0.5, 1e-6)
    cfg = samplers.SamplerConfig(seed=int(seed), n_paths=n_paths, grid=grid, dim=dim)
    before, t = _rss_mb(), time.perf_counter()
    points = getattr(samplers, f"sample_{sampler}")(cfg).points
    wall, peak, mb = time.perf_counter() - t, _peak_rss_mb(), points.nbytes / 2**20
    return {"wall_s": wall, "rss_before_mb": before, "peak_rss_mb": peak, "points_mb": mb,
            "growth_over_points": (peak - before) / mb, "sha256": _array_sha256(points)}


def estimators_setup(seed, tmp):
    from pathineq.cli import main as cli_main

    plan = _workloads()["estimate"](seed, tmp)
    if any(cli_main(call) != 0 for call in plan.setup):
        raise SystemExit(f"the set-up of estimate failed: {plan.setup}")
    (_, call), = plan.timed
    return [(mode, [tmp / "out", mode, "estimate", *_config_paths(call)]) for mode in ("serial", "pooled")]


def sample_setup(seed, tmp):
    workloads = _workloads()
    return [(w, [tmp / w / "out", "pooled", "sample", *_config_paths(workloads[w](seed, tmp / w).timed[0][1])])
            for w in ("loop_h3", "loop_h2")]


def cli_run(out_dir, workers, command, *cfg_paths):
    """``pathineq command`` on ``cfg_paths`` into ``out_dir``, the samplers' and estimators' pool taking one
    thread (``serial``) or its own count (``pooled``), and the digests of its outputs: of each array an
    ensemble file loads to, and of each other file but the run report."""
    from pathineq import samplers
    from pathineq.cli import main as cli_main

    if workers == "serial":
        samplers._WORKERS = 1
    argv = [command, *(a for p in cfg_paths for a in ("--config", str(p))), "--out", str(out_dir)]
    t = time.perf_counter()
    if cli_main(argv) != 0:
        raise SystemExit(f"pathineq {' '.join(argv)} failed")
    out = {"wall_s": time.perf_counter() - t, "peak_rss_mb": _peak_rss_mb()}
    for p in sorted(Path(out_dir).iterdir()):
        if p.suffix == ".pens":
            out |= {f"{p.stem}.{k}.sha256": _array_sha256(a) for k, a in _arrays(samplers.load_ensemble(p)).items()}
        elif not p.name.endswith("_report.json"):
            out[f"{p.name}.sha256"] = _sha256(p)
    return out


class Case(NamedTuple):
    doc: str
    setup: Callable  # (seed, tmp) -> [(variant, args of run)], run here
    run: Callable  # (*args) -> flat dict, run in a fresh process per side and repeat
    compare: Callable | None = None  # (base runs, change runs) -> fields drawn from both sides' runs


CASES = {
    "exact_sum": Case("estimators.exact_sum against math.fsum on 1M normals and on 1M values of x^2 log x^2",
                      lambda seed, tmp: [("1M", [seed])], exact_sum_run),
    "bridge": Case("the H^n bridge's drift build, serial and pooled runs, and u's KS, at BRIDGE_SHAPES",
                   lambda seed, tmp: [(shape, [shape, seed]) for shape in BRIDGE_SHAPES], bridge_run, bridge_compare),
    "optimizer": Case("load_config and the dyadic optimizer, cold and warm, on certify's 48 configs",
                      optimizer_setup, optimizer_run, optimizer_compare),
    "estimators": Case("pathineq estimate on estimate's configs, serial and pooled", estimators_setup, cli_run),
    "flat": Case("each flat sampler at FLAT_SHAPE: wall time, and RSS growth over the points' bytes",
                 lambda seed, tmp: [(s, [s, seed]) for s in FLAT_SAMPLERS], flat_run),
    "sample": Case("pathineq sample of loop_h3's and loop_h2's bridges", sample_setup, cli_run),
}


def _variant(runs, compare):
    """The record of one variant's runs per side: digests, measurement summaries and ``compare``'s fields."""
    digests = {side: {k: sorted({r[k] for r in rs}) for k in rs[0] if k.endswith("sha256")}
               for side, rs in runs.items()}
    measured = [k for k, v in runs["change"][0].items() if not k.endswith("sha256") and isinstance(v, (int, float))]
    agree = digests["base"] == digests["change"] and all(len(v) == 1 for v in digests["base"].values())
    return {"digests_agree": agree, "sha256": digests,
            "results": {side: {k: _summary([r[k] for r in rs]) for k in measured} for side, rs in runs.items()},
            **(compare(runs["base"], runs["change"]) if compare else {})}


def repeat(base, case, seed, repeats):
    c = CASES[case]
    with tempfile.TemporaryDirectory() as tmp:
        variants = {name: _variant(_alternating(base, repeats, lambda checkout, i: _side(checkout, case, *args)),
                                   c.compare) for name, args in c.setup(seed, Path(tmp))}
    return {"case": case, "doc": c.doc, "seed": seed, "repeats": repeats, "variants": variants}


def _run(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    record, stderr = _last_json(cmd, cwd=checkout)
    # run.py prints each failure's reason, which may span lines, after "<workload> FAILED "
    failures = [why.rstrip("\n") for why in stderr.split(f"{workload} FAILED ")[1:]]
    return {**{m: record["metrics"][m]["value"] for m in END_TO_END}, "failed": record["failed"],
            "attempted": record["attempted"], "failures": failures}


def _verdict(base, change, better, bound):
    """Whether the change's runs of one metric, paired with the base's, carry a claimed gain (it is better in
    at least 9 pairs of 10, ties counting for neither, and the medians differ by more than the base's
    interquartile range) and whether its median is worse than the base's by more than ``bound``, a share of
    the base's median."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (base - change) > 0: the change is better
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    losses = sum(sign * (b - c) < 0 for b, c in zip(base, change))
    b, c = _summary(base), _summary(change)
    gain, iqr = sign * (b["median"] - c["median"]), b["q3"] - b["q1"]
    return {"better": better, "bound": bound, "wins": wins, "losses": losses, "median_gain": round(gain, 4),
            "base_iqr": round(iqr, 4), "claim_holds": wins >= 0.9 * len(base) and gain > iqr,
            "worse_than_bound": -gain > bound * abs(b["median"])}


def pairs(base, workload, seed, n_pairs, seconds, end_to_end):
    """Alternating runs of ``workload``; ``end_to_end`` is BENCHMARK.json's list of end-to-end metrics."""
    runs = _alternating(base, n_pairs, lambda checkout, i: _run(checkout, workload, seed, seconds))
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "pairs": n_pairs,
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "failures": {side: [why for r in rs for why in r["failures"]] for side, rs in runs.items()},
        "verdicts": {m["name"]: _verdict([r[m["name"]] for r in runs["base"]], [r[m["name"]] for r in runs["change"]],
                                         m["better"], m["bound"]) for m in end_to_end},
        "metrics": {side: {m: _summary([r[m] for r in rs]) for m in END_TO_END} for side, rs in runs.items()},
    }


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _pens_sha256(path):
    """SHA-256 of a ``.pens`` file as ``load_ensemble`` reads it: its config hash, measure tag and diagnostic
    scalars, and each named array's shape and bytes in C order.  Neither header padding nor the order or
    layout in which the arrays are stored moves it."""
    from pathineq.samplers import load_ensemble

    ens = load_ensemble(path)
    arrays = _arrays(ens)
    scalars = {k: v for k, v in ens.diagnostics.items() if k not in arrays}
    digest = hashlib.sha256(json.dumps([ens.config.config_hash, ens.measure_tag, scalars], sort_keys=True).encode())
    for k in sorted(arrays):
        digest.update(f"{k}{list(arrays[k].shape)}{_array_sha256(arrays[k])}".encode())
    return digest.hexdigest()


def _outputs_once(checkout, workload, seed, work):
    """Digests of one worker run of ``workload`` in ``checkout``, in ``work``."""
    result = work.parent / "result.json"
    cmd = [sys.executable, "perfbench/worker.py", "--workload", workload, "--seed", str(seed),
           "--work-dir", str(work), "--result", str(result), "--spawned-at", str(time.monotonic())]
    _child(cmd, cwd=checkout)
    ops = json.loads(result.read_text())["ops"]
    out = work / "out"
    files = {p.relative_to(out).as_posix(): _sha256(p) for p in sorted(out.rglob("*"))
             if p.is_file() and not p.name.endswith("_report.json")}
    pens = sorted(out.rglob("*.pens"))
    arrays = _in_side(checkout, "pens-side", *pens)  # read by the loader of the checkout that wrote them
    shutil.rmtree(work)
    return {"files": files, "pens_arrays": {p.relative_to(out).as_posix(): a for p, a in zip(pens, arrays)},
            "checks": hashlib.sha256(json.dumps(ops).encode()).hexdigest(),
            "failed": [name for name, ok, _ in ops if not ok]}


def outputs(base, seed):
    workloads = _workloads()
    digests = {"base": {}, "change": {}}
    # one scratch path for both sides, so paths written into outputs agree
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads:
            for side, checkout in (("base", base), ("change", ROOT)):
                digests[side][workload] = _outputs_once(checkout, workload, seed, Path(tmp) / "work")
    differ, pens = [], {}
    for workload, change in digests["change"].items():
        base_run = digests["base"][workload]
        for f in sorted(base_run["files"].keys() | change["files"].keys()):
            if base_run["files"].get(f) != change["files"].get(f):
                differ.append(f"{workload}/{f}")
                if f in base_run["pens_arrays"].keys() & change["pens_arrays"].keys():
                    equal = base_run["pens_arrays"][f] == change["pens_arrays"][f]
                    pens[f"{workload}/{f}"] = "arrays equal" if equal else "arrays differ"
        if change["checks"] != base_run["checks"]:
            differ.append(f"{workload}/checks")
    return {"seed": seed, "differ": differ, "pens_differ": pens, "sha256": digests}


def _command(argv):
    """The command line of a record: the base checkout is named by its commit and the record's file by its
    name, not by where they lie."""
    shown = ["BASE" if prev == "--base" else Path(a).name if prev == "--into" else a
             for prev, a in zip([None, *argv], argv)]
    return "python3 tools/bench_pairs.py " + " ".join(shown)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    rep = sub.add_parser("repeat", help="one case of CASES, each run in a fresh process per side")
    rep.add_argument("--case", required=True, choices=CASES)
    rep.add_argument("--repeats", type=int, default=5)
    side = sub.add_parser("repeat-side", help="one run of a case's variant, printed as JSON")
    side.add_argument("--src", required=True, help="directory holding the pathineq package to run")
    side.add_argument("--case", required=True, choices=CASES)
    side.add_argument("args", nargs="*", help="the arguments of the case's run")
    pens = sub.add_parser("pens-side", help="the digest of each .pens file as loaded, printed as a JSON list")
    pens.add_argument("--src", required=True, help="directory holding the pathineq package that loads them")
    pens.add_argument("paths", nargs="*")
    pair = sub.add_parser("pairs", help="alternating perfbench runs, base checkout and this one")
    pair.add_argument("--workload", required=True)
    pair.add_argument("--pairs", type=int, default=10)
    outs = sub.add_parser("outputs", help="output digests of every workload, base checkout and this one")
    for sp in (rep, pair, outs):
        sp.add_argument("--base", required=True, help="checkout of the commit to compare against")
        sp.add_argument("--seed", type=int, default=20090)
        sp.add_argument("--into", required=True, metavar="JSON", help="file to store the record in")
    argv = sys.argv[1:] if argv is None else argv
    args = p.parse_args(argv)

    if args.command in ("repeat-side", "pens-side"):
        sys.path.insert(0, str(Path(args.src).resolve()))
        print(json.dumps(CASES[args.case].run(*args.args) if args.command == "repeat-side"
                         else [_pens_sha256(p) for p in args.paths]))
        return
    base = Path(args.base).resolve()
    before, load = _commits(base), os.getloadavg()  # a record is labelled by the code its runs ran
    if args.command == "repeat":
        key, record = f"{args.case}_seed{args.seed}", repeat(base, args.case, args.seed, args.repeats)
    elif args.command == "outputs":
        key, record = f"outputs_seed{args.seed}", outputs(base, args.seed)
    else:
        key = f"{args.workload}_pairs_seed{args.seed}"
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        record = pairs(base, args.workload, args.seed, args.pairs, bench["run_seconds"], bench["end_to_end"])
    after = _commits(base)  # a checkout that changed while the runs ran is recorded as it was after the last one
    record = {"command": _command(argv), "machine": _machine(), "loadavg": {"before": load, "after": os.getloadavg()},
              "commits": before, **({"commits_after": after} if after != before else {}), **record}
    path = Path(args.into)
    data = json.loads(path.read_text()) if path.exists() else {}
    data[key] = record
    path.write_text(json.dumps(data, indent=1) + "\n")
    print(json.dumps({key: {k: v for k, v in record.items() if k not in ("metrics", "sha256")}}, indent=1))


if __name__ == "__main__":
    main()
