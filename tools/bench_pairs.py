"""Measurements for the BENCH_*.json files at the repository root.

Run from the repository root:

    python3 tools/bench_pairs.py exact-sum --repeats 15 --into BENCH_exact_sum.json
    python3 tools/bench_pairs.py bridge --base ../parent --repeats 5 --into BENCH_coordmajor.json
    python3 tools/bench_pairs.py optimizer --base ../parent --repeats 10 --into BENCH_screen.json
    python3 tools/bench_pairs.py pairs --base ../parent --workload estimate --seed 20090 \\
        --pairs 10 --into BENCH_exact_sum.json
    python3 tools/bench_pairs.py outputs --base ../parent --seed 20090 --into BENCH_readers.json
    python3 tools/bench_pairs.py estimators --base ../parent --repeats 5 --into BENCH_estimate.json

``exact-sum`` times ``estimators.exact_sum`` against ``math.fsum`` on 1M
standard normals and on 1M values of x^2 log x^2 (the entropy component), and
checks that the two agree bit for bit.  ``bridge`` times the H^n bridge
sampler of the ``--base`` checkout and of this one, each repeat in a fresh
process per side (``bridge-repeat``), the side that runs first alternating:
the n = 2 ``_make_drift`` build (the first build in the process, which pays
any lazy import, and a second one), and the wall and process CPU times of
``sample_hyperbolic_bridge`` with one thread (``_WORKERS = 1``) and with the
pool, on ``loop_h3``'s shape (n = 3, 50k paths, 128 steps plus the geometric
tail) and ``loop_h2``'s (n = 2, 30k paths, 64 steps plus the tail).  It records
the SHA-256 of each side's points, so the records show whether the bits
agree.  It then samples 100k H^3 paths of ``loop_h3``'s shape once per side,
each in a fresh process (``bridge-u``), and compares the recorded sup
distances u: the two-sample KS statistic and its p-value, the largest and
the median path-by-path |u_change - u_base|, and each side's largest sheet
residual |<y, y> + 1| and ``cap_event_fraction``.  ``optimizer`` writes
``certify``'s 48 configs (``perfbench/workloads.py``, ``--seed``) and times,
in a fresh process per side and repeat (``optimizer-repeat``), the side that
runs first alternating: the ``transfer.optimize_dyadic_params`` calls of its
``params: auto`` stages, a cold pass (the first in the process) and a warm
one, and ``config.load_config`` over the 48 configs.  Once per side it also
runs the optimizer at 200 seeded random (C, r0) and digests the fields of
every result (their reprs, so the scalar types count) or its error, and the
loaded configs; the record says whether the sides agree bit for bit.
``pairs`` runs ``perfbench/run.py --trace 0 --seconds S``, S being
``run_seconds`` in ``BENCHMARK.json``, in the ``--base`` checkout and in this
one, pair by pair, with the side that runs first alternating.  It records
every run's end-to-end metrics with their medians and quartiles.  ``outputs``
runs each workload of ``perfbench/workloads.py`` once per side, in a fresh
``perfbench/worker.py`` process and the same scratch directory: its set-up
calls, its timed calls and its checks.  It records the SHA-256 of every output
file but the ``*_report.json`` files (they hold timings) and of the list of
check results, and lists the files whose digests differ.  ``estimators``
samples ``estimate``'s two ensembles once (``perfbench/workloads.py``,
``--seed``) and times, in a fresh process per side, mode and repeat
(``estimators-repeat``), the side that runs first alternating, the family
estimates of ``estimate``'s two scenarios: ``family_estimates``, or on a
checkout without it the serial loop over ``function_estimates``, with one
thread (``_WORKERS = 1``) and with the pool.  Each process records the wall
time per scenario, then ``ru_maxrss`` after it, then the ``tracemalloc`` peak
of a second, traced pass, and a digest of every estimate's fields (their
reprs); the record says whether all digests agree.  Each command
stores its record under its own key in ``--into`` (created if missing),
together with the command line, the machine and the package versions.
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

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("wall_s", "items_per_s", "setup_s", "peak_rss_mb")


def _commit(checkout):
    try:
        out = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty", "--abbrev=7"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


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


def _summary(xs):
    xs = [round(x, 4) for x in xs]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"median": med, "q1": q1, "q3": q3, "runs": xs}


def exact_sum_layer(repeats):
    import numpy as np

    sys.path.insert(0, str(ROOT / "src"))
    from pathineq.estimators import exact_sum

    x = np.random.default_rng(20090).standard_normal(1_000_000)
    xx = x * x
    out = {}
    for name, a in (("normals_1M", x), ("x2logx2_1M", xx * np.log(xx))):
        if struct.pack("<d", exact_sum(a)) != struct.pack("<d", math.fsum(a)):
            raise SystemExit(f"exact_sum differs from math.fsum on {name}")
        ms = {"exact_sum": [], "math.fsum": []}
        for _ in range(repeats):  # interleaved, so drift of the machine hits both alike
            for key, f in (("exact_sum", exact_sum), ("math.fsum", math.fsum)):
                t = time.perf_counter()
                f(a)
                ms[key].append(1e3 * (time.perf_counter() - t))
        out[name] = {key: _summary(v) for key, v in ms.items()}
    return {"unit": "ms", "samples": repeats, "results": out}


BRIDGE_SHAPES = {"h3": (3, 50_000, 128), "h2": (2, 30_000, 64)}  # dim, paths, steps before the tail


def bridge_repeat(src):
    """One repeat of the ``bridge`` measurements, with pathineq from ``src``."""
    sys.path.insert(0, str(src))
    from pathineq import samplers
    from pathineq.hyperbolic import HeatKernelParams

    def grid(n_steps):
        return samplers.TimeGrid.with_geometric_tail(1.0, n_steps, 0.5, 1e-6)

    out = {}
    nodes = grid(BRIDGE_SHAPES["h2"][2]).array()
    for key in ("drift_build_n2_first_s", "drift_build_n2_s"):
        t = time.perf_counter()
        samplers._make_drift(HeatKernelParams(n=2), 1.0, nodes)
        out[key] = time.perf_counter() - t
    pooled = samplers._WORKERS
    for shape, (dim, n_paths, n_steps) in BRIDGE_SHAPES.items():
        cfg = samplers.SamplerConfig(seed=20090, n_paths=n_paths, grid=grid(n_steps), dim=dim)
        for mode, workers in (("serial", 1), ("pooled", pooled)):
            samplers._WORKERS = workers
            t, c = time.perf_counter(), time.process_time()
            ens = samplers.sample_hyperbolic_bridge(cfg)
            out[f"{shape}.{mode}.wall_s"] = time.perf_counter() - t
            out[f"{shape}.{mode}.cpu_s"] = time.process_time() - c
        samplers._WORKERS = pooled
        out[f"{shape}.sha256"] = hashlib.sha256(ens.points.data).hexdigest()
        del ens
    return out


U_SHAPE = (3, 100_000, 128)  # the sup-distance comparison: dim, paths, steps before the tail


def bridge_u(src, out):
    """One side of the ``bridge`` sup-distance comparison, with pathineq from
    ``src``: saves u to ``out`` (.npy) and returns the sheet residual and the
    cap-event fraction."""
    import numpy as np

    sys.path.insert(0, str(src))
    from pathineq import hyperbolic as hyp
    from pathineq import samplers

    dim, n_paths, n_steps = U_SHAPE
    grid = samplers.TimeGrid.with_geometric_tail(1.0, n_steps, 0.5, 1e-6)
    ens = samplers.sample_hyperbolic_bridge(samplers.SamplerConfig(seed=20090, n_paths=n_paths, grid=grid, dim=dim))
    np.save(out, ens.diagnostics["sup_distance"])
    residual = max(float(np.abs(hyp.minkowski_dot(p, p) + 1.0).max())
                   for p in np.array_split(ens.points, 20))  # 20 slabs: no full-size temporaries
    return {"sheet_residual_max": residual, "cap_event_fraction": ens.diagnostics["cap_event_fraction"]}


def _compare_u(base):
    import numpy as np
    from scipy import stats

    sides, u = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for side, checkout in (("base", base), ("change", ROOT)):
            path = Path(tmp) / f"{side}.npy"
            cmd = [sys.executable, str(Path(__file__).resolve()), "bridge-u", "--src", str(checkout / "src"),
                   "--out", str(path)]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            sides[side] = json.loads(out.stdout.strip().splitlines()[-1])
            u[side] = np.load(path)
    ks = stats.ks_2samp(u["base"], u["change"])
    du = np.abs(u["change"] - u["base"])
    return {"shape": dict(zip(("dim", "n_paths", "n_steps"), U_SHAPE)), "seed": 20090,
            "ks_statistic": float(ks.statistic), "ks_pvalue": float(ks.pvalue),
            "abs_du_max": float(du.max()), "abs_du_median": float(np.median(du)), "sides": sides}


def bridge(base, repeats):
    runs = {"base": [], "change": []}
    sides = (("base", base), ("change", ROOT))
    for i in range(repeats):
        for side, checkout in sides if i % 2 == 0 else sides[::-1]:
            cmd = [sys.executable, str(Path(__file__).resolve()), "bridge-repeat", "--src", str(checkout / "src")]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            runs[side].append(json.loads(out.stdout.strip().splitlines()[-1]))
    digests = {side: {k: sorted({r[k] for r in rs}) for k in rs[0] if k.endswith("sha256")}
               for side, rs in runs.items()}
    times = {side: {k: _summary([r[k] for r in rs]) for k in rs[0] if not k.endswith("sha256")}
             for side, rs in runs.items()}
    return {
        "unit": "s", "repeats": repeats, "workers_pooled": _machine()["nproc"],
        "shapes": {k: dict(zip(("dim", "n_paths", "n_steps"), v)) for k, v in BRIDGE_SHAPES.items()},
        "commits": {"base": _commit(base), "change": _commit(ROOT)},
        "sha256": digests, "results": times, "sup_distance": _compare_u(base),
    }


AGREE_CASES = 200  # random (C, r0) at which both sides' optimizers must agree


def optimizer_repeat(src, cfg_dir, agree):
    """One repeat of the ``optimizer`` measurements, with pathineq from ``src``
    on the configs in ``cfg_dir``; with ``agree``, also the digests."""
    import numpy as np

    sys.path.insert(0, str(src))
    from pathineq.config import load_config
    from pathineq.transfer import TransferError, optimize_dyadic_params

    def fields(*args):
        try:
            p = optimize_dyadic_params(*args)
        except TransferError as exc:
            return f"TransferError: {exc}"
        return [repr(getattr(p, k)) for k in ("delta0", "delta", "epsilon", "A")]

    paths = sorted(Path(cfg_dir).glob("*.yaml"))
    t = time.perf_counter()
    loaded = [load_config(p) for p in paths]
    out = {"load_config_s": time.perf_counter() - t, "configs": len(paths)}
    calls = [(st["beta"]["C"], st["beta"]["r0"], st.get("budget", 10_000))
             for data, _ in loaded for st in data["pipeline"] if st.get("params") == "auto"]
    for key in ("optimizer_cold_s", "optimizer_warm_s"):
        t = time.perf_counter()
        for call in calls:
            optimize_dyadic_params(*call)
        out[key] = time.perf_counter() - t
    out["optimizer_calls"] = len(calls)
    if agree:
        rng = np.random.default_rng(20090)
        cases = zip(np.exp(rng.uniform(math.log(0.25), math.log(8.0), AGREE_CASES)),
                    np.exp(rng.uniform(math.log(1e-6), math.log(5.0), AGREE_CASES)))
        results = [fields(float(C), float(r0), 10_000) for C, r0 in cases]
        out["params_sha256"] = hashlib.sha256(json.dumps(results).encode()).hexdigest()
        out["infeasible"] = sum(isinstance(r, str) for r in results)
        out["configs_sha256"] = hashlib.sha256(json.dumps(loaded).encode()).hexdigest()
    return out


def optimizer(base, seed, repeats):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    runs = {"base": [], "change": []}
    sides = (("base", base), ("change", ROOT))
    with tempfile.TemporaryDirectory() as tmp:
        WORKLOADS["certify"](seed, tmp)
        for i in range(repeats):
            for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                cmd = [sys.executable, str(Path(__file__).resolve()), "optimizer-repeat",
                       "--src", str(checkout / "src"), "--cfg", str(Path(tmp) / "cfg")]
                out = subprocess.run(cmd + ["--agree"] * (i == 0), capture_output=True, text=True, check=True)
                runs[side].append(json.loads(out.stdout.strip().splitlines()[-1]))
    digests = {side: {k: rs[0][k] for k in ("params_sha256", "configs_sha256", "infeasible")}
               for side, rs in runs.items()}
    timed = ("optimizer_cold_s", "optimizer_warm_s", "load_config_s")
    return {
        "unit": "s", "seed": seed, "repeats": repeats, "agree_cases": AGREE_CASES,
        "optimizer_calls": runs["change"][0]["optimizer_calls"], "configs": runs["change"][0]["configs"],
        "commits": {"base": _commit(base), "change": _commit(ROOT)},
        "params_agree": digests["base"]["params_sha256"] == digests["change"]["params_sha256"],
        "configs_agree": digests["base"]["configs_sha256"] == digests["change"]["configs_sha256"],
        "sha256": digests,
        "results": {side: {k: _summary([r[k] for r in rs]) for k in timed} for side, rs in runs.items()},
    }


def estimators_repeat(src, out_dir, cfg_paths, workers):
    """One repeat of the ``estimators`` measurements, with pathineq from ``src``,
    on the estimate configs ``cfg_paths`` over the ensembles in ``out_dir``;
    ``workers`` is ``serial`` or ``pooled``."""
    import resource
    import tracemalloc

    import yaml

    sys.path.insert(0, str(src))
    from pathineq import estimators as est
    from pathineq import samplers

    if workers == "serial":
        samplers._WORKERS = 1
    run = getattr(est, "family_estimates", None) or (
        lambda family, ens, names: [(F.label, est.function_estimates(F, ens, names)) for F in family])
    builders = {"coordinate": est.coordinate_function, "hermite": est.hermite_function,
                "exp_half": est.exp_half_function}
    scenarios = []
    for path in cfg_paths:
        spec = yaml.safe_load(Path(path).read_text())
        ens = samplers.load_ensemble(Path(out_dir) / spec["ensemble"])
        family = []
        for f in spec["functions"]:
            args = {"hermite": (f.get("degree"),), "exp_half": (f.get("lam"),)}.get(f["type"], ())
            at = float(f.get("time", ens.grid.T))
            family.append(builders[f["type"]](*args, at, coord=f.get("coord", 0), label=f.get("label")))
        names = [n for e in spec["estimators"]
                 for n in (est.RAYLEIGH_ESTIMATES if e == "rayleigh" else (e,) if e in est._ESTIMATES else ())]
        scenarios.append((spec["name"], ens, family, list(dict.fromkeys(names))))
    out = {"family_estimates": hasattr(est, "family_estimates"), "workers": samplers._WORKERS}
    for name, ens, family, names in scenarios:
        t = time.perf_counter()
        rows = run(family, ens, names)
        out[f"{name}.wall_s"] = time.perf_counter() - t
        fields = [(label, {k: repr(e) for k, e in estimates.items()}) for label, estimates in rows]
        out[f"{name}.sha256"] = hashlib.sha256(json.dumps(fields).encode()).hexdigest()
    out["ru_maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name, ens, family, names in scenarios:
        tracemalloc.start()
        run(family, ens, names)
        out[f"{name}.tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    return out


def estimators(base, seed, repeats):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    from pathineq.cli import main as cli_main

    runs = {(side, mode): [] for side in ("base", "change") for mode in ("serial", "pooled")}
    sides = (("base", base), ("change", ROOT))
    with tempfile.TemporaryDirectory() as tmp:
        plan = WORKLOADS["estimate"](seed, tmp)
        for call in plan.setup:
            if cli_main(call) != 0:
                raise SystemExit(f"setup failed: {call}")
        (_, call), = plan.timed
        cfg_paths = [a for prev, a in zip(call, call[1:]) if prev == "--config"]
        for i in range(repeats):
            for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                for mode in ("serial", "pooled"):
                    cmd = [sys.executable, str(Path(__file__).resolve()), "estimators-repeat",
                           "--src", str(checkout / "src"), "--ensembles", str(Path(tmp) / "out"),
                           "--workers", mode, *cfg_paths]
                    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
                    runs[side, mode].append(json.loads(out.stdout.strip().splitlines()[-1]))
    first = runs["change", "pooled"][0]
    digest_keys = [k for k in first if k.endswith("sha256")]
    digests = {f"{side}.{mode}": {k: sorted({r[k] for r in rs}) for k in digest_keys}
               for (side, mode), rs in runs.items()}
    measured = [k for k in first if k.endswith(("wall_s", "_mb"))]
    return {
        "unit": {"wall_s": "s", "mb": "MiB"}, "seed": seed, "repeats": repeats,
        "workers_pooled": first["workers"],
        "commits": {"base": _commit(base), "change": _commit(ROOT)},
        "family_estimates": {side: runs[side, "pooled"][0]["family_estimates"] for side in ("base", "change")},
        "digests_agree": len({json.dumps(d, sort_keys=True) for d in digests.values()}) == 1,
        "sha256": digests,
        "results": {f"{side}.{mode}": {k: _summary([r[k] for r in rs]) for k in measured}
                    for (side, mode), rs in runs.items()},
    }


def _run(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    record = json.loads(out.stdout.strip().splitlines()[-1])
    return {**{m: record["metrics"][m]["value"] for m in END_TO_END}, "failed": record["failed"],
            "attempted": record["attempted"]}


def pairs(base, workload, seed, n_pairs, seconds):
    runs = {"base": [], "change": []}
    sides = (("base", base), ("change", ROOT))
    for i in range(n_pairs):
        for side, checkout in sides if i % 2 == 0 else sides[::-1]:
            runs[side].append(_run(checkout, workload, seed, seconds))
    wins = sum(c["wall_s"] < b["wall_s"] for b, c in zip(runs["base"], runs["change"]))
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "pairs": n_pairs,
        "commits": {"base": _commit(base), "change": _commit(ROOT)},
        "wall_s_wins": wins,
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "metrics": {side: {m: _summary([r[m] for r in rs]) for m in END_TO_END} for side, rs in runs.items()},
    }


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _outputs_once(checkout, workload, seed, work):
    """Digests of one worker run of ``workload`` in ``checkout``, in ``work``."""
    result = work.parent / "result.json"
    cmd = [sys.executable, "perfbench/worker.py", "--workload", workload, "--seed", str(seed),
           "--work-dir", str(work), "--result", str(result), "--spawned-at", str(time.monotonic())]
    subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    ops = json.loads(result.read_text())["ops"]
    out = work / "out"
    files = {p.relative_to(out).as_posix(): _sha256(p) for p in sorted(out.rglob("*"))
             if p.is_file() and not p.name.endswith("_report.json")}
    shutil.rmtree(work)
    return {"files": files, "checks": hashlib.sha256(json.dumps(ops).encode()).hexdigest(),
            "failed": [name for name, ok, _ in ops if not ok]}


def outputs(base, seed):
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    digests = {"base": {}, "change": {}}
    # one scratch path for both sides, so paths written into outputs agree
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for side, checkout in (("base", base), ("change", ROOT)):
                digests[side][workload] = _outputs_once(checkout, workload, seed, Path(tmp) / "work")
    differ = []
    for workload, change in digests["change"].items():
        base_files, files = digests["base"][workload]["files"], change["files"]
        differ += [f"{workload}/{f}" for f in sorted(base_files.keys() | files.keys())
                   if base_files.get(f) != files.get(f)]
        if change["checks"] != digests["base"][workload]["checks"]:
            differ.append(f"{workload}/checks")
    return {"seed": seed, "commits": {"base": _commit(base), "change": _commit(ROOT)}, "differ": differ,
            "sha256": digests}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    layer = sub.add_parser("exact-sum", help="exact_sum against math.fsum on 1M values")
    layer.add_argument("--repeats", type=int, default=15)
    br = sub.add_parser("bridge", help="the bridge sampler and its drift build, base checkout and this one")
    br.add_argument("--base", required=True, help="checkout of the commit to compare against")
    br.add_argument("--repeats", type=int, default=5)
    once = sub.add_parser("bridge-repeat", help="one repeat of the bridge measurements, printed as JSON")
    once.add_argument("--src", required=True, help="directory holding the pathineq package to time")
    side_u = sub.add_parser("bridge-u", help="one side of the bridge's sup-distance comparison, printed as JSON")
    side_u.add_argument("--src", required=True, help="directory holding the pathineq package to sample with")
    side_u.add_argument("--out", required=True, help=".npy file to save the sup distances in")
    opt = sub.add_parser("optimizer", help="the dyadic optimizer and load_config on certify's configs, base and this")
    opt.add_argument("--base", required=True, help="checkout of the commit to compare against")
    opt.add_argument("--seed", type=int, default=20090)
    opt.add_argument("--repeats", type=int, default=10)
    opt_once = sub.add_parser("optimizer-repeat", help="one repeat of the optimizer measurements, printed as JSON")
    opt_once.add_argument("--src", required=True, help="directory holding the pathineq package to time")
    opt_once.add_argument("--cfg", required=True, help="directory holding certify's configs")
    opt_once.add_argument("--agree", action="store_true", help="also digest the optimizer at random (C, r0)")
    fam = sub.add_parser("estimators", help="estimate's family estimates, serial and pooled, base and this")
    fam.add_argument("--base", required=True, help="checkout of the commit to compare against")
    fam.add_argument("--seed", type=int, default=20090)
    fam.add_argument("--repeats", type=int, default=5)
    fam_once = sub.add_parser("estimators-repeat", help="one repeat of the estimators measurements, printed as JSON")
    fam_once.add_argument("--src", required=True, help="directory holding the pathineq package to time")
    fam_once.add_argument("--ensembles", required=True, help="directory holding estimate's ensembles")
    fam_once.add_argument("--workers", required=True, choices=("serial", "pooled"))
    fam_once.add_argument("configs", nargs="+", help="estimate's scenario configs")
    pair = sub.add_parser("pairs", help="alternating perfbench runs, base checkout and this one")
    pair.add_argument("--base", required=True, help="checkout of the commit to compare against")
    pair.add_argument("--workload", required=True)
    pair.add_argument("--seed", type=int, default=20090)
    pair.add_argument("--pairs", type=int, default=10)
    outs = sub.add_parser("outputs", help="output digests of every workload, base checkout and this one")
    outs.add_argument("--base", required=True, help="checkout of the commit to compare against")
    outs.add_argument("--seed", type=int, default=20090)
    for sp in (layer, br, opt, fam, pair, outs):
        sp.add_argument("--into", required=True, metavar="JSON", help="file to store the record in")
    argv = sys.argv[1:] if argv is None else argv
    args = p.parse_args(argv)

    if args.command == "bridge-repeat":
        print(json.dumps(bridge_repeat(Path(args.src).resolve())))
        return
    if args.command == "bridge-u":
        print(json.dumps(bridge_u(Path(args.src).resolve(), args.out)))
        return
    if args.command == "optimizer-repeat":
        print(json.dumps(optimizer_repeat(Path(args.src).resolve(), args.cfg, args.agree)))
        return
    if args.command == "estimators-repeat":
        print(json.dumps(estimators_repeat(Path(args.src).resolve(), args.ensembles, args.configs, args.workers)))
        return
    if args.command == "exact-sum":
        key, record = "exact_sum_vs_fsum", exact_sum_layer(args.repeats)
    elif args.command == "bridge":
        key, record = "bridge_sampler", bridge(Path(args.base).resolve(), args.repeats)
    elif args.command == "optimizer":
        key, record = f"optimizer_seed{args.seed}", optimizer(Path(args.base).resolve(), args.seed, args.repeats)
    elif args.command == "estimators":
        key, record = f"estimators_seed{args.seed}", estimators(Path(args.base).resolve(), args.seed, args.repeats)
    elif args.command == "outputs":
        key, record = f"outputs_seed{args.seed}", outputs(Path(args.base).resolve(), args.seed)
    else:
        key = f"{args.workload}_pairs_seed{args.seed}"
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        record = pairs(Path(args.base).resolve(), args.workload, args.seed, args.pairs, seconds)
    # the base checkout is named by its commit, not by where it lies
    shown = ["BASE" if prev == "--base" else a for prev, a in zip([None, *argv], argv)]
    record = {"command": "python3 tools/bench_pairs.py " + " ".join(shown), "machine": _machine(), **record}
    path = Path(args.into)
    data = json.loads(path.read_text()) if path.exists() else {}
    data[key] = record
    path.write_text(json.dumps(data, indent=1) + "\n")
    print(json.dumps({key: {k: v for k, v in record.items() if k not in ("metrics", "sha256")}}, indent=1))


if __name__ == "__main__":
    main()
