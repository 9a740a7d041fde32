"""Command-line entry point.

Subcommands wire declarative scenario configs to the samplers, estimators and
the transfer engine:

    pathineq transfer --config PATH [--config PATH ...] [--out DIR] [--threads N]
    pathineq sample   --config PATH [--config PATH ...] [--seed N] [--out DIR] [--threads N]
    pathineq estimate --config PATH [--config PATH ...] [--out DIR] [--threads N]
    pathineq verify   SUITE [--out DIR]

Exit codes: 0 all pass, 1 criterion failure, 2 config or I/O error.  The
default output directory comes from $PATHINEQ_OUT.  Multiple --config flags
run scenarios (in parallel with --threads) and merge reports by scenario
name.  All outputs are UTF-8 JSON/CSV; ensembles use the columnar binary
format of the samplers module.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import jsontext
from .config import ConfigError, Validator, load_config

REPORT_SCHEMA_VERSION = "pathineq.runreport.v1"

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_CONFIG = 2

_NUM = (int, float)

# Bad input exits with EXIT_CONFIG: every domain error subclasses ValueError.
# Anything else (TypeError, KeyError, ...) is a program bug and propagates.
INPUT_ERRORS = (ConfigError, ValueError, OSError)


def _versions():
    import scipy

    from . import __version__

    return {
        "pathineq": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _report(command, scenarios, t0):
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": command,
        "scenarios": sorted(scenarios, key=lambda s: s["name"]),
        "versions": _versions(),
        "elapsed_s": time.perf_counter() - t0,
    }


def _write_report(report, out_dir, name):
    return jsontext.write(os.path.join(out_dir, name), report, sort_keys=True)


def _out_dir(args):
    return args.out or os.environ.get("PATHINEQ_OUT") or "pathineq_out"


# ---------------------------------------------------------------------------
# transfer


def _run_transfer_scenario(v, out_dir):
    from .pipeline import grid_points_error, pipeline_report, run_transfer_pipeline

    v.get("profile_grid", expected=dict, required=False)
    points = v.get("profile_grid.points", expected=int, required=False)
    if points is not None and (why := grid_points_error(points)):  # before any transfer runs
        v.fail("profile_grid.points", why)
    v.read.add("pipeline")  # the stages are run_transfer_pipeline's to read, all before any transfer runs
    v.reject_unread("", "profile_grid")
    results = run_transfer_pipeline(v, base_dir=os.path.dirname(os.path.abspath(v.file)))
    report = pipeline_report(results, **({} if points is None else {"grid_points": points}))
    name = v.data["name"]
    # each table's floats are rendered once, for its JSON and its CSV series (for plotting elsewhere)
    for i, stage in enumerate(report):
        tab = stage.get("tabulated", {})
        if "s" in tab:
            ycol = "alpha" if "alpha" in tab else "beta"
            s, y = list(map(float.__repr__, tab["s"])), _reprs(tab[ycol])
            with open(os.path.join(out_dir, f"{name}.stage{i}.{ycol}.csv"), "w") as fh:
                fh.write(f"s,{ycol}\n" + "".join([f"{a},{b}\n" for a, b in zip(s, y)]))
            stage["tabulated"] = {"s": jsontext.Rendered(s), ycol: jsontext.Rendered(y)}
    out_json = jsontext.write(os.path.join(out_dir, f"{name}.transfer.json"), {"name": name, "stages": report})
    return {"outputs": [out_json], "final_kind": results[-1].kind}


def _reprs(xs):
    """``float.__repr__`` of each x, taken once per value: a profile's values repeat (beta is 2 n(s)^2,
    the monotone alpha a step function)."""
    text = dict.fromkeys(xs)
    if 0.0 in text:  # 0.0 and -0.0 are one key
        return list(map(float.__repr__, xs))
    for x in text:
        text[x] = float.__repr__(x)
    return list(map(text.__getitem__, xs))


# ---------------------------------------------------------------------------
# sample


def _read_point(v, key):
    """None for ``origin``, else the tuple of numbers listed; the sampler checks what it can take."""
    spec = v.get(key, expected=(str, list), required=False, default="origin")
    if isinstance(spec, str):
        if spec != "origin":
            v.fail(key, f"expected 'origin' or a list of numbers, got {spec!r}")
        return None
    return tuple(map(float, v.numbers(key)))


def _run_sample_scenario(v, out_dir, seed_override=None):
    from . import samplers
    from .samplers import CSV_MAX_PATHS, SAMPLERS, SamplerConfig, SamplerError, TimeGrid, ensemble_to_csv, save_ensemble

    tag = v.get("sampler", expected=str, choices=SAMPLERS)
    seed = v.get("seed", expected=int)
    n_paths = v.get("n_paths", expected=int)
    dim = v.get("dim", expected=int)
    T = float(v.get("T", expected=_NUM))
    g = v.mapping("grid", {"n_steps": int}, {"tail": dict})
    tail = v.mapping("grid.tail", {}, {"lam": _NUM, "floor": _NUM}) if "tail" in g else None
    x0, y0 = _read_point(v, "x0"), _read_point(v, "y0")
    drift_cap = v.get("drift_cap", expected=_NUM, required=False)
    csv = v.get("format", expected=str, required=False, default="binary", choices=("binary", "csv")) == "csv"
    if csv and n_paths > CSV_MAX_PATHS:
        v.fail("format", f"CSV export is for small runs (n_paths <= {CSV_MAX_PATHS}); use the binary format")
    out_path = os.path.join(out_dir, v.get("out", expected=str))
    v.reject_unread("")

    seed = int(seed_override if seed_override is not None else seed)
    try:  # the grid, the config and the sampler check their arguments before any path is drawn
        grid = (TimeGrid.uniform(T, g["n_steps"]) if tail is None and tag != "hyperbolic_bridge"  # a bridge has a tail
                else TimeGrid.with_geometric_tail(T, g["n_steps"], **tail or {}))
        cfg = SamplerConfig(seed=seed, n_paths=n_paths, grid=grid, dim=dim, x0=x0, y0=y0,
                            **({} if drift_cap is None else {"drift_cap": drift_cap}))
        sample = getattr(samplers, f"sample_{tag}")  # the module's, so a wrap of it is what runs
        ens = sample(cfg) if csv else save_ensemble(out_path, lambda alloc: sample(cfg, alloc=alloc))  # into the file
    except SamplerError as exc:
        if exc.key is None or exc.key == "seed" and seed_override is not None:  # no config line is at fault
            raise
        key = {"n_steps": "grid.n_steps", "lam": "grid.tail.lam", "floor": "grid.tail.floor"}.get(exc.key, exc.key)
        v.fail(key, str(exc))
    if csv:
        ensemble_to_csv(out_path, ens)
    return {
        "outputs": [out_path],
        "seed": cfg.seed,
        "config_hash": cfg.config_hash,
        "measure_tag": ens.measure_tag,
        "diagnostics": {k: x for k, x in ens.diagnostics.items() if not isinstance(x, np.ndarray)},
    }


# ---------------------------------------------------------------------------
# estimate


def _run_estimate_scenario(v, out_dir):
    from .estimators import (
        MEASURE_KERNEL,
        RAYLEIGH_ESTIMATES,
        EstimatorError,
        RayleighScan,
        coordinate_function,
        exp_half_function,
        exp_square_moment,
        family_estimates,
        hermite_function,
        sup_distance,
        weight_tail,
    )
    from .samplers import SamplerError, load_ensemble

    builders = {"coordinate": coordinate_function, "hermite": hermite_function, "exp_half": exp_half_function}
    # each estimator and the per-function estimates behind it; one pass per
    # function serves them all, and only the estimates outlive it
    wants = {"rayleigh": RAYLEIGH_ESTIMATES, **{e: (e,) for e in ("variance", "entropy", "lsi_ratio")},
             "weight_tail": (), "exp_square_moment": ()}
    ens_path = v.get("ensemble", expected=str)
    stated_kernel = v.get("kernel", expected=str, required=False, choices=set(MEASURE_KERNEL.values()))
    estimators = v.get("estimators", expected=list)
    for i in range(len(estimators)):
        v.get(f"estimators[{i}]", expected=str, choices=wants)
    specs = []
    for i in range(len(v.get("functions", expected=list, required=False, default=[]))):
        f = f"functions[{i}]"
        kind = v.get(f"{f}.type", expected=str, choices=builders)
        args = ()
        if kind == "hermite":
            args = (v.get(f"{f}.degree", expected=int),)
        if kind == "exp_half":
            args = (float(v.get(f"{f}.lam", expected=_NUM)),)
        coord = v.get(f"{f}.coord", expected=int, required=False, default=0)
        t = v.get(f"{f}.time", expected=_NUM, required=False)
        specs.append((builders[kind], args, t, coord, v.get(f"{f}.label", expected=str, required=False)))
        v.reject_unread(f)
    if "rayleigh" in estimators and not specs:
        v.fail("functions", "rayleigh needs at least one function")
    exp_square_c = float(v.get("exp_square_c", expected=_NUM, required=False, default=0.25))
    out_json = os.path.join(out_dir, v.get("out", expected=str))
    v.reject_unread("")

    if not os.path.isabs(ens_path):
        candidate = os.path.join(os.path.dirname(os.path.abspath(v.file)), ens_path)
        ens_path = candidate if os.path.exists(candidate) else os.path.join(out_dir, ens_path)
    if not os.path.exists(ens_path):
        v.fail("ensemble", f"ensemble file not found: {ens_path}")
    ens = load_ensemble(ens_path)
    kernel = MEASURE_KERNEL[ens.measure_tag]  # the pairing follows from the measure; a stated one must agree
    if stated_kernel not in (None, kernel):
        v.fail("kernel", f"a {ens.measure_tag} ensemble takes the {kernel} kernel")
    width = ens.points.shape[-1]
    family = []
    for i, (build, args, t, coord, label) in enumerate(specs):
        if coord >= width:
            v.fail(f"functions[{i}].coord", f"coord must be < {width}, the points' width")
        try:  # the builder checks its arguments, a time <= 0 among them, and index_of a time off the grid
            family.append(build(*args, float(ens.grid.T if t is None else t), coord=coord, label=label))
            ens.grid.index_of(family[-1].times[0])
        except (EstimatorError, SamplerError) as exc:
            v.fail(f"functions[{i}].{'time' if exc.key in (None, 'times') else exc.key}", str(exc))
        if family[-1].label in (F.label for F in family[:-1]):  # the results are keyed by label
            v.fail(f"functions[{i}]{'.label' if label else ''}", f"duplicate label {family[-1].label!r}")

    records = {"seed": ens.config.seed, "config_hash": ens.config.config_hash}
    names = list(dict.fromkeys(n for e in estimators for n in wants[e]))
    per_function = family_estimates(family, ens, names) if names else []
    results = {}
    # the sup distances feed both weight-tail estimators, so take them once
    u = sup_distance(ens) if {"weight_tail", "exp_square_moment"} & set(estimators) else None
    csv_rows = None
    for est_name in estimators:
        if est_name == "rayleigh":
            scan = RayleighScan.from_rows(per_function)
            results["rayleigh"] = scan.to_dict()
            csv_rows = scan.rows
        elif est_name == "weight_tail":
            results["weight_tail"] = weight_tail(u).to_dict()
        elif est_name == "exp_square_moment":
            results["exp_square_moment"] = exp_square_moment(u, exp_square_c).to_dict()
        else:
            results[est_name] = {label: est[est_name].to_dict() for label, est in per_function}

    name = v.data["name"]
    outputs = [jsontext.write(out_json, {"name": name, "provenance": records, "results": results})]
    if csv_rows is not None:
        csv_path = os.path.join(out_dir, f"{name}.rayleigh.csv")
        with open(csv_path, "w") as fh:
            fh.write(",".join(("label", *(f"{k},{k}_se" for k in RAYLEIGH_ESTIMATES), "seed,config_hash\n")))
            for r in csv_rows:
                cells = (f"{e.value!r},{e.std_error!r}" for e in (getattr(r, k) for k in RAYLEIGH_ESTIMATES))
                fh.write(",".join((r.label, *cells, f"{records['seed']},{records['config_hash']}\n")))
        outputs.append(csv_path)
    return {"outputs": outputs, **records}


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args):
    from .acceptance import SUITES, run_suite

    t0 = time.perf_counter()
    if args.suite not in SUITES:
        print(f"error: unknown suite {args.suite!r}; choose from {sorted(SUITES)}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = _out_dir(args)
    os.makedirs(out_dir, exist_ok=True)
    results = run_suite(args.suite, out_dir=out_dir)
    scenarios = [
        {"name": r.cid, "status": "pass" if r.passed else "fail", **r.to_dict()}
        for r in results
    ]
    report = _report(f"verify:{args.suite}", scenarios, t0)
    path = _write_report(report, out_dir, "verify_report.json")
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed; wrote {path}")
    return EXIT_OK if n_fail == 0 else EXIT_CRITERION


# ---------------------------------------------------------------------------
# shared plumbing


def cmd_scenarios(args):
    """Run each --config with the subcommand's runner and merge the reports by name.

    A runner takes the config's ``Validator`` (``name`` read) as ``(v, out_dir[, seed_override])``,
    reads each of its keys once through ``v`` by type before it runs anything, leaves their values to
    the library that takes them, reports a refused value, or what only a run can check, through
    ``v.fail`` at the config key it names, and returns only its own fields of the scenario record."""
    t0 = time.perf_counter()
    out_dir = _out_dir(args)
    os.makedirs(out_dir, exist_ok=True)
    kw = {"seed_override": args.seed} if "seed" in args else {}

    def run_one(path):
        data, linemap = load_config(path)
        v = Validator(data, linemap, str(path))
        name = v.get("name", expected=str)
        t = time.perf_counter()
        record = args.runner(v, out_dir, **kw)
        return {"name": name, "status": "ok", "elapsed_s": time.perf_counter() - t, **record}

    with ThreadPoolExecutor(max_workers=max(args.threads, 1)) as ex:
        futs = [(p, ex.submit(run_one, p)) for p in args.config]
    results = []
    for p, fut in futs:
        try:
            results.append(fut.result())
        except INPUT_ERRORS as exc:
            named = isinstance(exc, ConfigError) and exc.file is not None
            print(f"error: {exc}" if named else f"error: {p}: {exc}", file=sys.stderr)
    if len(results) < len(futs):
        return EXIT_CONFIG
    names = [r["name"] for r in results]
    if len(set(names)) != len(names):
        print("error: duplicate scenario names across configs", file=sys.stderr)
        return EXIT_CONFIG
    report = _report(args.command, results, t0)
    path = _write_report(report, out_dir, f"{args.command}_report.json")
    print(f"wrote {path}")
    return EXIT_OK


SCENARIO_COMMANDS = {
    "transfer": (_run_transfer_scenario, "run a chain of inequality transfers"),
    "sample": (_run_sample_scenario, "sample a path ensemble to a file"),
    "estimate": (_run_estimate_scenario, "run estimators over a stored ensemble"),
}


def make_parser():
    p = argparse.ArgumentParser(
        prog="pathineq",
        description="functional-inequality transfers and path-space Monte Carlo",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (runner, text) in SCENARIO_COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument(
            "--config", action="append", required=True, metavar="PATH",
            help="scenario config file (repeatable)",
        )
        if name == "sample":
            sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument(
            "--threads", type=int, default=1, metavar="N", help="scenario-level: scenarios run at once; "
            "the hyperbolic bridge splits paths, and estimate splits a function family, over one thread per "
            "available CPU; outputs depend on neither")
        sp.set_defaults(fn=cmd_scenarios, runner=runner)

    sp = sub.add_parser("verify", help="run an acceptance suite")
    sp.add_argument("suite", help="suite name (e.g. gaussian, transfer, all)")
    sp.set_defaults(fn=cmd_verify)
    for sp in sub.choices.values():
        sp.add_argument("--out", default=None, metavar="DIR", help="output directory (default $PATHINEQ_OUT)")
    return p


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
