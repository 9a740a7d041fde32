"""Span recorder for the traced benchmark run.

The traced run replaces selected module functions and class attributes of
``pathineq`` with wrappers that record one span per call: name, start, end,
parent span and a work count taken from the call's arguments or result (points,
normals, radii, bytes).  Spans stay in memory in typed arrays and are written
out once, when the run ends; ``summarize`` turns them into the per-layer
metrics.  A span's self time is its duration minus the time its direct child
spans cover.

Nothing under ``src/`` knows about this module: the wrappers sit at the call
boundary, and ``Tracer.restore`` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class SpanRecorder:
    """In-memory spans of one workload run, keyed by ``run_id``."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.stack = []  # open spans; the benchmark calls pathineq from one thread

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(math.nan)
        self.work.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        i = self.open(self.name_id(name))
        try:
            yield i
        finally:
            self.close(i)

    def arrays(self):
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }

    def write(self, path):
        np.savez(path, run_id=np.array(self.run_id), **self.arrays())


def load_spans(path):
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


# ---------------------------------------------------------------------------
# What is wrapped.  Each target is (module, attribute); the attribute may be
# "Class.method".  Work counts read the call's arguments and result at the
# same boundary as the span.


def _result_size(args, kwargs, result):
    return np.size(result)


def _radii(args, kwargs, result):
    return np.size(args[1])


def _path_steps(args, kwargs, result):
    cfg = args[0]
    return cfg.n_paths * (cfg.grid.n_nodes - 1)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _tail_scan_eval(args, kwargs, result):
    return 1.0 if args[0].form == "tail_scan" else 0.0


HYPERBOLIC_FUNCTIONS = (
    "minkowski_dot",
    "dist",
    "exp_map",
    "log_map",
    "parallel_transport",
    "gram_schmidt_tangent",
    "grad_log_heat_kernel",
)
ESTIMATOR_FUNCTIONS = (
    "sup_distance",
    "weight_tail",
    "exp_square_moment",
    "rayleigh_scan",
    "lsi_ratio",
    "variance",
    "entropy",
    "h_gradient_energy",
)
TRANSFER_FUNCTIONS = (
    "tail_to_weak_lsi",
    "weak_lsi_to_weak_poincare",
    "weighted_lsi_to_weak_lsi",
    "weak_lsi_to_poincare",
    "optimize_dyadic_params",
    "replay_profile",
)
_WORK = {
    "minkowski_dot": _result_size,
    "dist": _result_size,
    "dlog_heat_kernel_dr": _radii,
    "step_normals": _result_size,
    "sample_hyperbolic_bridge": _path_steps,
    "save_ensemble": _file_bytes,
    "load_ensemble": _file_bytes,
    "BetaProfile.__call__": _tail_scan_eval,
}

TARGETS = (
    *(("pathineq.hyperbolic", f) for f in HYPERBOLIC_FUNCTIONS),
    ("pathineq.hyperbolic", "dlog_heat_kernel_dr"),
    ("pathineq.hyperbolic", "quad"),
    ("pathineq.samplers", "step_normals"),
    ("pathineq.samplers", "sample_hyperbolic_bridge"),
    ("pathineq.samplers", "save_ensemble"),
    ("pathineq.samplers", "load_ensemble"),
    *(("pathineq.estimators", f) for f in ESTIMATOR_FUNCTIONS),
    ("pathineq.profiles", "TailBound.__call__"),
    ("pathineq.profiles", "TailBound.from_samples"),
    ("pathineq.profiles", "TailBound.__post_init__"),
    ("pathineq.profiles", "BetaProfile.__call__"),
    ("pathineq.profiles", "AlphaProfile.__call__"),
    ("pathineq.profiles", "AlphaProfile.tabulate_monotone"),
    *(("pathineq.transfer", f) for f in TRANSFER_FUNCTIONS),
    ("pathineq.transfer", "poincare_objective"),
    ("pathineq.transfer", "DyadicParams.validate"),
    ("pathineq.pipeline", "run_transfer_pipeline"),
    ("pathineq.pipeline", "pipeline_report"),
    ("pathineq.config", "load_config"),
)


def _wrap(fn, rec, nid, work):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if work is not None:
            rec.work[i] = work(args, kwargs, result)
        return result

    return traced


class Tracer:
    """Installs span wrappers on ``TARGETS`` and restores the originals.

    A module function is replaced in every loaded ``pathineq`` module that
    holds the same object (``from .x import f`` copies the reference), so a
    call is traced whichever module makes it.  A class attribute is replaced
    in the class that defines it; a classmethod is re-wrapped as one.
    """

    def __init__(self, recorder):
        self.recorder = recorder
        self.replaced = []  # (namespace owner, key, original)

    def install(self):
        rec = self.recorder
        for module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            nid = rec.name_id(attr)
            work = _WORK.get(attr)
            if "." in attr:
                cls_name, key = attr.split(".")
                cls = getattr(module, cls_name)
                orig = vars(cls)[key]
                if isinstance(orig, classmethod):
                    wrapped = classmethod(_wrap(orig.__func__, rec, nid, work))
                else:
                    wrapped = _wrap(orig, rec, nid, work)
                setattr(cls, key, wrapped)
                self.replaced.append((cls, key, orig))
                continue
            orig = getattr(module, attr)
            wrapped = _wrap(orig, rec, nid, work)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "pathineq" or mod_name.startswith("pathineq.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self.replaced.append((mod, key, orig))
        return self

    def restore(self):
        while self.replaced:
            owner, key, orig = self.replaced.pop()
            setattr(owner, key, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False


# ---------------------------------------------------------------------------
# Per-layer metrics from spans


def self_times(spans):
    """Duration minus the time the direct child spans cover."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered


def _inside(spans, ancestor_id):
    """Mask of spans that have a span named ``ancestor_id`` above them."""
    name = spans["name"]
    parent = spans["parent"]
    has = parent >= 0
    inside = np.zeros(name.size, dtype=bool)
    inside[has] = name[parent[has]] == ancestor_id
    while True:  # one pass per nesting level
        grown = inside.copy()
        grown[has] |= inside[parent[has]]
        if np.array_equal(grown, inside):
            return inside
        inside = grown


def _ratio(a, b):
    return a / b if b else 0.0


def summarize(spans):
    """Per-name calls, self time and work, plus the derived layer ratios.

    Spans under the ``checks`` phase are left out, except for
    ``replay_profile``, which only the output checks call.
    """
    name = spans["name"]
    n = len(spans["names"])
    ids = {str(s): i for i, s in enumerate(spans["names"])}
    in_checks = _inside(spans, ids["checks"]) if "checks" in ids else np.zeros(name.size, dtype=bool)
    selft = self_times(spans)

    def totals(mask):
        return (
            np.bincount(name[mask], minlength=n),
            np.bincount(name[mask], weights=selft[mask], minlength=n),
            np.bincount(name[mask], weights=spans["work"][mask], minlength=n),
        )

    calls, self_s, work_sum = totals(~in_checks)
    check_calls, check_self_s, _ = totals(in_checks)

    def get(arr, key):
        i = ids.get(key)
        return float(arr[i]) if i is not None else 0.0

    def under(key, ancestor):
        """Mask of the spans named ``key`` that run inside ``ancestor``."""
        if key not in ids or ancestor not in ids:
            return np.zeros(name.size, dtype=bool)
        return (name == ids[key]) & _inside(spans, ids[ancestor]) & ~in_checks

    m = {}
    for f in HYPERBOLIC_FUNCTIONS:
        m[f"{f}.calls"] = get(calls, f)
        m[f"{f}.self_s"] = get(self_s, f)
    m["minkowski_dot.points"] = get(work_sum, "minkowski_dot")
    m["dist.points"] = get(work_sum, "dist")
    path_steps = get(work_sum, "sample_hyperbolic_bridge")
    sampler_dist = spans["work"][under("dist", "sample_hyperbolic_bridge")].sum()
    m["dist.points_per_path_step"] = _ratio(float(sampler_dist), path_steps)

    m["dlog_heat_kernel_dr.calls"] = get(calls, "dlog_heat_kernel_dr")
    m["dlog_heat_kernel_dr.self_s"] = get(self_s, "dlog_heat_kernel_dr")
    m["dlog_heat_kernel_dr.radii"] = get(work_sum, "dlog_heat_kernel_dr")
    m["quad.calls"] = get(calls, "quad")
    m["quad.self_s"] = get(self_s, "quad")
    scenarios = get(calls, "sample_hyperbolic_bridge")
    m["quad.calls_per_scenario"] = _ratio(m["quad.calls"], scenarios)

    m["step_normals.calls"] = get(calls, "step_normals")
    m["step_normals.self_s"] = get(self_s, "step_normals")
    m["step_normals.normals"] = get(work_sum, "step_normals")
    m["sample_hyperbolic_bridge.self_s"] = get(self_s, "sample_hyperbolic_bridge")
    for f in ("save_ensemble", "load_ensemble"):
        m[f"{f}.self_s"] = get(self_s, f)
        m[f"{f}.bytes"] = get(work_sum, f)

    for f in ESTIMATOR_FUNCTIONS:
        m[f"{f}.calls"] = get(calls, f)
        m[f"{f}.self_s"] = get(self_s, f)
    m["sup_distance.calls_per_ensemble"] = _ratio(m["sup_distance.calls"], scenarios)

    for f in ("TailBound.__call__", "TailBound.from_samples", "BetaProfile.__call__", "AlphaProfile.__call__"):
        m[f"{f}.calls"] = get(calls, f)
        m[f"{f}.self_s"] = get(self_s, f)
    m["TailBound.__post_init__.calls"] = get(calls, "TailBound.__post_init__")
    m["AlphaProfile.tabulate_monotone.self_s"] = get(self_s, "AlphaProfile.tabulate_monotone")
    m["TailBound.constructions_per_eval"] = _ratio(
        m["TailBound.__post_init__.calls"], get(work_sum, "BetaProfile.__call__")
    )

    for f in TRANSFER_FUNCTIONS:
        m[f"{f}.calls"] = get(calls, f)
        m[f"{f}.self_s"] = get(self_s, f)
    m["replay_profile.calls"] = get(check_calls, "replay_profile")
    m["replay_profile.self_s"] = get(check_self_s, "replay_profile")
    m["poincare_objective.calls"] = get(calls, "poincare_objective")
    m["DyadicParams.validate.calls"] = get(calls, "DyadicParams.validate")
    m["optimizer.feasible_frac"] = _ratio(
        int(under("poincare_objective", "optimize_dyadic_params").sum()),
        int(under("DyadicParams.validate", "optimize_dyadic_params").sum()),
    )

    m["run_transfer_pipeline.self_s"] = get(self_s, "run_transfer_pipeline")
    m["pipeline_report.self_s"] = get(self_s, "pipeline_report")
    m["load_config.calls"] = get(calls, "load_config")
    m["load_config.self_s"] = get(self_s, "load_config")
    return m
