"""Declarative chains of transfer operations.

A pipeline spec is a list of stages; each stage names an operation and its
inputs.  Rate profiles flow from one stage to the next (a stage that needs a
beta profile takes the previous weak-LSI stage's output unless C log(1/s) is
given inline), so a spec like

    pipeline:
      - op: tail_to_weak_lsi
        a: 0.5
        tail: {from_ensemble: bridge.pens}
      - op: weak_lsi_to_weak_poincare

chains an empirical tail into a weak Poincare profile.  Each op's reader
reads its stage's keys by type before any transfer runs, the keys inside
``cert``, ``tail``, ``beta`` and ``params`` and the source of a beta
included, and refuses a key it does not take: a library caller gets the CLI's
``ConfigError`` naming the key.  A transfer that fails, or a tail file that
``TailBound.from_dict`` refuses, aborts with the stage index and op name.
``pipeline_report`` tabulates each profile on an int number of points in
[1, ``MAX_GRID_POINTS``]; ``grid_points_error`` says why another is refused,
and the CLI asks it about ``profile_grid.points`` before any transfer runs.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .config import Validator
from .profiles import BetaProfile, DomainError, TailBound
from .transfer import (DyadicParams, WeightedLSICertificate, tail_to_weak_lsi, weak_lsi_to_poincare,
                       weak_lsi_to_weak_poincare, weighted_lsi_to_weak_lsi)

_OPS = ("weighted_lsi_to_weak_lsi", "tail_to_weak_lsi", "weak_lsi_to_poincare", "weak_lsi_to_weak_poincare")
_NUM = (int, float)
_WEAK_LSI = ("weighted_lsi_to_weak_lsi", "tail_to_weak_lsi")  # the ops whose result is a beta profile


MAX_GRID_POINTS = 10**5  # profile points a stage tabulates: 1.4 s on a smooth weak-Poincare chain, 2 Xeon cores


class PipelineError(ValueError):
    pass


def grid_points_error(points):
    """Why ``points`` cannot be the size of a report's profile tables, or None: it must be an int, not a
    bool, in [1, MAX_GRID_POINTS]."""
    if isinstance(points, bool) or not isinstance(points, (int, np.integer)):
        return f"points must be an int, got {points!r}"
    if not 1 <= points <= MAX_GRID_POINTS:
        return f"points must lie in [1, {MAX_GRID_POINTS}], got {points}"
    return None


def _tail(v, path, base_dir):
    """The loader of one tail: inline ``levels`` and ``values``, a tail ``file``, or the sup distances of the
    ensemble ``from_ensemble`` at an optional ``confidence``."""
    sources = v.given(path, {"levels": list, "file": str, "from_ensemble": str})
    if len(sources) != 1:
        v.fail(f"{path}.{list(sources)[1]}" if sources else path, "a tail takes one of levels, file or from_ensemble")
    ((source, at),) = sources.items()
    kw = v.mapping(path, {"values": list} if source == "levels" else {}, {"confidence": _NUM})
    if "confidence" in kw and source != "from_ensemble":
        v.fail(f"{path}.confidence", "confidence applies only to a tail from_ensemble")
    if "confidence" in kw and not 0 < kw["confidence"] < 1:
        v.fail(f"{path}.confidence", "confidence must lie in (0, 1)")
    if source == "levels":
        levels, values = v.numbers(f"{path}.levels"), v.numbers(f"{path}.values")
        return lambda: TailBound(levels, values)

    def load():
        file = os.path.join(base_dir or "", at)
        if source == "file":
            with open(file) as fh:
                return TailBound.from_dict(json.load(fh))
        from .estimators import sup_distance, weight_tail
        from .samplers import load_ensemble

        return weight_tail(sup_distance(load_ensemble(file)), **kw)

    return load


def _read_stage(v, stage, op, prev_op, base_dir):
    """Read the ``op`` stage's keys, ``prev_op`` the op before it; returns its transfer of the previous result."""
    if op == "weighted_lsi_to_weak_lsi":
        cert = v.mapping(f"{stage}.cert", {"a": _NUM, "C_exp": _NUM}, {"M": _NUM})
        kw = v.mapping(stage, {}, {"smooth": bool})
        return lambda prev: weighted_lsi_to_weak_lsi(WeightedLSICertificate(**cert), **kw)
    if op == "tail_to_weak_lsi":
        tail = _tail(v, f"{stage}.tail", base_dir)
        kw = v.mapping(stage, {"a": _NUM}, {})
        return lambda prev: tail_to_weak_lsi(tail=tail(), **kw)
    # a beta stage takes C log(1/s) on (0, r0) inline, or the previous stage's weak-LSI profile
    if (beta := v.get(f"{stage}.beta", expected=dict, required=False)) is not None:
        v.get(f"{stage}.beta.family", expected=str, required=False, choices=("c_log_inv_s",))
        beta = v.mapping(f"{stage}.beta", {"C": _NUM, "r0": _NUM}, {})
    if op == "weak_lsi_to_weak_poincare":
        transfer = weak_lsi_to_weak_poincare
        kw = v.mapping(stage, {}, dict.fromkeys(("delta", "delta0", "r", "sigma_cap"), _NUM))
    else:
        params = v.get(f"{stage}.params", expected=(str, dict), required=False, default="auto")
        if isinstance(params, str) and params != "auto":
            v.fail(f"{stage}.params", f"expected 'auto' or a mapping, got {params!r}")
        if params != "auto":  # a log2_delta key picks the base-2 exponents of delta and delta0
            dyadic, pre = (DyadicParams.from_pow2, "log2_") if "log2_delta" in params else (DyadicParams, "")
            params = v.mapping(f"{stage}.params", {f"{pre}delta": _NUM, f"{pre}delta0": _NUM, "epsilon": _NUM}, {})
        kw = v.mapping(stage, {}, {})

        def transfer(b):
            return weak_lsi_to_poincare(b, None if params == "auto" else dyadic(**params))
    if beta is None and prev_op not in _WEAK_LSI:  # after the stage's own keys, so a bad one is named first
        v.fail(f"{stage}.beta", f"needs an inline beta or a weak-LSI stage before it, got {prev_op or 'no stage'}")
    return lambda prev: transfer(prev.profile if beta is None else BetaProfile("c_log_inv_s", **beta), **kw)


def run_transfer_pipeline(spec, base_dir=None):
    """Run the stages of ``spec``, a scenario mapping or a ``config.Validator`` of one; returns their results.
    Every stage is read first: a bad key raises a ``ConfigError`` naming it, a failed stage a ``PipelineError``."""
    v = spec if isinstance(spec, Validator) else Validator(spec, {}, None)
    if not (n := len(v.get("pipeline", expected=list, required=False, default=[]))):
        v.fail("pipeline", "no stages")
    ops = [v.get(f"pipeline[{i}].op", expected=str, choices=_OPS) for i in range(n)]
    transfers = [_read_stage(v, f"pipeline[{i}]", op, ops[i - 1] if i else None, base_dir) for i, op in enumerate(ops)]
    results = []
    for i, (op, transfer) in enumerate(zip(ops, transfers)):
        try:
            results.append(transfer(results[-1] if results else None))
        except ValueError as exc:
            raise PipelineError(f"stage {i} ({op}): {exc}") from exc
    return results


def pipeline_report(results, grid_points=48):
    """JSON-ready view of a pipeline run: kinds, profiles, audits, and a
    tabulated (monotone, where applicable) profile per stage.  A ``grid_points`` that
    ``grid_points_error`` refuses raises a ``PipelineError`` before any table is built."""
    if why := grid_points_error(grid_points):
        raise PipelineError(why)
    out = []
    for res in results:
        entry = res.to_dict()
        prof = res.profile
        try:
            if res.kind == "poincare":
                entry["tabulated"] = {"constant": prof.value}
            elif res.kind == "weak_poincare":
                g, v = prof.tabulate_monotone(n_points=grid_points)
                entry["tabulated"] = {"s": g.tolist(), "alpha": v.tolist()}
            else:
                lo = max(prof.eval_floor * 1.01, 1e-12)
                hi = prof.r0 * 0.99 if math.isfinite(prof.r0) else 10.0
                if lo < hi:
                    g = np.geomspace(lo, hi, grid_points)
                    entry["tabulated"] = {"s": g.tolist(), "beta": prof.tabulate(g).tolist()}
        except DomainError as exc:  # a profile with no evaluable range is reported, not fatal
            entry["tabulated"] = {"error": str(exc)}
        out.append(entry)
    return out
