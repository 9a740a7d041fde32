"""Declarative chains of transfer operations.

A pipeline spec is a list of stages; each stage names an operation and its
inputs.  Rate profiles flow from one stage to the next (a stage that needs a
beta profile takes the previous stage's output unless one is given inline),
so a spec like

    pipeline:
      - op: tail_to_weak_lsi
        a: 0.5
        tail: {from_ensemble: bridge.pens}
      - op: weak_lsi_to_weak_poincare

chains an empirical tail into a weak Poincare profile.  Stage failures abort
with the stage index and operation name.
"""

from __future__ import annotations

import math

import numpy as np

from .profiles import BetaProfile, TailBound
from .transfer import (
    DyadicParams,
    TransferError,
    WeightedLSICertificate,
    tail_to_weak_lsi,
    weak_lsi_to_poincare,
    weak_lsi_to_weak_poincare,
    weighted_lsi_to_weak_lsi,
)


class PipelineError(ValueError):
    pass


def _load_tail(spec, base_dir=None):
    import json
    import os

    if "levels" in spec:
        return TailBound.from_dict({"type": "tail_bound", **spec})
    if "file" in spec:
        path = spec["file"]
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        with open(path) as fh:
            return TailBound.from_dict(json.load(fh))
    if "from_ensemble" in spec:
        from .estimators import weight_tail
        from .samplers import load_ensemble

        path = spec["from_ensemble"]
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        ens = load_ensemble(path)
        return weight_tail(ens, confidence=spec.get("confidence", 0.99))
    raise PipelineError("tail spec needs 'levels', 'file' or 'from_ensemble'")


def _load_beta(spec, prev):
    if spec is None:
        if prev is None or prev.kind != "weak_lsi":
            got = "no previous stage" if prev is None else f"a {prev.kind} result"
            raise PipelineError(
                f"stage needs a weak-LSI beta profile inline or from the previous stage, got {got}"
            )
        return prev.profile
    # shorthand: {C: ..., r0: ...} means the logarithmic family
    if "family" in spec or ("C" in spec and "r0" in spec):
        return BetaProfile.from_dict({"type": "beta_profile", "family": "c_log_inv_s", **spec})
    raise PipelineError(f"cannot interpret beta spec {spec!r}")


def _load_params(spec):
    if spec is None or spec == "auto":
        return None
    if "log2_delta" in spec:
        return DyadicParams.from_pow2(
            spec["log2_delta"], spec["log2_delta0"], spec["epsilon"]
        )
    return DyadicParams(
        delta0=spec["delta0"], delta=spec["delta"], epsilon=spec["epsilon"]
    )


def run_transfer_pipeline(spec, base_dir=None):
    """Execute the stages; returns the list of TransferResults in order."""
    stages = spec.get("pipeline")
    if not stages:
        raise PipelineError("no stages")
    results = []
    prev = None
    for i, stage in enumerate(stages):
        op = stage.get("op")
        try:
            if op == "weighted_lsi_to_weak_lsi":
                cert = WeightedLSICertificate(
                    a=stage["cert"]["a"],
                    C_exp=stage["cert"]["C_exp"],
                    M=stage["cert"].get("M", 1.0),
                )
                res = weighted_lsi_to_weak_lsi(cert, smooth=stage.get("smooth", False))
            elif op == "tail_to_weak_lsi":
                tail = _load_tail(stage["tail"], base_dir)
                res = tail_to_weak_lsi(
                    stage["a"], tail, n_cap=stage.get("n_cap", 1000)
                )
            elif op == "weak_lsi_to_poincare":
                beta = _load_beta(stage.get("beta"), prev)
                params = _load_params(stage.get("params"))
                res = weak_lsi_to_poincare(
                    beta, params, budget=stage.get("budget", 10_000)
                )
            elif op == "weak_lsi_to_weak_poincare":
                beta = _load_beta(stage.get("beta"), prev)
                kw = {}
                for key in ("delta", "delta0", "r", "sigma_cap"):
                    if key in stage:
                        kw[key] = stage[key]
                res = weak_lsi_to_weak_poincare(beta, **kw)
            else:
                raise PipelineError(f"unknown op {op!r}")
        except (TransferError, KeyError, ValueError) as exc:
            if isinstance(exc, PipelineError) and op is None:
                raise
            raise PipelineError(f"stage {i} ({op}): {exc}") from exc
        results.append(res)
        prev = res
    return results


def pipeline_report(results, grid_points=48):
    """JSON-ready view of a pipeline run: kinds, profiles, audits, and a
    tabulated (monotone, where applicable) profile per stage."""
    out = []
    for res in results:
        entry = res.to_dict()
        prof = res.profile
        try:
            if res.kind == "poincare":
                entry["tabulated"] = {"constant": prof.value}
            elif res.kind == "weak_poincare":
                g, v = prof.tabulate_monotone(n_points=grid_points)
                entry["tabulated"] = {"s": list(g), "alpha": list(v)}
            else:
                lo = max(prof.eval_floor * 1.01, 1e-12)
                hi = prof.r0 * 0.99 if math.isfinite(prof.r0) else 10.0
                if lo < hi:
                    g = np.geomspace(lo, hi, grid_points)
                    entry["tabulated"] = {"s": list(g), "beta": list(prof.tabulate(g))}
        except Exception as exc:  # tabulation is best-effort reporting
            entry["tabulated"] = {"error": str(exc)}
        out.append(entry)
    return out
