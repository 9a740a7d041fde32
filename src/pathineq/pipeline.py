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

from .config import present
from .profiles import BetaProfile, DomainError, TailBound
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
    key = next((k for k in ("file", "from_ensemble") if k in spec), None)
    if key is None:
        raise PipelineError("tail spec needs 'levels', 'file' or 'from_ensemble'")
    path = os.path.join(base_dir or "", spec[key])
    if key == "file":
        with open(path) as fh:
            return TailBound.from_dict(json.load(fh))
    from .estimators import sup_distance, weight_tail
    from .samplers import load_ensemble

    return weight_tail(sup_distance(load_ensemble(path)), **present(spec, ("confidence",)))


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
                c = stage["cert"]
                cert = WeightedLSICertificate(a=c["a"], C_exp=c["C_exp"], **present(c, ("M",)))
                res = weighted_lsi_to_weak_lsi(cert, **present(stage, ("smooth",)))
            elif op == "tail_to_weak_lsi":
                tail = _load_tail(stage["tail"], base_dir)
                res = tail_to_weak_lsi(stage["a"], tail, **present(stage, ("n_cap",)))
            elif op == "weak_lsi_to_poincare":
                beta = _load_beta(stage.get("beta"), prev)
                params = _load_params(stage.get("params"))
                res = weak_lsi_to_poincare(beta, params, **present(stage, ("budget",)))
            elif op == "weak_lsi_to_weak_poincare":
                beta = _load_beta(stage.get("beta"), prev)
                kw = present(stage, ("delta", "delta0", "r", "sigma_cap"))
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
