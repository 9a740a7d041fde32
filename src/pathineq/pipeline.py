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


_NUM = (int, float)

# each op's stage keys and their types: (required, optional, the keyword
# options passed on to its transfer); a stage with no beta takes the previous
# stage's profile, and a tail is inline levels and values, a file or an ensemble
_BETA = {"beta": dict, "beta.C": _NUM, "beta.r0": _NUM}
_TAIL = {"tail.levels": list, "tail.values": list, "tail.file": str, "tail.from_ensemble": str,
         "tail.confidence": _NUM}
STAGE_KEYS = {
    "weighted_lsi_to_weak_lsi": (
        {"cert": dict, "cert.a": _NUM, "cert.C_exp": _NUM}, {"cert.M": _NUM}, {"smooth": bool},
    ),
    "tail_to_weak_lsi": ({"a": _NUM, "tail": dict}, _TAIL, {"n_cap": int}),
    "weak_lsi_to_poincare": ({}, {**_BETA, "params": (str, dict)}, {"budget": int}),
    "weak_lsi_to_weak_poincare": ({}, _BETA, {"delta": _NUM, "delta0": _NUM, "r": _NUM, "sigma_cap": _NUM}),
}


def validate_transfer(v):
    """Check a transfer scenario's keys, every stage by its op, before any
    transfer runs; returns the options of ``pipeline_report``."""
    stages = v.get("pipeline", expected=list)
    if not stages:
        v.fail("pipeline", "no stages")
    for i in range(len(stages)):
        stage = f"pipeline[{i}]"
        op = v.get(f"{stage}.op", expected=str, choices=STAGE_KEYS)
        required, optional, options = STAGE_KEYS[op]
        for key, expected in required.items():
            v.get(f"{stage}.{key}", expected=expected)
        got = {key: v.get(f"{stage}.{key}", expected=expected, required=False)
               for key, expected in {**optional, **options}.items()}
        confidence = got.get("tail.confidence")
        if confidence is not None and got["tail.from_ensemble"] is None:
            v.fail(f"{stage}.tail.confidence", "confidence applies only to a tail from_ensemble")
        if confidence is not None and not 0 < confidence < 1:
            v.fail(f"{stage}.tail.confidence", "confidence must lie in (0, 1)")
        params = got.get("params")
        if isinstance(params, str) and params != "auto":
            v.fail(f"{stage}.params", f"expected 'auto' or a mapping, got {params!r}")
        for key in params if isinstance(params, dict) else ():
            v.get(f"{stage}.params.{key}", expected=_NUM)
        # beta and params are left to their constructors, on any stage
        v.read.update(f"{stage}.{key}" for key in ("beta", "params"))
        v.reject_unread(stage, *(f"{stage}.{key}" for key in ("cert", "tail") if key in required))
    v.get("profile_grid", expected=dict, required=False)
    points = v.get("profile_grid.points", expected=int, required=False)
    if points is not None and points < 1:
        v.fail("profile_grid.points", "points must be >= 1")
    v.reject_unread("", "profile_grid")
    return {} if points is None else {"grid_points": points}


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
            if not isinstance(op, str) or op not in STAGE_KEYS:
                raise PipelineError(f"unknown op {op!r}")
            kw = present(stage, STAGE_KEYS[op][2])
            if op == "weighted_lsi_to_weak_lsi":
                c = stage["cert"]
                cert = WeightedLSICertificate(a=c["a"], C_exp=c["C_exp"], **present(c, ("M",)))
                res = weighted_lsi_to_weak_lsi(cert, **kw)
            elif op == "tail_to_weak_lsi":
                res = tail_to_weak_lsi(stage["a"], _load_tail(stage["tail"], base_dir), **kw)
            elif op == "weak_lsi_to_poincare":
                beta = _load_beta(stage.get("beta"), prev)
                res = weak_lsi_to_poincare(beta, _load_params(stage.get("params")), **kw)
            else:
                res = weak_lsi_to_weak_poincare(_load_beta(stage.get("beta"), prev), **kw)
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
