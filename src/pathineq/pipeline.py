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

chains an empirical tail into a weak Poincare profile.  Each op's reader
reads its stage's keys by type, before any transfer runs, and refuses a key
the op does not take: a library caller gets the CLI's ``ConfigError`` naming
the key.  A transfer that fails aborts with the stage index and op name.
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


class PipelineError(ValueError):
    pass


def _set(v, path, types):
    """The keys of ``types`` that the mapping at ``path`` sets, each read by type."""
    return {k: x for k, t in types.items() if (x := v.get(f"{path}.{k}", expected=t, required=False)) is not None}


def _keys(v, path, required, optional):
    """The mapping at ``path``: each ``required`` key and each ``optional`` one it sets, so a default lives
    only in the signature that takes it.  A key that no read has taken is refused."""
    v.get(path, expected=dict)
    got = {k: v.get(f"{path}.{k}", expected=t) for k, t in required.items()} | _set(v, path, optional)
    v.reject_unread(path)
    return got


def _tail(v, path, base_dir):
    """The loader of one tail: inline ``levels`` and ``values``, a tail ``file``, or the sup distances of the
    ensemble ``from_ensemble`` at an optional ``confidence``."""
    sources = _set(v, path, {"levels": list, "file": str, "from_ensemble": str})
    if len(sources) != 1:
        v.fail(f"{path}.{list(sources)[1]}" if sources else path, "a tail takes one of levels, file or from_ensemble")
    ((source, at),) = sources.items()
    kw = _keys(v, path, {"values": list} if source == "levels" else {}, {"confidence": _NUM})
    if "confidence" in kw and source != "from_ensemble":
        v.fail(f"{path}.confidence", "confidence applies only to a tail from_ensemble")
    if "confidence" in kw and not 0 < kw["confidence"] < 1:
        v.fail(f"{path}.confidence", "confidence must lie in (0, 1)")

    def load():
        if source == "levels":
            return TailBound(at, kw["values"])
        file = os.path.join(base_dir or "", at)
        if source == "file":
            with open(file) as fh:
                return TailBound.from_dict(json.load(fh))
        from .estimators import sup_distance, weight_tail
        from .samplers import load_ensemble

        return weight_tail(sup_distance(load_ensemble(file)), **kw)

    return load


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
    if spec == "auto":
        return None
    if "log2_delta" in spec:
        return DyadicParams.from_pow2(spec["log2_delta"], spec["log2_delta0"], spec["epsilon"])
    return DyadicParams(delta0=spec["delta0"], delta=spec["delta"], epsilon=spec["epsilon"])


def _read_stage(v, stage, op, base_dir):
    """Read the ``op`` stage's keys; returns its transfer, a function of the previous stage's result."""
    if op == "weighted_lsi_to_weak_lsi":
        cert = _keys(v, f"{stage}.cert", {"a": _NUM, "C_exp": _NUM}, {"M": _NUM})
        kw = _keys(v, stage, {}, {"smooth": bool})
        return lambda prev: weighted_lsi_to_weak_lsi(WeightedLSICertificate(**cert), **kw)
    if op == "tail_to_weak_lsi":
        tail = _tail(v, f"{stage}.tail", base_dir)
        kw = _keys(v, stage, {"a": _NUM}, {"n_cap": int})
        return lambda prev: tail_to_weak_lsi(tail=tail(), **kw)
    # a beta stage takes the previous stage's profile unless one is inline; only C and r0 are typed here,
    # the other keys inside are its constructor's
    beta = v.get(f"{stage}.beta", expected=dict, required=False)
    _set(v, f"{stage}.beta", {"C": _NUM, "r0": _NUM})
    if op == "weak_lsi_to_weak_poincare":
        kw = _keys(v, stage, {}, dict.fromkeys(("delta", "delta0", "r", "sigma_cap"), _NUM))
        return lambda prev: weak_lsi_to_weak_poincare(_load_beta(beta, prev), **kw)
    params = v.get(f"{stage}.params", expected=(str, dict), required=False, default="auto")
    if isinstance(params, str) and params != "auto":
        v.fail(f"{stage}.params", f"expected 'auto' or a mapping, got {params!r}")
    for key in params if isinstance(params, dict) else ():  # the keys are its constructor's, the values numbers
        v.get(f"{stage}.params.{key}", expected=_NUM)
    kw = _keys(v, stage, {}, {"budget": int})
    if "budget" in kw and params != "auto":
        v.fail(f"{stage}.budget", "budget applies only to params: auto")
    return lambda prev: weak_lsi_to_poincare(_load_beta(beta, prev), _load_params(params), **kw)


def run_transfer_pipeline(spec, base_dir=None):
    """Run the stages of ``spec``, a scenario mapping or a ``config.Validator`` of one; returns their results.
    Every stage is read first: a bad key raises a ``ConfigError`` naming it, a failed stage a ``PipelineError``."""
    v = spec if isinstance(spec, Validator) else Validator(spec, {}, None)
    n = len(v.get("pipeline", expected=list, required=False, default=[]))
    if not n:
        v.fail("pipeline", "no stages")
    ops = [v.get(f"pipeline[{i}].op", expected=str, choices=_OPS) for i in range(n)]
    transfers = [_read_stage(v, f"pipeline[{i}]", op, base_dir) for i, op in enumerate(ops)]
    results = []
    for i, (op, transfer) in enumerate(zip(ops, transfers)):
        try:  # a KeyError is a key missing inside beta, params or a tail file, which their constructors read
            results.append(transfer(results[-1] if results else None))
        except (KeyError, ValueError) as exc:
            raise PipelineError(f"stage {i} ({op}): {exc}") from exc
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
