"""Executable acceptance criteria (A1-A10).

Each criterion runs self-contained with pinned seeds and tolerances and
returns a CriterionResult with one printable pass/fail line.  The pytest
acceptance module and the ``verify`` CLI subcommand both call these.

Statistical tolerances are stated in standard errors of the estimator
involved; hard tolerances come from closed-form or quadrature oracles.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from . import hyperbolic as hyp
from .estimators import (
    coordinate_function,
    exp_half_function,
    green_gram,
    hermite_function,
    lsi_ratio,
    rayleigh_scan,
    sup_distance,
    tail_slope_vs_square,
    weight_tail,
)
from .hyperbolic import HeatKernelParams
from .pipeline import run_transfer_pipeline
from .profiles import BetaProfile, TailBound
from .samplers import (
    SamplerConfig,
    TimeGrid,
    sample_flat_bridge,
    sample_hyperbolic_bridge,
    sample_ou,
    sample_wiener,
)
from .transfer import (
    DyadicParams,
    WeightedLSICertificate,
    optimize_dyadic_params,
    poincare_objective,
    tail_to_weak_lsi,
    weak_lsi_to_poincare,
    weak_lsi_to_weak_poincare,
    weighted_lsi_to_weak_lsi,
)

PAPER_PIPELINE = {
    "name": "paper-pipeline",
    "pipeline": [
        {
            "op": "weak_lsi_to_poincare",
            "beta": {"family": "c_log_inv_s", "C": 1.0, "r0": 0.5},
            "params": {"log2_delta": 0.5, "log2_delta0": 4.5, "epsilon": 0.125},
        }
    ],
}


@dataclass
class CriterionResult:
    cid: str
    passed: bool
    seconds: float
    details: dict = field(default_factory=dict)

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        keys = " ".join(f"{k}={_fmt(v)}" for k, v in self.details.items())
        return f"{self.cid} {status} ({self.seconds:.1f}s) {keys}"

    def to_dict(self):
        return {
            "criterion": self.cid,
            "passed": self.passed,
            "seconds": self.seconds,
            "details": {k: _jsonable(v) for k, v in self.details.items()},
        }


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.4g}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_fmt(x) for x in v) + "]"
    return str(v)


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


CRITERIA = {}  # id -> run(out_dir=None), filled by @_criterion in definition order


def _criterion(cid):
    def wrap(fn):
        def run(out_dir=None):
            t0 = time.perf_counter()
            passed, details = fn(out_dir)
            return CriterionResult(cid=cid, passed=bool(passed), seconds=time.perf_counter() - t0, details=details)

        CRITERIA[cid] = run
        return run

    return wrap


# ---------------------------------------------------------------------------
# shared ensembles (criteria reuse the same big runs)


@functools.cache
def _gaussian_1m():
    cfg = SamplerConfig(seed=777, n_paths=1_000_000, grid=TimeGrid.uniform(1.0, 1), dim=1)
    return sample_wiener(cfg)


@functools.cache
def _bridge_100k():
    grid = TimeGrid.with_geometric_tail(1.0, 128)
    return sample_hyperbolic_bridge(SamplerConfig(seed=2024, n_paths=100_000, grid=grid, dim=3))


# ---------------------------------------------------------------------------
# A1: constant reproduction


@_criterion("A1")
def criterion_a1(out_dir=None):
    results = run_transfer_pipeline(PAPER_PIPELINE)
    res = results[-1]
    alpha = res.profile.value
    A = res.audit_value("A")
    ok = (
        abs(alpha - 40.82) <= 0.10 * 40.82
        and A == 9.0
        and all(any(k == name for k, _ in res.audit) for name in ("C1", "C2", "C3"))
    )
    details = {
        "alpha": alpha,
        "target": 40.82,
        "rel_dev": abs(alpha - 40.82) / 40.82,
        "A": A,
        "C1": res.audit_value("C1"),
        "C2": res.audit_value("C2"),
        "C3": res.audit_value("C3"),
    }
    if out_dir:
        with open(os.path.join(out_dir, "a1_transfer.json"), "w") as fh:
            json.dump(res.to_dict(), fh, indent=1)
    return ok, details


# ---------------------------------------------------------------------------
# A2: optimizer dominance


@_criterion("A2")
def criterion_a2(out_dir=None):
    paper_val = run_transfer_pipeline(PAPER_PIPELINE)[-1].profile.value
    p1 = optimize_dyadic_params(1.0, 0.5, budget=10_000)
    p2 = optimize_dyadic_params(1.0, 0.5, budget=10_000)
    obj = poincare_objective(p1, 1.0)
    ok = obj <= paper_val and p1 == p2
    return ok, {
        "objective": obj,
        "paper_point": paper_val,
        "deterministic": p1 == p2,
        "delta": p1.delta,
        "delta0": p1.delta0,
        "epsilon": p1.epsilon,
    }


# ---------------------------------------------------------------------------
# A3: transfer algebra


@_criterion("A3")
def criterion_a3(out_dir=None):
    details = {}
    # (i) exact linearity in C
    params = DyadicParams(delta0=11.0, delta=1.5, epsilon=0.1)
    lin_ok = True
    worst = 0.0
    for lam in (2.0, 7.0, 0.3):
        a1 = weak_lsi_to_poincare(
            BetaProfile(family="c_log_inv_s", C=1.0, r0=0.5), params
        ).profile.value
        a2 = weak_lsi_to_poincare(
            BetaProfile(family="c_log_inv_s", C=lam, r0=0.5), params
        ).profile.value
        rel = abs(a2 - lam * a1) / (lam * a1)
        worst = max(worst, rel)
        lin_ok &= rel <= 1e-12
    details["linearity_rel_err"] = worst

    # (ii) monotone coupling on 1e3-point grids
    levels = np.arange(0.0, 31.0)
    t1 = TailBound.from_function(lambda s: math.exp(-(s * s)), levels)
    t2 = TailBound.from_function(lambda s: math.exp(-(s * s) / 2.0), levels)
    b1 = tail_to_weak_lsi(1.0, t1).profile
    b2 = tail_to_weak_lsi(1.0, t2).profile
    grid = np.geomspace(max(b1.eval_floor, b2.eval_floor) * 1.01, 10.0, 1000)
    mono_beta = all(b1(s) <= b2(s) for s in grid)
    w1 = weak_lsi_to_weak_poincare(b1).profile
    w2 = weak_lsi_to_weak_poincare(b2).profile
    lo = max(w1.eval_floor, w2.eval_floor) * 1.05
    hi = min(w1.r0, w2.r0) * 0.99
    agrid = np.geomspace(lo, hi, 1000)
    mono_alpha = all(w1(s) <= w2(s) for s in agrid)
    details["beta_monotone_coupling"] = mono_beta
    details["alpha_monotone_coupling"] = mono_alpha

    # (iii) asymptotic log rate within 20% on s in [1e-30, 1e-20]
    cert = WeightedLSICertificate(a=0.05, C_exp=0.05, M=1.0)
    prof = weighted_lsi_to_weak_lsi(cert).profile
    target = 4.0 / cert.C_exp
    ratios = [prof(s) / abs(math.log(s)) / target for s in np.geomspace(1e-30, 1e-20, 1000)]
    band_ok = 0.8 <= min(ratios) and max(ratios) <= 1.2
    details["log_rate_ratio_range"] = [min(ratios), max(ratios)]

    return lin_ok and mono_beta and mono_alpha and band_ok, details


# ---------------------------------------------------------------------------
# A4: Gaussian Poincare via Hermite Rayleigh quotients


@_criterion("A4")
def criterion_a4(out_dir=None):
    ens = _gaussian_1m()
    scan = rayleigh_scan([hermite_function(k, 1.0) for k in (1, 2, 3)], ens)
    targets = (1.0, 0.5, 1.0 / 3.0)
    ok = True
    zs, ses = [], []
    for row, tgt in zip(scan.rows, targets):
        z = abs(row.ratio.value - tgt) / row.ratio.std_error
        zs.append(z)
        ses.append(row.ratio.std_error)
        ok &= z <= 3.0 and row.ratio.std_error < 0.01
    best = scan.best_ratio
    ok &= abs(best.value - 1.0) <= 3.0 * best.std_error
    return ok, {
        "ratios": [r.ratio.value for r in scan.rows],
        "z_scores": zs,
        "std_errors": ses,
        "best_ratio": best.value,
    }


# ---------------------------------------------------------------------------
# A5: Gaussian log-Sobolev constant 2


@_criterion("A5")
def criterion_a5(out_dir=None):
    ens = _gaussian_1m()
    ok = True
    vals, zs = [], []
    for lam in (0.25, 0.5, 1.0):
        est = lsi_ratio(exp_half_function(lam, 1.0), ens)
        z = abs(est.value - 2.0) / est.std_error
        vals.append(est.value)
        zs.append(z)
        ok &= z <= 3.0
    return ok, {"ratios": vals, "z_scores": zs, "target": 2.0}


# ---------------------------------------------------------------------------
# A6: flat bridge covariance and Rayleigh ratio


@_criterion("A6")
def criterion_a6(out_dir=None):
    cfg = SamplerConfig(seed=555, n_paths=100_000, grid=TimeGrid.uniform(1.0, 64), dim=1)
    ens = sample_flat_bridge(cfg)
    endpoint_exact = bool(np.all(ens.points[:, -1, :] == 0.0))
    X = ens.points[:, :, 0]
    C = (X.T @ X) / cfg.n_paths
    theory = green_gram(ens, ens.grid.nodes)  # the bridge covariance is its Cameron-Martin kernel
    se = np.sqrt((np.outer(np.diag(theory), np.diag(theory)) + theory**2) / cfg.n_paths)
    inner = slice(1, -1)
    zmax = float(
        (np.abs(C - theory)[inner, inner] / np.maximum(se[inner, inner], 1e-300)).max()
    )
    ratio = rayleigh_scan([coordinate_function(0.5)], ens).best_ratio
    z_ratio = abs(ratio.value - 1.0) / ratio.std_error
    ok = endpoint_exact and zmax < 4.0 and z_ratio <= 3.0
    return ok, {
        "endpoint_exact": endpoint_exact,
        "cov_max_z": zmax,
        "midpoint_ratio": ratio.value,
        "ratio_z": z_ratio,
    }


# ---------------------------------------------------------------------------
# A7: Ornstein-Uhlenbeck laws


@_criterion("A7")
def criterion_a7(out_dir=None):
    grid = TimeGrid.uniform(3.0, 12)
    ens = sample_ou(SamplerConfig(seed=333, n_paths=100_000, grid=grid, dim=1))
    ks = max(stats.kstest(ens.points[:, k, 0], "norm").statistic for k in (0, 6, 12))
    u0 = ens.points[:, 0, 0]
    ts = [t for t in grid.nodes if 0.5 <= t <= 3.0]
    covs = []
    for t in ts:
        ut = ens.points[:, grid.index_of(t), 0]
        covs.append(float(np.mean(u0 * ut) - u0.mean() * ut.mean()))
    rate = -float(np.polyfit(ts, np.log(covs), 1)[0])
    ok = ks < 0.01 and abs(rate - 0.5) <= 0.05 * 0.5
    return ok, {"stationary_ks": ks, "decay_rate": rate, "target_rate": 0.5}


# ---------------------------------------------------------------------------
# A8: hyperbolic heat kernel oracles


@_criterion("A8")
def criterion_a8(out_dir=None):
    details = {}
    mass_err = 0.0
    for n, t in ((3, 0.3), (3, 1.0), (2, 0.5)):
        err = abs(hyp.kernel_mass(t, HeatKernelParams(n=n)) - 1.0)
        mass_err = max(mass_err, err)
    details["mass_err"] = mass_err

    params3 = HeatKernelParams(n=3)
    ck = abs(
        hyp.chapman_kolmogorov_lhs(0.3, 1.0, 0.7, params3) - hyp.heat_kernel(1.0, 0.7, params3)
    )
    details["chapman_kolmogorov_err"] = ck

    rel_max = 0.0
    for n in (2, 3):
        params = HeatKernelParams(n=n)
        for t in (0.25, 1.0):
            for r in (0.2, 0.7, 1.5, 3.0):
                h = 1e-4 * max(1.0, r)
                fd = (
                    math.log(float(hyp.heat_kernel(t, r + h, params)))
                    - math.log(float(hyp.heat_kernel(t, r - h, params)))
                ) / (2.0 * h)
                an = float(hyp.dlog_heat_kernel_dr(t, r, params))
                rel_max = max(rel_max, abs(an - fd) / abs(fd))
    details["gradlog_fd_rel"] = rel_max

    ok = mass_err < 1e-6 and ck < 1e-5 and rel_max < 1e-5
    return ok, details


# ---------------------------------------------------------------------------
# A9: hyperbolic bridge dynamics


@_criterion("A9")
def criterion_a9(out_dir=None):
    details = {}
    # refinement study: pre-snap endpoint gap decreases over 3 dyadic
    # refinements (midpoint insertion halves every step, tail floor included)
    gaps = []
    grid = TimeGrid.with_geometric_tail(1.0, 16)
    for _ in range(3):
        cfg = SamplerConfig(seed=37, n_paths=2000, grid=grid, dim=3)
        gaps.append(sample_hyperbolic_bridge(cfg).diagnostics["presnap_gap_median"])
        grid = grid.refined()
    mono = gaps[0] > gaps[1] > gaps[2]
    details["presnap_gaps"] = gaps

    ens = _bridge_100k()
    grid = ens.grid
    o = hyp.origin(3)
    ks_rev = 0.0
    for t in (0.25, 0.375):
        i, j = grid.index_of(t), grid.index_of(1.0 - t)
        di = hyp.dist(ens.points[:, i, :], o)
        dj = hyp.dist(ens.points[:, j, :], o)
        ks_rev = max(ks_rev, stats.ks_2samp(di, dj).statistic)
    details["time_reversal_ks"] = ks_rev

    i = grid.index_of(0.5)
    d_mid = hyp.dist(ens.points[:, i, :], o)
    rg = np.linspace(0.0, max(6.0, float(d_mid.max()) * 1.1), 400)
    cdfg = hyp.bridge_radial_cdf(0.5, 1.0, rg, HeatKernelParams(n=3))
    ks_marg = stats.kstest(d_mid, lambda x: np.interp(x, rg, cdfg)).statistic
    details["marginal_radial_ks"] = float(ks_marg)
    details["cap_event_fraction"] = ens.diagnostics["cap_event_fraction"]

    ok = mono and ks_rev < 0.02 and ks_marg < 0.02
    return ok, details


# ---------------------------------------------------------------------------
# A10: end-to-end weighted-tail pipeline on the loop space


@_criterion("A10")
def criterion_a10(out_dir=None):
    ens = _bridge_100k()
    u = sup_distance(ens)
    slope, se = tail_slope_vs_square(u)
    slope_ok = slope < 0 and slope + 2.326 * se < 0  # one-sided 99%

    tail = weight_tail(u)
    # |grad u|_H <= sup_t sqrt(G(t,t)) = sqrt(T)/2 for the pinned kernel:
    # the sup-distance is a max of 1-Lipschitz functions of single path values
    a_lip = math.sqrt(ens.grid.T) / 2.0
    res_wl = tail_to_weak_lsi(a_lip, tail)
    res_wp = weak_lsi_to_weak_poincare(res_wl.profile)
    grid, alpha = res_wp.profile.tabulate_monotone(n_points=48)
    finite = bool(np.all(np.isfinite(alpha)) and np.all(alpha > 0))
    nonincreasing = bool(np.all(np.diff(alpha) <= 0))

    if out_dir:
        with open(os.path.join(out_dir, "a10_pipeline.json"), "w") as fh:
            json.dump(
                {
                    "tail": tail.to_dict(),
                    "weak_lsi": res_wl.to_dict(),
                    "weak_poincare": res_wp.to_dict(),
                    "alpha_profile": {"s": list(grid), "alpha": list(alpha)},
                },
                fh,
                indent=1,
            )

    ok = slope_ok and finite and nonincreasing
    return ok, {
        "tail_slope": slope,
        "slope_99_upper": slope + 2.326 * se,
        "alpha_range": [float(alpha.min()), float(alpha.max())],
        "alpha_nonincreasing": nonincreasing,
        "s_window": [float(grid[0]), float(grid[-1])],
        "weak_lsi_s_min": res_wl.audit_value("s_min"),
    }


# ---------------------------------------------------------------------------
# suites


SUITES = {
    "transfer": ["A1", "A2", "A3"],
    "gaussian": ["A4", "A5"],
    "flat-bridge": ["A6"],
    "ou": ["A7"],
    "heat-kernel": ["A8"],
    "hyperbolic-bridge": ["A9"],
    "aida": ["A10"],
    "all": list(CRITERIA),
}

RUNTIME_BUDGETS = {"A1": 1.0, "A2": 10.0, "A4": 30.0, "A6": 60.0, "A9": 300.0}


def run_suite(name, out_dir=None, echo=print):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    results = []
    for cid in SUITES[name]:
        res = CRITERIA[cid](out_dir=out_dir)
        budget = RUNTIME_BUDGETS.get(cid)
        if budget is not None and res.seconds > budget:
            res.passed = False
            res.details["runtime_budget_s"] = budget
        if echo:
            echo(res.line())
        results.append(res)
    return results
