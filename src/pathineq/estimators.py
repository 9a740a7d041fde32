"""Cylindrical test functions, H-gradient energies, and Monte Carlo estimators.

A cylindrical function F(sigma) = f(sigma_{t_1}, ..., sigma_{t_k}) is
differentiated along Cameron-Martin directions only.  On flat path space the
squared H-gradient is the Green-kernel pairing

    |grad F|_H^2 = sum_{ij} G(t_i, t_j) <d_i f, d_j f>,

with G(s,t) = s ^ t on based paths and G(s,t) = s ^ t - s t / T on bridges
(the reproducing kernel of the pinned finite-energy paths; this normalization
makes the flat-bridge Poincare constant exactly 1).  On the hyperboloid the
partial gradients are tangent vectors at sigma_{t_i}; they are parallel-
transported back to the base point along the discretized path before pairing,
which is the trivialization the Bismut tangent space provides.

Estimator values are computed from compensated (fsum) totals, so parallel or
reordered reductions reproduce the serial result; standard errors and bias
corrections come from a vectorized leave-one-out jackknife.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hyperbolic as hyp
from .profiles import TailBound
from .samplers import PathEnsemble

_MEASURE_KERNEL = {
    "wiener": "based_path",
    "ou": "based_path",
    "flat_bridge": "bridge",
    "hyperbolic_bridge": "bridge",
}


class EstimatorError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Cylindrical functions and Green kernels


@dataclass
class CylindricalFunction:
    """F(sigma) = f(sigma_{t_1}, ..., sigma_{t_k}).

    ``fn`` maps an array (m, k, d) of path values at the evaluation times to
    (m,).  ``partials`` (same signature, output (m, k, d)) may be omitted, in
    which case central differences with per-coordinate step control are used.
    """

    times: tuple
    fn: object
    partials: object | None = None
    label: str = "F"
    fd_rel: float = 1e-6

    def __post_init__(self):
        self.times = tuple(float(t) for t in self.times)
        if not self.times or any(t <= 0 for t in self.times):
            raise EstimatorError("evaluation times must be positive (t in (0, T])")
        if list(self.times) != sorted(self.times):
            raise EstimatorError("evaluation times must be sorted")

    def values(self, X):
        out = np.asarray(self.fn(X), dtype=float)
        if out.shape != (X.shape[0],):
            raise EstimatorError("kernel must map (m, k, d) -> (m,)")
        return out

    def partial_values(self, X):
        if self.partials is not None:
            out = np.asarray(self.partials(X), dtype=float)
            if out.shape != X.shape:
                raise EstimatorError("partials must map (m, k, d) -> (m, k, d)")
            return out
        # central differences, step scaled per coordinate
        m, k, d = X.shape
        out = np.empty_like(X)
        for i in range(k):
            for j in range(d):
                h = self.fd_rel * np.maximum(1.0, np.abs(X[:, i, j]))
                Xp = X.copy()
                Xm = X.copy()
                Xp[:, i, j] += h
                Xm[:, i, j] -= h
                out[:, i, j] = (self.values(Xp) - self.values(Xm)) / (2.0 * h)
        if not np.all(np.isfinite(out)):
            raise EstimatorError("non-finite partial derivatives on sampled data")
        return out


def coordinate_function(time, coord=0, label=None):
    def fn(X):
        return X[:, 0, coord]

    def partials(X):
        out = np.zeros_like(X)
        out[:, 0, coord] = 1.0
        return out

    return CylindricalFunction(
        times=(time,), fn=fn, partials=partials, label=label or f"x{coord}(t={time})"
    )


def hermite_function(degree, time, coord=0, label=None):
    """Probabilists' Hermite polynomial He_k of one path coordinate."""
    from numpy.polynomial import hermite_e

    c = np.zeros(degree + 1)
    c[degree] = 1.0
    dc = hermite_e.hermeder(c)

    def fn(X):
        return hermite_e.hermeval(X[:, 0, coord], c)

    def partials(X):
        out = np.zeros_like(X)
        out[:, 0, coord] = hermite_e.hermeval(X[:, 0, coord], dc)
        return out

    return CylindricalFunction(
        times=(time,), fn=fn, partials=partials, label=label or f"He{degree}(t={time})"
    )


def exp_half_function(lam, time, coord=0, label=None):
    """F = exp(lam x / 2): the log-Sobolev test family."""

    def fn(X):
        return np.exp(0.5 * lam * X[:, 0, coord])

    def partials(X):
        out = np.zeros_like(X)
        out[:, 0, coord] = 0.5 * lam * np.exp(0.5 * lam * X[:, 0, coord])
        return out

    return CylindricalFunction(
        times=(time,), fn=fn, partials=partials, label=label or f"exp({lam}x/2)"
    )


@dataclass(frozen=True)
class GreenKernel:
    """Cameron-Martin pairing kernel on [0, T]."""

    variant: str  # "based_path" | "bridge"
    T: float

    def __post_init__(self):
        if self.variant not in ("based_path", "bridge"):
            raise EstimatorError(f"unknown kernel variant {self.variant!r}")
        if not self.T > 0:
            raise EstimatorError("T must be positive")

    def __call__(self, s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        m = np.minimum(s, t)
        if self.variant == "based_path":
            return m
        return m - s * t / self.T

    def gram(self, times):
        times = np.asarray(times, dtype=float)
        return self(times[:, None], times[None, :])


# ---------------------------------------------------------------------------
# H-gradient energy


def _check_kernel_measure(kernel: GreenKernel, ens: PathEnsemble):
    want = _MEASURE_KERNEL[ens.measure_tag]
    if kernel.variant != want:
        raise EstimatorError(
            f"{ens.measure_tag} ensembles must use the {want} kernel, "
            f"got {kernel.variant}"
        )
    if abs(kernel.T - ens.grid.T) > 1e-12 * max(1.0, ens.grid.T):
        raise EstimatorError("kernel horizon does not match the ensemble grid")


def h_gradient_energy(F: CylindricalFunction, ens: PathEnsemble, kernel: GreenKernel):
    """Per-path squared H-gradient |grad F|_H^2, shape (n_paths,).

    Flat ensembles pair the Euclidean partials directly; hyperbolic ensembles
    project the ambient partials to tangent vectors and parallel-transport
    them back to the base point along the path's nodes before pairing.  Both
    routes use the same Green Gram matrix.
    """
    _check_kernel_measure(kernel, ens)
    idx = [ens.grid.index_of(t) for t in F.times]
    X = ens.points[:, idx, :]
    V = F.partial_values(X)
    G = kernel.gram(F.times)

    if ens.measure_tag != "hyperbolic_bridge":
        return np.einsum("ij,mic,mjc->m", G, V, V)

    paired = []
    for a, i in enumerate(idx):
        # ambient gradient -> Riemannian gradient in the tangent space
        eta_v = V[:, a, :].copy()
        eta_v[:, -1] *= -1.0
        v = hyp.tangent_project(ens.points[:, i, :], eta_v)
        for k in range(i, 0, -1):
            v = hyp.parallel_transport(v, ens.points[:, k, :], ens.points[:, k - 1, :])
        paired.append(v)
    W = np.stack(paired, axis=1)
    # Minkowski pairing at the base point (positive definite on tangents)
    prod = np.einsum("mic,mjc->mij", W[..., :-1], W[..., :-1]) - np.einsum(
        "mi,mj->mij", W[..., -1], W[..., -1]
    )
    return np.einsum("ij,mij->m", G, prod)


# ---------------------------------------------------------------------------
# Jackknife machinery


@dataclass(frozen=True)
class EstimateWithCI:
    value: float
    std_error: float
    n_samples: int
    method: str = "jackknife"  # "plain" | "jackknife"
    flags: tuple = ()

    def __post_init__(self):
        if self.std_error < 0:
            raise EstimatorError("std_error must be nonnegative")

    def to_dict(self):
        return vars(self) | {"flags": list(self.flags)}


def _jackknife(components, g):
    """Estimate g(mean of components) with leave-one-out bias/SE.

    ``components`` is a list of 1-d arrays (same length N); ``g`` takes one
    mean per component (scalars or numpy arrays, vectorized).  The value is
    computed from fsum totals, so it is independent of summation order.
    """
    comps = [np.asarray(c, dtype=float).ravel() for c in components]
    n = comps[0].size
    if any(c.size != n for c in comps):
        raise EstimatorError("component arrays must share a length")
    if n < 2:
        raise EstimatorError("degenerate ensemble: need at least two paths")
    totals = [math.fsum(c) for c in comps]
    full = float(g(*[t / n for t in totals]))
    loo = g(*[(t - c) / (n - 1) for t, c in zip(totals, comps)])
    loo = np.asarray(loo, dtype=float)
    loo.sort()  # both sums below then run in an order independent of the path order
    loo_mean = loo.mean()
    value = n * full - (n - 1) * loo_mean
    se = math.sqrt(max((n - 1) / n * np.sum((loo - loo_mean) ** 2), 0.0))
    return EstimateWithCI(value=value, std_error=se, n_samples=n, method="jackknife")


def _function_values(F, ens):
    idx = [ens.grid.index_of(t) for t in F.times]
    return F.values(ens.points[:, idx, :])


def variance(F: CylindricalFunction, ens: PathEnsemble) -> EstimateWithCI:
    x = _function_values(F, ens)
    if x.size < 2:
        raise EstimatorError("degenerate ensemble: need at least two paths")
    if np.all(x == x[0]):  # constants have variance exactly 0
        return EstimateWithCI(value=0.0, std_error=0.0, n_samples=x.size)
    return _jackknife([x, x * x], lambda m1, m2: m2 - m1 * m1)


def entropy(F: CylindricalFunction, ens: PathEnsemble) -> EstimateWithCI:
    """Ent(F^2) = E[F^2 log(F^2 / E F^2)] with the convention 0 log 0 = 0."""
    x = _function_values(F, ens)
    if x.size < 2:
        raise EstimatorError("degenerate ensemble: need at least two paths")
    w = x * x
    if np.all(w == w[0]):  # constants have entropy exactly 0
        return EstimateWithCI(value=0.0, std_error=0.0, n_samples=w.size)
    if not np.any(w > 0):
        raise EstimatorError("entropy needs F^2 not almost surely 0")
    wlw = np.where(w > 0, w * np.log(np.where(w > 0, w, 1.0)), 0.0)
    return _jackknife([w, wlw], lambda mw, mwl: mwl - mw * np.log(np.maximum(mw, 1e-300)))


def lsi_ratio(F: CylindricalFunction, ens: PathEnsemble, kernel: GreenKernel) -> EstimateWithCI:
    """Ent(F^2) / E|grad F|_H^2 with a jackknife CI (2 for a Gaussian LSI)."""
    x = _function_values(F, ens)
    w = x * x
    wlw = np.where(w > 0, w * np.log(np.where(w > 0, w, 1.0)), 0.0)
    e = h_gradient_energy(F, ens, kernel)
    return _jackknife(
        [w, wlw, e],
        lambda mw, mwl, me: (mwl - mw * np.log(np.maximum(mw, 1e-300))) / me,
    )


@dataclass
class RayleighRow:
    label: str
    variance: EstimateWithCI
    energy: EstimateWithCI
    ratio: EstimateWithCI


@dataclass
class RayleighScan:
    rows: list
    best_index: int

    @property
    def best_ratio(self) -> EstimateWithCI:
        return self.rows[self.best_index].ratio

    def to_dict(self):
        return {
            "rows": [
                {
                    "label": r.label,
                    "variance": r.variance.to_dict(),
                    "energy": r.energy.to_dict(),
                    "ratio": r.ratio.to_dict(),
                }
                for r in self.rows
            ],
            "best_index": self.best_index,
        }


def rayleigh_scan(family, ens: PathEnsemble, kernel: GreenKernel) -> RayleighScan:
    """Var(F) / E|grad F|_H^2 per function; the max over the family is an
    empirical lower bound on the Poincare constant."""
    if not family:
        raise EstimatorError("empty function family")
    rows = []
    any_energy = False
    for F in family:
        x = _function_values(F, ens)
        e = h_gradient_energy(F, ens, kernel)
        var_est = variance(F, ens)
        energy_est = _jackknife([e], lambda me: me)
        if energy_est.value > 0:
            any_energy = True
            ratio_est = _jackknife(
                [x, x * x, e], lambda m1, m2, me: (m2 - m1 * m1) / me
            )
        else:
            ratio_est = EstimateWithCI(
                value=0.0, std_error=0.0, n_samples=x.size, flags=("zero_energy",)
            )
        rows.append(RayleighRow(F.label, var_est, energy_est, ratio_est))
    if not any_energy:
        raise EstimatorError("all functions in the family have zero estimated energy")
    best = int(np.argmax([r.ratio.value for r in rows]))
    return RayleighScan(rows=rows, best_index=best)


# ---------------------------------------------------------------------------
# Weight tails on hyperbolic ensembles


def sup_distance(ens: PathEnsemble):
    """u(gamma) = max over grid nodes of d(gamma_t, y0), y0 the config's pole
    (the origin when it has none)."""
    if ens.measure_tag != "hyperbolic_bridge":
        raise EstimatorError("sup_distance expects a hyperbolic ensemble")
    y0 = np.asarray(ens.config.y0) if ens.config.y0 is not None else hyp.origin(ens.config.dim)
    return hyp.dist(ens.points, y0).max(axis=1)


def weight_tail(u, confidence=0.99) -> TailBound:
    """Upper-confidence empirical tail of the sup distances
    u = sup_t d(gamma_t, y0) (see ``sup_distance``)."""
    return TailBound.from_samples(u, confidence=confidence)


def exp_square_moment(u, c, max_share=0.5) -> EstimateWithCI:
    """Estimate E exp(c u^2); flags estimates dominated by the sample max.

    A heavy right tail shows up as one path carrying most of the sample mean;
    that is reported via the ``max_dominated`` flag instead of being hidden.
    """
    u = np.asarray(u, dtype=float).ravel()
    if u.size < 2:
        raise EstimatorError("degenerate ensemble: need at least two paths")
    z = c * u * u
    flags = []
    if z.max() > 700.0:
        flags.append("overflow")
        w = np.exp(np.minimum(z, 700.0))
    else:
        w = np.exp(z)
    total = math.fsum(w)
    w_max = w.max()
    if w_max / total > max_share:
        flags.append("max_dominated")
    value = total / u.size
    if "overflow" in flags:
        se = math.inf
    else:
        # scale by the max before squaring so the SE itself cannot overflow
        se = float((w / w_max).std(ddof=1) * w_max / math.sqrt(u.size))
    return EstimateWithCI(
        value=value, std_error=se, n_samples=u.size, method="plain", flags=tuple(flags)
    )


def tail_slope_vs_square(u, levels=None, min_survival=None):
    """OLS slope of log survival against s^2 over the informative range.

    Gaussian-type tails exp(-c s^2) show up as a negative slope; returns
    (slope, std_error) from the fit.  Survival values are the raw empirical
    ones here (the regression is a diagnostic, not a certificate).
    """
    u = np.asarray(u, dtype=float).ravel()
    n = u.size
    if levels is None:
        levels = np.linspace(np.quantile(u, 0.5), np.quantile(u, 1.0 - 20.0 / n), 24)
    surv = np.array([(u > s).mean() for s in levels])
    keep = (surv > 0) & (surv < 1)
    xs = levels[keep] ** 2
    ys = np.log(surv[keep])
    if xs.size < 4:
        raise EstimatorError("not enough informative levels for a slope fit")
    A = np.stack([xs, np.ones_like(xs)], axis=1)
    coef, res, *_ = np.linalg.lstsq(A, ys, rcond=None)
    resid = ys - A @ coef
    dof = xs.size - 2
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(A.T @ A)
    return float(coef[0]), float(math.sqrt(cov[0, 0]))
