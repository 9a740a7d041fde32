"""Cylindrical test functions, H-gradient energies, and Monte Carlo estimators.

A cylindrical function F(sigma) = f(sigma_{t_1}, ..., sigma_{t_k}) is
differentiated along Cameron-Martin directions only.  On flat path space the
squared H-gradient is the Green-kernel pairing

    |grad F|_H^2 = sum_{ij} G(t_i, t_j) <d_i f, d_j f>,

with G(s,t) = s ^ t on based paths and G(s,t) = s ^ t - s t / T on bridges
(the reproducing kernel of the pinned finite-energy paths; this normalization
makes the flat-bridge Poincare constant exactly 1).  On the hyperboloid the
partial gradients are tangent vectors at sigma_{t_i}, transported along the
discretized path to sigma_{t_1} and paired there in the Minkowski metric;
transport is an isometry, so this is the pairing at the base point that the
Bismut tangent space's trivialization gives.

Estimator values are computed from exact, correctly rounded totals
(``exact_sum``, bit for bit ``math.fsum``), so parallel or reordered
reductions reproduce the serial result; standard errors and bias corrections
come from a vectorized leave-one-out jackknife.  A function's
variance, entropy, energy, Rayleigh and log-Sobolev estimates share its
per-path components (F, F^2, F^2 log F^2, |grad F|_H^2) and their totals:
``function_estimates`` takes each total once.  F and |grad F|_H^2 are stored;
F^2 and F^2 log F^2 are elementwise in F and are made from it one block of
``_BLOCK`` paths at a time, for their totals and for each jackknife alike.
The functions of one coordinate evaluate f and f' a block at a time too.

``family_estimates`` runs a family's functions at once, one thread per
available CPU (``samplers._WORKERS``, the bridge's pool size).  Each
function's estimates are a deterministic computation on its own arrays, and
the blocks change neither a value nor a summation order (``exact_sum``'s bin
sums are exact, elementwise values are the same in any block, and the
jackknife sums one sorted array whole), so the bits depend on neither the
number of threads nor the block size.  Blocking bounds each thread's working
set to its stored F, |grad F|_H^2 and leave-one-out array and a few
block-sized temporaries, so a pool of two holds less than one function did
when every component was stored whole.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import hyperbolic as hyp
from . import samplers
from .profiles import TailBound
from .samplers import PathEnsemble

MEASURE_KERNEL = {  # the Cameron-Martin kernel of each measure
    "wiener": "based_path",
    "ou": "based_path",
    "flat_bridge": "bridge",
    "hyperbolic_bridge": "bridge",
}


class EstimatorError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Cylindrical functions


_FD_REL = 1e-6  # central-difference step, relative to max(1, |coordinate|)
_BLOCK = 1 << 16  # paths per block of elementwise work and of exact_sum; the bits do not depend on it


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
                h = _FD_REL * np.maximum(1.0, np.abs(X[:, i, j]))
                Xp = X.copy()
                Xm = X.copy()
                Xp[:, i, j] += h
                Xm[:, i, j] -= h
                out[:, i, j] = (self.values(Xp) - self.values(Xm)) / (2.0 * h)
        if not np.all(np.isfinite(out)):
            raise EstimatorError("non-finite partial derivatives on sampled data")
        return out


def _by_blocks(f, x):
    """f(x) for an elementwise f on a 1-d x, ``_BLOCK`` values at a time, so
    that f's temporaries stay small; the values are those of f(x)."""
    out = np.empty(x.shape)
    for i in range(0, x.size, _BLOCK):
        out[i:i + _BLOCK] = f(x[i:i + _BLOCK])
    return out


def _of_one_coordinate(f, df, time, coord, label):
    """F = f(x), x the path's coordinate ``coord`` at ``time``, with dF/dx = df(x)."""

    def partials(X):
        out = np.zeros_like(X)
        out[:, 0, coord] = _by_blocks(df, X[:, 0, coord])
        return out

    return CylindricalFunction(times=(time,), fn=lambda X: _by_blocks(f, X[:, 0, coord]), partials=partials,
                               label=label)


def coordinate_function(time, coord=0, label=None):
    return _of_one_coordinate(lambda x: x, np.ones_like, time, coord, label or f"x{coord}(t={time})")


def hermite_function(degree, time, coord=0, label=None):
    """Probabilists' Hermite polynomial He_k of one path coordinate."""
    from numpy.polynomial import hermite_e

    c = np.zeros(degree + 1)
    c[degree] = 1.0
    dc = hermite_e.hermeder(c)
    return _of_one_coordinate(
        lambda x: hermite_e.hermeval(x, c), lambda x: hermite_e.hermeval(x, dc),
        time, coord, label or f"He{degree}(t={time})",
    )


def exp_half_function(lam, time, coord=0, label=None):
    """F = exp(lam x / 2): the log-Sobolev test family."""
    return _of_one_coordinate(
        lambda x: np.exp(0.5 * lam * x), lambda x: 0.5 * lam * np.exp(0.5 * lam * x),
        time, coord, label or f"exp({lam}x/2)",
    )


# ---------------------------------------------------------------------------
# H-gradient energy


def green_gram(ens: PathEnsemble, times):
    """Gram matrix G(t_i, t_j) of the Cameron-Martin kernel that the ensemble's
    measure fixes on [0, T]: s ^ t, minus s t / T on pinned measures."""
    times = np.asarray(times, dtype=float)
    s, t = times[:, None], times[None, :]
    m = np.minimum(s, t)
    return m - s * t / ens.grid.T if MEASURE_KERNEL[ens.measure_tag] == "bridge" else m


def h_gradient_energy(F: CylindricalFunction, ens: PathEnsemble):
    """Per-path squared H-gradient |grad F|_H^2, shape (n_paths,): the Green
    pairing sum_ij G_ij <W_i, W_j>, Euclidean on flat ensembles (W the
    partials) and Minkowski on the hyperboloid, where W_i is the tangent
    gradient at sigma_{t_i} carried node by node to sigma_{t_1} by parallel
    transport.  Each segment's transport is a Minkowski isometry, so this is
    the pairing at the base point, and a function of one time needs none.
    """
    idx = [ens.grid.index_of(t) for t in F.times]
    W = F.partial_values(ens.points[:, idx, :])
    metric = np.ones(W.shape[-1])
    if ens.measure_tag == "hyperbolic_bridge":
        metric[-1] = -1.0
        P = ens.points
        tangents = []
        for a, i in enumerate(idx):
            v = hyp.tangent_project(P[:, i, :], W[:, a, :] * metric)
            for k in range(i, idx[0], -1):
                v = hyp.parallel_transport(v, P[:, k, :], P[:, k - 1, :])
            tangents.append(v)
        W = np.stack(tangents, axis=1)
    return np.einsum("ij,mic,mjc,c->m", green_gram(ens, F.times), W, W, metric)


# ---------------------------------------------------------------------------
# Exact sums


_EXACT_SUM_MAX_N = 1 << 26  # with fewer values, each float64 bin sum of 26-bit pieces is exact
_LOW26 = (1 << 26) - 1


class _Derived:
    """f(base) for an elementwise f, made one block at a time and never stored
    whole: slicing it gives f of the base's slice."""

    def __init__(self, base, f):
        self.base, self.f, self.size = base, f, base.size

    def __getitem__(self, s):
        return self.f(self.base[s])


def _blocks(a):
    """The values of ``a`` (an array or a ``_Derived``), ``_BLOCK`` at a time."""
    return (a[i:i + _BLOCK] for i in range(0, a.size, _BLOCK))


def exact_sum(a):
    """``math.fsum(a)`` bit for bit, from exact integer bins in a few numpy passes.

    Each value's bits are binned by sign and binary exponent (a "small
    superaccumulator", Neal 2015).  Per bin, one count supplies the implicit
    leading bit and two float64 bin sums take the mantissa's low 26 bits and
    its high 26 bits (kept in place, so a multiple of 2^26); with fewer than
    2^26 values every partial sum is exact.  The bins are accumulated over
    blocks of ``_BLOCK`` values, so the temporaries stay small and a
    ``_Derived`` component is summed without being stored; as every partial
    sum is exact, the block order moves no bit.  The bins are combined as
    Python ints and divided once by 2^1075, which rounds half to even like
    ``fsum``.  Empty, huge (>= 2^26 values), non-finite or near-overflowing
    input and an exact total of 0 (whose sign ``fsum`` decides) go to
    ``math.fsum`` itself, so its ``OverflowError`` on intermediate overflow is
    kept.
    """
    if not isinstance(a, _Derived):
        a = np.asarray(a, dtype=float).ravel()
    n = a.size
    if n == 0 or n >= _EXACT_SUM_MAX_N:
        return math.fsum(a[:])  # a[:] makes a _Derived whole, here only
    counts = np.zeros(4096, dtype=np.int64)
    lo, hi = np.zeros(4096), np.zeros(4096)
    idx, w = np.empty(min(n, _BLOCK), dtype=np.int64), np.empty(min(n, _BLOCK))
    for block in _blocks(a):
        bits = block.view(np.int64)
        i, v = idx[:bits.size], w[:bits.size]
        np.right_shift(bits, 52, out=i)
        i += 2048  # 0..2047 negative, 2048..4095 positive, by exponent field
        counts += np.bincount(i, minlength=4096)
        np.bitwise_and(bits, _LOW26, out=v, casting="unsafe")
        lo += np.bincount(i, v, minlength=4096)
        np.bitwise_and(bits, _LOW26 << 26, out=v, casting="unsafe")
        hi += np.bincount(i, v, minlength=4096)
    nz = np.flatnonzero(counts)
    exps = nz & 2047
    # exponent field 2047 holds inf and nan; otherwise n * max|a| < 2^(exps.max() + n.bit_length() - 1022),
    # so below the cut fsum's partial sums cannot overflow and neither can the division
    if exps.max() + n.bit_length() > 2040:
        return math.fsum(a[:])
    total = 0
    for b, e, c, h, l in zip(nz.tolist(), exps.tolist(), counts[nz].tolist(), hi[nz].tolist(), lo[nz].tolist()):
        # a value in bin e is (implicit bit + mantissa) * 2^(max(e, 1) - 1075)
        m = ((c << 52 if e else 0) + int(h) + int(l)) << max(e, 1)
        total += m if b >= 2048 else -m
    if total == 0:
        return math.fsum(a[:])
    return total / (1 << 1075)


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


def _need_two_paths(n):
    if n < 2:
        raise EstimatorError("degenerate ensemble: need at least two paths")


def _jackknife(components, totals, g):
    """Estimate g(mean of components) with leave-one-out bias/SE.

    ``components`` are 1-d arrays or ``_Derived`` components of one length
    N >= 2, ``totals`` their exact, correctly rounded ``exact_sum`` totals, so
    the value is independent of summation order; ``g`` takes one mean per
    component (scalars or numpy arrays, vectorized).  The leave-one-out
    values are filled ``_BLOCK`` at a time, which leaves them unchanged as
    ``g`` is elementwise; they are then sorted, so the mean and the sum of
    squared deviations run over the same array in an order independent of
    the path order, and squared in place.
    """
    n = components[0].size
    full = float(g(*[t / n for t in totals]))
    loo = np.empty(n)
    for i in range(0, n, _BLOCK):
        s = slice(i, i + _BLOCK)
        loo[s] = g(*[(t - c[s]) / (n - 1) for t, c in zip(totals, components)])
    loo.sort()
    loo_mean = loo.mean()
    value = n * full - (n - 1) * loo_mean
    np.square(np.subtract(loo, loo_mean, out=loo), out=loo)
    se = math.sqrt(max((n - 1) / n * np.sum(loo), 0.0))
    return EstimateWithCI(value=float(value), std_error=se, n_samples=n, method="jackknife")


def _variance(m1, m2):
    return m2 - m1 * m1


def _entropy(mw, mwl):
    """Ent(F^2) = E[F^2 log F^2] - E F^2 log E F^2 from the means of F^2 and F^2 log F^2."""
    return mwl - mw * np.log(np.maximum(mw, 1e-300))


def _square(x):
    return x * x


def _square_log_square(x):
    """F^2 log F^2 from F, with 0 log 0 = 0."""
    xx = x * x
    return np.where(xx > 0, xx * np.log(np.where(xx > 0, xx, 1.0)), 0.0)


# estimate -> (the per-path components it averages, g of their means).  The
# components are x = F, xx = F^2, wlw = F^2 log F^2 (0 log 0 = 0) and
# e = |grad F|_H^2.
_ESTIMATES = {
    "variance": (("x", "xx"), _variance),
    "entropy": (("xx", "wlw"), _entropy),
    "energy": (("e",), lambda me: me),
    "ratio": (("x", "xx", "e"), lambda m1, m2, me: _variance(m1, m2) / me),
    "lsi_ratio": (("xx", "wlw", "e"), lambda mw, mwl, me: _entropy(mw, mwl) / me),
}
RAYLEIGH_ESTIMATES = ("variance", "energy", "ratio")


def function_estimates(F: CylindricalFunction, ens: PathEnsemble, names):
    """The named estimates of F (keys of ``_ESTIMATES``) in ``names`` order, with
    each ``exact_sum`` total taken once; F^2 and F^2 log F^2 are ``_Derived``
    from F, never stored whole.

    A constant F has variance 0 and a constant F^2 entropy 0, exactly; a
    "ratio" or "lsi_ratio" whose energy estimate is not positive is 0,
    flagged ``zero_energy``.
    """
    used = {c for name in names for c in _ESTIMATES[name][0]}
    x = F.values(ens.points[:, [ens.grid.index_of(t) for t in F.times], :])
    n = x.size
    _need_two_paths(n)
    comps = {"x": x, "xx": _Derived(x, _square), "wlw": _Derived(x, _square_log_square)}
    if "e" in used:
        comps["e"] = h_gradient_energy(F, ens)
    totals = {c: exact_sum(comps[c]) for c in used}

    def jackknife(name):
        keys, g = _ESTIMATES[name]
        return _jackknife([comps[c] for c in keys], [totals[c] for c in keys], g)

    out = {}
    for name in names:
        first = comps[_ESTIMATES[name][0][0]]  # F for the variance, F^2 for the entropy
        if name in ("variance", "entropy") and all(np.all(b == first[:1]) for b in _blocks(first)):
            out[name] = EstimateWithCI(value=0.0, std_error=0.0, n_samples=n)
        elif name == "entropy" and not any(np.any(b > 0) for b in _blocks(comps["xx"])):
            raise EstimatorError("entropy needs F^2 not almost surely 0")
        elif name in ("ratio", "lsi_ratio") and not (out.get("energy") or jackknife("energy")).value > 0:
            out[name] = EstimateWithCI(value=0.0, std_error=0.0, n_samples=n, flags=("zero_energy",))
        else:
            out[name] = jackknife(name)
    return out


def family_estimates(family, ens: PathEnsemble, names):
    """``(F.label, function_estimates(F, ens, names))`` for each F of ``family``,
    in family order.  The functions run on one thread per available CPU
    (``samplers._WORKERS``); each one's estimates are computed as in a serial
    loop, so the bits do not depend on the thread count, and an error is the
    one the first failing function in family order raises."""
    with ThreadPoolExecutor(samplers._WORKERS) as pool:
        return list(pool.map(lambda F: (F.label, function_estimates(F, ens, names)), family))


def variance(F: CylindricalFunction, ens: PathEnsemble) -> EstimateWithCI:
    return function_estimates(F, ens, ("variance",))["variance"]


def entropy(F: CylindricalFunction, ens: PathEnsemble) -> EstimateWithCI:
    """Ent(F^2) = E[F^2 log(F^2 / E F^2)] with the convention 0 log 0 = 0."""
    return function_estimates(F, ens, ("entropy",))["entropy"]


def lsi_ratio(F: CylindricalFunction, ens: PathEnsemble) -> EstimateWithCI:
    """Ent(F^2) / E|grad F|_H^2 with a jackknife CI (2 for a Gaussian LSI)."""
    return function_estimates(F, ens, ("lsi_ratio",))["lsi_ratio"]


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

    @classmethod
    def from_rows(cls, rows):
        """The scan of (label, ``function_estimates`` with ``RAYLEIGH_ESTIMATES``) rows."""
        if not rows:
            raise EstimatorError("empty function family")
        rows = [RayleighRow(label, *(est[name] for name in RAYLEIGH_ESTIMATES)) for label, est in rows]
        if not any(r.energy.value > 0 for r in rows):
            raise EstimatorError("all functions in the family have zero estimated energy")
        return cls(rows=rows, best_index=int(np.argmax([r.ratio.value for r in rows])))

    @property
    def best_ratio(self) -> EstimateWithCI:
        return self.rows[self.best_index].ratio

    def to_dict(self):
        rows = [{"label": r.label, **{k: getattr(r, k).to_dict() for k in RAYLEIGH_ESTIMATES}}
                for r in self.rows]
        return {"rows": rows, "best_index": self.best_index}


def rayleigh_scan(family, ens: PathEnsemble) -> RayleighScan:
    """Var(F) / E|grad F|_H^2 per function; the max over the family is an
    empirical lower bound on the Poincare constant."""
    return RayleighScan.from_rows(family_estimates(family, ens, RAYLEIGH_ESTIMATES))


# ---------------------------------------------------------------------------
# Weight tails on hyperbolic ensembles


def sup_distance(ens: PathEnsemble):
    """u(gamma) = max over grid nodes of d(gamma_t, y0), y0 the config's pole
    (the origin when it has none).  The sampler records it as the diagnostic
    array ``sup_distance``, which is returned when present; it is recomputed
    from the points only for older files and ensembles built by hand."""
    if ens.measure_tag != "hyperbolic_bridge":
        raise EstimatorError("sup_distance expects a hyperbolic ensemble")
    if "sup_distance" in ens.diagnostics:
        return ens.diagnostics["sup_distance"]
    y0 = np.asarray(ens.config.y0) if ens.config.y0 is not None else hyp.origin(ens.config.dim)
    return hyp.dist(ens.points, y0).max(axis=1)


def weight_tail(u, **kw) -> TailBound:
    """Upper-confidence empirical tail of the sup distances
    u = sup_t d(gamma_t, y0) (see ``sup_distance``); ``kw`` (the
    ``confidence``) as in ``TailBound.from_samples``."""
    return TailBound.from_samples(u, **kw)


def exp_square_moment(u, c) -> EstimateWithCI:
    """Estimate E exp(c u^2); flags estimates dominated by the sample max.

    A heavy right tail shows up as one path carrying most (over half) of the
    sample mean; that is reported via the ``max_dominated`` flag instead of
    being hidden.
    """
    u = np.asarray(u, dtype=float).ravel()
    _need_two_paths(u.size)
    z = c * u * u
    flags = []
    if z.max() > 700.0:
        flags.append("overflow")
        w = np.exp(np.minimum(z, 700.0))
    else:
        w = np.exp(z)
    try:
        total = exact_sum(w)
    except OverflowError:  # enough terms near exp(700) sum past the largest float
        return EstimateWithCI(math.inf, math.inf, u.size, method="plain", flags=("overflow",))
    w_max = w.max()
    if w_max / total > 0.5:
        flags.append("max_dominated")
    value = total / u.size
    if "overflow" in flags:
        se = math.inf
    else:
        # scale by the max before squaring so the SE itself cannot overflow;
        # exact sums make it independent of the path order
        q = w / w_max
        dev = q - exact_sum(q) / u.size
        se = float(math.sqrt(exact_sum(dev * dev) / (u.size - 1)) * w_max / math.sqrt(u.size))
    return EstimateWithCI(
        value=value, std_error=se, n_samples=u.size, method="plain", flags=tuple(flags)
    )


def tail_slope_vs_square(u):
    """OLS slope of log survival against s^2 over the informative range.

    Gaussian-type tails exp(-c s^2) show up as a negative slope; returns
    (slope, std_error) from the fit.  Survival values are the raw empirical
    ones here (the regression is a diagnostic, not a certificate).
    """
    u = np.asarray(u, dtype=float).ravel()
    levels = np.linspace(np.quantile(u, 0.5), np.quantile(u, 1.0 - 20.0 / u.size), 24)
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
