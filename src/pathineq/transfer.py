"""Constructive transfers between functional inequalities.

Every operation here is deterministic constant arithmetic: it consumes a
certificate (a weighted log-Sobolev hypothesis, a tail bound, or a rate
profile), produces the rate profile of a weaker-form inequality, and records
every intermediate constant in an ordered audit trail so the output can be
recomputed bit-identically from the audit alone.

The chain implemented end to end:

    weighted LSI  (Ent(f^2) <= int u^2 |grad f|^2,  |grad u| <= a,
                   int exp(C u^2) dmu <= M^2)
        -> weak LSI with beta(s) = 2 n(s)^2 = Theta(|log s|)
    tail bound on u
        -> weak LSI by the same cut-off estimate
    weak LSI with beta(s) = C log(1/s)
        -> Poincare constant (C1 + C2) / (1 - C3) via a dyadic decomposition
           of the level sets of g = (f - median)^{+/-}
    weak LSI with general non-increasing beta
        -> weak Poincare alpha(s) = beta(C2' s log(1/s)) / (C1' log(1/s))

Infeasible parameter choices raise ``TransferError`` naming the violated
constraint; nothing is ever clamped to fake a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
from scipy.special import polygamma

from .profiles import (LAST_WEIGHTED_LEVEL, AlphaProfile, BetaProfile, TailBound, bisect, cutoff_factor,
                       cutoff_levels, profile_from_dict)

_INV_E = 1.0 / math.e
_LOG2 = math.log(2.0)
MAX_BUDGET = 10**6  # a screen of 84^3 points (0.6 budget), about 5 MB an array


class TransferError(ValueError):
    """A transfer cannot be carried out with the given inputs."""


def _require_finite(name, x):
    if not math.isfinite(x):
        raise TransferError(f"{name} must be finite, got {x}")
    return float(x)


def _require_size(name, x, hi, lo=2):
    """x, a scan size, if it is an int (a bool is not) in [lo, hi]: checked before anything of that size exists."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not lo <= x <= hi:
        raise TransferError(f"{name} must be an integer in [{lo}, {hi}], got {x!r}")
    return int(x)


# ---------------------------------------------------------------------------
# Certificates and dyadic parameters


@dataclass(frozen=True)
class WeightedLSICertificate:
    """Hypotheses of the weighted-to-weak transfer.

    a      -- uniform gradient bound on the weight root u
    C_exp  -- exponent in the square-exponential moment int exp(C u^2) dmu
    M      -- value (or upper bound) of sqrt(E exp(C u^2)); M = 1 means the
              moment factor is absorbed into the tail estimate.
    """

    a: float
    C_exp: float
    M: float = 1.0

    def __post_init__(self):
        for name in ("a", "C_exp", "M"):
            _require_finite(name, getattr(self, name))
        if not self.a > 0:
            raise TransferError("gradient bound a must be positive")
        if not self.C_exp > 0:
            raise TransferError("moment exponent C_exp must be positive")
        if self.M < 1:
            raise TransferError("moment factor M must be >= 1 (it bounds sqrt(E e^{Cu^2}) >= 1)")


@dataclass(frozen=True)
class DyadicParams:
    """Free parameters of the dyadic weak-LSI -> Poincare construction.

    The level thresholds are delta_n = delta0 * delta^n; A = log(delta0) /
    log(delta) controls the decay of the per-level rates
    r_n = 1 / (delta0^2 delta^{2n+2} (A+n)^2).
    """

    delta0: float
    delta: float
    epsilon: float
    A: float = None  # type: ignore[assignment]

    def __post_init__(self):
        for name in ("delta0", "delta", "epsilon"):
            _require_finite(name, getattr(self, name))
        if not self.delta > 1:
            raise TransferError("delta must exceed 1")
        if not self.delta0 > 1:
            raise TransferError("delta0 must exceed 1")
        if not (0 < self.epsilon < 1):
            raise TransferError("epsilon must lie in (0, 1)")
        if self.A is None:
            object.__setattr__(self, "A", math.log(self.delta0) / math.log(self.delta))
        if not self.A > 1:
            raise TransferError(f"A = log(delta0)/log(delta) = {self.A} must exceed 1")

    @classmethod
    def from_pow2(cls, log2_delta, log2_delta0, epsilon):
        """Construct from base-2 exponents; A is then the exact ratio."""
        return cls(
            delta0=2.0**log2_delta0,
            delta=2.0**log2_delta,
            epsilon=epsilon,
            A=log2_delta0 / log2_delta,
        )

    @property
    def r(self):
        """Rate used on the first (capped) chunk: epsilon / (delta0 delta)^2."""
        return self.epsilon / (self.delta0**2 * self.delta**2)

    def r_n(self, n):
        return 1.0 / (self.delta0**2 * self.delta ** (2 * n + 2) * (self.A + n) ** 2)

    def validate(self, r0=None):
        """Feasibility; raises TransferError naming the violated constraint."""
        v = c3(self)
        if not v < 1:
            raise TransferError(f"infeasible: C3 = {v} >= 1")
        if r0 is not None:
            if not self.r < r0:
                raise TransferError(
                    f"infeasible: r = epsilon/(delta0^2 delta^2) = {self.r} >= r0 = {r0}"
                )
            if not self.r_n(0) < r0:
                raise TransferError(
                    f"infeasible: sup_n r_n = r_0 = {self.r_n(0)} >= r0 = {r0}"
                )
        return self


# ---------------------------------------------------------------------------
# The three dyadic constants, of one parameter point or of arrays of them


def c1(params: DyadicParams, C: float) -> float:
    """Gradient-side constant: C delta^2 (delta+1)/(delta-1) (1 + 1/A + log A/(A log delta)).

    The bracket bounds sup_n (1 + 1/(n+A) + log(n+A)/((n+A) log delta)),
    which is attained at n = 0 when A >= e (log x / x decreasing).
    """
    d, A = params.delta, params.A
    bracket = 1.0 + 1.0 / A + np.log(A) / (A * np.log(d))
    return C * d * d * (d + 1.0) / (d - 1.0) * bracket


def c2(params: DyadicParams, C: float) -> float:
    """First-chunk constant: C log(delta0^2 delta^2 / epsilon) / log 2."""
    return C * np.log(params.delta0**2 * params.delta**2 / params.epsilon) / _LOG2


def c3(params: DyadicParams) -> float:
    """Sup-norm leak: (delta^2-1)/(4 log delta) / (A-1)^2 + epsilon/log 2.

    Independent of C; the construction is feasible iff C3 < 1 (A > 1 holds
    for every ``DyadicParams``).
    """
    d, A = params.delta, params.A
    return (d * d - 1.0) / (4.0 * np.log(d)) / (A - 1.0) ** 2 + params.epsilon / _LOG2


# ---------------------------------------------------------------------------
# Transfer results


@dataclass
class TransferResult:
    """A produced inequality certificate: kind, rate profile, audit trail."""

    kind: str  # "weak_lsi" | "poincare" | "weak_poincare"
    profile: BetaProfile | AlphaProfile
    audit: list = field(default_factory=list)  # ordered (name, value)

    def __post_init__(self):
        if self.kind not in ("weak_lsi", "poincare", "weak_poincare"):
            raise TransferError(f"unknown transfer kind {self.kind!r}")
        if not self.audit:
            raise TransferError("audit trail must be non-empty")
        self.audit = [(str(k), float(v)) for k, v in self.audit]

    def audit_value(self, name):
        for k, v in self.audit:
            if k == name:
                return v
        raise KeyError(name)

    def to_dict(self):
        return {
            "type": "transfer_result",
            "kind": self.kind,
            "profile": self.profile.to_dict(),
            "audit": [[k, v] for k, v in self.audit],
        }

    @classmethod
    def from_dict(cls, d):
        if d.get("type") != "transfer_result":
            raise TransferError("not a serialized transfer result")
        return cls(
            kind=d["kind"],
            profile=profile_from_dict(d["profile"]),
            audit=[tuple(x) for x in d["audit"]],
        )


# ---------------------------------------------------------------------------
# Weighted LSI -> weak LSI


def _require_finite_levels(a, levels):
    """``levels`` (cut-off factors or levels at gradient bound a) if all are finite."""
    if not np.all(np.isfinite(levels)):
        raise TransferError(f"gradient bound a = {a} is too large: its cut-off levels overflow a float")
    return levels


def _scan_start(cert: WeightedLSICertificate) -> int:
    """Smallest integer level beyond which b is strictly decreasing.

    With c(r) = cutoff_factor(a, r), (log b)'(r) = T(r) - C(r-1) where
    T(r) = 8 a^2 r / c(r).  T peaks at r* = sqrt(c(0))/(2a) with
    T(r*) = 2a/sqrt(c(0)), so for r >= n the derivative is bounded by
    max(T(n), T(r*)) - C(n-1); once that bound is negative, b decreases on
    all of [n, infinity).  The bound falls as n grows and is negative from
    n = 2 + ceil(T(r*)/C) on, as T <= T(r*): integer bisection finds the
    first negative n, and rejects the certificate if it lies past
    ``LAST_WEIGHTED_LEVEL``, where a scan reads no level.
    """
    a, C = cert.a, cert.C_exp
    r_star = math.sqrt(cutoff_factor(a, 0.0)) / (2.0 * a)
    _require_finite_levels(a, [cutoff_factor(a, r_star)])

    def T(r):
        return 8.0 * a * a * r / cutoff_factor(a, r)

    # the bound is >= 0 at lo (0 stands for below level 1) and < 0 at hi, unless hi > LAST_WEIGHTED_LEVEL
    lo, hi = 0, 2 + math.ceil(min(LAST_WEIGHTED_LEVEL, T(r_star) / C))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if T(max(mid, r_star)) - C * (mid - 1.0) >= 0 else (lo, mid)
    if hi > LAST_WEIGHTED_LEVEL:
        raise TransferError(f"moment exponent C_exp = {C} is too small: b decreases only past level "
                            f"{LAST_WEIGHTED_LEVEL}, the last one a scan reads")
    return hi


def weighted_lsi_to_weak_lsi(cert: WeightedLSICertificate, smooth=False) -> TransferResult:
    """Weak log-Sobolev rate from a weighted-LSI certificate.

    beta(s) = 2 n(s)^2 where n(s) is the smallest integer n >= n_min with
    b(n) <= s, b the cut-off levels of :func:`~pathineq.profiles.cutoff_levels`
    (the moment factor M is kept explicit so the bound stays honest).  With
    ``smooth=True`` the continuous variant beta(s) = 2 r^2 is used, r the root
    of b(r) = s refined from n(s) by bisection to the ulp on the safe side,
    b(r) <= s.
    Asymptotically beta(s) = Theta(|log s|).  A gradient bound a whose cut-off
    factor at the scan start, or an audited level, overflows is rejected.
    """
    n_min = _scan_start(cert)
    params = {"a": cert.a, "C": cert.C_exp, "M": cert.M, "n_min": n_min}
    b = _require_finite_levels(cert.a, cutoff_levels(params, np.arange(n_min, n_min + 16)))
    r0 = float(b[0])
    form = "weighted_lsi_smooth" if smooth else "weighted_lsi_scan"
    profile = BetaProfile(family="composed", r0=r0, form=form, params=params)
    audit = [("a", cert.a), ("C", cert.C_exp), ("M", cert.M), ("n_min", n_min), ("r0", r0)]
    audit += [(f"b({n_min + i})", v) for i, v in enumerate(b)]
    return TransferResult(kind="weak_lsi", profile=profile, audit=audit)


# ---------------------------------------------------------------------------
# Tail bound -> weak LSI


def tail_to_weak_lsi(a: float, tail: TailBound, n_cap: int = 1000) -> TransferResult:
    """Weak log-Sobolev rate from a tail bound on the weight root u.

    The cut-off estimate consumes sqrt(mu(u > n-1)); with the survival-scale
    bound m this gives the level thresholds q(n) of
    :func:`~pathineq.profiles.cutoff_levels`, and beta(s) = 2 n(s)^2 for the
    smallest qualifying level n(s).  Tails that do not decay on their grid
    (no level beats the first one) are rejected outright rather than
    converted into a uselessly huge constant, and so is a gradient bound a
    whose cut-off factor at n_cap overflows.  n_cap, the number of levels
    scanned, is an int in [2, ``LAST_WEIGHTED_LEVEL``].
    """
    a = _require_finite("a", a)
    if not a > 0:
        raise TransferError("gradient bound a must be positive")
    n_cap = _require_size("n_cap", n_cap, LAST_WEIGHTED_LEVEL)

    # decay precondition on the supplied grid: m(s) s^2 must head to zero
    lv = np.asarray(tail.levels)
    vv = np.asarray(tail.values)
    decay = vv * lv * lv
    if decay.size and int(np.argmax(decay)) == decay.size - 1 and decay[-1] > 0:
        raise TransferError(
            "no weak-LSI derivable: tail bound m(s) s^2 is still growing at the "
            "end of its grid"
        )

    params = {
        "a": a,
        "n_cap": n_cap,
        "s_min": None,  # filled in below, keeping the key order of the serialized form
        "levels": list(tail.levels),
        "m": list(tail.values),
        "source": tail.source,
        "n_samples": tail.n_samples,
        "confidence": tail.confidence,
    }
    _require_finite_levels(a, [cutoff_factor(a, float(n_cap))])  # the largest factor, before the product with sqrt(m)
    q = cutoff_levels(params, np.arange(1.0, n_cap + 1.0))
    if not np.any(q[1:] < q[0]):
        raise TransferError(
            "no weak-LSI derivable: no level improves on the first below the cap"
        )
    s_min = params["s_min"] = float(q.min())

    profile = BetaProfile(family="composed", r0=math.inf, form="tail_scan", params=params)
    audit = [("a", a), ("n_cap", n_cap), ("s_min", s_min)]
    n_report = min(n_cap, max(8, int(np.argmin(q)) + 4))
    for n in range(1, n_report + 1):
        audit.append((f"q({n})", float(q[n - 1])))
    return TransferResult(kind="weak_lsi", profile=profile, audit=audit)


# ---------------------------------------------------------------------------
# Weak LSI (beta = C log 1/s) -> Poincare


def weak_lsi_to_poincare(
    beta: BetaProfile, params: DyadicParams | None = None, budget: int = 10_000
) -> TransferResult:
    """Poincare constant alpha = (C1 + C2) / (1 - C3) from a logarithmic rate.

    Requires beta(s) = C log(1/s) on (0, r0).  With ``params=None`` the free
    parameters are chosen by :func:`optimize_dyadic_params`.  The two halves
    (f - median)^+ and (f - median)^- have disjoint gradient supports, so the
    combined constant equals the per-half constant; both are recorded.
    """
    if beta.family != "c_log_inv_s":
        raise TransferError(
            "weak_lsi_to_poincare needs a beta(s) = C log(1/s) profile; "
            f"got family {beta.family!r}"
        )
    C, r0 = beta.C, beta.r0
    if params is None:
        params = optimize_dyadic_params(C, r0, budget)
    params.validate(r0)

    C1 = c1(params, C)
    C2 = c2(params, C)
    C3 = c3(params)
    alpha = poincare_objective(params, C)

    audit = [
        ("C", C),
        ("r0", r0),
        ("delta", params.delta),
        ("delta0", params.delta0),
        ("epsilon", params.epsilon),
        ("A", params.A),
        ("r", params.r),
        ("C1", C1),
        ("C2", C2),
        ("C3", C3),
        ("alpha_per_half", alpha),
        ("alpha_combined", alpha),
        ("alpha", alpha),
    ]
    for n in range(8):
        audit.append((f"r_{n}", params.r_n(n)))
    audit.append(("r_n_sup", params.r_n(0)))
    audit.append(("r_n_sup_below_r0", 1.0 if params.r_n(0) < r0 else 0.0))

    profile = AlphaProfile(family="constant", r0=math.inf, value=alpha)
    return TransferResult(kind="poincare", profile=profile, audit=audit)


def poincare_objective(params: DyadicParams, C: float = 1.0) -> float:
    """(C1 + C2) / (1 - C3), exactly linear in C since C3 carries no C; of one
    point or of arrays of points (the search's), any with C3 >= 1 an error."""
    C3 = c3(params)
    if (C3 >= 1).any():
        raise TransferError(f"infeasible: C3 = {np.max(C3)} >= 1")
    C1, C2 = c1(params, C), c2(params, C)
    return (C1 + C2) / (1.0 - C3)


class _Points(SimpleNamespace):
    """Arrays delta0, delta, epsilon, A, unvalidated, with ``DyadicParams``' r and r_n."""

    r = DyadicParams.r
    r_n = DyadicParams.r_n


def _search_objective(ld, A, le, r0):
    """The objective at C = 1 of the search points ld = log(delta), A, le =
    log(epsilon), arrays of one shape; inf outside the search box and where a
    point is infeasible at r0 (C3 >= 1, r >= r0 or r_n(0) >= r0)."""
    d = np.exp(ld)
    p = _Points(delta0=d**A, delta=d, epsilon=np.exp(le), A=A)
    with np.errstate(divide="ignore", invalid="ignore"):  # outside the box C3 may divide by log 1 or (A - 1)^2 = 0
        ok = ((1.0 < d) & (d <= 4.0) & (A > math.e) & (0 < p.epsilon) & (p.epsilon < 1) & (d < p.delta0)
              & (p.delta0 <= 2.0**20) & (c3(p) < 1) & (p.r < r0) & (p.r_n(0) < r0))
    out = np.full(ok.shape, math.inf)
    out[ok] = poincare_objective(_Points(**{k: v[ok] for k, v in vars(p).items()}))
    return out


def optimize_dyadic_params(C: float, r0: float, budget: int = 10_000) -> DyadicParams:
    """Deterministic coarse grid + coordinate descent over (delta, A, epsilon).

    The objective scales linearly in C, so the argmin is C-independent; the
    search is carried out at C = 1.  The box follows the construction's
    natural ranges: delta in (1, 4], delta0 = delta^A up to 2^20, epsilon in
    (0, 1).  A is kept >= e so the closed-form C1 genuinely bounds the
    supremum it replaces.  Raises if no feasible point exists in the box.
    ``budget``, the number of objective evaluations, is an int in
    [100, ``MAX_BUDGET``].

    The coarse grid, whose first strict minimum in loop order (ld, A, le)
    starts the descent, and each 15-point line search are one array
    evaluation of :func:`poincare_objective` each.  The chosen point alone is
    validated at r0; the published constants are recomputed from it.
    """
    _require_finite("C", C)
    _require_finite("r0", r0)
    if not (C > 0 and r0 > 0):
        raise TransferError("C and r0 must be positive")
    budget = _require_size("budget", budget, MAX_BUDGET, lo=100)

    n_side = max(4, int((0.6 * budget) ** (1.0 / 3.0)))
    axes = (
        np.linspace(math.log(1.02), math.log(4.0), n_side),
        np.linspace(math.e + 0.01, 40.0, n_side),
        np.linspace(math.log(1e-4), math.log(0.9), n_side),
    )
    screen = _search_objective(*np.meshgrid(*axes, indexing="ij"), r0).ravel()
    evals = n_side**3
    k = int(np.argmin(screen))
    if not screen[k] < math.inf:
        raise TransferError("no feasible dyadic parameters in the search box")

    # coordinate descent with shrinking brackets, from the grid's own coordinates
    x = [ax[i] for ax, i in zip(axes, np.unravel_index(k, (n_side,) * 3))]
    fbest = screen[k]
    widths = [0.5, 8.0, 1.5]
    while evals + 16 <= budget and max(widths) > 1e-7:
        for i in range(3):
            if evals + 16 > budget:
                break
            grid = np.linspace(x[i] - widths[i], x[i] + widths[i], 15)
            vals = _search_objective(*(grid if j == i else np.full(15, x[j]) for j in range(3)), r0)
            evals += 15
            j = int(np.argmin(vals))
            if vals[j] < fbest:
                fbest = vals[j]
                x[i] = float(grid[j])
            widths[i] *= 0.5

    ld, A, le = x
    return DyadicParams(delta0=math.exp(ld) ** A, delta=math.exp(ld), epsilon=math.exp(le), A=A).validate(r0)


# ---------------------------------------------------------------------------
# Weak LSI (general beta) -> weak Poincare


def weak_lsi_to_weak_poincare(
    beta: BetaProfile,
    delta: float = 1.02,
    delta0: float = 1.25,
    r: float | None = None,
    sigma_cap: float = 0.9,
) -> TransferResult:
    """Weak Poincare rate alpha(s) = beta(C2' s log(1/s)) / (C1' log(1/s)).

    The dyadic construction truncated at level 2N with per-level rates
    r_n = 1/(delta^{2n} (n + A)) for n <= N and r_n = N delta^{-4N} beyond,
    calibrated by delta^{4N} ~ 1/s, yields the displayed formula with

        C2' = 1 / (4 log delta),
        C1' = (1 - sigma) / (4 K log delta),
        K   = delta^2 (delta+1) / (2 (delta-1) log delta),

    where sigma < 1 collects the sup-norm leakage of the first N levels plus
    the capped chunk (r delta_1^2 / log 2).  The certificate produced is

        Var(f) <= alpha(s) E|grad f|^2 + S_mult * s * |f|_inf^2,

    with the sup-norm multiplier S_mult = 8 K_tail / (1 - sigma) disclosed in
    the audit (8 = two halves x (2 |f|_inf)^2 from centering at the median).
    """
    delta = _require_finite("delta", delta)
    delta0 = _require_finite("delta0", delta0)
    sigma_cap = _require_finite("sigma_cap", sigma_cap)
    if not delta > 1:
        raise TransferError("delta must exceed 1")
    if not delta0 > delta:
        raise TransferError("delta0 must exceed delta (need A > 1)")
    if not 0 < sigma_cap <= 1:  # sigma < sigma_cap <= 1 keeps 1 - sigma positive
        raise TransferError(f"sigma_cap must lie in (0, 1], got {sigma_cap}")

    logd = math.log(delta)
    A = math.log(delta0) / logd
    K = delta**2 * (delta + 1.0) / (2.0 * (delta - 1.0) * logd)
    trig = float(polygamma(1, A))  # sum_{n>=0} (n + A)^{-2}, exactly
    slack1 = delta**2 * (delta**2 - 1.0) / (2.0 * logd) * delta0**2 * trig
    K_tail = K + 1.0 / (delta0**2 * delta**4)
    if slack1 >= sigma_cap:
        raise TransferError(
            f"infeasible: level-sum slack {slack1} >= sigma cap {sigma_cap}; "
            "move delta closer to 1 or adjust delta0"
        )

    delta1 = delta0 * delta
    r_budget = (sigma_cap - slack1) * _LOG2 / delta1**2
    floor = beta.eval_floor
    if r is None:
        r_hi = min(r_budget, 0.9 * beta.r0) if math.isfinite(beta.r0) else r_budget
        r = 0.5 * r_hi
        if floor > 0:
            r = max(r, min(1.02 * floor, r_hi))
            if r >= r_budget > floor:  # floor within 2% below the budget
                r = 0.5 * (floor + r_budget)
    r = _require_finite("r", r)
    if not (0 < r < beta.r0):
        raise TransferError(f"infeasible: r = {r} outside beta domain (0, {beta.r0})")
    if floor > 0 and r < floor:
        raise TransferError(f"infeasible: r = {r} below beta's derivable floor {floor}")
    if r >= r_budget:
        raise TransferError(
            f"infeasible: r = {r} exceeds the slack budget {r_budget} "
            f"(r delta_1^2/log 2 + level sum would reach {slack1 + r * delta1**2 / _LOG2})"
        )
    beta(r)  # must be evaluable; raises DomainError otherwise

    sigma = slack1 + r * delta1**2 / _LOG2
    C1p = (1.0 - sigma) / (4.0 * K * logd)
    C2p = 1.0 / (4.0 * logd)
    S_mult = 8.0 * K_tail / (1.0 - sigma)

    # domain: s < 1/e keeps s log(1/s) increasing; the inner argument must
    # stay inside beta's evaluable range [floor, r0)
    def inner(s):
        return C2p * s * math.log(1.0 / s)

    r1 = _INV_E * (1.0 - 1e-9)
    if math.isfinite(beta.r0) and inner(r1) >= beta.r0:
        r1, _ = bisect(lambda s: inner(s) >= beta.r0, 1e-300, r1)
    s_lo = 0.0
    if floor > 0:
        if inner(r1) <= floor:
            raise TransferError(
                "infeasible: beta's derivable floor exceeds the construction's "
                f"reachable arguments (floor {floor}, max argument {inner(r1)})"
            )
        _, s_lo = bisect(lambda s: inner(s) > floor, 1e-300, r1)

    params = {
        "beta": beta.to_dict(),
        "C1_prime": C1p,
        "C2_prime": C2p,
        "s_lo": s_lo,
        "r1": r1,
    }
    profile = AlphaProfile(family="composed", r0=r1, form="weak_poincare_formula", params=params)

    def n_of(s):
        return math.ceil(math.log(1.0 / s) / (4.0 * logd))

    audit = [
        ("delta", delta),
        ("delta0", delta0),
        ("r", r),
        ("A", A),
        ("K", K),
        ("trigamma_sum", trig),
        ("slack_levels", slack1),
        ("sigma", sigma),
        ("K_tail", K_tail),
        ("sup_norm_multiplier", S_mult),
        ("C1_prime", C1p),
        ("C2_prime", C2p),
        ("s_lo", s_lo),
        ("r1", r1),
        ("N(r1)", n_of(r1)),
    ]
    if s_lo > 0:
        audit.append(("N(s_lo)", n_of(s_lo)))
    return TransferResult(kind="weak_poincare", profile=profile, audit=audit)


# ---------------------------------------------------------------------------
# The entropy inequality behind the dyadic proof, as a sample-level self-test


def entropy_inequality_check(G, level_c, support):
    """Check  E[G^2 phi] <= Ent(G^2)  on an empirical measure.

    phi equals log(level_c) on ``support`` and -inf off it; the hypothesis
    E e^phi <= 1 and the finiteness of phi on the support of G are verified
    first.  The inequality is exact for any measure (entropy duality), so it
    is checked with no slack beyond a floating-point guard.
    """
    G = np.asarray(G, dtype=float).ravel()
    support = np.asarray(support, dtype=bool).ravel()
    if G.shape != support.shape:
        raise TransferError("G and support must have matching shapes")
    if not level_c > 0:
        raise TransferError("level must be positive")
    n = G.size
    e_phi = level_c * support.mean()
    if e_phi > 1.0 + 1e-12:
        raise TransferError(f"phi violates E e^phi <= 1 (got {e_phi})")
    if np.any(G[~support] != 0.0):
        raise TransferError("G must vanish where phi = -inf")

    w = G * G
    lhs = math.fsum(w[support]) * math.log(level_c) / n
    mean_w = math.fsum(w) / n
    if mean_w == 0.0:
        ent = 0.0
    else:
        nz = w > 0
        ent = math.fsum(w[nz] * (np.log(w[nz]) - math.log(mean_w))) / n
    return bool(lhs <= ent + 1e-12 * max(1.0, abs(ent)))


# ---------------------------------------------------------------------------
# Audit replay


def replay_profile(result: TransferResult):
    """Rebuild the output profile by rerunning its transfer on the audited inputs.

    Enforces the contract that recomputing from the audit reproduces the
    profile bit-identically, so a changed input or profile parameter replays
    different.  Inputs the audit does not hold come from the profile: the
    tail grid of a tail scan, the beta of a weak Poincare result.  The weak
    Poincare rerun takes ``sigma_cap=1``, the largest accepted: with ``r``
    given, the cap only gates feasibility and enters no value.
    """
    a = result.audit_value
    if result.kind == "poincare":
        beta = BetaProfile(family="c_log_inv_s", C=a("C"), r0=a("r0"))
        params = DyadicParams(delta0=a("delta0"), delta=a("delta"), epsilon=a("epsilon"), A=a("A"))
        return weak_lsi_to_poincare(beta, params).profile
    p = result.profile.params
    if result.kind == "weak_lsi":
        if result.profile.form == "tail_scan":
            tail = TailBound(tuple(p["levels"]), tuple(p["m"]), p["source"], p["n_samples"], p["confidence"])
            return tail_to_weak_lsi(a("a"), tail, n_cap=int(a("n_cap"))).profile
        cert = WeightedLSICertificate(a=a("a"), C_exp=a("C"), M=a("M"))
        return weighted_lsi_to_weak_lsi(cert, smooth=(result.profile.form == "weighted_lsi_smooth")).profile
    if result.kind == "weak_poincare":
        beta = BetaProfile.from_dict(p["beta"])
        return weak_lsi_to_weak_poincare(beta, a("delta"), a("delta0"), r=a("r"), sigma_cap=1.0).profile
    raise TransferError(f"cannot replay kind {result.kind!r}")
