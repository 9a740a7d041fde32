"""Rate profiles for weak functional inequalities, and empirical tail bounds.

A weak log-Sobolev inequality reads  Ent(f^2) <= beta(s) E|grad f|^2 + s |f|_inf^2
and a weak Poincare inequality reads  Var(f) <= alpha(s) E|grad f|^2 + s |f|_inf^2,
each for s in (0, r0) with a non-increasing positive rate function.  This module
holds the rate-function objects (``BetaProfile`` / ``AlphaProfile``), the tail
bound object fed into the tail-to-weak-LSI transfer, and their dict (JSON) form.

Profiles come in three families, and alpha profiles in a fourth:

* ``c_log_inv_s``  -- beta(s) = C * log(1/s), the borderline rate that still
  upgrades to a true Poincare inequality;
* ``tabulated``    -- values on an explicit grid, evaluated as a left step
  function (conservative: a certificate at s' <= s is also one at s);
* ``composed``     -- a closed-form construction described by parameters and
  re-evaluated from them (scan constructions, the weak-Poincare formula).
  Keeping parameters instead of closures is what makes serialization lossless;
* ``constant``     -- alpha(s) = value for every s, a true Poincare constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import betaincinv

_CUTOFF_ADD = 1.0 / math.e + 1.0
LAST_WEIGHTED_LEVEL = 10**7  # the last level a weighted-LSI scan reads


class ProfileError(ValueError):
    """Malformed profile or tail bound."""


class DomainError(ValueError):
    """Profile evaluated outside its stated domain."""


def _as_float_tuple(xs):
    return tuple(float(x) for x in xs)


def _elementwise(f, x):
    """f applied to each element of the array x as a Python float.

    Used for math.exp and math.log: numpy's exp and log differ from them in
    the last bit on some inputs, and certificate constants and profile values
    keep the scalar results.
    """
    return np.array([f(v) for v in np.ravel(x).tolist()]).reshape(np.shape(x))


# ---------------------------------------------------------------------------
# The cut-off estimate


def cutoff_factor(a, r):
    """Polynomial factor 4 a^2 r^2 + 1/e + 1 of the entropy cut-off estimate."""
    return 4.0 * a * a * r * r + _CUTOFF_ADD


def cutoff_levels(params, n):
    """Cut-off levels of a weak-LSI construction at the levels n, an array.

    For a weighted LSI certificate (params a, C, M) these are
    b(n) = cutoff_factor(a, n) M exp(-(C/2)(n-1)^2); for a tail bound m on the
    weight root (params a, levels, m) they are q(n) = cutoff_factor(a, n)
    sqrt(m(n-1)), since the estimate consumes sqrt(mu(u > n-1)).  beta(s) =
    2 n(s)^2 for the smallest level n whose cut-off level is <= s.
    """
    c = cutoff_factor(params["a"], n)
    if "m" in params:
        return c * np.sqrt(_step_left(*_tail_arrays(params["levels"], params["m"]), n - 1.0))
    d = n - 1.0
    z = -0.5 * params["C"] * (d * d)  # d * d: a float's ** 2 can differ from an array's by an ulp
    return c * params["M"] * _elementwise(math.exp, z)


def bisect(above, lo, hi):
    """Geometric bisection of the brackets [lo, hi] (numbers or arrays,
    0 < lo <= hi) with ``above`` false at lo and true at hi; returns the final
    (lo, hi).

    Each step moves one end of every open bracket to its midpoint sqrt(lo hi),
    or sqrt(lo) sqrt(hi) where the product underflows to 0 (from lo = 1e-300,
    once hi < 1e-24).  A bracket is closed when its midpoint does not fall
    strictly inside it, at the latest when its ends are adjacent floats.
    ``above`` takes the array of midpoints, or one float when lo and hi are
    numbers.
    """
    scalar = np.ndim(lo) == np.ndim(hi) == 0
    lo, hi = np.broadcast_arrays(np.array(lo, dtype=float, ndmin=1), np.array(hi, dtype=float, ndmin=1))
    while True:
        mid = np.sqrt(lo * hi)
        mid = np.where(mid > 0, mid, np.sqrt(lo) * np.sqrt(hi))
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            return (float(lo[0]), float(hi[0])) if scalar else (lo, hi)
        up = np.asarray(above(float(mid[0])) if scalar else above(mid), dtype=bool)
        lo, hi = np.where(inside & ~up, mid, lo), np.where(inside & up, mid, hi)


# ---------------------------------------------------------------------------
# Tail bounds


def _tail_arrays(levels, values):
    """Validated float arrays of a tail bound's grid, values capped at 1."""
    levels = np.array(levels, dtype=float)
    values = np.asarray(values, dtype=float)
    if levels.ndim != 1 or levels.size < 2 or values.shape != levels.shape:
        raise ProfileError("tail bound needs matching 1-d level/value grids")
    if not (np.all(np.isfinite(levels)) and np.all(np.isfinite(values))):
        raise ProfileError("tail levels and values must be finite")
    if not np.all(np.diff(levels) > 0):
        raise ProfileError("tail levels must be strictly increasing")
    if np.any(values < 0) or np.any(values > 1 + 1e-12):
        raise ProfileError("tail values must lie in [0, 1]")
    if np.any(np.diff(values) > 1e-12):
        raise ProfileError("tail values must be non-increasing")
    return levels, np.minimum(values, 1.0)


def _step_left(levels, values, s):
    """values[i] for levels[i] <= s < levels[i+1], the trivial bound 1 below levels[0]."""
    i = np.searchsorted(levels, s, side="right") - 1
    return np.where(i < 0, 1.0, values[i])


@dataclass(frozen=True)
class TailBound:
    """Non-increasing upper bound m(s) >= mu(u > s) on a level grid.

    Values are stored in survival scale (bounds on the probability itself).
    Between grid points, evaluation steps left: for levels[i] <= s <
    levels[i+1] we return values[i], which bounds mu(u > s) because survival
    functions are non-increasing.  Below the first level the trivial bound 1
    is returned; beyond the last level the last value is kept (again valid by
    monotonicity of the survival function).
    """

    levels: tuple
    values: tuple
    source: str = "analytic"  # "analytic" | "empirical"
    n_samples: int | None = None
    confidence: float | None = None

    def __post_init__(self):
        levels, values = _tail_arrays(self.levels, self.values)
        if self.source not in ("analytic", "empirical"):
            raise ProfileError(f"unknown tail source {self.source!r}")
        object.__setattr__(self, "levels", _as_float_tuple(levels))
        object.__setattr__(self, "values", _as_float_tuple(values))
        object.__setattr__(self, "_levels", levels)
        object.__setattr__(self, "_values", values)

    def __call__(self, s):
        m = _step_left(self._levels, self._values, s)
        return float(m) if m.ndim == 0 else m

    @classmethod
    def from_function(cls, m, levels):
        """Sample an analytic bound onto a grid (kept conservative by the
        left-step evaluation rule)."""
        levels = np.asarray(levels, dtype=float)
        vals = np.array([float(m(s)) for s in levels])
        return cls(levels=tuple(levels), values=tuple(vals), source="analytic")

    @classmethod
    def from_samples(cls, u, confidence=0.99):
        """One-sided upper confidence bound on the survival function.

        Per grid point the Clopper-Pearson style upper bound at the given
        confidence is used, then monotonicity is enforced by a running
        maximum from the right.  A raw empirical tail would understate the
        certificate, hence the adjustment.  The grid is 0 and 64 geometric
        levels from the 0.02 quantile to 1.25 times the maximum.
        """
        if not 0 < confidence < 1:
            raise ProfileError(f"confidence must lie in (0, 1), got {confidence!r}")
        u = np.asarray(u, dtype=float).ravel()
        n = u.size
        if n < 2:
            raise ProfileError("need at least two samples for an empirical tail")
        hi = float(u.max()) * 1.25 + 1e-9
        lo = max(float(np.quantile(u, 0.02)), hi * 1e-4)
        levels = np.concatenate([[0.0], np.geomspace(lo, hi, 64)])
        counts = (u[None, :] > levels[:, None]).sum(axis=1)
        k = np.minimum(counts, n - 1)  # keeps n - k > 0; k = n gets the bound 1 below
        # the c-quantile of Beta(k + 1, n - k); bit for bit scipy.stats' beta.ppf
        vals = np.where(counts >= n, 1.0, betaincinv(k + 1, n - k, confidence))
        vals = np.maximum.accumulate(vals[::-1])[::-1]  # running max from the right
        return cls(
            levels=tuple(levels),
            values=tuple(np.minimum(vals, 1.0)),
            source="empirical",
            n_samples=int(n),
            confidence=float(confidence),
        )

    def to_dict(self):
        d = {
            "type": "tail_bound",
            "levels": list(self.levels),
            "values": list(self.values),
            "source": self.source,
        }
        if self.source == "empirical":
            d["n_samples"] = self.n_samples
            d["confidence"] = self.confidence
        return d

    @classmethod
    def from_dict(cls, d):
        if d.get("type") != "tail_bound":
            raise ProfileError("not a serialized tail bound")
        return cls(
            levels=tuple(d["levels"]),
            values=tuple(d["values"]),
            source=d.get("source", "analytic"),
            n_samples=d.get("n_samples"),
            confidence=d.get("confidence"),
        )


# ---------------------------------------------------------------------------
# Rate profiles


@dataclass(frozen=True)
class BetaProfile:
    """Weak log-Sobolev rate s -> beta(s), non-increasing and positive."""

    family: str
    r0: float
    C: float | None = None
    s_grid: tuple | None = None
    values: tuple | None = None
    form: str | None = None
    params: dict | None = None

    _type = "beta_profile"
    _forms = ("weighted_lsi_scan", "weighted_lsi_smooth", "tail_scan")

    def __post_init__(self):
        if not (self.r0 > 0):
            raise ProfileError("domain bound r0 must be positive")
        if self.family == "c_log_inv_s":
            if self.C is None or not (self.C > 0):
                raise ProfileError("c_log_inv_s profile needs C > 0")
            if not (self.r0 < 1):
                raise ProfileError("c_log_inv_s needs r0 < 1 so beta stays positive")
        elif self.family == "tabulated":
            g = np.asarray(self.s_grid, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if g.ndim != 1 or g.size < 1 or v.shape != g.shape:
                raise ProfileError("tabulated profile needs matching grids")
            if not np.all(np.diff(g) > 0):
                raise ProfileError("tabulated s-grid must be strictly increasing")
            if np.any(v <= 0):
                raise ProfileError("tabulated values must be positive")
            if np.any(np.diff(v) > 1e-12 * np.abs(v[:-1])):
                raise ProfileError("tabulated values must be non-increasing")
            object.__setattr__(self, "s_grid", _as_float_tuple(g))
            object.__setattr__(self, "values", _as_float_tuple(v))
        elif self.family == "composed":
            if self.form not in self._forms:
                raise ProfileError(f"unknown composed form {self.form!r}")
        else:
            raise ProfileError(f"unknown profile family {self.family!r}")
        object.__setattr__(self, "_cache", {})  # evaluation state built from the fields

    @property
    def eval_floor(self):
        """Smallest s at which the profile is derivable (0 when unrestricted)."""
        if self.family == "composed" and self.params is not None:
            return float(self.params.get("s_min", 0.0))
        if self.family == "tabulated":
            return float(self.s_grid[0])
        return 0.0

    def __call__(self, s):
        return float(self.tabulate([float(s)])[0])

    def tabulate(self, s_values):
        s = np.asarray(s_values, dtype=float)
        bad = ~((s > 0) & np.isfinite(s))
        if bad.any():
            raise DomainError(f"profile argument must be a finite positive s, got {s[bad][0]}")
        return self._rate(s)

    def _rate(self, s):
        if self.family == "c_log_inv_s":
            if np.any(s >= self.r0):
                raise DomainError(f"s={s[s >= self.r0][0]} outside domain (0, {self.r0})")
            return self.C * _elementwise(math.log, 1.0 / s)
        if self.family == "tabulated":
            i = np.searchsorted(self.s_grid, s, side="right") - 1
            if np.any(i < 0):
                raise DomainError(f"s={s[i < 0][0]} below tabulated grid start {self.s_grid[0]}")
            return np.asarray(self.values)[i]
        n = self._scan_level(s)
        if self.form == "weighted_lsi_smooth":
            # b(n - 1) > s >= b(n) and b decreases from n_min on, so the root
            # of b(r) = s is in the bracket; its upper end keeps b(r) <= s
            p = self.params
            _, n = bisect(lambda r: cutoff_levels(p, r) <= s, np.maximum(n - 1.0, p["n_min"]), n)
        return 2.0 * n * n

    def _scan_level(self, s):
        """The smallest level n whose cut-off level is <= s.

        That n is the first index at which the running minimum of the levels
        is <= s, a searchsorted on the negated (ascending) running minima.
        The levels run from 1 to ``n_cap`` for a tail and from ``n_min`` to
        ``LAST_WEIGHTED_LEVEL`` for a weighted certificate; their running
        minimum grows by blocks that double it, as far as the smallest s asked
        for so far needs.
        """
        p = self.params
        n0, last = (1, int(p["n_cap"])) if self.form == "tail_scan" else (int(p["n_min"]), LAST_WEIGHTED_LEVEL)
        running_min = self._cache.get("min", np.empty(0))
        s_lo = s.min(initial=math.inf)
        while n0 + running_min.size <= last and (running_min.size == 0 or running_min[-1] > s_lo):
            n = np.arange(n0 + running_min.size, min(n0 + max(2 * running_min.size, 16), last + 1), dtype=float)
            q = np.minimum.accumulate(np.concatenate([running_min[-1:], cutoff_levels(p, n)]))
            running_min = self._cache["min"] = np.concatenate([running_min[:-1], q])
        k = np.searchsorted(-running_min, -s, side="left")
        if np.any(k == running_min.size):
            raise DomainError(f"no weak-LSI derivable at s={float(s[k == running_min.size][0])!r}: "
                              f"no qualifying level below cap {running_min.size}")
        return n0 + k

    def to_dict(self):
        d = {"type": self._type, "family": self.family}
        if self.family == "constant":
            return d | {"is_constant": True, "value": self.value}
        d["r0"] = self.r0
        if self.family == "c_log_inv_s":
            d["C"] = self.C
        elif self.family == "tabulated":
            d["s_grid"] = list(self.s_grid)
            d["values"] = list(self.values)
        else:
            d["form"] = self.form
            d["params"] = self.params
        if isinstance(self, AlphaProfile):
            d["is_constant"] = False
        return d

    @classmethod
    def from_dict(cls, d):
        if d.get("type") != cls._type:
            raise ProfileError(f"not a serialized {cls._type.replace('_', ' ')}")
        names = {f.name for f in fields(cls)} - {"family", "r0"}
        kw = {k: tuple(v) if k in ("s_grid", "values") else v for k, v in d.items() if k in names}
        r0 = math.inf if d["family"] == "constant" else d["r0"]
        return cls(family=d["family"], r0=r0, **kw)


@dataclass(frozen=True)
class AlphaProfile(BetaProfile):
    """Weak Poincare rate; family ``constant`` is a true Poincare constant ``value``.
    The dict form's ``is_constant`` key follows from the family and is not read back."""

    value: float | None = None

    _type = "alpha_profile"
    _forms = ("weak_poincare_formula",)

    def __post_init__(self):
        if self.family == "constant":
            if self.value is None or not (self.value > 0):
                raise ProfileError("constant alpha profile needs a positive value")
            return
        super().__post_init__()

    def __call__(self, s):
        if self.family == "constant":
            return self.value
        return super().__call__(s)

    @property
    def eval_floor(self):
        if self.family == "constant":
            return 0.0
        if self.family == "composed":
            return float(self.params.get("s_lo", 0.0))
        return super().eval_floor

    def _rate(self, s):
        if self.family == "constant":
            return np.full(s.shape, float(self.value))
        if self.family != "composed":
            return super()._rate(s)
        # weak-Poincare formula alpha(s) = beta(C2' s L) / (C1' L), L = log(1/s)
        p = self.params
        r1 = p.get("r1")
        if r1 is not None and np.any(s >= r1):
            raise DomainError(f"s={s[s >= r1][0]} outside weak-Poincare domain (0, {r1})")
        if "beta" not in self._cache:
            self._cache["beta"] = BetaProfile.from_dict(p["beta"])
        L = _elementwise(math.log, 1.0 / s)
        return self._cache["beta"].tabulate(p["C2_prime"] * s * L) / (p["C1_prime"] * L)

    def tabulate_monotone(self, n_points=64):
        """Tabulated, valid, non-increasing view of the profile on n_points
        geometric points of its evaluable range.

        alpha_bar(s) = min over s' <= s of alpha(s') is again a weak-Poincare
        rate (a certificate at smaller s is also one at larger s), so the raw
        formula values may be monotonized by a running minimum.
        """
        if self.family == "constant":
            grid = np.array([1e-6, 1.0])
            return grid, np.full(grid.shape, self.value)
        lo = max(self.eval_floor * 1.001, 1e-300)
        hi = self.r0 * 0.999
        if not lo < hi:
            raise DomainError("empty evaluable range")
        grid = np.geomspace(lo, hi, n_points)
        return grid, np.minimum.accumulate(self.tabulate(grid))


def profile_from_dict(d):
    t = d.get("type")
    if t == "beta_profile":
        return BetaProfile.from_dict(d)
    if t == "alpha_profile":
        return AlphaProfile.from_dict(d)
    raise ProfileError(f"unknown serialized profile type {t!r}")
