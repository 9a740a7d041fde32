"""Rate profiles for weak functional inequalities, and empirical tail bounds.

A weak log-Sobolev inequality reads  Ent(f^2) <= beta(s) E|grad f|^2 + s |f|_inf^2
and a weak Poincare inequality reads  Var(f) <= alpha(s) E|grad f|^2 + s |f|_inf^2,
each for s in (0, r0) with a non-increasing positive rate function.  This module
holds the rate-function objects (``BetaProfile`` / ``AlphaProfile``), the tail
bound object fed into the tail-to-weak-LSI transfer, and their dict (JSON) form.

``BetaProfile`` takes the first two families below and ``AlphaProfile`` the
last two, the ones the transfers make; ``tabulate`` evaluates each:

* ``c_log_inv_s``  -- beta(s) = C * log(1/s), the borderline rate that still
  upgrades to a true Poincare inequality;
* ``composed``     -- a closed-form construction described by parameters and
  re-evaluated from them (beta's scans, alpha's weak-Poincare formula).
  Keeping parameters instead of closures is what makes serialization lossless;
* ``constant``     -- alpha(s) = value for every s > 0, a true Poincare constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import betaincinv

_CUTOFF_ADD = 1.0 / math.e + 1.0
LAST_WEIGHTED_LEVEL = 10**7  # the last level a weighted-LSI scan reads
TAIL_LEVELS = 1000  # the last level a tail scan reads


class ProfileError(ValueError):
    """Malformed profile or tail bound."""


class DomainError(ValueError):
    """Profile evaluated outside its stated domain."""


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

    b(n) is that product where the exponential is a normal float and factor * M is finite; elsewhere it
    would read 0 or NaN, and is exp of the sum of the logs (log factor = 2 log(2 a n) where it overflows).
    """
    if "m" in params:
        m = _step_left(*_tail_arrays(params["levels"], params["m"]), n - 1.0)
        return cutoff_factor(params["a"], n) * np.sqrt(m)
    d = n - 1.0
    z = -0.5 * params["C"] * (d * d)  # d * d: a float's ** 2 can differ from an array's by an ulp
    e = _elementwise(math.exp, z)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        c = cutoff_factor(params["a"], n)
        b = c * params["M"] * e
        far = ~np.isfinite(c * params["M"]) | (e < np.finfo(float).tiny)  # below the smallest normal float
        if far.any():
            log_c = np.where(np.isfinite(c), np.log(c), 2.0 * (np.log(2.0 * params["a"]) + np.log(n)))
            b[far] = np.exp(log_c + math.log(params["M"]) + z)[far]
    return b


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


def _known_keys(obj, d, written):
    """obj, read from the dict d, if d holds no key but those of ``written``: a misspelled key is not dropped."""
    if unknown := [k for k in d if k not in written]:
        raise ProfileError(f"unknown key {unknown[0]!r} in a serialized {d['type'].replace('_', ' ')}")
    return obj


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
        n, c = self.n_samples, self.confidence  # the metadata a certificate publishes with the tail
        if self.source not in ("analytic", "empirical"):
            raise ProfileError(f"unknown tail source {self.source!r}")
        if self.source == "analytic" and (n is not None or c is not None):
            raise ProfileError("an analytic tail takes neither n_samples nor confidence")
        if self.source == "empirical" and (isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2):
            raise ProfileError(f"an empirical tail needs n_samples, an int >= 2, got {n!r}")
        if self.source == "empirical" and not (isinstance(c, float) and 0 < c < 1):
            raise ProfileError(f"an empirical tail's confidence must lie in (0, 1), got {c!r}")
        levels, values = _tail_arrays(self.levels, self.values)
        object.__setattr__(self, "levels", tuple(levels.tolist()))
        object.__setattr__(self, "values", tuple(values.tolist()))
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
        if not isinstance(d, dict) or d.get("type") != "tail_bound":
            raise ProfileError("not a serialized tail bound")
        for key in ("levels", "values"):
            if not isinstance(d.get(key), list) or any(type(x) not in (int, float) for x in d[key]):
                raise ProfileError(f"tail bound needs {key}, a list of numbers")
        tail = cls(
            levels=tuple(d["levels"]),
            values=tuple(d["values"]),
            source=d.get("source", "analytic"),
            n_samples=d.get("n_samples"),
            confidence=d.get("confidence"),
        )
        return _known_keys(tail, d, tail.to_dict())


# ---------------------------------------------------------------------------
# Rate profiles


@dataclass(frozen=True)
class BetaProfile:
    """Weak log-Sobolev rate s -> beta(s), non-increasing and positive."""

    family: str
    r0: float
    C: float | None = None
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
        elif self.family == "composed":
            if self.form not in self._forms:
                raise ProfileError(f"unknown composed form {self.form!r}")
            if not isinstance(self.params, dict):
                raise ProfileError("composed profile needs its params, a mapping")
        else:
            raise ProfileError(f"unknown profile family {self.family!r}")
        object.__setattr__(self, "_cache", {})  # evaluation state built from the fields

    @property
    def eval_floor(self):
        """Smallest s at which the profile is derivable (0 when unrestricted)."""
        return float(self.params.get("s_min", 0.0)) if self.family == "composed" else 0.0

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
        The levels run from 1 to ``TAIL_LEVELS`` for a tail and from
        ``n_min`` to ``LAST_WEIGHTED_LEVEL`` for a weighted certificate; their
        running minimum grows by blocks that double it, as far as the smallest
        s asked for so far needs.
        """
        p = self.params
        n0, last = (1, TAIL_LEVELS) if self.form == "tail_scan" else (int(p["n_min"]), LAST_WEIGHTED_LEVEL)
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
        d = {"type": self._type, "family": self.family, "r0": self.r0}
        if self.family == "c_log_inv_s":
            return d | {"C": self.C}
        return d | {"form": self.form, "params": self.params}

    @classmethod
    def from_dict(cls, d):
        if d.get("type") != cls._type:
            raise ProfileError(f"not a serialized {cls._type.replace('_', ' ')}")
        if missing := [k for k in ("family", "r0") if k not in d]:
            raise ProfileError(f"a serialized {cls._type.replace('_', ' ')} needs {missing[0]!r}")
        names = {f.name for f in fields(cls)} - {"family", "r0"}
        prof = cls(family=d["family"], r0=d["r0"], **{k: v for k, v in d.items() if k in names})
        return _known_keys(prof, d, prof.to_dict().keys() | {"r0"})  # a constant alpha writes no r0, checked inf


@dataclass(frozen=True)
class AlphaProfile(BetaProfile):
    """Weak Poincare rate: a true Poincare constant ``value`` on every s > 0 (r0 is inf) or the weak-Poincare
    formula.  The dict form's ``is_constant`` key follows from the family and is not read back."""

    value: float | None = None

    _type = "alpha_profile"
    _forms = ("weak_poincare_formula",)

    def __post_init__(self):
        if self.family == "composed":
            return super().__post_init__()
        if self.family != "constant":
            raise ProfileError(f"unknown alpha profile family {self.family!r}")
        if self.value is None or not (self.value > 0) or self.r0 != math.inf:
            raise ProfileError("constant alpha profile needs a positive value and r0 = inf")

    def __call__(self, s):  # its own entry, so a trace tells alpha evaluations from beta ones
        return super().__call__(s)

    @property
    def eval_floor(self):
        return float(self.params.get("s_lo", 0.0)) if self.family == "composed" else 0.0

    def _rate(self, s):
        if self.family == "constant":
            return np.full(s.shape, float(self.value))
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
        geometric points of its evaluable range, which must be bounded.

        alpha_bar(s) = min over s' <= s of alpha(s') is again a weak-Poincare
        rate (a certificate at smaller s is also one at larger s), so the raw
        formula values may be monotonized by a running minimum.
        """
        lo = max(self.eval_floor * 1.001, 1e-300)
        hi = self.r0 * 0.999
        if not lo < hi < math.inf:
            raise DomainError("empty or unbounded evaluable range")
        grid = np.geomspace(lo, hi, n_points)
        return grid, np.minimum.accumulate(self.tabulate(grid))

    def to_dict(self):
        if self.family == "constant":
            return {"type": self._type, "family": self.family, "is_constant": True, "value": self.value}
        return super().to_dict() | {"is_constant": False}

    @classmethod
    def from_dict(cls, d):
        return super().from_dict({"r0": math.inf} | d if d.get("family") == "constant" else d)


def profile_from_dict(d):
    cls = {"beta_profile": BetaProfile, "alpha_profile": AlphaProfile}.get(d.get("type"))
    if cls is None:
        raise ProfileError(f"unknown serialized profile type {d.get('type')!r}")
    return cls.from_dict(d)
