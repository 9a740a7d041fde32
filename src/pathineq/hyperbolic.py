"""Hyperboloid model of H^n (n = 2, 3) with heat kernel and log-gradient.

Points live on the upper sheet {x in R^{n+1} : <x,x> = -1, x_{n+1} > 0} of the
Minkowski form <x,y> = sum_i x_i y_i - x_{n+1} y_{n+1} (curvature -1).  All
isometries are linear (Lorentz maps), exp/log/transport are closed-form, and
there is no cut locus, which keeps tests sharp.  Arrays are vectorized over
leading axes: shape (..., n+1).  The bridge sampler writes its own step in
closed form from <y, y0> (``samplers._bridge_step``); exp/log/transport and
``radial_coef`` are that step's test oracles and stay public API, used by the
estimators, the demos and ``grad_log_heat_kernel``.

The heat kernel solves dp/dt = (1/2) Lap p, the generator of Brownian motion;
it is evaluated as the kernel of dp/dt = Lap p at tau = t/2.  For n = 3 the kernel
is in closed form.  For n = 2 McKean's integral is evaluated over arrays of
times and radii by a 60-node Gauss-Legendre rule, after the substitution
u^2 = cosh s - cosh r that removes the endpoint singularity, on five pieces
that shrink with t.  The same integrals give the regular part
d/dr log p + r/t without cancellation (``h2_regular_dlog``), which the
bridge tabulates for its drift; it is within 3e-13 of 40-digit mpmath
values for t in [2^-20, 10] and r in [0, 15].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad


class GeometryError(ValueError):
    pass


def minkowski_dot(x, y):
    """<x,y> as the unrolled sum 0 + x0 y0 + x1 y1 (+ x2 y2) - xn yn, added
    left to right from +0 as numpy's sum over the spatial axis adds, so the
    bits match it, signed zeros included, without the reduction's cost."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = 0.0 + x[..., 0] * y[..., 0]
    for i in range(1, x.shape[-1] - 1):
        out = out + x[..., i] * y[..., i]
    return out - x[..., -1] * y[..., -1]


def origin(n):
    o = np.zeros(n + 1)
    o[-1] = 1.0
    return o


def project_to_sheet(x):
    """Renormalize onto the hyperboloid (guards against numerical drift)."""
    x = np.asarray(x, dtype=float)
    nrm = np.sqrt(-minkowski_dot(x, x))
    out = x / nrm[..., None]
    return np.where(out[..., -1:] < 0, -out, out)


def tangent_project(x, w):
    """Project an ambient vector onto the tangent space at x (<v,x> = 0)."""
    return w + minkowski_dot(w, x)[..., None] * x


def dist(x, y):
    """Geodesic distance arccosh(-<x,y>); the product is clamped below -1,
    so the result is never NaN and is >= 0.  Coincident points give exactly 0
    only where -<x,x> rounds to <= 1 (the origin, for one); elsewhere its
    rounding error eps becomes arccosh(1 + eps) ~ sqrt(2 eps): about 3e-8,
    growing with the point's last coordinate (below 5e-8 x_n)."""
    c = np.maximum(-minkowski_dot(x, y), 1.0)
    return np.arccosh(c)


def exp_map(x, v):
    """exp_x(v) = cosh|v| x + sinh|v| v/|v|, re-projected to the sheet."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    nv = np.sqrt(np.maximum(minkowski_dot(v, v), 0.0))[..., None]
    small = nv < 1e-14
    unit = np.where(small, 0.0, v / np.where(small, 1.0, nv))
    out = np.cosh(nv) * x + np.sinh(nv) * unit + np.where(small, v, 0.0)
    return project_to_sheet(out)


def log_map(x, y, r=None):
    """Tangent vector at x pointing to y with |log_x(y)| = dist(x, y); a
    caller that has r = dist(x, y) already passes it."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = (dist(x, y) if r is None else np.asarray(r, dtype=float))[..., None]
    w = y - np.cosh(r) * x
    nw = np.sqrt(np.maximum(minkowski_dot(w, w), 0.0))[..., None]
    safe = nw > 1e-300
    return np.where(safe, r * w / np.where(safe, nw, 1.0), 0.0 * w)


def parallel_transport(v, x, y):
    """Levi-Civita transport of v along the geodesic from x to y:
    P(v) = v + <v,y>/(1 - <x,y>) (x + y).  Identity when y = x."""
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    denom = 1.0 - minkowski_dot(x, y)
    coef = minkowski_dot(v, y) / denom
    return v + coef[..., None] * (x + y)


def gram_schmidt_tangent(x, frame):
    """Re-orthonormalize a tangent frame in the Minkowski metric (positive
    definite on tangent spaces); fixes slow drift in long integrations."""
    out = []
    for i in range(frame.shape[-2]):
        v = tangent_project(x, frame[..., i, :])
        for u in out:
            v = v - minkowski_dot(v, u)[..., None] * u
        nv = np.sqrt(np.maximum(minkowski_dot(v, v), 1e-300))[..., None]
        out.append(v / nv)
    return np.stack(out, axis=-2)


def ruse_invariant(r, n):
    """Volume-distortion factor (sinh r / r)^{n-1}; -> 1 as r -> 0."""
    r = np.asarray(r, dtype=float)
    ratio = np.where(r < 1e-6, 1.0 + r * r / 6.0, np.sinh(np.where(r < 1e-6, 1.0, r)) / np.where(r < 1e-6, 1.0, r))
    return ratio ** (n - 1)


def sphere_area(n, r):
    """Area of the geodesic sphere of radius r in H^n."""
    r = np.asarray(r, dtype=float)
    if n == 2:
        return 2.0 * math.pi * np.sinh(r)
    if n == 3:
        return 4.0 * math.pi * np.sinh(r) ** 2
    raise GeometryError("only n = 2, 3 supported")


# ---------------------------------------------------------------------------
# Heat kernel


@dataclass(frozen=True)
class HeatKernelParams:
    n: int

    def __post_init__(self):
        if self.n not in (2, 3):
            raise GeometryError("only n = 2, 3 supported")


def _p3_lap(tau, r):
    r = np.asarray(r, dtype=float)
    small = r < 1e-8
    fac = np.where(small, 1.0 - r * r / 6.0, r / np.sinh(np.where(small, 1.0, r)))
    return (4.0 * math.pi * tau) ** -1.5 * fac * np.exp(-r * r / (4.0 * tau) - tau)


def _dlogp3_dr_lap(tau, r):
    # 1/r - coth r, by its series below r = 1e-6; the series and the guard are
    # evaluated only when some r is that small
    r = np.asarray(r, dtype=float)
    small = r < 1e-6
    if not small.any():
        return 1.0 / r - 1.0 / np.tanh(r) - r / (2.0 * tau)
    safe = np.where(small, 1.0, r)
    core = np.where(small, -r / 3.0 - r**3 / 45.0, 1.0 / safe - 1.0 / np.tanh(safe))
    return core - r / (2.0 * tau)


def _h2_rule(nodes):
    # Gauss-Legendre nodes and weights on [0, 1]: nodes[0] of them for the
    # first piece, then nodes[1:] for the later pieces, concatenated, with
    # the index of each node's piece among them
    x, w = zip(*(np.polynomial.legendre.leggauss(k) for k in nodes))
    x, w = [0.5 * (1.0 + xi) for xi in x], [0.5 * wi for wi in w]
    return x[0], w[0], np.concatenate(x[1:]), np.concatenate(w[1:]), np.repeat(np.arange(len(nodes) - 1), nodes[1:])


# The n = 2 rule: the first piece in u takes 16 nodes, the four in log u
# 12, 12, 12 and 8: 60 in all.  The pieces end where s^2 = r^2 + c tau for
# each c in _H2_CUTS, the last one 3 further on
_H2_CUTS = np.array([2.0, 10.0, 40.0, 120.0, 200.0])
_H2_END = np.array([0.0, 0.0, 0.0, 0.0, 3.0])
_H2_RULE = _h2_rule((16, 12, 12, 12, 8))


def _h2_integrals(tau, r):
    # McKean's integral I(r) = int_r^inf s e^{-s^2/(4 tau)} / sqrt(cosh s - cosh r) ds
    # for the n = 2 kernel, after u^2 = cosh s - cosh r, which removes the
    # endpoint singularity, and shifted by e^{+r^2/(4 tau)} so that nothing
    # underflows for small tau; tau and r broadcast:
    #   J0 = int_0^inf 2 s e^{-(s^2-r^2)/(4 tau)} / sinh s du,
    #   G = J0 (d/dr log I + r/(2 tau))
    #     = int_0^inf 2 e^{-(s^2-r^2)/(4 tau)} / sinh s
    #       [(1 - s coth s) sinh r / sinh s + s (r - s sinh r / sinh s) / (2 tau)] du,
    # so G/J0, the regular part, never cancels r/(2 tau) against d/dr log I.
    #
    # A node is evaluated from v^2 = u^2 e^{-r} alone, with A = sinh r e^{-r}
    # and C = cosh r e^{-r}: q = v^2 (2 C + v^2) gives sinh s e^{-r} =
    # sqrt(A^2 + q) and (sinh s - sinh r) e^{-r} = q / (sinh s e^{-r} + A), and
    # e^s = cosh r + u^2 + sinh s gives s - r = log1p(v^2 + that).  No arccosh,
    # no cancellation, and no overflow while exp(-r/2) is a normal double.
    #
    # The first piece, from u = 0, is linear in u; the later ones are linear
    # in log u, as the integrand falls like 1/u^2 once s >> 1.  Their ends
    # come from s - r alone, as v^2 = expm1(s - r) (-expm1(-r - s)) / 2, so
    # they shrink with tau and the kernel's peak always fills them; past the
    # last one the integrand is below e^-50 of its peak
    tau = np.asarray(tau, dtype=float)[..., None]
    r = np.asarray(r, dtype=float)[..., None]
    A = -0.5 * np.expm1(-2.0 * r)
    C = 1.0 - A
    d_end = _H2_CUTS * tau / (np.sqrt(r * r + _H2_CUTS * tau) + r) + _H2_END  # s - r at each piece's end
    vv = -0.5 * np.expm1(d_end) * np.expm1(-2.0 * r - d_end)
    m4, hr, hA, AC = -0.25 / tau, 0.5 * r / tau, 0.5 * A / tau, A * C  # per radius, for the nodes' sums

    def sums(v, w):
        # the two integrands at nodes v, summed against weights w: sqrt,
        # log1p and exp per node, and elementwise sums, no BLAS
        V = v * v
        q = V * (2.0 * C + V)
        S = np.sqrt(A * A + q)
        inv = 1.0 / S
        dsh = q / (S + A)
        d = np.log1p(V + dsh)
        s = r + d
        e = np.exp(d * (s + r) * m4) * inv * w
        J0 = (e * s).sum(-1)
        G = (e * inv * (A + s * (hr * dsh - hA * d - (AC + A * V) * inv))).sum(-1)
        return J0, G

    x0, w0, x, w, piece = _H2_RULE
    v1 = np.sqrt(vv[..., :1])
    J0, G = sums(v1 * x0, v1 * w0)
    lv = 0.5 * np.log(vv)
    a = lv[..., piece]
    width = lv[..., piece + 1] - a
    v = np.exp(a + width * x)
    J0_tail, G_tail = sums(v, width * v * w)
    scale = 2.0 * np.exp(-0.5 * r[..., 0])  # 2 du / sinh s = 2 e^{-r/2} dv / (sinh s e^{-r})
    return scale * (J0 + J0_tail), scale * (G + G_tail)


def _p2_lap(tau, r):
    r = np.asarray(r, dtype=float)
    J0, _ = _h2_integrals(tau, r)
    pref = math.sqrt(2.0) * (4.0 * math.pi * tau) ** -1.5
    return pref * np.exp(-r * r / (4.0 * tau) - tau / 4.0) * J0


def _dlogp2_dr_lap(tau, r):
    J0, G = _h2_integrals(tau, r)
    return G / J0 - np.asarray(r, dtype=float) / (2.0 * tau)


def _per_radius(t, r, params, formula3, formula2):
    # the formulas are for dp/dt = Lap p; the kernel of (1/2) Lap at time t is
    # theirs at tau = t/2
    if not t > 0:
        raise GeometryError("heat kernel needs t > 0")
    formula = formula3 if params.n == 3 else formula2
    return formula(0.5 * t, r)


def heat_kernel(t, r, params: HeatKernelParams):
    """Kernel value p_t(x, y) as a function of r = d(x, y)."""
    return _per_radius(t, r, params, _p3_lap, _p2_lap)


def dlog_heat_kernel_dr(t, r, params: HeatKernelParams):
    """Radial derivative of log p_t; negative (the kernel decreases in r).
    d/dr log p^{half}(t) = d/dr log p^{lap}(t/2): the chain rule only
    rescales time."""
    return _per_radius(t, r, params, _dlogp3_dr_lap, _dlogp2_dr_lap)


def h2_regular_dlog(t, r):
    """g = d/dr log p_t(r) + r/t on H^2, the smooth part of the kernel's
    log-derivative, with r/t taken out inside the integral rather than added
    back; t > 0 and r broadcast against each other."""
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0):
        raise GeometryError("heat kernel needs t > 0")
    J0, G = _h2_integrals(0.5 * t, r)
    return G / J0


def radial_coef(dlog, r):
    """Coefficient c with grad log p = c log_x(y0), given dlog = d/dr log p
    at r = d(x, y0): grad_x d(x, y0) = -log_x(y0)/r; 0 at the pole."""
    return np.where(r > 1e-12, -dlog / np.where(r > 0, r, 1.0), 0.0)


def grad_log_heat_kernel(t, x, y0, params: HeatKernelParams):
    """Gradient in x of log p_t(x, y0): a tangent vector at x pointing along
    the geodesic toward y0 (the kernel decays in the distance)."""
    x = np.asarray(x, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    r = dist(x, y0)
    return radial_coef(dlog_heat_kernel_dr(t, r, params), r)[..., None] * log_map(x, y0, r)


def radial_integral(f, n, r_max):
    """int_{H^n} f(d(o, y)) dy = int_0^{r_max} f(r) area(r) dr by quadrature."""
    val, _ = quad(
        lambda r: float(f(r)) * float(sphere_area(n, r)), 0.0, r_max, epsabs=1e-12, epsrel=1e-12, limit=300
    )
    return val


def kernel_mass(t, params: HeatKernelParams):
    """Total mass of the kernel (stochastic completeness check -> 1)."""
    tau = 0.5 * t
    r_max = 4.0 * tau + 16.0 * math.sqrt(tau) + 10.0
    return radial_integral(lambda r: heat_kernel(t, r, params), params.n, r_max)


def chapman_kolmogorov_lhs(s, t, d_xy, params: HeatKernelParams):
    """int p_s(x, z) p_{t-s}(z, y) dz for d(x, y) = d_xy, by 2-d quadrature
    in geodesic polar coordinates around x (n = 3 only)."""
    if params.n != 3:
        raise GeometryError("Chapman-Kolmogorov oracle implemented for n = 3")
    from scipy.integrate import dblquad

    def integrand(theta, rho):
        c = math.cosh(rho) * math.cosh(d_xy) - math.sinh(rho) * math.sinh(d_xy) * math.cos(theta)
        dzy = math.acosh(max(1.0, c))
        return float(
            heat_kernel(s, rho, params)
            * heat_kernel(t - s, dzy, params)
            * 2.0
            * math.pi
            * math.sinh(rho) ** 2
            * math.sin(theta)
        )

    tau = 0.5 * t
    rho_max = 4.0 * tau + 16.0 * math.sqrt(tau) + 8.0
    val, _ = dblquad(integrand, 0.0, rho_max, 0.0, math.pi, epsabs=1e-10, epsrel=1e-10)
    return val


def bridge_radial_cdf(t, T, grid, params: HeatKernelParams):
    """CDF of d(y_t, o) under the bridge from o to o in time T: the marginal
    density in the radial variable is p_t(r) p_{T-t}(r) area(r) / p_T(0),
    integrated by quadrature and normalized."""
    grid = np.asarray(grid, dtype=float)

    def dens(r):
        return float(
            heat_kernel(t, r, params) * heat_kernel(T - t, r, params) * sphere_area(params.n, r)
        )

    vals = [0.0]
    for a, b in zip(grid[:-1], grid[1:]):
        vals.append(quad(dens, a, b, epsabs=1e-12, epsrel=1e-10, limit=200)[0])
    cum = np.cumsum(vals)
    total = cum[-1] + quad(dens, grid[-1], grid[-1] + 4.0 * T + 20.0, epsabs=1e-12, epsrel=1e-10, limit=200)[0]
    return cum / total
