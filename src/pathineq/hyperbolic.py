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
is in closed form; for n = 2 the classical integral formula is evaluated over
arrays of radii by fixed-node Gauss-Legendre quadrature, after the
substitution u^2 = cosh s - cosh r that removes the endpoint singularity.
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


# Gauss-Legendre nodes and weights on [-1, 1] for the n = 2 integrals
_GL_X, _GL_W = np.polynomial.legendre.leggauss(256)


def _h2_integrals(tau, r):
    # shifted by exp(+r^2/(4 tau)) so nothing underflows for small tau:
    # J0(r) = int_0^inf 2 s(u) e^{-(s^2-r^2)/(4 tau)} / sinh s(u) du
    # J1(r) = int_0^inf h'(s(u)) e^{+r^2/(4 tau)} sinh r / sinh s(u) du
    # with s(u) = arccosh(cosh r + u^2); s >= r keeps the exponent <= 0,
    # and the ratio J1/J0 equals the unshifted I'/I.  Fixed nodes on two
    # u-pieces, the first holding the kernel's bulk, the second its tail;
    # no node sits at u = 0, so s > 0 at every node even for r = 0
    r = np.asarray(r, dtype=float)[..., None]
    ch_r = np.cosh(r)
    sh_r = np.sinh(r)
    rr4 = r * r / (4.0 * tau)

    def u_of_s(s):
        return np.sqrt(np.maximum(np.cosh(s) - ch_r, 0.0))

    u_mid = u_of_s(np.sqrt(r * r + 30.0 * tau) + 0.5)
    u_max = u_of_s(np.sqrt(r * r + 200.0 * tau) + 3.0)
    J0 = J1 = 0.0
    for a, b in ((0.0, u_mid), (u_mid, u_max)):
        half = 0.5 * (b - a)
        u = a + half * (1.0 + _GL_X)
        s = np.arccosh(ch_r + u * u)
        sh_s = np.sinh(s)
        e = 2.0 * np.exp(rr4 - s * s / (4.0 * tau)) / sh_s
        dh = e * (1.0 - s / np.tanh(s) - s * s / (2.0 * tau))  # h(s) = e s
        J0 = J0 + half[..., 0] * ((e * s) @ _GL_W)
        J1 = J1 + half[..., 0] * ((dh * sh_r / sh_s) @ _GL_W)
    return J0, J1


def _p2_lap(tau, r):
    r = np.asarray(r, dtype=float)
    J0, _ = _h2_integrals(tau, r)
    pref = math.sqrt(2.0) * (4.0 * math.pi * tau) ** -1.5
    return pref * np.exp(-r * r / (4.0 * tau) - tau / 4.0) * J0


def _dlogp2_dr_lap(tau, r):
    J0, J1 = _h2_integrals(tau, r)
    return J1 / J0


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
