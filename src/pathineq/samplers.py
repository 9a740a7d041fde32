"""Seeded samplers for path-space measures on a discrete time grid.

Four measures at desk scale: Wiener, flat Brownian bridge (pinned at 0),
Ornstein-Uhlenbeck with exact Gaussian transitions, and the Brownian bridge
on the hyperboloid model of H^n driven by the bridge SDE

    dy_t = X(y_t) o dB_t + grad log p_{T-t}(y_t, y0) dt,

integrated by geodesic Euler-Maruyama: at each step a standard Gaussian at
the origin is parallel-transported to the point, the drift is added and the
point is moved by the exponential map.  No frame is carried: the transport is
an isometry and the fresh Gaussian is isotropic, so given the point the
increment has the law of F xi for any orthonormal frame F there.  The step
is one elementwise pass (``_bridge_step``): from c = -<y, y0> = cosh r, the
bits of ``hyperbolic.dist``, it writes the drift, the transport and the
exponential map in closed form, so |drift| = |d/dr log p| and the drift
clip clips that scalar; ``hyperbolic``'s exp/log/transport are its test
oracles.  The drift's radial part is in closed form on H^3; on H^2 it is read
from a cubic spline in r fitted at each step's own remaining time
(``_make_drift``).
The drift blows up like d/(T-t) + 1/sqrt(T-t) near the terminal time, so the
grid is refined geometrically toward T and the last node is snapped to the
endpoint with the pre-snap gap recorded as a diagnostic.

Noise is counter-based: each (seed, stream, step) has its own Philox stream,
so ensembles are bit-reproducible for a given config.  The flat samplers are
one recursion x_{k+1} = a_k x_k + s_k xi_k (``_gauss_markov``; the bridge
pins Wiener's points) on one stream, the (paths, steps, dim) normals from
(seed, 0, 0) read ``_BLOCK`` paths at a time, so their draws depend on the
grid's step count; OU starts from stream 1.  OU's bits moved when it left its
per-step streams, and a Wiener's off the origin by rounding (x0 now comes
first).  The hyperbolic bridge draws each step of each block of ``_BLOCK``
paths from its own stream.  In every sampler path i's normals follow those of
the paths before it in its stream, so the first paths of a run match a run
with fewer paths.  Every input is checked before a path is drawn: a bad one
raises a ``SamplerError`` whose ``key`` names the argument (``TimeGrid``'s,
``SamplerConfig``'s field, or the x0 or y0 that the sampler cannot take).

The hyperbolic bridge runs on a pool of ``_WORKERS`` threads, one per
available CPU, for the call (the CLI's ``--threads`` only runs scenarios
side by side).  Each thread steps one contiguous range of blocks through the
whole grid, one ``_bridge_step`` call per step, with no barrier between
steps.  The step works path by path, so the bits depend on neither the
number of threads nor their scheduling.  The path state is kept
coordinate-major (Fortran order), so a range's coordinates are contiguous
columns.

Every sampler calls its ``alloc=np.empty`` once, after its input checks, for
its points; ``save_ensemble``'s maps the points region of the file it
reserves, so points are written once.  A ``.pens`` file holds the magic line,
the header length, the header JSON space-padded to the page where the points
start (it is written last), the points, then the diagnostic arrays, all
little-endian float64, path-major; files with other padding still load.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import hyperbolic as hyp
from .hyperbolic import HeatKernelParams

MAGIC = b"PINEQENS1\n"


class SamplerError(ValueError):
    def __init__(self, message, key=None):  # key: the argument at fault, where one is
        super().__init__(message)
        self.key = key


# ---------------------------------------------------------------------------
# Time grids

# checked before a node is built, as a grid's nodes are a tuple copied into each config and .pens header:
# 10^5 nodes take about 40 ms and 7 MB, far above the 522-step grids of the refinement studies
MAX_GRID_NODES = 100_000


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing nodes 0 = t_0 < ... < t_N = T."""

    nodes: tuple

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise SamplerError("grid needs at least two nodes")
        if nodes[0] != 0.0:
            raise SamplerError("grid must start at t = 0")
        if not np.all(np.diff(nodes) > 0):
            raise SamplerError("grid nodes must be strictly increasing")
        object.__setattr__(self, "nodes", tuple(float(t) for t in nodes))

    @property
    def T(self):
        return self.nodes[-1]

    @property
    def n_nodes(self):
        return len(self.nodes)

    def array(self):
        return np.asarray(self.nodes)

    @staticmethod
    def _check_steps(T, n_steps):
        if not 0 < T < math.inf:
            raise SamplerError("horizon T must be positive and finite", key="T")
        if n_steps < 1:
            raise SamplerError("n_steps must be >= 1", key="n_steps")
        if n_steps >= MAX_GRID_NODES:
            raise SamplerError(f"n_steps must be below {MAX_GRID_NODES}", key="n_steps")

    @classmethod
    def uniform(cls, T, n_steps):
        cls._check_steps(T, n_steps)
        return cls(tuple(T * k / n_steps for k in range(n_steps + 1)))

    @classmethod
    def with_geometric_tail(cls, T, n_steps, lam=0.5, floor=1e-6):
        """Uniform grid whose final interval [T - h, T] is subdivided at
        T - h lam^k until steps reach floor * T, resolving the 1/(T-t)
        drift singularity of bridge dynamics.  A floor so small that the
        nodes stop moving toward T in floating point first is an error."""
        cls._check_steps(T, n_steps)
        if not 0 < lam < 1:
            raise SamplerError("tail ratio lam must be in (0, 1)", key="lam")
        if not floor > 0:
            raise SamplerError("tail floor must be positive", key="floor")
        # the tail holds T - h lam^k for k >= 1 while lam^k > floor * n_steps: fewer than this many nodes
        if math.log(floor * n_steps) / math.log(lam) > MAX_GRID_NODES - n_steps - 1:
            raise SamplerError(f"tail ratio lam {lam} with floor {floor} makes over {MAX_GRID_NODES} grid nodes",
                               key="lam")
        base = list(cls.uniform(T, n_steps).nodes[:-1])
        h = T / n_steps
        tail = []
        k = 1
        while h * lam**k > floor * T:
            node = T - h * lam**k
            if not (tail or base)[-1] < node < T:  # the nodes stopped moving toward T
                raise SamplerError(f"tail floor {floor} is below the float spacing at T = {T}", key="floor")
            tail.append(node)
            k += 1
        return cls(tuple(base + tail + [T]))

    def refined(self):
        """Dyadic refinement: insert the midpoint of every interval, halving
        the max step and the tail floor alike (for refinement studies)."""
        nodes = self.array()
        out = np.empty(2 * nodes.size - 1)
        out[0::2] = nodes
        out[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
        return TimeGrid(tuple(out))

    def index_of(self, t):
        nodes = self.array()
        i = int(np.argmin(np.abs(nodes - t)))
        if not abs(nodes[i] - t) <= 1e-12 * max(1.0, self.T):  # NaN is no node
            raise SamplerError(f"time {t} is not a grid node")
        return i


# ---------------------------------------------------------------------------
# Counter-based noise


def step_normals(seed, step, shape, stream=0, block=None, out=None):
    """Standard normals from a Philox stream keyed by seed, counter
    (stream, step, block + 1), or (stream, step, 0) without a block.

    Distinct counters give disjoint streams (the low 64-bit counter word
    would have to overflow to collide).  Normals fill ``shape``, or the
    C-contiguous ``out``, in C order, so the leading rows match a call with
    fewer rows: ``step_normals(9, 3, (1000, 3))[:400]`` equals
    ``step_normals(9, 3, (400, 3))``.  The ziggurat takes a variable number
    of counter words per normal, so a row's position in its stream depends
    on the draws before it.
    """
    return _stream(seed, step, stream, block).standard_normal(shape, out=out)


def _stream(seed, step, stream=0, block=None):  # the generator step_normals draws from, to read in parts
    bg = np.random.Philox(key=np.uint64(seed), counter=[0, stream, step, 0 if block is None else block + 1])
    return np.random.Generator(bg)


# ---------------------------------------------------------------------------
# Configs and ensembles


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    n_paths: int
    grid: TimeGrid
    dim: int = 1
    x0: tuple | None = None
    y0: tuple | None = None
    drift_cap: float = 4.0

    def __post_init__(self):
        if self.n_paths < 1:
            raise SamplerError("n_paths must be >= 1", key="n_paths")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):  # 1.5 draws seed 1's paths
            raise SamplerError(f"seed must be an integer, got {self.seed!r}", key="seed")
        if not 0 <= self.seed < 2**64:
            raise SamplerError("seed must fit in 64 bits", key="seed")
        if self.dim < 1:
            raise SamplerError("dim must be >= 1", key="dim")
        if not self.drift_cap > 0:
            raise SamplerError("drift_cap must be positive", key="drift_cap")
        object.__setattr__(self, "drift_cap", float(self.drift_cap))  # 4 and 4.0 draw the same paths: one hash
        if self.x0 is not None:
            object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        if self.y0 is not None:
            object.__setattr__(self, "y0", tuple(float(v) for v in self.y0))

    def to_dict(self):
        return {
            "seed": self.seed,
            "n_paths": self.n_paths,
            "grid_nodes": list(self.grid.nodes),
            "dim": self.dim,
            "x0": list(self.x0) if self.x0 is not None else None,
            "y0": list(self.y0) if self.y0 is not None else None,
            "drift_cap": self.drift_cap,
            "generator_convention": "half_laplacian",  # the bridge's only one; kept so hashes do not move
        }

    @classmethod
    def from_dict(cls, d):
        if d["generator_convention"] != "half_laplacian":
            raise SamplerError(f"generator_convention must be 'half_laplacian', got {d['generator_convention']!r}")
        return cls(
            seed=d["seed"],
            n_paths=d["n_paths"],
            grid=TimeGrid(tuple(d["grid_nodes"])),
            dim=d["dim"],
            x0=tuple(d["x0"]) if d.get("x0") else None,
            y0=tuple(d["y0"]) if d.get("y0") else None,
            drift_cap=d["drift_cap"],
        )

    @property
    def config_hash(self):
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class PathEnsemble:
    """A batch of discrete paths: points[path, node, coord]."""

    config: SamplerConfig
    measure_tag: str  # wiener | flat_bridge | ou | hyperbolic_bridge
    points: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def grid(self):
        return self.config.grid

    @property
    def n_paths(self):
        return self.points.shape[0]


# ---------------------------------------------------------------------------
# Flat samplers


# paths per noise block: the flat samplers read their one stream a block at a time, which moves no
# bit, but each bridge block draws from its own stream, so another size moves the bridge's bits
_BLOCK = 4096
_REFUSED = {"x0": "starts from its stationary law", "y0": "takes no end point"}


def _check_points(cfg, tag, takes, size, fault=lambda key, p: not np.isfinite(p).all() and f"{key} must be finite"):
    """Raise a SamplerError keyed x0 or y0 for a point of ``cfg`` that the ``tag`` sampler cannot take: one
    not in ``takes``, one of other than ``size`` coordinates, or one where ``fault(key, p)`` says why."""
    for key in ("x0", "y0"):
        p = getattr(cfg, key)
        if p is None:
            continue
        if key not in takes:
            raise SamplerError(f"the {tag} sampler {_REFUSED[key]}: {key} must be origin", key=key)
        if len(p) != size:
            raise SamplerError(f"expected {size} coordinates, got {len(p)}", key=key)
        error = fault(key, np.asarray(p))
        if error:
            raise SamplerError(error, key=key)


def _gauss_markov(cfg, x0, a, s, alloc):
    """Points x_{k+1} = a(h_k) x_k + s(h_k) xi_k, in the array ``alloc(shape)``, from x_0 = x0, of shape (dim,)
    or (paths, dim), h_k the steps, xi the (paths, steps, dim) normals of ``step_normals(cfg.seed, 0, ...)`` read
    _BLOCK paths at a time."""
    h, m = np.diff(cfg.grid.array()), cfg.n_paths
    a_h, s_h, x0 = a(h), s(h)[:, None, None], np.broadcast_to(x0, (m, cfg.dim))
    points = alloc((m, h.size + 1, cfg.dim))
    noise, xi = _stream(cfg.seed, 0), np.empty((min(m, _BLOCK), h.size, cfg.dim))
    y = np.empty((h.size + 1, len(xi), cfg.dim))  # a block step-major, so that each step is one contiguous pass
    for i in range(0, m, _BLOCK):
        z = noise.standard_normal(out=xi[: m - i])
        x = y[:, : len(z)]
        x[0] = x0[i : i + _BLOCK]
        np.multiply(z.transpose(1, 0, 2), s_h, out=x[1:])
        for k, a_k in enumerate(a_h):
            x[k + 1] += x[k] * a_k
        points[i : i + _BLOCK] = x.transpose(1, 0, 2)
    return points


def sample_wiener(cfg: SamplerConfig, alloc=np.empty) -> PathEnsemble:
    _check_points(cfg, "wiener", ("x0",), cfg.dim)
    return PathEnsemble(cfg, "wiener", _gauss_markov(cfg, cfg.x0 or 0.0, np.ones_like, np.sqrt, alloc))


def sample_flat_bridge(cfg: SamplerConfig, alloc=np.empty) -> PathEnsemble:
    """Brownian bridge pinned at 0: B_t - (t/T) B_T, endpoint exactly zero."""
    _check_points(cfg, "flat_bridge", ("x0",), cfg.dim,
                  lambda key, p: p.any() and "flat bridge is pinned at the origin")
    points, nodes = _gauss_markov(cfg, 0.0, np.ones_like, np.sqrt, alloc), cfg.grid.array()
    for x in (points[i : i + _BLOCK] for i in range(0, cfg.n_paths, _BLOCK)):  # no full-size temporary
        x -= (nodes / nodes[-1])[:, None] * x[:, -1:]
    return PathEnsemble(cfg, "flat_bridge", points)


def sample_ou(cfg: SamplerConfig, alloc=np.empty) -> PathEnsemble:
    """Langevin dynamics du = dW - (1/2) u dt, started from its stationary law, the standard normal
    (stream 1), by the exact Gaussian transition u_{t+h} = e^{-h/2} u_t + sqrt(1 - e^{-h}) xi."""
    _check_points(cfg, "ou", (), cfg.dim)
    u0 = step_normals(cfg.seed, 0, (cfg.n_paths, cfg.dim), stream=1)
    points = _gauss_markov(cfg, u0, lambda h: np.exp(-h / 2.0), lambda h: np.sqrt(-np.expm1(-h)), alloc)
    return PathEnsemble(cfg, "ou", points)


# ---------------------------------------------------------------------------
# Hyperbolic bridge

# one bridge thread per CPU this process may run on; the bits do not depend on it
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# steps per call of the H^2 drift quadrature: about 3 MB of temporaries; the bits do not depend on it
_DRIFT_STEPS = 8


def sample_hyperbolic_bridge(cfg: SamplerConfig, alloc=np.empty) -> PathEnsemble:
    """Geodesic Euler-Maruyama for the bridge SDE on H^n, n = cfg.dim.

    Per step: tangent increment sqrt(h) P(xi, 0) + h grad log p_{T-t}(y, y0),
    P the parallel transport from the origin to y, then the exponential-map
    move, all in one closed-form pass per range of paths (``_bridge_step``);
    block b's normals at step k are ``step_normals(seed, k, ..., block=b)``.
    The drift's norm is |d/dr log p|, which is clipped at
    drift_cap * (d(y, y0)/(T-t) + 1/sqrt(T-t)) with clip events counted.
    The final node is snapped to y0; pre-snap distances are recorded, and
    so is each path's max over nodes of d(y_t, y0) (``sup_distance``).
    """
    n = cfg.dim
    if n not in (2, 3):
        raise SamplerError("the hyperbolic bridge takes dim 2 or 3", key="dim")

    def off_sheet(key, p):
        on = p[-1] > 0 and abs(hyp.minkowski_dot(p, p) + 1.0) <= 1e-8  # the upper sheet; a NaN is on none
        return not on and f"{key} must be a point on the hyperboloid sheet of H^{n}"

    _check_points(cfg, "hyperbolic_bridge", ("x0", "y0"), n + 1, off_sheet)
    params = HeatKernelParams(n=n)
    nodes = cfg.grid.array()
    T = nodes[-1]
    o = hyp.origin(n)
    x0 = np.asarray(cfg.x0, dtype=float) if cfg.x0 is not None else o
    y0 = np.asarray(cfg.y0, dtype=float) if cfg.y0 is not None else o

    m = cfg.n_paths
    dlog_dr = _make_drift(params, T, nodes)

    y = np.array(np.broadcast_to(x0, (m, n + 1)), order="F")  # coordinate-major: see the module docstring
    points = alloc((m, nodes.size, n + 1))
    points[:, 0, :] = y
    sup = np.zeros(m)  # running max over nodes of d(y_t, y0); every distance is >= +0
    n_steps = nodes.size - 1

    def run(first, last):
        # blocks first..last-1 through every step, in place; returns the clip count
        rows = slice(first * _BLOCK, min(last * _BLOCK, m))
        yr, ur, xi, clips = y[rows], sup[rows], np.empty((rows.stop - rows.start, n)), 0  # yr, ur: views
        for k in range(n_steps):
            for i in range(0, len(xi), _BLOCK):
                step_normals(cfg.seed, k, None, block=first + i // _BLOCK, out=xi[i : i + _BLOCK])
            r, c, _ = _bridge_step(yr, y0, xi, nodes[k + 1] - nodes[k], T - nodes[k], cfg.drift_cap,
                                   partial(dlog_dr, k))
            clips += c
            np.maximum(ur, r, out=ur)
            points[rows, k + 1, :] = yr
        return clips

    n_blocks = -(-m // _BLOCK)
    workers = min(_WORKERS, n_blocks)
    bounds = [n_blocks * i // workers for i in range(workers + 1)]
    with ThreadPoolExecutor(workers) as pool:
        cap_events = sum(pool.map(run, bounds[:-1], bounds[1:]))

    presnap = hyp.dist(points[:, -1, :], y0)
    points[:, -1, :] = y0
    np.maximum(sup, hyp.dist(y0, y0), out=sup)  # the snapped last node
    diagnostics = {
        "presnap_gap": presnap,
        "sup_distance": sup,
        "presnap_gap_median": float(np.median(presnap)),
        "cap_event_fraction": cap_events / (m * n_steps),
    }
    return PathEnsemble(config=cfg, measure_tag="hyperbolic_bridge", points=points, diagnostics=diagnostics)


def _bridge_step(y, y0, xi, h, t_rem, drift_cap, dlog):
    """One step for the points y, shape (m, n+1) with contiguous columns,
    overwritten in place; xi holds their normals, shape (m, n), and dlog(r)
    is d/dr log p at the remaining time t_rem.  Returns r = d(y, y0) with
    ``hyp.dist``'s bits, the number of clipped drifts and the increment dv.

    With c = -<y, y0> = cosh r, clipped below at 1, every term is closed form:
    the drift -g (y0 - c y)/sqrt(c^2 - 1), 0 where c = 1, is
    ``radial_coef(g, r) log_map(y, y0, r)`` for g = dlog(r) clipped to
    |g| <= drift_cap (r/t_rem + 1/sqrt(t_rem)), and its norm is |g|;
    P = (xi + a ybar, xi.ybar) with a = xi.ybar/(1 + y_n) is
    ``parallel_transport((xi, 0), o, y)``; and for dv = sqrt(h) P + h drift,
    cosh|dv| y + sinh|dv|/|dv| dv (y + dv where |dv| < 1e-14), projected to
    the sheet, is ``exp_map(y, dv)``.
    """
    n = y.shape[1] - 1
    # -<y, y0> with hyp.minkowski_dot's order of terms, so r has hyp.dist's
    # bits; the terms with y0_j = 0 add only zeros
    spatial = [y[:, j] * y0[j] for j in range(n) if y0[j] != 0.0]
    c = y[:, n] * y0[n]
    if spatial:
        c -= sum(spatial[1:], spatial[0])
    r = np.arccosh(np.maximum(c, 1.0, out=c))
    cap = drift_cap * (r / t_rem + 1.0 / math.sqrt(t_rem))
    g = dlog(r)
    clips = int(np.count_nonzero(np.abs(g) > cap))
    if clips:
        np.clip(g, -cap, cap, out=g)
    sinh_r = np.sqrt(c * c - 1.0)
    g *= -h
    b = np.divide(g, sinh_r, out=np.zeros_like(g), where=sinh_r > 0)  # h drift = b y0 - b c y
    # dv = sqrt(h) (xi, a) + e y + b y0 with e = sqrt(h) a - b c
    sqh = math.sqrt(h)
    tmp = np.empty_like(c)
    a = xi[:, 0] * y[:, 0]
    for j in range(1, n):
        a += np.multiply(xi[:, j], y[:, j], out=tmp)
    a /= 1.0 + y[:, n]
    e = a * sqh - b * c
    dv = np.empty_like(y)
    for j in range(n + 1):
        col = np.multiply(xi[:, j] if j < n else a, sqh, out=dv[:, j])
        col += np.multiply(e, y[:, j], out=tmp)
        if y0[j] != 0.0:
            col += np.multiply(b, y0[j], out=tmp)
    nv = dv[:, 0] * dv[:, 0]
    for j in range(1, n):
        nv += np.multiply(dv[:, j], dv[:, j], out=tmp)
    nv -= np.multiply(dv[:, n], dv[:, n], out=tmp)
    np.sqrt(np.maximum(nv, 0.0, out=nv), out=nv)
    ch = np.cosh(nv)
    sh = np.divide(np.sinh(nv), nv, out=np.ones_like(nv), where=nv >= 1e-14)
    for j in range(n + 1):
        col = y[:, j]
        col *= ch
        col += np.multiply(sh, dv[:, j], out=tmp)
    q = np.multiply(y[:, n], y[:, n], out=ch)  # -<y, y>, to project to the sheet
    for j in range(n):
        q -= np.multiply(y[:, j], y[:, j], out=tmp)
    np.sqrt(q, out=q)
    for j in range(n + 1):
        y[:, j] /= q
    return r, clips, dv


def _make_drift(params: HeatKernelParams, T, nodes):
    """The radial derivative d/dr log p_{t'}(r) at step k's remaining time
    t' = T - t_k, as a function of (k, r)."""
    t_rem = T - nodes[:-1]
    if params.n == 3:
        return lambda k, r: hyp.dlog_heat_kernel_dr(t_rem[k], r, params)

    # n = 2: the radial derivative is a 60-node quadrature per radius, too
    # dear for every path and step.  Its regular part g(t', r) = d/dr log
    # p_{t'}(r) + r/t' (``hyp.h2_regular_dlog``) is tabulated at each step's
    # own t' on a uniform r-grid, _DRIFT_STEPS steps per call so that the
    # quadrature's temporaries stay small, and fitted by a natural cubic
    # spline in r (g is odd, so the natural end is exact at r = 0): one
    # tridiagonal sweep over all steps.  Table and spline are elementwise
    # numpy alone, so no BLAS can move the bits.  Radii past the grid take the
    # value at its end.
    r_grid = np.linspace(0.0, 6.0 * math.sqrt(T) + 4.0, 96)
    h = r_grid[1]
    g = np.empty((t_rem.size, r_grid.size))
    for k in range(0, t_rem.size, _DRIFT_STEPS):
        g[k : k + _DRIFT_STEPS] = hyp.h2_regular_dlog(t_rem[k : k + _DRIFT_STEPS, None], r_grid)
    # second derivatives M, 0 at both ends: M_{i-1} + 4 M_i + M_{i+1} equals
    # d_{i-1} = 6 (g_{i-1} - 2 g_i + g_{i+1}) / h^2 at each inner node i
    d = (g[:, :-2] - 2.0 * g[:, 1:-1] + g[:, 2:]) * (6.0 / (h * h))
    c, M = np.zeros(g.shape[1] - 1), np.zeros_like(g)  # c: the pivots, the same for every step
    for i in range(1, g.shape[1] - 1):
        c[i] = 1.0 / (4.0 - c[i - 1])
        M[:, i] = (d[:, i - 1] - M[:, i - 1]) * c[i]
    for i in range(g.shape[1] - 3, 0, -1):
        M[:, i] -= c[i] * M[:, i + 1]
    h6 = h * h / 6.0  # each interval's cubic in s = r/h - i, for Horner's rule
    a0 = g[:, :-1]
    a1 = g[:, 1:] - a0 - h6 * (2.0 * M[:, :-1] + M[:, 1:])
    a2 = 3.0 * h6 * M[:, :-1]
    a3 = h6 * (M[:, 1:] - M[:, :-1])

    def dlog_dr(k, r):
        x = np.minimum(r, r_grid[-1]) / h
        i = np.minimum(x.astype(np.intp), a0.shape[1] - 1)
        s = x - i
        return a0[k].take(i) + s * (a1[k].take(i) + s * (a2[k].take(i) + s * a3[k].take(i))) - r / t_rem[k]

    return dlog_dr


SAMPLERS = ("wiener", "flat_bridge", "ou", "hyperbolic_bridge")  # the tags t of the samplers sample_t


# ---------------------------------------------------------------------------
# Serialization: columnar binary (header JSON + little-endian float64,
# path-major) and CSV for small runs

CSV_MAX_PATHS = 10_000


def _points_offset(shape):
    """Where the points of ``shape`` start in a file: past the magic, the header's length and room for the
    header, at a page boundary.  Without diagnostics a header holds under 512 bytes of keys and scalars, and
    at most 26 (a float's repr, at most 24 characters, and a separator) per grid node and per coordinate of
    x0 and y0; 1 KiB more holds the diagnostics (a bridge's take about 160 bytes)."""
    return -(-(len(MAGIC) + 8 + 512 + 26 * (shape[1] + 2 * shape[2]) + 1024) // 4096) * 4096


def save_ensemble(path, ens):
    """Write ``ens`` to ``path`` and return it: an ensemble, or a function of ``alloc`` that returns one,
    ``lambda alloc: sample_ou(cfg, alloc=alloc)``, whose sampler's ``alloc(shape)`` reserves the file and
    returns its points region mapped (see the module docstring)."""
    # written beside the target, then renamed over it: truncating a file in
    # place would fault the pages of any loaded ensemble still mapping it,
    # and an interrupted write would leave a truncated file at the target
    tmp, mapped = f"{os.fspath(path)}.{os.getpid()}-{threading.get_ident()}.tmp", []

    def alloc(shape):
        start = _points_offset(shape)
        with open(tmp, "wb+") as fh:  # reserved, not sparse: a full disk raises here, not SIGBUS mid-run
            os.posix_fallocate(fh.fileno(), 0, start + 8 * math.prod(shape))
            mapped.append(np.memmap(fh, dtype="<f8", mode="r+", offset=start, shape=tuple(shape)))
        return mapped[-1]

    try:
        if callable(ens):
            ens = ens(alloc)
            if len(mapped) != 1 or ens.points is not mapped[0]:
                raise RuntimeError(f"{path}: the sampler must fill the one array alloc returns")
        cfg = ens.config
        header = {"format": "pathineq.ensemble.v1", "config": cfg.to_dict(), "config_hash": cfg.config_hash,
                  "measure_tag": ens.measure_tag, "shape": list(ens.points.shape), "arrays": ["points"]}
        for k, v in ens.diagnostics.items():
            if isinstance(v, np.ndarray):
                header.setdefault("diag_arrays", []).append([k, list(v.shape)])
            else:
                header.setdefault("diag_scalars", {})[k] = v
        start, blob = _points_offset(ens.points.shape), json.dumps(header, sort_keys=True).encode()
        room = start - len(MAGIC) - 8
        if len(blob) > room:
            raise RuntimeError(f"{path}: a {len(blob)}-byte header overflows its {room} bytes")
        with open(tmp, "rb+" if mapped else "wb") as fh:
            fh.write(MAGIC + room.to_bytes(8, "little") + blob.ljust(room))  # spaces, which the JSON parser skips
            if mapped:
                fh.seek(start + 8 * ens.points.size)  # past the points the sampler wrote
            else:  # each array's buffer as it is: no bytes copy of a large ensemble
                fh.write(np.ascontiguousarray(ens.points, dtype="<f8").data)
            for k, _ in header.get("diag_arrays", []):
                fh.write(np.ascontiguousarray(ens.diagnostics[k], dtype="<f8").data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    return ens


def load_ensemble(path) -> PathEnsemble:
    """The ensemble in ``path``, its arrays read-only and mapped from the file,
    so a page is read only when it is used."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise SamplerError(f"{path}: not a pathineq ensemble file")
        hlen = int.from_bytes(fh.read(8), "little")
        try:
            header = json.loads(fh.read(hlen))
            cfg = SamplerConfig.from_dict(header["config"])
            tag = header["measure_tag"]
            shape = tuple(header["shape"])
            arrays = [("points", shape)] + [(k, tuple(shp)) for k, shp in header.get("diag_arrays", [])]
            nbytes = sum(8 * math.prod(shp) for _, shp in arrays)
        except (ValueError, KeyError, TypeError) as exc:
            raise SamplerError(f"{path}: malformed ensemble header: {exc}") from exc
        if header.get("config_hash") != cfg.config_hash:
            raise SamplerError(f"{path}: config_hash does not match the header's config")
        coords = cfg.dim + (tag == "hyperbolic_bridge")
        want = (cfg.n_paths, cfg.grid.n_nodes, coords)
        if shape != want:
            raise SamplerError(f"{path}: shape {list(shape)} does not match the config's {list(want)}")
        for k, shp in arrays[1:]:
            if k in ("presnap_gap", "sup_distance") and shp != (cfg.n_paths,):  # one value per path
                raise SamplerError(f"{path}: diagnostic {k} has shape {list(shp)}, not [{cfg.n_paths}]")
        start = fh.tell()
        if os.fstat(fh.fileno()).st_size != start + nbytes:
            raise SamplerError(f"{path}: file length does not match the header (truncated?)")
        buf = np.memmap(fh, dtype=np.uint8, mode="r", offset=start, shape=(nbytes,))
    data, offset = {}, 0
    for k, shp in arrays:
        count = math.prod(shp)
        data[k] = np.frombuffer(buf, dtype="<f8", count=count, offset=offset).reshape(shp)
        offset += 8 * count
    points = data.pop("points")
    return PathEnsemble(cfg, tag, points, dict(header.get("diag_scalars", {})) | data)


def ensemble_to_csv(path, ens: PathEnsemble):
    if ens.n_paths > CSV_MAX_PATHS:
        raise SamplerError(f"CSV export is for small runs (n_paths <= {CSV_MAX_PATHS}); use the binary format")
    nodes = ens.grid.array()
    with open(path, "w", newline="") as fh:
        fh.write("path,node,t," + ",".join(f"x{j}" for j in range(ens.points.shape[-1])) + "\n")
        for i in range(ens.n_paths):
            for k, t in enumerate(nodes):
                coords = ",".join(repr(float(v)) for v in ens.points[i, k])
                fh.write(f"{i},{k},{t!r},{coords}\n")
