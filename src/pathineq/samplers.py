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
so ensembles are bit-reproducible for a given config.  Ornstein-Uhlenbeck and
the hyperbolic bridge draw each step from its own stream, so a step's draws
do not depend on which steps were drawn before it.  The Wiener sampler (and
the flat bridge built on it) draws one (paths, steps, dim) block from
(seed, 0, 0), so its draws depend on the grid's step count.  In every
sampler path i's normals follow those of paths 0..i-1, so the first paths of
a run match a run with fewer paths.  The ziggurat consumes a variable number
of counter words per normal, so a given (path, step) does not sit at a fixed
offset.

The hyperbolic bridge runs each step on chunks of ``_CHUNK`` paths on a pool
of ``_WORKERS`` threads, one per available CPU, that lives for the call (the
CLI's ``--threads`` only runs scenarios side by side).  While a step's chunks
run, the next step's noise is drawn for all paths as one more task on that
pool.  The step works path by path, so the bits depend on neither the chunk
size nor the number of threads.  The path state is kept coordinate-major
(Fortran order), so a chunk's coordinates are contiguous columns; the step
is elementwise, so the layout moves no bit either.  It records each path's
sup distance u = max over nodes of d(y_t, y0) from the distances it computes
anyway, as the diagnostic array ``sup_distance``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import hyperbolic as hyp
from .hyperbolic import HeatKernelParams

MAGIC = b"PINEQENS1\n"


class SamplerError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Time grids


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

    @classmethod
    def uniform(cls, T, n_steps):
        if n_steps < 1:
            raise SamplerError("need at least one step")
        return cls(tuple(T * k / n_steps for k in range(n_steps + 1)))

    @classmethod
    def with_geometric_tail(cls, T, n_steps, lam=0.5, floor=1e-6):
        """Uniform grid whose final interval [T - h, T] is subdivided at
        T - h lam^k until steps reach floor * T, resolving the 1/(T-t)
        drift singularity of bridge dynamics.  A floor so small that the
        nodes stop moving toward T in floating point first is an error."""
        if not 0 < lam < 1:
            raise SamplerError("tail ratio lam must be in (0, 1)")
        if not floor > 0:
            raise SamplerError("tail floor must be positive")
        base = list(cls.uniform(T, n_steps).nodes[:-1])
        h = T / n_steps
        tail = []
        k = 1
        while h * lam**k > floor * T:
            node = T - h * lam**k
            if not (tail or base)[-1] < node < T:  # the nodes stopped moving toward T
                raise SamplerError(f"tail floor {floor} is below the float spacing at T = {T}")
            tail.append(node)
            k += 1
        return cls(tuple(base + tail + [T]))

    def refined(self):
        """Dyadic refinement: insert the midpoint of every interval, halving
        the max step and the tail floor alike (for refinement studies)."""
        nodes = self.array()
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        out = np.empty(nodes.size + mids.size)
        out[0::2] = nodes
        out[1::2] = mids
        return TimeGrid(tuple(out))

    def index_of(self, t):
        nodes = self.array()
        i = int(np.argmin(np.abs(nodes - t)))
        if abs(nodes[i] - t) > 1e-12 * max(1.0, self.T):
            raise SamplerError(f"time {t} is not a grid node")
        return i


# ---------------------------------------------------------------------------
# Counter-based noise


def step_normals(seed, step, shape, stream=0):
    """Standard normals from a Philox stream keyed by seed, counter (stream, step).

    Streams for distinct (stream, step) pairs are disjoint (the low 64-bit
    counter word would have to overflow to collide).  Normals fill ``shape``
    in C order, so the leading rows match a call with fewer rows:
    ``step_normals(9, 3, (1000, 3))[:400]`` equals
    ``step_normals(9, 3, (400, 3))``.  The ziggurat takes a variable number
    of counter words per normal, so a row's position in the stream depends on
    the draws before it.
    """
    bg = np.random.Philox(key=np.uint64(seed), counter=[0, stream, step, 0])
    return np.random.Generator(bg).standard_normal(shape)


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
            raise SamplerError("n_paths must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise SamplerError("seed must fit in 64 bits")
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


def sample_wiener(cfg: SamplerConfig) -> PathEnsemble:
    nodes = cfg.grid.array()
    dts = np.diff(nodes)
    xi = step_normals(cfg.seed, 0, (cfg.n_paths, dts.size, cfg.dim))
    incr = np.sqrt(dts)[None, :, None] * xi
    points = np.zeros((cfg.n_paths, nodes.size, cfg.dim))
    np.cumsum(incr, axis=1, out=points[:, 1:, :])
    if cfg.x0 is not None:
        points += np.asarray(cfg.x0)[None, None, :]
    return PathEnsemble(config=cfg, measure_tag="wiener", points=points)


def sample_flat_bridge(cfg: SamplerConfig) -> PathEnsemble:
    """Brownian bridge pinned at 0: B_t - (t/T) B_T, endpoint exactly zero."""
    if cfg.x0 is not None and any(v != 0 for v in cfg.x0):
        raise SamplerError("flat bridge is pinned at the origin")
    w = sample_wiener(replace(cfg, x0=None))
    nodes = cfg.grid.array()
    frac = (nodes / nodes[-1])[None, :, None]
    points = w.points - frac * w.points[:, -1:, :]
    return PathEnsemble(config=cfg, measure_tag="flat_bridge", points=points)


def sample_ou(cfg: SamplerConfig) -> PathEnsemble:
    """Langevin dynamics du = dW - (1/2) u dt, started from its stationary law,
    by the exact Gaussian transition u_{t+h} = e^{-h/2} u_t + sqrt(1 - e^{-h}) xi
    (stationary law = standard normal)."""
    nodes = cfg.grid.array()
    n_steps = nodes.size - 1
    points = np.empty((cfg.n_paths, nodes.size, cfg.dim))
    points[:, 0, :] = step_normals(cfg.seed, 0, (cfg.n_paths, cfg.dim), stream=1)
    for k in range(n_steps):
        h = nodes[k + 1] - nodes[k]
        xi = step_normals(cfg.seed, k, (cfg.n_paths, cfg.dim))
        points[:, k + 1, :] = math.exp(-h / 2.0) * points[:, k, :] + math.sqrt(1.0 - math.exp(-h)) * xi
    return PathEnsemble(config=cfg, measure_tag="ou", points=points)


# ---------------------------------------------------------------------------
# Hyperbolic bridge

_CHUNK = 8192  # paths per task; the bits do not depend on it
# one bridge thread per CPU this process may run on; the bits do not depend on it
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def sample_hyperbolic_bridge(cfg: SamplerConfig) -> PathEnsemble:
    """Geodesic Euler-Maruyama for the bridge SDE on H^n, n = cfg.dim.

    Per step: tangent increment sqrt(h) P(xi, 0) + h grad log p_{T-t}(y, y0),
    P the parallel transport from the origin to y, then the exponential-map
    move, all in one closed-form pass per chunk of paths (``_bridge_step``).
    The drift's norm is |d/dr log p|, which is clipped at
    drift_cap * (d(y, y0)/(T-t) + 1/sqrt(T-t)) with clip events counted.
    The final node is snapped to y0; pre-snap distances are recorded, and
    so is each path's max over nodes of d(y_t, y0) (``sup_distance``).
    """
    n = cfg.dim
    if n not in (2, 3):
        raise SamplerError("hyperbolic bridge supports n = 2, 3")
    params = HeatKernelParams(n=n)
    nodes = cfg.grid.array()
    T = nodes[-1]
    o = hyp.origin(n)
    x0 = np.asarray(cfg.x0, dtype=float) if cfg.x0 is not None else o
    y0 = np.asarray(cfg.y0, dtype=float) if cfg.y0 is not None else o
    for name, p in (("x0", x0), ("y0", y0)):
        if p.shape != (n + 1,) or abs(hyp.minkowski_dot(p, p) + 1.0) > 1e-8:
            raise SamplerError(f"{name} must be a point on the hyperboloid sheet of H^{n}")

    m = cfg.n_paths
    dlog_dr = _make_drift(params, T, nodes)

    y = np.array(np.broadcast_to(x0, (m, n + 1)), order="F")  # coordinate-major: see the module docstring
    points = np.empty((m, nodes.size, n + 1))
    points[:, 0, :] = y
    sup = np.zeros(m)  # running max over nodes of d(y_t, y0); every distance is >= +0

    def advance(rows, k, xi):
        # one step for the paths in `rows`, in place; returns the clip count
        r, clips, _ = _bridge_step(y[rows], y0, xi[rows], nodes[k + 1] - nodes[k], T - nodes[k], cfg.drift_cap,
                                   partial(dlog_dr, k))
        np.maximum(sup[rows], r, out=sup[rows])  # rows is a slice: sup[rows] is a view
        points[rows, k + 1, :] = y[rows]
        return clips

    chunks = [slice(i, i + _CHUNK) for i in range(0, m, _CHUNK)]
    cap_events = 0
    n_steps = nodes.size - 1
    with ThreadPoolExecutor(_WORKERS) as pool:
        noise = pool.submit(step_normals, cfg.seed, 0, (m, n))
        for k in range(n_steps):
            xi = noise.result()
            if k + 1 < n_steps:  # queued ahead of step k's chunks
                noise = pool.submit(step_normals, cfg.seed, k + 1, (m, n))
            cap_events += sum(pool.map(partial(advance, k=k, xi=xi), chunks))

    presnap = hyp.dist(points[:, -1, :], y0)
    points[:, -1, :] = y0
    np.maximum(sup, hyp.dist(y0, y0), out=sup)  # the snapped last node
    diagnostics = {
        "presnap_gap": presnap,
        "sup_distance": sup,
        "presnap_gap_median": float(np.median(presnap)),
        "cap_event_fraction": cap_events / (m * n_steps),
    }
    return PathEnsemble(
        config=cfg,
        measure_tag="hyperbolic_bridge",
        points=points,
        diagnostics=diagnostics,
    )


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

    # n = 2: the radial derivative is a 512-node quadrature per radius, too
    # dear for every path and step.  Its regular part g(t', r) = d/dr log
    # p_{t'}(r) + r/t' is tabulated at each step's own t' on a uniform r-grid
    # and fitted by a natural cubic spline in r (g is odd, so the natural end
    # is exact at r = 0): one tridiagonal sweep over all steps, elementwise
    # numpy alone, so no BLAS can move the bits.  Radii past the grid take the
    # value at its end.
    r_grid = np.linspace(0.0, 6.0 * math.sqrt(T) + 4.0, 96)
    h = r_grid[1]
    g = np.array([hyp.dlog_heat_kernel_dr(tp, r_grid, params) + r_grid / tp for tp in t_rem])
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
        return a0[k, i] + s * (a1[k, i] + s * (a2[k, i] + s * a3[k, i])) - r / t_rem[k]

    return dlog_dr


# ---------------------------------------------------------------------------
# Serialization: columnar binary (header JSON + little-endian float64,
# path-major) and CSV for small runs


def save_ensemble(path, ens: PathEnsemble):
    header = {
        "format": "pathineq.ensemble.v1",
        "config": ens.config.to_dict(),
        "config_hash": ens.config.config_hash,
        "measure_tag": ens.measure_tag,
        "shape": list(ens.points.shape),
        "arrays": ["points"],
    }
    diag_arrays = {}
    for k, v in ens.diagnostics.items():
        if isinstance(v, np.ndarray):
            header.setdefault("diag_arrays", []).append([k, list(v.shape)])
            diag_arrays[k] = v
        else:
            header.setdefault("diag_scalars", {})[k] = v
    blob = json.dumps(header, sort_keys=True).encode()
    # padded with spaces, which the JSON parser skips, so that the arrays
    # start at a multiple of 64 bytes and load aligned
    blob += b" " * (-(len(MAGIC) + 8 + len(blob)) % 64)
    # written beside the target, then renamed over it: truncating a file in
    # place would fault the pages of any loaded ensemble still mapping it,
    # and an interrupted write would leave a truncated file at the target
    tmp = f"{os.fspath(path)}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            # write each array's buffer as it is: no bytes copy of a large ensemble
            fh.write(np.ascontiguousarray(ens.points, dtype="<f8").data)
            for k, _ in header.get("diag_arrays", []):
                fh.write(np.ascontiguousarray(diag_arrays[k], dtype="<f8").data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_ensemble(path) -> PathEnsemble:
    """The ensemble in ``path``, its arrays read-only and mapped from the file,
    so a page is read only when it is used."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
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
    diagnostics = dict(header.get("diag_scalars", {})) | data
    return PathEnsemble(config=cfg, measure_tag=tag, points=points, diagnostics=diagnostics)


def ensemble_to_csv(path, ens: PathEnsemble):
    if ens.n_paths > 10_000:
        raise SamplerError("CSV export is for small runs (n_paths <= 10000); use the binary format")
    nodes = ens.grid.array()
    d = ens.points.shape[-1]
    with open(path, "w", newline="") as fh:
        fh.write("path,node,t," + ",".join(f"x{j}" for j in range(d)) + "\n")
        for i in range(ens.n_paths):
            for k, t in enumerate(nodes):
                coords = ",".join(repr(float(v)) for v in ens.points[i, k])
                fh.write(f"{i},{k},{t!r},{coords}\n")
