import hashlib
import json
import math
import re
import sys
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy import stats

from pathineq import hyperbolic as hyp
from pathineq.hyperbolic import HeatKernelParams
from pathineq.samplers import (
    PathEnsemble,
    SamplerConfig,
    SamplerError,
    TimeGrid,
    _BLOCK,
    _bridge_step,
    _make_drift,
    ensemble_to_csv,
    load_ensemble,
    sample_flat_bridge,
    sample_hyperbolic_bridge,
    sample_ou,
    sample_wiener,
    save_ensemble,
    step_normals,
)


def test_time_grid_validation():
    with pytest.raises(SamplerError):
        TimeGrid((0.0, 0.5, 0.5, 1.0))
    with pytest.raises(SamplerError):
        TimeGrid((0.1, 0.5))
    g = TimeGrid.uniform(2.0, 4)
    assert g.T == 2.0 and g.n_nodes == 5 and g.nodes[-1] == 2.0


def test_nan_time_is_not_a_grid_node():
    # |node - nan| > tol is False, so NaN used to be taken for node 0
    g = TimeGrid.uniform(1.0, 4)
    assert g.index_of(0.5) == 2
    with pytest.raises(SamplerError, match="time nan is not a grid node"):
        g.index_of(math.nan)


def test_geometric_tail_grid():
    g = TimeGrid.with_geometric_tail(1.0, 16, lam=0.5, floor=1e-6)
    nodes = g.array()
    assert nodes[-1] == 1.0
    diffs = np.diff(nodes)
    assert diffs.min() >= 0.5e-6  # respects the step floor
    assert diffs[-1] <= 2e-6 * 1.0 / 0.5 * 2  # fine near T
    assert diffs.max() == pytest.approx(1.0 / 16)
    assert np.diff(g.refined().array()).max() == pytest.approx(diffs.max() / 2)
    with pytest.raises(SamplerError, match="below the float spacing"):  # T - h lam^k stops moving
        TimeGrid.with_geometric_tail(1.0, 16, floor=1e-300)


def test_step_normals_deterministic_and_disjoint():
    a = step_normals(123, 0, (100,))
    b = step_normals(123, 0, (100,))
    assert np.array_equal(a, b)
    c = step_normals(123, 1, (100,))
    d = step_normals(124, 0, (100,))
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    # a block has its own stream, the word after the step: block b is word b + 1, no block word 0
    blocks = [step_normals(123, 0, (100,), block=b) for b in (0, 1)]
    assert not np.array_equal(blocks[0], blocks[1]) and not np.array_equal(blocks[0], a)
    out = np.empty((40, 3))
    assert step_normals(123, 2, None, block=1, out=out) is out
    assert np.array_equal(out, step_normals(123, 2, (41, 3), block=1)[:40])


def test_flat_and_ou_noise_bits_are_pinned():
    # only the bridge's blocks set counter word 3; a draw without a block
    # keeps word 0, so these bits do not depend on the bridge's noise layout
    assert _digest(step_normals(123, 5, (64, 3))) == "de25b00ca34781b6a05fa8609a8fe093b0c3adeeff6ec5edcd9c8eb0ae2074b1"
    assert _digest(step_normals(123, 0, (64, 3), stream=1)) == (
        "ec0b2a3791a4078728a85893e939c588554b9e79c17ab842e271c48d9e280d90"
    )
    cfg = SamplerConfig(seed=7, n_paths=50, grid=TimeGrid.uniform(1.0, 8), dim=2)
    for sampler, want in (
        (sample_wiener, "d5035ca78d1a58085464160f0cbade540a5148dfbf558e196f704e39a479768f"),
        (sample_flat_bridge, "b8562442d667d2b7bc6dc0b53db559f1c6b6b2259395baa52f1a8205e9fa56cd"),
        (sample_ou, "abc902bc1d70966e907b5afb442c3e84cca76974bc49448a0c84ff890ec2bc1d"),
    ):
        assert _digest(sampler(cfg).points) == want, sampler.__name__


def test_sampler_determinism_bit_identical():
    cfg = SamplerConfig(seed=7, n_paths=50, grid=TimeGrid.uniform(1.0, 8), dim=2)
    for sampler in (sample_wiener, sample_flat_bridge, sample_ou):
        e1, e2 = sampler(cfg), sampler(cfg)
        assert np.array_equal(e1.points, e2.points)
    cfg3 = SamplerConfig(seed=7, n_paths=20, grid=TimeGrid.with_geometric_tail(1.0, 8), dim=3)
    h1, h2 = sample_hyperbolic_bridge(cfg3), sample_hyperbolic_bridge(cfg3)
    assert np.array_equal(h1.points, h2.points)
    assert _digest(h1.points) == "04d57c9b2744760c7a5eee9738cfaf35565474e6cd21e1d6134fd2fbdcc992c1"
    assert _digest(h1.diagnostics["presnap_gap"]) == (
        "1dfe84e4f5b7ac1688c0a6f00e31bd1e0704496178df4cba81ef110e2a0c6d27"
    )


def _digest(a):
    # SHA-256 of the little-endian float64 bytes.  The pinned digests were
    # recorded with numpy 2.4.6 and scipy 1.17.1; a refactor of the bridge
    # step must reproduce them bit for bit.
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


def test_wiener_scaling():
    cfg = SamplerConfig(seed=11, n_paths=100_000, grid=TimeGrid.uniform(2.0, 4), dim=3)
    ens = sample_wiener(cfg)
    sq = np.sum(ens.points[:, -1, :] ** 2, axis=1)
    # E|B_T|^2 = d T, SE = std/sqrt(N)
    se = sq.std(ddof=1) / math.sqrt(cfg.n_paths)
    assert abs(sq.mean() - 3 * 2.0) < 3 * se


def test_flat_bridge_endpoint_exact_and_midpoint_variance():
    cfg = SamplerConfig(seed=13, n_paths=100_000, grid=TimeGrid.uniform(1.0, 16), dim=1)
    ens = sample_flat_bridge(cfg)
    assert np.all(ens.points[:, -1, :] == 0.0)
    mid = ens.grid.index_of(0.5)
    x = ens.points[:, mid, 0]
    var = x.var(ddof=1)
    se = math.sqrt(2.0 / (cfg.n_paths - 1)) * var  # SE of a Gaussian variance
    assert abs(var - 0.25) < 3 * se


def test_flat_bridge_covariance_kernel():
    cfg = SamplerConfig(seed=17, n_paths=50_000, grid=TimeGrid.uniform(1.0, 8), dim=1)
    ens = sample_flat_bridge(cfg)
    nodes = ens.grid.array()
    X = ens.points[:, :, 0]
    C = (X.T @ X) / cfg.n_paths
    S, Tm = np.meshgrid(nodes, nodes, indexing="ij")
    theory = np.minimum(S, Tm) - S * Tm / 1.0
    se = np.sqrt((np.outer(np.diag(theory), np.diag(theory)) + theory**2) / cfg.n_paths)
    inner = slice(1, -1)
    z = np.abs(C - theory)[inner, inner] / np.maximum(se[inner, inner], 1e-12)
    assert z.max() < 4.0


def test_ou_stationary_and_covariance_decay():
    grid = TimeGrid.uniform(3.0, 12)
    cfg = SamplerConfig(seed=19, n_paths=100_000, grid=grid, dim=1)
    ens = sample_ou(cfg)
    for k in (0, 4, 12):
        ks = stats.kstest(ens.points[:, k, 0], "norm").statistic
        assert ks < 0.01
    u0 = ens.points[:, 0, 0]
    for t in (0.5, 1.5, 3.0):
        k = grid.index_of(t)
        cov = np.mean(u0 * ens.points[:, k, 0]) - u0.mean() * ens.points[:, k, 0].mean()
        se = math.sqrt((1 + math.exp(-t)) / cfg.n_paths)
        assert abs(cov - math.exp(-t / 2)) < 3 * se


def ou_euler_oracle(cfg):
    """Euler-Maruyama for du = dW - (1/2) u dt on the same noise as ``sample_ou``."""
    nodes = cfg.grid.array()
    u = step_normals(cfg.seed, 0, (cfg.n_paths, cfg.dim), stream=1)
    xi = step_normals(cfg.seed, 0, (cfg.n_paths, nodes.size - 1, cfg.dim))
    for k in range(nodes.size - 1):
        h = nodes[k + 1] - nodes[k]
        u = u - 0.5 * h * u + math.sqrt(h) * xi[:, k]
    return u


def test_ou_euler_consistency():
    # fine-step Euler and the exact transition agree in distribution
    grid = TimeGrid.uniform(1.0, 256)
    cfg = SamplerConfig(seed=23, n_paths=50_000, grid=grid, dim=1)
    exact = sample_ou(cfg)
    euler = ou_euler_oracle(cfg)
    ks = stats.ks_2samp(exact.points[:, -1, 0], euler[:, 0]).statistic
    assert ks < 0.02
    # on the same noise the two schemes differ path by path by O(h) only
    assert np.abs(exact.points[:, -1, 0] - euler[:, 0]).max() < 0.01


def test_flat_samplers_read_one_stream_a_block_at_a_time():
    # more than two blocks, the last one partial: the recursion on its blocks
    # equals one draw of the whole (paths, steps, dim) stream bit for bit
    m, grid = 2 * _BLOCK + 7, TimeGrid.with_geometric_tail(1.0, 4)
    cfg = SamplerConfig(seed=31, n_paths=m, grid=grid, dim=2)
    nodes, steps = grid.array(), grid.n_nodes - 1
    w = np.zeros((m, steps + 1, 2))
    np.cumsum(np.sqrt(np.diff(nodes))[None, :, None] * step_normals(31, 0, (m, steps, 2)), axis=1, out=w[:, 1:])
    assert np.array_equal(sample_wiener(cfg).points, w)
    bridge = w - (nodes / nodes[-1])[None, :, None] * w[:, -1:]
    assert np.array_equal(sample_flat_bridge(cfg).points, bridge)
    # and OU's first paths are those of a run of that many paths
    few = SamplerConfig(seed=31, n_paths=_BLOCK + 3, grid=grid, dim=2)
    assert np.array_equal(sample_ou(cfg).points[: _BLOCK + 3], sample_ou(few).points)


@pytest.mark.parametrize("sampler", [sample_wiener, sample_flat_bridge, sample_ou])
def test_flat_samplers_hold_little_beside_their_points(sampler):
    # full-size noise or increments besides the points would take the peak to 2-3x
    cfg = SamplerConfig(seed=37, n_paths=20_000, grid=TimeGrid.uniform(1.0, 64), dim=2)
    tracemalloc.start()
    try:
        points = sampler(cfg).points
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * points.nbytes


def test_hyperbolic_bridge_points_on_sheet_and_snap():
    grid = TimeGrid.with_geometric_tail(1.0, 16)
    cfg = SamplerConfig(seed=29, n_paths=200, grid=grid, dim=3)
    ens = sample_hyperbolic_bridge(cfg)
    q = hyp.minkowski_dot(ens.points, ens.points)
    assert np.max(np.abs(q + 1.0)) < 1e-10
    o = hyp.origin(3)
    assert np.all(ens.points[:, -1, :] == o)
    assert ens.diagnostics["presnap_gap_median"] < 0.2
    assert 0.0 <= ens.diagnostics["cap_event_fraction"] <= 1.0


@pytest.mark.parametrize("dim", [2, 3])
def test_bridge_step_matches_its_oracle(dim):
    # the fused step against the primitives it stands for:
    # exp_map(y, sqrt(h) parallel_transport((xi, 0), o, y) + h radial_coef(g, r) log_map(y, y0, r)),
    # g the clipped radial derivative, at x0 and at 500 points 0.1 to 2.5 from
    # y0 (nearer the pole -<y, y0> - 1 ~ r^2/2 cancels, as it does in dist)
    rng = np.random.default_rng(71)
    o, y0 = hyp.origin(dim), np.asarray(_off_origin(dim, 0.7, -0.3))
    u = np.zeros((500, dim + 1))
    u[:, :-1] = rng.standard_normal((500, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    u = hyp.parallel_transport(u, o, y0) * rng.uniform(0.1, 2.5, 500)[:, None]
    y = np.asfortranarray(np.vstack([_off_origin(dim, -0.4, 0.9), hyp.exp_map(y0, u)]))
    xi = rng.standard_normal((y.shape[0], dim))
    nodes = TimeGrid.with_geometric_tail(1.0, 8).array()
    dlog_dr = _make_drift(HeatKernelParams(n=dim), 1.0, nodes)
    eps = np.finfo(float).eps
    for k in (0, 5, nodes.size - 2):  # a coarse step and the finest one
        h, t_rem = nodes[k + 1] - nodes[k], 1.0 - nodes[k]
        for drift_cap in (4.0, 0.05):  # no drift clipped; every drift clipped
            r = hyp.dist(y, y0)
            g = dlog_dr(k, r)
            cap = drift_cap * (r / t_rem + 1.0 / math.sqrt(t_rem))
            drift = hyp.radial_coef(np.clip(g, -cap, cap), r)[:, None] * hyp.log_map(y, y0, r)
            noise = np.hstack([xi, np.zeros((xi.shape[0], 1))])
            want = hyp.exp_map(y, math.sqrt(h) * hyp.parallel_transport(noise, o, y) + h * drift)

            got = y.copy(order="F")
            r_got, clips, dv = _bridge_step(got, y0, xi, h, t_rem, drift_cap, partial(dlog_dr, k))
            assert r_got.tobytes() == r.tobytes()
            assert clips == np.count_nonzero(np.abs(g) > cap) == (0 if drift_cap == 4.0 else y.shape[0])
            # 128 ulps of the cube of the coordinates' size: the projection to
            # the sheet divides by sqrt(-<y, y>), which loses eps |y|^2
            size = np.maximum(np.abs(y).max(axis=1), np.abs(want).max(axis=1))
            assert np.all(np.abs(got - want).max(axis=1) <= 128 * eps * size**3)
            assert np.max(np.abs(hyp.minkowski_dot(dv, y))) < 1e-12
            assert np.max(np.abs(hyp.minkowski_dot(got, got) + 1.0)) < 1e-12

            # with xi = 0 the increment is h drift (h a power of 2: exact)
            _, _, h_drift = _bridge_step(y.copy(order="F"), y0, 0.0 * xi, 2.0**-20, t_rem, drift_cap,
                                         partial(dlog_dr, k))
            norm = np.sqrt(np.maximum(hyp.minkowski_dot(h_drift, h_drift), 0.0)) * 2.0**20
            assert np.all(norm <= cap * (1.0 + 1e-12))

    # at the pole itself (c = 1 exactly) there is no drift
    at_pole = np.asfortranarray(np.broadcast_to(o, (4, dim + 1)))
    _, _, dv = _bridge_step(at_pole, o, xi[:4], 0.25, 0.5, 4.0, partial(dlog_dr, 0))
    assert np.array_equal(dv, np.hstack([0.5 * xi[:4], np.zeros((4, 1))]))


def test_hyperbolic_bridge_refinement_shrinks_endpoint_gap():
    gaps = []
    caps = []
    grid = TimeGrid.with_geometric_tail(1.0, 8)
    for _ in range(3):
        cfg = SamplerConfig(seed=37, n_paths=1500, grid=grid, dim=3)
        ens = sample_hyperbolic_bridge(cfg)
        gaps.append(ens.diagnostics["presnap_gap_median"])
        caps.append(ens.diagnostics["cap_event_fraction"])
        grid = grid.refined()
    assert gaps[0] > gaps[1] > gaps[2]
    assert caps[0] >= caps[1] >= caps[2]


def test_hyperbolic_bridge_n2_smoke():
    grid = TimeGrid.with_geometric_tail(0.5, 8)
    cfg = SamplerConfig(seed=41, n_paths=64, grid=grid, dim=2)
    ens = sample_hyperbolic_bridge(cfg)
    assert np.max(np.abs(hyp.minkowski_dot(ens.points, ens.points) + 1.0)) < 1e-10
    assert ens.diagnostics["presnap_gap_median"] < 0.5
    assert _digest(ens.points) == "2f8446860759902ff69a156ff4cce03485d90efbe969090eef0913078520b412"
    assert _digest(ens.diagnostics["presnap_gap"]) == (
        "0697580dc50594bd4ef3f623a2c6e6e610d3646aadc534a474144232270ab19b"
    )


@pytest.mark.parametrize("n_steps", [16, 64, 128])
def test_h2_drift_table_reads_the_quadrature_at_every_step(n_steps):
    # the spline of step k is fitted at that step's own t' = T - t_k, so it
    # reads the quadrature there to within its interpolation error in r
    params = HeatKernelParams(n=2)
    nodes = TimeGrid.with_geometric_tail(1.0, n_steps).array()
    dlog_dr = _make_drift(params, 1.0, nodes)
    r_max = 6.0 + 4.0  # the table's radius grid ends at 6 sqrt(T) + 4
    r = np.concatenate([[0.0, 1e-3], np.random.default_rng(n_steps).uniform(0.0, r_max, 200)])
    far = np.array([r_max, r_max + 3.0])
    for k in range(nodes.size - 1):
        tp = 1.0 - nodes[k]
        err = np.max(np.abs(dlog_dr(k, r) - hyp.dlog_heat_kernel_dr(tp, r, params)))
        assert err < 1e-6, (k, tp, err)
        # past the grid the regular part keeps its value at the end
        g = dlog_dr(k, far) + far / tp
        assert g[1] == pytest.approx(g[0], abs=1e-9)


@pytest.mark.parametrize("n_steps", [16, 64, 128])
def test_h2_drift_table_matches_a_finer_quadrature(monkeypatch, n_steps):
    # the table's regular part g = d/dr log p + r/t' at its own radius grid,
    # read back through the spline, against the same integrals with 128
    # Gauss-Legendre nodes on each of the five pieces (within 3e-13 of 512)
    nodes = TimeGrid.with_geometric_tail(1.0, n_steps).array()
    tp = 1.0 - nodes[:-1]
    r_grid = np.linspace(0.0, 6.0 + 4.0, 96)
    dlog_dr = _make_drift(HeatKernelParams(n=2), 1.0, nodes)
    table = np.array([dlog_dr(k, r_grid) + r_grid / tp[k] for k in range(tp.size)])
    monkeypatch.setattr(hyp, "_H2_RULE", hyp._h2_rule((128,) * 5))
    fine = np.array([hyp.h2_regular_dlog(t, r_grid) for t in tp])  # a step at a time: small temporaries
    assert np.max(np.abs(table - fine)) < 2e-8


def test_h2_bridge_marginal_radial_law():
    # A9's marginal oracle on H^2: d(y_0.5, o) against the radial law
    # p_0.5(r) p_0.5(r) area(r) / p_1(0), at A9's KS tolerance
    grid = TimeGrid.with_geometric_tail(1.0, 64)
    ens = sample_hyperbolic_bridge(SamplerConfig(seed=43, n_paths=20_000, grid=grid, dim=2))
    d_mid = hyp.dist(ens.points[:, grid.index_of(0.5), :], hyp.origin(2))
    rg = np.linspace(0.0, max(6.0, float(d_mid.max()) * 1.1), 200)
    cdf = hyp.bridge_radial_cdf(0.5, 1.0, rg, HeatKernelParams(n=2))
    assert stats.kstest(d_mid, lambda x: np.interp(x, rg, cdf)).statistic < 0.02


def _bridge_bits(dim, n_paths):
    # drift_cap=0.5 makes the clip branch fire in most steps
    cfg = SamplerConfig(seed=5, n_paths=n_paths, grid=TimeGrid.with_geometric_tail(1.0, 16), dim=dim, drift_cap=0.5)
    ens = sample_hyperbolic_bridge(cfg)
    return ens.points, ens.diagnostics


@pytest.mark.parametrize("dim", [3, 2], ids=["n3", "n2"])
def test_bridge_bits_do_not_depend_on_workers(monkeypatch, dim):
    from pathineq import samplers

    # 2 B + 7 paths: three blocks, the last one ragged; three workers take one block each
    n_paths = 2 * samplers._BLOCK + 7

    def run(workers):
        monkeypatch.setattr(samplers, "_WORKERS", workers)
        points, d = _bridge_bits(dim, n_paths)
        return points.tobytes(), d["presnap_gap"].tobytes(), d["cap_event_fraction"], d["sup_distance"].tobytes()

    runs = {workers: run(workers) for workers in (1, 2, 3)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # three workers, switching often
    try:
        runs["3, switching"] = run(3)
    finally:
        sys.setswitchinterval(interval)
    assert runs[1][2] > 0.5
    for key, got in runs.items():
        assert got == runs[1], key


@pytest.mark.parametrize("dim", [3, 2], ids=["n3", "n2"])
def test_bridge_prefix_is_the_smaller_ensemble(dim):
    # a path's noise depends only on its block and its row in it, so the
    # first B + 3 paths of a three-block run are the two-block run
    from pathineq import samplers

    n_small = samplers._BLOCK + 3
    big_points, big = _bridge_bits(dim, 2 * samplers._BLOCK + 7)
    small_points, small = _bridge_bits(dim, n_small)
    assert big_points[:n_small].tobytes() == small_points.tobytes()
    for k in ("presnap_gap", "sup_distance"):
        assert big[k][:n_small].tobytes() == small[k].tobytes(), k


def _off_origin(n, a, b):
    p = np.zeros(n + 1)
    p[0], p[1] = a, b
    p[-1] = math.sqrt(1.0 + a * a + b * b)
    return tuple(p)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("ends", ["origin", "y0_off_origin", "x0_ne_y0"])
def test_recorded_sup_distance_is_the_recomputed_one(dim, ends):
    # the sampler's running max of each step's distance, with the snapped
    # last node, is bit for bit the max over the stored nodes
    x0, y0 = {
        "origin": (None, None),
        "y0_off_origin": (None, _off_origin(dim, 0.7, -0.3)),
        "x0_ne_y0": (_off_origin(dim, -0.4, 0.9), _off_origin(dim, 0.7, -0.3)),
    }[ends]
    cfg = SamplerConfig(seed=61, n_paths=200, grid=TimeGrid.with_geometric_tail(1.0, 8), dim=dim, x0=x0, y0=y0)
    ens = sample_hyperbolic_bridge(cfg)
    pole = np.asarray(y0) if y0 is not None else hyp.origin(dim)
    u = ens.diagnostics["sup_distance"]
    assert u.shape == (cfg.n_paths,)
    assert u.tobytes() == hyp.dist(ens.points, pole).max(axis=1).tobytes()


def test_bridge_takes_only_the_half_laplacian_convention():
    # Delta drift with Delta/2 noise is no bridge, so the config has no other
    # convention to take; the key stays in the header, so the config hash has not moved
    grid = TimeGrid.with_geometric_tail(1.0, 8)
    with pytest.raises(TypeError, match="generator_convention"):
        SamplerConfig(seed=7, n_paths=20, grid=grid, dim=3, generator_convention="laplacian")
    cfg = SamplerConfig(seed=7, n_paths=20, grid=grid, dim=3)
    assert cfg.to_dict()["generator_convention"] == "half_laplacian"
    assert cfg.config_hash == "205de3e1a466556d"


def test_drift_cap_policy_counts_events():
    grid = TimeGrid.with_geometric_tail(1.0, 8)
    cfg = SamplerConfig(seed=43, n_paths=64, grid=grid, dim=3, drift_cap=1e-4)
    ens = sample_hyperbolic_bridge(cfg)
    assert ens.diagnostics["cap_event_fraction"] > 0.5  # tiny cap clips nearly always


def test_int_and_float_drift_cap_give_one_config_hash():
    # the two draw bit-identical paths; an int cap used to hash differently
    grid = TimeGrid.with_geometric_tail(1.0, 8)
    cap_int, cap_float, default = (SamplerConfig(seed=7, n_paths=20, grid=grid, dim=3, **kw)
                                   for kw in ({"drift_cap": 4}, {"drift_cap": 4.0}, {}))
    assert type(cap_int.drift_cap) is float
    assert cap_int.config_hash == cap_float.config_hash == default.config_hash == "205de3e1a466556d"


def continuity_diagnostic(ens: PathEnsemble):
    """max over steps of jump / sqrt(h log(1/h)): a qualitative modulus-of-
    continuity check (no hard exponent asserted)."""
    nodes = ens.grid.array()
    dts = np.diff(nodes)
    scale = np.sqrt(dts * np.log(1.0 / np.minimum(dts, 0.5)))
    if ens.measure_tag == "hyperbolic_bridge":
        jumps = hyp.dist(ens.points[:, 1:, :], ens.points[:, :-1, :])
    else:
        jumps = np.linalg.norm(np.diff(ens.points, axis=1), axis=-1)
    return float((jumps / scale[None, :]).max())


def test_continuity_diagnostic_is_moderate():
    cfg = SamplerConfig(seed=47, n_paths=2000, grid=TimeGrid.uniform(1.0, 64), dim=1)
    ens = sample_wiener(cfg)
    assert continuity_diagnostic(ens) < 8.0


def test_binary_roundtrip_and_byte_identity(tmp_path):
    grid = TimeGrid.with_geometric_tail(1.0, 8)
    cfg = SamplerConfig(seed=53, n_paths=32, grid=grid, dim=3)
    ens = sample_hyperbolic_bridge(cfg)
    p1, p2 = tmp_path / "a.pens", tmp_path / "b.pens"
    save_ensemble(p1, ens)
    save_ensemble(p2, sample_hyperbolic_bridge(cfg))
    assert p1.read_bytes() == p2.read_bytes()  # same config => byte-identical file
    back = load_ensemble(p1)
    assert np.array_equal(back.points, ens.points)
    assert back.measure_tag == ens.measure_tag
    assert back.config == ens.config
    assert np.array_equal(back.diagnostics["presnap_gap"], ens.diagnostics["presnap_gap"])
    assert np.array_equal(back.diagnostics["sup_distance"], ens.diagnostics["sup_distance"])
    # loaded arrays are read-only, so no code path may depend on writing them
    for a in (back.points, back.diagnostics["presnap_gap"], back.diagnostics["sup_distance"]):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


def test_saved_arrays_load_aligned_and_unpadded_files_still_load(tmp_path):
    # the header is padded so that the arrays start at a multiple of 64 bytes
    cfg = SamplerConfig(seed=61, n_paths=16, grid=TimeGrid.with_geometric_tail(1.0, 4), dim=3)
    ens = sample_hyperbolic_bridge(cfg)
    p = tmp_path / "a.pens"
    save_ensemble(p, ens)
    blob = p.read_bytes()
    hlen = int.from_bytes(blob[10:18], "little")
    assert (18 + hlen) % 64 == 0
    back = load_ensemble(p)
    assert back.points.flags.aligned
    assert all(back.diagnostics[k].flags.aligned for k in ("presnap_gap", "sup_distance"))
    # a file written without the padding, its arrays at an odd offset, loads bit for bit
    h = blob[18 : 18 + hlen].rstrip(b" ")
    if (18 + len(h)) % 2 == 0:
        h += b" "
    unpadded = tmp_path / "unpadded.pens"
    unpadded.write_bytes(blob[:10] + len(h).to_bytes(8, "little") + h + blob[18 + hlen :])
    old = load_ensemble(unpadded)
    assert old.points.tobytes() == ens.points.tobytes()
    for k in ("presnap_gap", "sup_distance"):
        assert old.diagnostics[k].tobytes() == ens.diagnostics[k].tobytes(), k


def test_saving_over_a_loaded_ensemble_keeps_it_readable(tmp_path):
    # the save replaces the file, so the pages the loaded ensemble maps stay valid
    grid = TimeGrid.with_geometric_tail(1.0, 4)
    p = tmp_path / "a.pens"
    first = sample_hyperbolic_bridge(SamplerConfig(seed=67, n_paths=64, grid=grid, dim=3))
    save_ensemble(p, first)
    loaded = load_ensemble(p)
    second = sample_hyperbolic_bridge(SamplerConfig(seed=68, n_paths=16, grid=grid, dim=3))
    save_ensemble(p, second)
    assert np.array_equal(loaded.points, first.points)
    assert np.array_equal(load_ensemble(p).points, second.points)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["a.pens"]  # no temporary left behind


def test_csv_export(tmp_path):
    cfg = SamplerConfig(seed=59, n_paths=3, grid=TimeGrid.uniform(1.0, 2), dim=2)
    ens = sample_wiener(cfg)
    out = tmp_path / "w.csv"
    ensemble_to_csv(out, ens)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "path,node,t,x0,x1"
    assert len(lines) == 1 + 3 * 3
    row = lines[1].split(",")
    assert float(row[3]) == ens.points[0, 0, 0]


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "bad.pens"
    p.write_bytes(b"not an ensemble")
    with pytest.raises(SamplerError, match="not a pathineq ensemble"):
        load_ensemble(p)

    cfg = SamplerConfig(seed=3, n_paths=5, grid=TimeGrid.with_geometric_tail(1.0, 4), dim=3)
    good = tmp_path / "good.pens"
    save_ensemble(good, sample_hyperbolic_bridge(cfg))
    blob = good.read_bytes()
    hlen = int.from_bytes(blob[10:18], "little")
    header = json.loads(blob[18 : 18 + hlen])

    def with_header(name, **changes):
        h = json.dumps(header | changes, sort_keys=True).encode()
        out = tmp_path / name
        out.write_bytes(blob[:10] + len(h).to_bytes(8, "little") + h + blob[18 + hlen :])
        return out

    assert np.array_equal(load_ensemble(with_header("same.pens")).points, load_ensemble(good).points)
    truncated = tmp_path / "truncated.pens"
    truncated.write_bytes(blob[:-12])
    with pytest.raises(SamplerError, match="truncated.pens.*length"):
        load_ensemble(truncated)
    edited = with_header("edited.pens", config=header["config"] | {"seed": 4})
    with pytest.raises(SamplerError, match="edited.pens.*config_hash"):
        load_ensemble(edited)
    wrong_dim = with_header("dim.pens", shape=[5, header["shape"][1], 3])
    with pytest.raises(SamplerError, match="dim.pens.*shape"):
        load_ensemble(wrong_dim)
    laplacian = with_header("lap.pens", config=header["config"] | {"generator_convention": "laplacian"})
    with pytest.raises(SamplerError, match="lap.pens.*malformed ensemble header.*generator_convention"):
        load_ensemble(laplacian)
    flat_tag = with_header("tag.pens", measure_tag="wiener")
    with pytest.raises(SamplerError, match="tag.pens.*shape"):
        load_ensemble(flat_tag)
    n = header["shape"][0]
    for shape in ([n + 1], [n, 1], []):
        diag = [[k, shape if k == "sup_distance" else shp] for k, shp in header["diag_arrays"]]
        with pytest.raises(SamplerError, match=r"diag.pens.*sup_distance has shape"):
            load_ensemble(with_header("diag.pens", diag_arrays=diag))
    for key in ("drift_cap", "generator_convention"):
        config = {k: v for k, v in header["config"].items() if k != key}
        with pytest.raises(SamplerError, match=f"{key}.pens.*malformed ensemble header"):
            load_ensemble(with_header(f"{key}.pens", config=config))


@pytest.fixture
def no_draws(monkeypatch):
    """Fail any sampler that draws a normal: its input checks come first."""
    from pathineq import samplers

    def draw(*args, **kwargs):
        raise AssertionError("a path was drawn before the input was checked")

    monkeypatch.setattr(samplers, "_stream", draw)  # step_normals draws from it too


@pytest.mark.parametrize(
    "sampler, dim, points, key, message",
    [
        # the ou paths used to start from the stationary law whatever x0 said
        (sample_ou, 1, {"x0": (5.0,)}, "x0", "the ou sampler starts from its stationary law: x0 must be origin"),
        # y0 used to be hashed into the ensemble and never used
        (sample_wiener, 1, {"y0": (0.0,)}, "y0", "the wiener sampler takes no end point: y0 must be origin"),
        (sample_flat_bridge, 1, {"y0": (1.0,)}, "y0", "the flat_bridge sampler takes no end point: y0 must be origin"),
        (sample_ou, 1, {"y0": (0.0,)}, "y0", "the ou sampler takes no end point: y0 must be origin"),
        # a one-coordinate x0 used to be spread over every dimension
        (sample_wiener, 3, {"x0": (1.0,)}, "x0", "expected 3 coordinates, got 1"),
        (sample_flat_bridge, 2, {"x0": (0.0, 0.0, 0.0)}, "x0", "expected 2 coordinates, got 3"),
        (sample_hyperbolic_bridge, 3, {"y0": (0.0, 0.0, 1.0)}, "y0", "expected 4 coordinates, got 3"),
        (sample_flat_bridge, 2, {"x0": (1.0, 0.0)}, "x0", "flat bridge is pinned at the origin"),
        (sample_hyperbolic_bridge, 3, {"x0": (0.5, 0.0, 0.0, 1.0)}, "x0",
         "x0 must be a point on the hyperboloid sheet of H^3"),
        (sample_hyperbolic_bridge, 2, {"y0": (0.0, 0.0, -1.0)}, "y0",
         "y0 must be a point on the hyperboloid sheet of H^2"),
        (sample_hyperbolic_bridge, 3, {"y0": (0.0, 0.0, 0.0, math.nan)}, "y0",
         "y0 must be a point on the hyperboloid sheet of H^3"),
        (sample_hyperbolic_bridge, 4, {}, "dim", "the hyperbolic bridge takes dim 2 or 3"),
        # a non-finite start point used to give NaN or infinite paths
        (sample_wiener, 2, {"x0": (0.0, math.nan)}, "x0", "x0 must be finite"),
        (sample_wiener, 1, {"x0": (-math.inf,)}, "x0", "x0 must be finite"),
        (sample_hyperbolic_bridge, 2, {"x0": (0.0, 0.0, math.inf)}, "x0",
         "x0 must be a point on the hyperboloid sheet of H^2"),
    ],
    ids=["ou_x0", "wiener_y0", "flat_bridge_y0", "ou_y0", "wiener_x0_length", "flat_bridge_x0_length",
         "bridge_y0_length", "flat_bridge_x0_off_origin", "bridge_x0_off_sheet", "bridge_y0_lower_sheet",
         "bridge_y0_nan", "bridge_dim_4", "wiener_x0_nan", "wiener_x0_inf", "bridge_x0_inf"],
)
def test_sampler_refuses_a_point_or_dim_it_cannot_take(no_draws, sampler, dim, points, key, message):
    cfg = SamplerConfig(seed=1, n_paths=4, grid=TimeGrid.with_geometric_tail(1.0, 4), dim=dim, **points)
    with pytest.raises(SamplerError, match=re.escape(message)) as err:
        sampler(cfg)
    assert err.value.key == key


@pytest.mark.parametrize(
    "fields, key, message",
    [
        # dim 0 used to give an ensemble without coordinates
        ({"dim": 0}, "dim", "dim must be >= 1"),
        # a negative cap used to clip every drift, and NaN none
        ({"drift_cap": 0.0}, "drift_cap", "drift_cap must be positive"),
        ({"drift_cap": -1.0}, "drift_cap", "drift_cap must be positive"),
        ({"drift_cap": math.nan}, "drift_cap", "drift_cap must be positive"),
        ({"n_paths": 0}, "n_paths", "n_paths must be >= 1"),
        ({"seed": -1}, "seed", "seed must fit in 64 bits"),
        # seed 1.5 used to draw seed 1's paths under another config_hash
        ({"seed": 1.5}, "seed", "seed must be an integer"),
        ({"seed": True}, "seed", "seed must be an integer"),
    ],
    ids=["dim_0", "drift_cap_0", "drift_cap_negative", "drift_cap_nan", "n_paths_0", "seed_negative",
         "seed_float", "seed_bool"],
)
def test_sampler_config_names_its_bad_field(fields, key, message):
    with pytest.raises(SamplerError, match=message) as err:
        SamplerConfig(**({"seed": 1, "n_paths": 4, "grid": TimeGrid.uniform(1.0, 4), "dim": 1} | fields))
    assert err.value.key == key


@pytest.mark.parametrize(
    "build, key, message",
    [
        (partial(TimeGrid.uniform, 0.0, 4), "T", "horizon T must be positive"),
        (partial(TimeGrid.uniform, -1.0, 4), "T", "horizon T must be positive"),
        (partial(TimeGrid.with_geometric_tail, -1.0, 4), "T", "horizon T must be positive"),
        # an infinite T used to fail as "grid must start at t = 0", with no key
        (partial(TimeGrid.uniform, math.inf, 4), "T", "horizon T must be positive and finite"),
        (partial(TimeGrid.uniform, 1.0, 0), "n_steps", "n_steps must be >= 1"),
        (partial(TimeGrid.with_geometric_tail, 1.0, 0), "n_steps", "n_steps must be >= 1"),
        (partial(TimeGrid.with_geometric_tail, 1.0, 4, lam=1.5), "lam", "tail ratio lam must be in (0, 1)"),
        (partial(TimeGrid.with_geometric_tail, 1.0, 4, floor=0.0), "floor", "tail floor must be positive"),
        (partial(TimeGrid.with_geometric_tail, 1.0, 4, floor=1e-300), "floor", "below the float spacing"),
    ],
    ids=["T_0", "T_negative", "tail_T_negative", "T_inf", "n_steps_0", "tail_n_steps_0", "lam", "floor", "floor_tiny"],
)
def test_time_grid_names_its_bad_argument(build, key, message):
    with pytest.raises(SamplerError, match=re.escape(message)) as err:
        build()
    assert err.value.key == key


def test_csv_export_refuses_more_paths_than_its_limit(tmp_path):
    from pathineq.samplers import CSV_MAX_PATHS

    cfg = SamplerConfig(seed=1, n_paths=CSV_MAX_PATHS + 1, grid=TimeGrid.uniform(1.0, 1), dim=1)
    with pytest.raises(SamplerError, match=f"n_paths <= {CSV_MAX_PATHS}"):
        ensemble_to_csv(tmp_path / "w.csv", sample_wiener(cfg))
    assert not (tmp_path / "w.csv").exists()
