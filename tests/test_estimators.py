import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathineq.estimators
from pathineq import hyperbolic as hyp
from pathineq.estimators import (
    _ESTIMATES,
    _square_log_square,
    CylindricalFunction,
    EstimatorError,
    coordinate_function,
    entropy,
    exact_sum,
    exp_half_function,
    exp_square_moment,
    family_estimates,
    function_estimates,
    green_gram,
    h_gradient_energy,
    hermite_function,
    lsi_ratio,
    rayleigh_scan,
    sup_distance,
    tail_slope_vs_square,
    variance,
    weight_tail,
)
from pathineq.samplers import (
    PathEnsemble,
    SamplerConfig,
    TimeGrid,
    sample_flat_bridge,
    sample_hyperbolic_bridge,
    sample_ou,
    sample_wiener,
)


def gaussian_ensemble(n_paths, seed=1):
    # standard Gaussian as a Wiener path evaluated at T = 1
    cfg = SamplerConfig(seed=seed, n_paths=n_paths, grid=TimeGrid.uniform(1.0, 1), dim=1)
    return sample_wiener(cfg)


def one_path(sampler, T=1.0):
    # green_gram reads only the measure and the horizon
    return sampler(SamplerConfig(seed=0, n_paths=1, grid=TimeGrid.uniform(T, 1), dim=1))


# ---------------------------------------------------------------------------
# Green kernels


def test_green_kernel_values():
    assert green_gram(one_path(sample_wiener), (0.3, 0.7))[0, 1] == 0.3
    assert green_gram(one_path(sample_ou), (0.3, 0.7))[0, 1] == 0.3
    bridge = green_gram(one_path(sample_flat_bridge), (0.5, 1.0))
    assert bridge[0, 0] == 0.25
    assert bridge[1, 0] == 0.0


def test_green_gram_psd_on_random_subsets():
    rng = np.random.default_rng(0)
    for sampler in (sample_wiener, sample_flat_bridge):
        ens = one_path(sampler, T=2.0)
        for _ in range(25):
            times = np.sort(rng.uniform(0.01, 2.0, size=rng.integers(2, 9)))
            w = np.linalg.eigvalsh(green_gram(ens, times))
            assert w.min() >= -1e-10


# ---------------------------------------------------------------------------
# gradient energies


def test_energy_bridge_midpoint_exact():
    cfg = SamplerConfig(seed=3, n_paths=10, grid=TimeGrid.uniform(1.0, 4), dim=1)
    ens = sample_flat_bridge(cfg)
    F = coordinate_function(0.5)
    e = h_gradient_energy(F, ens)
    assert np.all(e == 0.25)  # G(T/2, T/2) = T/4 exactly


def test_energy_based_endpoint_exact():
    ens = gaussian_ensemble(10, seed=4)
    F = coordinate_function(1.0)
    e = h_gradient_energy(F, ens)
    assert np.all(e == 1.0)  # G(T, T) = T


def test_energy_constant_function_zero():
    ens = gaussian_ensemble(10, seed=5)
    F = CylindricalFunction(
        times=(1.0,),
        fn=lambda X: np.full(X.shape[0], 3.5),
        partials=lambda X: np.zeros_like(X),
    )
    assert np.all(h_gradient_energy(F, ens) == 0.0)


def test_fd_partials_match_analytic():
    rng = np.random.default_rng(7)
    times = (0.25, 0.5, 1.0)

    def fn(X):
        return np.sin(X[:, 0, 0]) * X[:, 1, 0] + X[:, 2, 0] ** 2

    def partials(X):
        out = np.zeros_like(X)
        out[:, 0, 0] = np.cos(X[:, 0, 0]) * X[:, 1, 0]
        out[:, 1, 0] = np.sin(X[:, 0, 0])
        out[:, 2, 0] = 2 * X[:, 2, 0]
        return out

    F_an = CylindricalFunction(times=times, fn=fn, partials=partials)
    F_fd = CylindricalFunction(times=times, fn=fn)
    cfg = SamplerConfig(seed=8, n_paths=200, grid=TimeGrid.uniform(1.0, 4), dim=1)
    ens = sample_wiener(cfg)
    e_an = h_gradient_energy(F_an, ens)
    e_fd = h_gradient_energy(F_fd, ens)
    rel = np.abs(e_an - e_fd) / np.maximum(np.abs(e_an), 1e-10)
    assert rel.max() < 1e-4


def test_functions_of_one_coordinate_evaluated_by_blocks_match_whole_arrays():
    # f and f' run a block at a time; each path keeps its own value, bit for bit
    from numpy.polynomial import hermite_e

    B = pathineq.estimators._BLOCK
    X = np.random.default_rng(43).standard_normal((3 * B + 7, 1, 2))
    x0, x1 = X[:, 0, 0], X[:, 0, 1]
    cases = [
        (coordinate_function(1.0, coord=1), 1, x1, np.ones_like(x1)),
        (hermite_function(3, 1.0), 0, hermite_e.hermeval(x0, [0, 0, 0, 1]), hermite_e.hermeval(x0, [0, 0, 3])),
        (exp_half_function(0.5, 1.0), 0, np.exp(0.25 * x0), 0.25 * np.exp(0.25 * x0)),
    ]
    for F, coord, value, slope in cases:
        partials = np.zeros_like(X)
        partials[:, 0, coord] = slope
        assert np.array_equal(F.values(X), value) and np.array_equal(F.partial_values(X), partials), F.label


def test_hyperbolic_energy_single_time_norm():
    # one evaluation time: energy = G(t,t) |v|^2 with v the tangent gradient;
    # transport back to base preserves the Minkowski norm, so the pairing
    # must reproduce it exactly
    grid = TimeGrid.with_geometric_tail(1.0, 8)
    cfg = SamplerConfig(seed=10, n_paths=50, grid=grid, dim=3)
    ens = sample_hyperbolic_bridge(cfg)
    t = grid.nodes[4]
    c = np.array([0.3, -0.2, 0.5, 0.1])

    def fn(X):
        return X[:, 0, :] @ c

    def partials(X):
        out = np.zeros_like(X)
        out[:, 0, :] = c
        return out

    F = CylindricalFunction(times=(t,), fn=fn, partials=partials)
    e = h_gradient_energy(F, ens)
    x = ens.points[:, 4, :]
    eta_c = c.copy()
    eta_c[-1] *= -1
    v = hyp.tangent_project(x, np.broadcast_to(eta_c, x.shape))
    expect = green_gram(ens, [t])[0, 0] * hyp.minkowski_dot(v, v)
    assert np.max(np.abs(e - expect)) < 1e-10
    assert np.all(e >= 0)


def _three_time_function(times, c):
    """F = sin(<c0, x1>) <c1, x2> + <c2, x3>^2 of the ambient points at three
    times; its partials are read-only, so no caller may write into them."""

    def fn(X):
        return np.sin(X[:, 0] @ c[0]) * (X[:, 1] @ c[1]) + (X[:, 2] @ c[2]) ** 2

    def partials(X):
        a, b, q = X[:, 0] @ c[0], X[:, 1] @ c[1], X[:, 2] @ c[2]
        out = np.stack([np.cos(a)[:, None] * b[:, None] * c[0], np.sin(a)[:, None] * c[1],
                        2 * q[:, None] * c[2]], axis=1)
        out.flags.writeable = False
        return out

    return CylindricalFunction(times=times, fn=fn, partials=partials)


def _base_point_energy(F, ens):
    """The pairing at the base point: each tangent gradient transported node by
    node back to node 0, then G-paired in the Minkowski metric."""
    idx = [ens.grid.index_of(t) for t in F.times]
    V = F.partial_values(ens.points[:, idx, :])
    W = []
    for a, i in enumerate(idx):
        eta_v = V[:, a, :].copy()
        eta_v[:, -1] *= -1.0
        v = hyp.tangent_project(ens.points[:, i, :], eta_v)
        for k in range(i, 0, -1):
            v = hyp.parallel_transport(v, ens.points[:, k, :], ens.points[:, k - 1, :])
        W.append(v)
    W = np.stack(W, axis=1)
    prod = np.einsum("mic,mjc->mij", W[..., :-1], W[..., :-1]) - np.einsum("mi,mj->mij", W[..., -1], W[..., -1])
    return np.einsum("ij,mij->m", green_gram(ens, F.times), prod)


@pytest.mark.parametrize("dim", [2, 3])
def test_hyperbolic_energy_of_three_times_is_the_base_point_pairing(dim):
    # the pairing at the first evaluation node equals the one at the base
    # point, as transport is an isometry; F's first time lies before G's first
    grid = TimeGrid.with_geometric_tail(1.0, 8)
    ens = sample_hyperbolic_bridge(SamplerConfig(seed=11, n_paths=200, grid=grid, dim=dim))
    c = np.random.default_rng(12).standard_normal((3, dim + 1))
    for nodes in ((2, 5, 7), (4, 6, 8)):
        F = _three_time_function(tuple(grid.nodes[i] for i in nodes), c)
        e, expect = h_gradient_energy(F, ens), _base_point_energy(F, ens)
        assert np.all(expect > 0)
        assert np.max(np.abs(e - expect) / expect) <= 1e-13


@pytest.mark.parametrize("sampler, dim", [(sample_wiener, 2), (sample_hyperbolic_bridge, 3)])
def test_energy_does_not_depend_on_the_memory_layout_of_the_points(sampler, dim):
    # the samplers' points are coordinate-major, a path-major copy is C-order: the einsum, which adds in its
    # operands' memory order, used to give the two different bits on the hyperboloid
    grid = TimeGrid.with_geometric_tail(1.0, 8)
    ens = sampler(SamplerConfig(seed=11, n_paths=200, grid=grid, dim=dim))
    F = CylindricalFunction(times=tuple(grid.nodes[i] for i in (2, 5, 7)),  # elementwise, so layout-blind
                            fn=lambda X: np.sin(X[:, 0, 0]) * X[:, 1, -1] + X[:, 2, 0] ** 2)
    path_major = PathEnsemble(ens.config, ens.measure_tag, np.ascontiguousarray(ens.points), ens.diagnostics)
    assert np.array_equal(h_gradient_energy(F, ens), h_gradient_energy(F, path_major))


def test_flat_energy_of_three_times_is_the_euclidean_pairing_bit_for_bit():
    ens = sample_wiener(SamplerConfig(seed=13, n_paths=500, grid=TimeGrid.uniform(1.0, 4), dim=2))
    F = _three_time_function((0.25, 0.5, 1.0), np.random.default_rng(14).standard_normal((3, 2)))
    V = F.partial_values(ens.points[:, [1, 2, 4], :])
    expect = np.einsum("ij,mic,mjc->m", green_gram(ens, F.times), V, V)
    assert np.array_equal(h_gradient_energy(F, ens), expect)


# ---------------------------------------------------------------------------
# variance / entropy estimators


def test_constant_function_variance_entropy_exact_zero():
    ens = gaussian_ensemble(1000, seed=11)
    F = CylindricalFunction(
        times=(1.0,), fn=lambda X: np.full(X.shape[0], 2.0), partials=lambda X: np.zeros_like(X)
    )
    assert variance(F, ens).value == 0.0
    assert entropy(F, ens).value == 0.0


def test_gaussian_coordinate_variance():
    ens = gaussian_ensemble(100_000, seed=12)
    est = variance(coordinate_function(1.0), ens)
    assert abs(est.value - 1.0) < 3 * est.std_error
    assert est.std_error < 0.02


def test_entropy_scaling_identity():
    # Ent((lam F)^2) = lam^2 Ent(F^2), and so for the plug-in value g(a, b) = b - a log a of the means a
    # of F^2 and b of F^2 log F^2, whose exact_sum totals round it by a few ulps.  The jackknifed value
    # n g(a, b) - (n - 1) mean_i g(a_i, b_i) scales exactly only in exact arithmetic.  Each g carries
    # roundings within u = 2^-53 relative of terms of size up to S = |b| + a (|log a| + 1): two in a
    # leave-one-out mean (t - c)/(n - 1), one in log a, the product and the difference, and a's
    # rounding enters as (log a + 1) da; at most 8 u S in all.  n g and (n - 1) mean_i g multiply
    # those by n, and the two products and their difference add at most 3 n u S: each value is
    # within 19 n u S of its exact arithmetic, and the two exact values satisfy the identity.
    lam, n, u = 1.7, 5000, 2.0**-53
    F = coordinate_function(1.0)
    Fs = CylindricalFunction(times=(1.0,), fn=lambda X: lam * X[:, 0, 0], partials=None)
    for seed in (13, 1, 7, 2009, 53077):  # the bound holds on any draws, not only on one seed's
        ens = gaussian_ensemble(n, seed=seed)
        plug_in, scale = [], []
        for G in (F, Fs):
            x = G.values(ens.points[:, [1], :])
            a, b = exact_sum(x * x) / n, exact_sum(_square_log_square(x)) / n
            plug_in.append(_ESTIMATES["entropy"][1](a, b))
            scale.append(abs(b) + a * (abs(math.log(a)) + 1.0))
        assert plug_in[1] == pytest.approx(lam * lam * plug_in[0], rel=1e-14), seed
        e1, e2 = entropy(F, ens).value, entropy(Fs, ens).value
        assert abs(e2 - lam * lam * e1) <= 19 * n * u * (scale[1] + lam * lam * scale[0]), seed


def test_entropy_sign_invariance():
    ens = gaussian_ensemble(5000, seed=14)
    F = exp_half_function(0.5, 1.0)
    Fneg = CylindricalFunction(times=(1.0,), fn=lambda X: -F.fn(X))
    assert entropy(F, ens).value == pytest.approx(entropy(Fneg, ens).value, rel=1e-14)


def test_degenerate_ensemble_rejected():
    ens = gaussian_ensemble(1, seed=15)
    with pytest.raises(EstimatorError, match="degenerate|at least two"):
        variance(coordinate_function(1.0), ens)


def test_gaussian_lsi_ratio_is_two():
    ens = gaussian_ensemble(200_000, seed=16)
    for lam in (0.25, 0.5, 1.0):
        est = lsi_ratio(exp_half_function(lam, 1.0), ens)
        assert abs(est.value - 2.0) < 3 * est.std_error
        assert est.std_error < 0.05


def test_lsi_ratio_zero_energy_is_flagged_zero():
    # on a bridge G(T, T) = 0, so a function of the pinned endpoint has no
    # H-energy; its entropy/energy ratio is 0 with a flag, as for the Rayleigh ratio
    ens = sample_flat_bridge(SamplerConfig(seed=5, n_paths=200, grid=TimeGrid.uniform(1.0, 8), dim=1))
    est = lsi_ratio(exp_half_function(0.5, 1.0), ens)
    assert (est.value, est.std_error, est.flags) == (0.0, 0.0, ("zero_energy",))


def test_jackknife_matches_closed_form_for_mean():
    # jackknife of the identity functional reduces to the classical SE
    rng = np.random.default_rng(17)
    x = rng.normal(size=4000)
    from pathineq.estimators import _jackknife

    est = _jackknife([x], [math.fsum(x)], lambda m: m)
    assert est.value == pytest.approx(x.mean(), rel=1e-12)
    assert est.std_error == pytest.approx(x.std(ddof=1) / math.sqrt(x.size), rel=1e-10)


# ---------------------------------------------------------------------------
# Exact sums


def _outcome(total, a):
    """The bytes of total(a) (the sign of zero included), or the error it raises."""
    try:
        return struct.pack("<d", total(a))
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


_SCALED = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1100, 1000))  # subnormals to 2^1000
_SUMMANDS = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40),
    st.lists(_SCALED, min_size=1, max_size=40),
    st.lists(_SCALED, max_size=40).map(lambda a: a + [-x for x in a]),  # exact total 0
    st.tuples(st.lists(_SCALED, max_size=40), _SCALED).map(lambda t: t[0] + [t[1]] + [-x for x in t[0]]),
    st.integers(1, 40).map(lambda n: [-0.0] * n),
    st.lists(st.floats(), min_size=1, max_size=40),  # inf and nan
    st.lists(st.floats(1e307, 1.7e308) | st.floats(-1.7e308, -1e307), min_size=2, max_size=20),  # overflow
)


@settings(max_examples=400, deadline=None)
@given(_SUMMANDS)
def test_exact_sum_is_fsum_bit_for_bit(a):
    assert _outcome(exact_sum, a) == _outcome(math.fsum, a)


def test_exact_sum_of_a_million_values_needs_no_fsum(monkeypatch):
    x = np.random.default_rng(29).standard_normal(1_000_000)
    xx = x * x
    arrays = (x, xx * np.log(xx))
    expected = [_outcome(math.fsum, a) for a in arrays]

    def no_fsum(a):
        raise AssertionError("fell back to math.fsum")

    monkeypatch.setattr(math, "fsum", no_fsum)
    assert [_outcome(exact_sum, a) for a in arrays] == expected


def test_exact_sum_defers_to_fsum_from_its_size_limit(monkeypatch):
    fsum, sizes = math.fsum, []
    monkeypatch.setattr(math, "fsum", lambda a: sizes.append(len(a)) or fsum(a))
    monkeypatch.setattr(pathineq.estimators, "_EXACT_SUM_MAX_N", 4)
    assert exact_sum([0.1, 0.2, 0.3]) == fsum([0.1, 0.2, 0.3]) and sizes == []
    assert exact_sum([0.1, 0.2, 0.3, 0.4]) == fsum([0.1, 0.2, 0.3, 0.4]) and sizes == [4]


_B = pathineq.estimators._BLOCK


def _block_edge_arrays():
    """Arrays whose sizes straddle the block edges, with their special values
    in the last block only."""
    rng = np.random.default_rng(31)
    for n in (0, 1, _B - 1, _B, _B + 1, 3 * _B + 7):
        a = rng.standard_normal(n)
        yield f"normals{n}", a
        if n:
            for special in (math.inf, -math.inf, math.nan):
                yield f"{special}_last{n}", np.concatenate([a[:-1], [special]])
            yield f"inf_minus_inf{n}", np.concatenate([a, [math.inf, -math.inf]])
            yield f"plus_zero{n}", np.concatenate([a, -a[::-1]])  # exact total +0
            yield f"minus_zero{n}", np.full(n, -0.0)
            yield f"near_overflow{n}", a / np.abs(a).max() * 1.7e308  # fsum's partial sums may pass it
            yield f"below_overflow{n}", np.concatenate([a[:-1] * 1e300, [1.7e308]])


def test_exact_sum_is_fsum_across_block_edges():
    for name, a in _block_edge_arrays():
        assert _outcome(exact_sum, a) == _outcome(math.fsum, a), name


def test_exact_sum_of_a_derived_component_is_fsum_of_it():
    # F^2 and F^2 log F^2 are summed block by block without being stored
    from pathineq.estimators import _Derived, _square, _square_log_square

    for name, a in _block_edge_arrays():
        for f in (_square, _square_log_square, np.negative):
            with np.errstate(all="ignore"):
                assert _outcome(exact_sum, _Derived(a, f)) == _outcome(math.fsum, f(a)), (name, f)


# ---------------------------------------------------------------------------
# Function families


def _constant(value):
    return CylindricalFunction(times=(1.0,), fn=lambda X: np.full(X.shape[0], value),
                               partials=lambda X: np.zeros_like(X), label=f"const{value}")


def _family():
    return [hermite_function(k, 1.0) for k in (1, 2, 3)] + [
        exp_half_function(0.5, 1.0), coordinate_function(1.0), _constant(2.0)
    ]


def _reprs(rows):
    return [(label, {name: repr(est) for name, est in estimates.items()}) for label, estimates in rows]


def test_family_estimates_do_not_depend_on_workers_blocks_or_path_order(monkeypatch):
    from pathineq import samplers

    ens = gaussian_ensemble(2 * _B + 5, seed=37)
    names = tuple(_ESTIMATES)
    serial = _reprs([(F.label, function_estimates(F, ens, names)) for F in _family()])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # three workers on fewer cores, switching often
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(samplers, "_WORKERS", workers)
            assert _reprs(family_estimates(_family(), ens, names)) == serial, workers
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(pathineq.estimators, "_BLOCK", 1000)  # ragged blocks: 131077 = 131 * 1000 + 77
    assert _reprs(family_estimates(_family(), ens, names)) == serial
    ens.points = ens.points[np.random.default_rng(2).permutation(ens.n_paths)]
    assert _reprs(family_estimates(_family(), ens, names)) == serial
    # a constant F: exact zeros, and the ratios flagged for zero energy
    const = dict(family_estimates(_family(), ens, names))["const2.0"]
    assert all(const[k].value == const[k].std_error == 0.0 for k in ("variance", "entropy", "energy"))
    assert all(const[k].flags == ("zero_energy",) for k in ("ratio", "lsi_ratio"))


def test_family_estimates_raise_the_serial_loops_error(monkeypatch):
    # the second function fails; so does the third, differently, and may finish first
    from pathineq import samplers

    ens = gaussian_ensemble(1000, seed=41)
    bad_shape = CylindricalFunction(times=(1.0,), fn=lambda X: X[:, 0, :], label="bad")
    nan_or_zero = CylindricalFunction(times=(1.0,), fn=lambda X: np.where(X[:, 0, 0] > 0, np.nan, 0.0))
    family = [coordinate_function(1.0), bad_shape, nan_or_zero]
    names = ("variance", "entropy")
    with pytest.raises(EstimatorError) as serial:
        [function_estimates(F, ens, names) for F in family]
    for workers in (1, 2, 3):
        monkeypatch.setattr(samplers, "_WORKERS", workers)
        with pytest.raises(EstimatorError) as pooled:
            family_estimates(family, ens, names)
        assert str(pooled.value) == str(serial.value) == "kernel must map (m, k, d) -> (m,)"
    with pytest.raises(EstimatorError, match="not almost surely 0"):
        family_estimates(family[::2], ens, names)


# ---------------------------------------------------------------------------
# Rayleigh scans


def test_rayleigh_hermite_eigenstructure():
    ens = gaussian_ensemble(200_000, seed=18)
    family = [hermite_function(k, 1.0) for k in (1, 2, 3)]
    scan = rayleigh_scan(family, ens)
    targets = [1.0, 0.5, 1.0 / 3.0]
    for row, target in zip(scan.rows, targets):
        assert abs(row.ratio.value - target) < 3 * row.ratio.std_error
    assert scan.best_index == 0
    assert abs(scan.best_ratio.value - 1.0) < 3 * scan.best_ratio.std_error


def test_rayleigh_bridge_midpoint_ratio_one():
    cfg = SamplerConfig(seed=19, n_paths=100_000, grid=TimeGrid.uniform(1.0, 8), dim=1)
    ens = sample_flat_bridge(cfg)
    scan = rayleigh_scan([coordinate_function(0.5)], ens)
    r = scan.best_ratio
    assert abs(r.value - 1.0) < 3 * r.std_error


def test_rayleigh_random_polynomials_bounded_by_poincare():
    # 20 random polynomials of a standard Gaussian: every Rayleigh quotient
    # sits below the Poincare constant 1, so best <= 1 + 4 SE
    ens = gaussian_ensemble(150_000, seed=99)
    rng = np.random.default_rng(2718)
    family = []
    for i in range(20):
        deg = int(rng.integers(1, 6))
        coeffs = rng.normal(size=deg + 1)
        poly = np.polynomial.Polynomial(coeffs)
        dpoly = poly.deriv()

        def fn(X, p=poly):
            return p(X[:, 0, 0])

        def partials(X, dp=dpoly):
            out = np.zeros_like(X)
            out[:, 0, 0] = dp(X[:, 0, 0])
            return out

        family.append(
            CylindricalFunction(times=(1.0,), fn=fn, partials=partials, label=f"p{i}")
        )
    scan = rayleigh_scan(family, ens)
    best = scan.best_ratio
    assert best.value <= 1.0 + 4.0 * best.std_error


@pytest.mark.parametrize("times", [(math.nan,), (0.5, math.nan), (0.0,), (-1.0,)],
                         ids=["nan", "nan_second", "zero", "negative"])
def test_evaluation_times_must_be_positive(times):
    # NaN used to pass the check t <= 0
    with pytest.raises(EstimatorError, match="evaluation times must be positive"):
        CylindricalFunction(times=times, fn=lambda X: X[:, 0, 0])


def test_rayleigh_ratios_nonnegative_and_errors():
    ens = gaussian_ensemble(1000, seed=20)
    fam = [hermite_function(1, 1.0), hermite_function(2, 1.0)]
    scan = rayleigh_scan(fam, ens)
    assert all(r.ratio.value >= 0 for r in scan.rows)
    with pytest.raises(EstimatorError, match="empty"):
        rayleigh_scan([], ens)
    const = CylindricalFunction(
        times=(1.0,), fn=lambda X: np.ones(X.shape[0]), partials=lambda X: np.zeros_like(X)
    )
    with pytest.raises(EstimatorError, match="zero estimated energy"):
        rayleigh_scan([const], ens)


# ---------------------------------------------------------------------------
# weight tails


@pytest.fixture(scope="module")
def small_bridge():
    grid = TimeGrid.with_geometric_tail(1.0, 16)
    cfg = SamplerConfig(seed=21, n_paths=4000, grid=grid, dim=3)
    return sample_hyperbolic_bridge(cfg)


def test_weight_tail_basics(small_bridge):
    tb = weight_tail(sup_distance(small_bridge))
    assert tb(0.0) == 1.0  # u >= 0 always
    vals = np.array(tb.values)
    assert np.all(np.diff(vals) <= 1e-15)
    assert tb.source == "empirical"
    assert tb.confidence == 0.99


def test_sup_distance_positive(small_bridge):
    u = sup_distance(small_bridge)
    assert np.all(u > 0)
    assert u.shape == (4000,)


def test_sup_distance_uses_the_stored_array(small_bridge):
    stored = sup_distance(small_bridge)
    assert stored is small_bridge.diagnostics["sup_distance"]
    # an ensemble without the array, as older files and hand-built ones are
    bare = PathEnsemble(small_bridge.config, small_bridge.measure_tag, small_bridge.points)
    assert sup_distance(bare).tobytes() == stored.tobytes()


def test_tail_slope_negative_for_gaussian_type(small_bridge):
    u = sup_distance(small_bridge)
    slope, se = tail_slope_vs_square(u)
    assert slope < 0
    assert slope + 2.326 * se < 0  # negative at 99% one-sided confidence


def test_exp_square_moment_flags():
    rng = np.random.default_rng(22)
    u = np.abs(rng.normal(size=5000))
    est = exp_square_moment(u, 0.25)
    assert est.value > 1.0
    assert "max_dominated" not in est.flags
    est_hot = exp_square_moment(u, 20.0)
    assert "max_dominated" in est_hot.flags


@pytest.mark.parametrize("u, c", [(np.full(20000, 3.0), 1000.0), (np.full(100_000, 1.0), 699.9)],
                         ids=["clipped", "unclipped"])
def test_exp_square_moment_total_overflow_is_flagged(u, c):
    # every term is near exp(700): the sum passes the largest float either way
    est = exp_square_moment(u, c)
    assert est.value == math.inf and est.std_error == math.inf
    assert est.flags == ("overflow",)


def test_estimator_reduction_order_insensitive():
    # exact totals and sorted leave-one-out values: shuffling the paths leaves
    # every function estimate bit-identical, and E exp(c u^2) with its SE too
    ens = gaussian_ensemble(10_000, seed=23)
    F = exp_half_function(0.5, 1.0)
    u = np.abs(ens.points[:, -1, 0])
    before = function_estimates(F, ens, tuple(_ESTIMATES))
    moment = exp_square_moment(u, 0.3)
    perm = np.random.default_rng(0).permutation(ens.n_paths)
    ens.points = ens.points[perm]
    after = function_estimates(F, ens, tuple(_ESTIMATES))
    for name in _ESTIMATES:
        assert after[name].to_dict() == before[name].to_dict()
    # a pairwise-summed SE moves in the last bits under most of these shuffles
    rng = np.random.default_rng(1)
    for perm in [perm] + [rng.permutation(u.size) for _ in range(9)]:
        assert exp_square_moment(u[perm], 0.3).to_dict() == moment.to_dict()


@pytest.mark.parametrize(
    "build, key, message",
    [
        # coord -1 used to read the last coordinate
        (lambda: coordinate_function(1.0, coord=-1), "coord", "coord must be >= 0"),
        (lambda: exp_half_function(0.5, 1.0, coord=-1), "coord", "coord must be >= 0"),
        (lambda: hermite_function(2, 1.0, coord=-1), "coord", "coord must be >= 0"),
        (lambda: hermite_function(-1, 1.0), "degree", r"degree must be an int in \[0, 150\], got -1"),
        # 10**15 was numpy's allocation error, 2.0 a TypeError
        (lambda: hermite_function(151, 1.0), "degree", r"degree must be an int in \[0, 150\], got 151"),
        (lambda: hermite_function(10**15, 1.0), "degree", r"degree must be an int in \[0, 150\], got 10{15}"),
        (lambda: hermite_function(2.0, 1.0), "degree", r"degree must be an int in \[0, 150\], got 2\.0"),
        (lambda: hermite_function(True, 1.0), "degree", r"degree must be an int in \[0, 150\], got True"),
        (lambda: coordinate_function(0.0), "times", "evaluation times must be positive"),
    ],
    ids=["coordinate_coord", "exp_half_coord", "hermite_coord", "hermite_degree", "hermite_degree_past_max",
         "hermite_degree_huge", "hermite_degree_float", "hermite_degree_bool", "time_zero"],
)
def test_function_builder_names_its_bad_argument(build, key, message):
    with pytest.raises(EstimatorError, match=message) as err:
        build()
    assert err.value.key == key
