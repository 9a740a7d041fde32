import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from pathineq import hyperbolic as hyp
from pathineq.hyperbolic import HeatKernelParams


def rand_point(n, rng, spread=1.5):
    v = np.zeros(n + 1)
    v[:n] = rng.normal(scale=spread, size=n)
    return hyp.exp_map(hyp.origin(n), v)


def rand_tangent(x, rng):
    w = rng.normal(size=x.shape)
    return hyp.tangent_project(x, w)


def on_sheet(x, tol=1e-10):
    return np.all(np.abs(hyp.minkowski_dot(x, x) + 1.0) <= tol)


def is_tangent(x, v, tol):
    return np.all(np.abs(hyp.minkowski_dot(v, x)) <= tol)


def lorentz_boost(n, axis, rapidity):
    """Boost mixing spatial axis with the timelike coordinate."""
    B = np.eye(n + 1)
    c, s = math.cosh(rapidity), math.sinh(rapidity)
    B[axis, axis] = c
    B[-1, -1] = c
    B[axis, -1] = s
    B[-1, axis] = s
    return B


def random_isometry(n, rng):
    """Random orientation-preserving Lorentz map (rotation boost rotation)."""
    from scipy.stats import special_ortho_group

    R1 = np.eye(n + 1)
    R1[:n, :n] = special_ortho_group.rvs(n, random_state=rng)
    R2 = np.eye(n + 1)
    R2[:n, :n] = special_ortho_group.rvs(n, random_state=rng)
    B = lorentz_boost(n, 0, rng.uniform(-1.5, 1.5))
    return R1 @ B @ R2


# ---------------------------------------------------------------------------
# point / tangent basics


def test_distance_identity_and_symmetry():
    o = hyp.origin(3)
    assert hyp.dist(o, o) == 0.0
    rng = np.random.default_rng(1)
    x, y = rand_point(3, rng), rand_point(3, rng)
    assert hyp.dist(x, y) == pytest.approx(hyp.dist(y, x), rel=1e-14)


@pytest.mark.parametrize("n", [2, 3])
def test_dist_of_coincident_points(n):
    # exactly 0 only where -<x,x> rounds to <= 1; a rounding error eps above
    # 1 becomes arccosh(1 + eps) ~ sqrt(2 eps), about 3e-8, never NaN
    o = hyp.origin(n)
    assert hyp.dist(o, o) == 0.0
    y0 = np.array([0.7, -0.3, *[0.0] * (n - 2), math.sqrt(1.58)])
    assert -hyp.minkowski_dot(y0, y0) > 1.0
    assert hyp.dist(y0, y0) == pytest.approx(2.98e-8, rel=1e-3)
    rng = np.random.default_rng(2)
    xs = np.stack([rand_point(n, rng, spread=3.0) for _ in range(500)])
    d = hyp.dist(xs, xs)
    assert np.all((d >= 0) & (d < 5e-8 * xs[:, -1]))


def test_exp_dist_consistency():
    o = hyp.origin(2)
    v = np.array([1.5, 0.0, 0.0])
    p = hyp.exp_map(o, v)
    assert hyp.dist(o, p) == pytest.approx(1.5, abs=1e-12)
    assert on_sheet(p)


def minkowski_dot_oracle(x, y):
    # the form as a numpy sum over the spatial axis, which minkowski_dot unrolls
    return np.sum(x[..., :-1] * y[..., :-1], axis=-1) - x[..., -1] * y[..., -1]


@pytest.mark.parametrize(
    "x_shape,y_shape",
    [((4,), (4,)), ((500, 3), (500, 3)), ((500, 4), (500, 4)), ((500, 3, 4), (500, 1, 4)), ((500, 141, 4), (4,))],
)
def test_minkowski_dot_matches_sum_oracle_bit_for_bit(x_shape, y_shape):
    rng = np.random.default_rng(11)

    def draw(shape):
        a = rng.normal(size=shape) * np.exp(rng.normal(scale=4.0, size=shape))
        a[rng.random(shape) < 0.3] = 0.0
        a[rng.random(shape) < 0.3] = -0.0
        return a

    # every spatial product -0 and the last one +0: the oracle gives +0, a sum
    # that did not start from +0 would give -0
    ones = np.ones(y_shape)
    ones[..., -1] = -1.0
    for x, y in [(draw(x_shape), draw(y_shape)), (np.full(x_shape, -0.0), ones)]:
        got = np.asarray(hyp.minkowski_dot(x, y))
        want = np.asarray(minkowski_dot_oracle(x, y))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # signed zeros included


def test_exp_zero_vector():
    o = hyp.origin(3)
    assert np.allclose(hyp.exp_map(o, np.zeros(4)), o, atol=1e-15)


def test_log_inverts_exp():
    rng = np.random.default_rng(2)
    for n in (2, 3):
        x = rand_point(n, rng)
        v = rand_tangent(x, rng)
        y = hyp.exp_map(x, v)
        back = hyp.log_map(x, y)
        assert np.allclose(back, v, atol=1e-9)


def test_dist_boost_invariant():
    rng = np.random.default_rng(3)
    for n in (2, 3):
        x, y = rand_point(n, rng), rand_point(n, rng)
        d0 = hyp.dist(x, y)
        for _ in range(5):
            L = random_isometry(n, rng)
            assert abs(hyp.dist(x @ L.T, y @ L.T) - d0) < 1e-8


def test_triangle_inequality():
    rng = np.random.default_rng(4)
    for _ in range(50):
        x, y, z = (rand_point(3, rng) for _ in range(3))
        assert hyp.dist(x, z) <= hyp.dist(x, y) + hyp.dist(y, z) + 1e-10


def test_sheet_constraint_after_operations():
    rng = np.random.default_rng(5)
    x = rand_point(3, rng, spread=3.0)
    v = rand_tangent(x, rng) * 4.0
    y = hyp.exp_map(x, v)
    assert abs(hyp.minkowski_dot(y, y) + 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# parallel transport


def test_transport_preserves_norm_and_angle():
    rng = np.random.default_rng(6)
    for n in (2, 3):
        x, y = rand_point(n, rng), rand_point(n, rng)
        u, v = rand_tangent(x, rng), rand_tangent(x, rng)
        tu = hyp.parallel_transport(u, x, y)
        tv = hyp.parallel_transport(v, x, y)
        assert is_tangent(y, tu, tol=1e-9)
        assert hyp.minkowski_dot(tu, tu) == pytest.approx(hyp.minkowski_dot(u, u), abs=1e-9)
        assert hyp.minkowski_dot(tu, tv) == pytest.approx(hyp.minkowski_dot(u, v), abs=1e-9)


def test_transport_zero_length_is_identity():
    rng = np.random.default_rng(7)
    x = rand_point(3, rng)
    v = rand_tangent(x, rng)
    assert np.allclose(hyp.parallel_transport(v, x, x), v, atol=1e-14)


def test_transport_two_leg_composition_feels_curvature():
    # composing transports x -> y -> z differs from the direct transport
    # x -> z (norm is still preserved to 1e-9)
    rng = np.random.default_rng(8)
    x, y, z = (rand_point(2, rng) for _ in range(3))
    v = rand_tangent(x, rng)
    via = hyp.parallel_transport(hyp.parallel_transport(v, x, y), y, z)
    direct = hyp.parallel_transport(v, x, z)
    assert hyp.minkowski_dot(via, via) == pytest.approx(hyp.minkowski_dot(v, v), abs=1e-9)
    assert not np.allclose(via, direct, atol=1e-6)


def test_holonomy_equals_gauss_bonnet_angle_defect():
    # transport around a geodesic triangle in H^2 rotates tangent vectors by
    # the angle defect pi - (sum of interior angles) = area
    o = hyp.origin(2)
    a, b = 0.8, 0.6
    A = hyp.exp_map(o, np.array([a, 0.0, 0.0]))
    B = hyp.exp_map(o, np.array([0.0, b, 0.0]))

    def angle_at(p, q, r):
        u, v = hyp.log_map(p, q), hyp.log_map(p, r)
        cosang = hyp.minkowski_dot(u, v) / math.sqrt(
            hyp.minkowski_dot(u, u) * hyp.minkowski_dot(v, v)
        )
        return math.acos(np.clip(cosang, -1, 1))

    defect = math.pi - (angle_at(o, A, B) + angle_at(A, B, o) + angle_at(B, o, A))

    v = hyp.tangent_project(o, np.array([1.0, 0.3, 0.0]))
    w = hyp.parallel_transport(v, o, A)
    w = hyp.parallel_transport(w, A, B)
    w = hyp.parallel_transport(w, B, o)
    cosang = hyp.minkowski_dot(v, w) / hyp.minkowski_dot(v, v)
    rotation = math.acos(np.clip(cosang, -1, 1))
    assert rotation == pytest.approx(defect, rel=1e-9)


def test_origin_transport_is_orthonormal():
    # the bridge's noise map: the canonical basis at the origin, transported
    # to x, is an orthonormal basis of the tangent space at x
    rng = np.random.default_rng(9)
    for n in (2, 3):
        far = np.zeros(n + 1)
        far[0], far[1] = 600.0, 800.0
        far[-1] = math.sqrt(1.0 + 1e6)  # x_n ~ 1e3
        for x in (*(rand_point(n, rng) for _ in range(20)), far):
            F = hyp.parallel_transport(np.eye(n, n + 1), hyp.origin(n), x)
            tol = 16 * np.finfo(float).eps * x[-1] ** 2  # the products' rounding grows with x_n^2
            G = hyp.minkowski_dot(F[:, None, :], F[None, :, :])
            assert np.all(np.abs(G - np.eye(n)) <= tol)
            assert is_tangent(x, F, tol=tol)


# ---------------------------------------------------------------------------
# heat kernel


@pytest.mark.parametrize("n,t", [(3, 0.3), (3, 1.0), (2, 0.5), (2, 1.0)])
def test_kernel_mass_is_one(n, t):
    params = HeatKernelParams(n=n)
    assert abs(hyp.kernel_mass(t, params) - 1.0) < 1e-6


def test_chapman_kolmogorov():
    params = HeatKernelParams(n=3)
    lhs = hyp.chapman_kolmogorov_lhs(0.3, 1.0, 0.7, params)
    rhs = hyp.heat_kernel(1.0, 0.7, params)
    assert abs(lhs - rhs) < 1e-5


def test_half_vs_full_laplacian_time_scaling():
    # the kernel of (1/2) Lap at time t is the kernel of Lap at time t/2
    half = HeatKernelParams(n=3)
    assert hyp.heat_kernel(1.0, 0.9, half) == pytest.approx(float(hyp._p3_lap(0.5, 0.9)), rel=1e-14)


@pytest.mark.parametrize("n", [2, 3])
def test_grad_log_matches_finite_difference(n):
    params = HeatKernelParams(n=n)
    for t in (0.25, 1.0, 2.0):
        for r in (0.2, 0.7, 1.5, 3.0):
            h = 1e-4 * max(1.0, r)
            fd = (
                math.log(float(hyp.heat_kernel(t, r + h, params)))
                - math.log(float(hyp.heat_kernel(t, r - h, params)))
            ) / (2 * h)
            an = float(hyp.dlog_heat_kernel_dr(t, r, params))
            assert abs(an - fd) / abs(fd) < 1e-5


def h2_integrals_oracle(tau, r):
    # the n = 2 integrals (J0, J1) of hyperbolic._h2_integrals for one radius,
    # by adaptive quad on the same two u-pieces with the same integrands
    ch_r = math.cosh(r)
    rr4 = r * r / (4.0 * tau)

    def u_of_s(s):
        return math.sqrt(max(math.cosh(s) - ch_r, 0.0))

    u_mid = u_of_s(math.sqrt(r * r + 30.0 * tau) + 0.5)
    u_max = u_of_s(math.sqrt(r * r + 200.0 * tau) + 3.0)

    def f0(u):
        sv = np.arccosh(ch_r + u * u)
        if sv <= 0:
            return 2.0
        return 2.0 * sv * math.exp(rr4 - sv * sv / (4.0 * tau)) / math.sinh(sv)

    sh_r = math.sinh(r)

    def f1(u):
        sv = np.arccosh(ch_r + u * u)
        if sv <= 0 or sh_r == 0.0:
            return 0.0
        h = (
            2.0
            * math.exp(rr4 - sv * sv / (4.0 * tau))
            * (1.0 - sv / math.tanh(sv) - sv * sv / (2.0 * tau))
            / math.sinh(sv)
        )
        return h * sh_r / math.sinh(sv)

    kw = dict(epsabs=1e-14, epsrel=5e-13, limit=200)

    def integrate(f):
        return quad(f, 0.0, u_mid, **kw)[0] + quad(f, u_mid, u_max, **kw)[0]

    with warnings.catch_warnings():
        # requested accuracy sits at machine precision on purpose
        warnings.simplefilter("ignore", IntegrationWarning)
        return integrate(f0), integrate(f1)


def test_h2_integrals_match_quad_oracle():
    # g = d/dr log p + r/t' is what the n = 2 drift table stores; for t' >= 1e-3
    # adaptive quad is accurate, so the fixed-node array path must agree with it
    params = HeatKernelParams(n=2)
    r = np.array([0.0, 1e-3, 0.3, 1.0, 2.5, 5.0, 9.368421052631579])
    for tp in (1e-3, 0.01, 0.1, 0.5, 1.0, 2.0):
        tau = tp * 0.5
        g = hyp.dlog_heat_kernel_dr(tp, r, params) + r / tp
        J0, _ = hyp._h2_integrals(tau, r)
        for i, ri in enumerate(r):
            J0_q, J1_q = h2_integrals_oracle(tau, float(ri))
            assert abs(g[i] - (J1_q / J0_q + ri / tp)) < 1e-8, (tp, ri)
            assert abs(J0[i] / J0_q - 1.0) < 1e-10, (tp, ri)


@pytest.mark.parametrize(
    "tp,r,g_ref,tol",
    [
        # t' = 2^-20, half the smallest t' (T - nodes[-2] = 2^-19) at which the
        # bridge tabulates its drift on a 64-step grid on [0, 1]
        (9.5367431640625e-07, 2.0, -0.26865735472045525513, 1e-4),
        (9.5367431640625e-07, 9.368421052631579, -0.44662921970428334895, 1e-4),
        (1e-3, 5.0, -0.40004239713779181529, 1e-10),
        (1.0, 1e-3, -0.00016196717321632983375, 1e-10),
        (1.0, 9.368421052631579, -0.44552734090488367239, 1e-10),
    ],
    ids=["tmin-r2", "tmin-r9.37", "t1e-3-r5", "t1-r1e-3", "t1-r9.37"],
)
def test_h2_dlog_matches_reference(tp, r, g_ref, tol):
    # g = d/dr log p_{t'} + r/t' for the n = 2 half-Laplacian kernel; g_ref is
    # the same pair of u-integrals by mpmath quadrature at 40 digits (checked
    # against mpmath's numerical d/dr of log p where t' >= 1e-3)
    g = float(hyp.dlog_heat_kernel_dr(tp, r, HeatKernelParams(n=2))) + r / tp
    assert abs(g - g_ref) < tol


def _dlogp3_dr_lap_reference(tau, r):
    # the expression before the series was gated on some r being small
    r = np.asarray(r, dtype=float)
    small = r < 1e-6
    core = np.where(
        small,
        -r / 3.0 - r**3 / 45.0,
        1.0 / np.where(small, 1.0, r) - 1.0 / np.tanh(np.where(small, 1.0, r)),
    )
    return core - r / (2.0 * tau)


def test_dlogp3_matches_its_ungated_form_bit_for_bit():
    rng = np.random.default_rng(29)
    straddle = np.array([0.0, 1e-9, 5e-7, np.nextafter(1e-6, 0.0), 1e-6, np.nextafter(1e-6, 1.0), 2e-6])
    mixed = np.concatenate([straddle, 10.0 ** rng.uniform(-9, 1.2, 4998)])
    rng.shuffle(mixed)
    for tau in (1e-7, 0.01, 0.5, 3.0):
        for r in (mixed, mixed[mixed < 1e-6], mixed[mixed >= 1e-6], mixed.reshape(-1, 7), 0.0, 1e-7, 2.5):
            got, want = hyp._dlogp3_dr_lap(tau, r), _dlogp3_dr_lap_reference(tau, r)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_grad_log_vector_points_toward_center():
    params = HeatKernelParams(n=3)
    o = hyp.origin(3)
    x = hyp.exp_map(o, np.array([1.2, 0.0, 0.0, 0.0]))
    g = hyp.grad_log_heat_kernel(0.5, x, o, params)
    assert is_tangent(x, g, tol=1e-9)
    toward = hyp.log_map(x, o)
    cos = hyp.minkowski_dot(g, toward) / math.sqrt(
        hyp.minkowski_dot(g, g) * hyp.minkowski_dot(toward, toward)
    )
    assert cos == pytest.approx(1.0, abs=1e-12)


def test_grad_log_vanishes_at_center():
    params = HeatKernelParams(n=3)
    o = hyp.origin(3)
    g = hyp.grad_log_heat_kernel(0.5, o, o, params)
    assert np.allclose(g, 0.0, atol=1e-12)


def test_ruse_invariant_small_r_limit():
    for n in (2, 3):
        assert hyp.ruse_invariant(1e-9, n) == pytest.approx(1.0, abs=1e-12)
        assert hyp.ruse_invariant(0.0, n) == 1.0


def test_short_time_expansion_matches_ruse_factor():
    # p_t ~ (2 pi t)^{-n/2} exp(-r^2/2t) theta^{-1/2} for the half-Laplacian
    # kernel; for n = 3 the ratio to the Gaussian is exactly the Ruse factor
    # times e^{-t/2}
    params = HeatKernelParams(n=3)
    t, r = 0.01, 0.5
    gauss = (2 * math.pi * t) ** -1.5 * math.exp(-r * r / (2 * t))
    ratio = float(hyp.heat_kernel(t, r, params)) / gauss
    assert ratio == pytest.approx(hyp.ruse_invariant(r, 3) ** -0.5 * math.exp(-t / 2), rel=1e-12)


def test_kernel_rejects_nonpositive_time():
    with pytest.raises(hyp.GeometryError):
        hyp.heat_kernel(0.0, 1.0, HeatKernelParams(n=3))
    with pytest.raises(hyp.GeometryError):
        hyp.heat_kernel(-1.0, 1.0, HeatKernelParams(n=2))


def test_bridge_radial_cdf_is_distribution():
    params = HeatKernelParams(n=3)
    grid = np.linspace(0.0, 8.0, 60)
    cdf = hyp.bridge_radial_cdf(0.5, 1.0, grid, params)
    assert cdf[0] == 0.0
    assert np.all(np.diff(cdf) >= -1e-14)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(
    r1=st.floats(0.01, 2.5),
    r2=st.floats(0.01, 2.5),
    phi=st.floats(0.0, 2 * math.pi),
)
def test_transport_norm_property(r1, r2, phi):
    o = hyp.origin(2)
    x = hyp.exp_map(o, np.array([r1, 0.0, 0.0]))
    y = hyp.exp_map(o, np.array([r2 * math.cos(phi), r2 * math.sin(phi), 0.0]))
    v = hyp.tangent_project(x, np.array([0.3, -0.9, 0.1]))
    tv = hyp.parallel_transport(v, x, y)
    assert hyp.minkowski_dot(tv, tv) == pytest.approx(hyp.minkowski_dot(v, v), abs=1e-9)
