import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pathineq import profiles, transfer
from pathineq.profiles import BetaProfile, DomainError, TailBound, cutoff_factor, cutoff_levels
from pathineq.transfer import (
    DyadicParams,
    TransferError,
    TransferResult,
    WeightedLSICertificate,
    c1,
    c2,
    c3,
    entropy_inequality_check,
    optimize_dyadic_params,
    poincare_objective,
    replay_profile,
    tail_to_weak_lsi,
    weak_lsi_to_poincare,
    weak_lsi_to_weak_poincare,
    weighted_lsi_to_weak_lsi,
)

INV_E = 1.0 / math.e


def b_oracle(r, a, C, M):
    # independent re-implementation of the level threshold
    return (4.0 * a * a * r * r + INV_E + 1.0) * M * math.exp(-0.5 * C * (r - 1.0) ** 2)


PAPER_PARAMS = DyadicParams.from_pow2(0.5, 4.5, 0.125)  # delta=sqrt2, delta0=2^{9/2}


# Scalar reference scans, one s at a time: the array evaluation of composed
# profiles must match them bit for bit.


def weighted_scan_level(params, s):
    a, C, M, n = params["a"], params["C"], params["M"], int(params["n_min"])
    while True:
        if (4.0 * a * a * n * n + (INV_E + 1.0)) * M * math.exp(-0.5 * C * (n - 1.0) ** 2) <= s:
            return n
        n += 1


def weighted_scan_oracle(params, s):
    n = weighted_scan_level(params, s)
    return 2.0 * n * n


def weighted_smooth_oracle(params, s):
    # the scan's level n refined by geometric bisection on [max(n - 1, n_min), n]
    # until no midpoint lies strictly inside; the upper end has b(r) <= s
    a, C, M = params["a"], params["C"], params["M"]

    def b(r):
        return (4.0 * a * a * r * r + (INV_E + 1.0)) * M * math.exp(-0.5 * C * ((r - 1.0) * (r - 1.0)))

    hi = float(weighted_scan_level(params, s))
    lo = max(hi - 1.0, float(params["n_min"]))
    while lo < math.sqrt(lo * hi) < hi:
        mid = math.sqrt(lo * hi)
        if b(mid) <= s:
            hi = mid
        else:
            lo = mid
    return 2.0 * hi * hi


def tail_scan_oracle(params, s):
    a = params["a"]
    tail = TailBound(levels=tuple(params["levels"]), values=tuple(params["m"]))
    for n in range(1, int(params["n_cap"]) + 1):
        if (4.0 * a * a * n * n + (INV_E + 1.0)) * math.sqrt(tail(n - 1.0)) <= s:
            return 2.0 * n * n
    raise DomainError(f"no qualifying level at s={s}")


BETA_ORACLES = {
    "weighted_lsi_scan": weighted_scan_oracle,
    "weighted_lsi_smooth": weighted_smooth_oracle,
    "tail_scan": tail_scan_oracle,
}


def weak_poincare_oracle(params, s):
    beta = params["beta"]
    L = math.log(1.0 / s)
    inner = BETA_ORACLES[beta["form"]](beta["params"], params["C2_prime"] * s * L)
    return inner / (params["C1_prime"] * L)


def assert_matches_oracle(beta):
    """beta and the weak-Poincare alpha over it, on 1000-point grids, against
    the scalar scans: tabulate and every single-point call, bit for bit."""
    alpha = weak_lsi_to_weak_poincare(beta).profile
    cases = [
        (beta, lambda s: BETA_ORACLES[beta.form](beta.params, s), beta.eval_floor, min(beta.r0, 10.0)),
        (alpha, lambda s: weak_poincare_oracle(alpha.params, s), alpha.eval_floor, alpha.r0),
    ]
    for prof, oracle, lo, hi in cases:
        grid = np.geomspace(max(lo * 1.0001, 1e-300), hi * 0.999, 1000)
        want = np.array([oracle(s) for s in grid])
        assert np.array_equal(prof.tabulate(grid), want)
        assert [prof(s) for s in grid] == want.tolist()


# ---------------------------------------------------------------------------
# weighted LSI -> weak LSI


def test_weighted_scan_threshold_cases():
    cert = WeightedLSICertificate(a=1.0, C_exp=2.0, M=1.0)
    res = weighted_lsi_to_weak_lsi(cert)
    b3 = b_oracle(3, 1.0, 2.0, 1.0)
    assert res.profile(b3) == 18.0  # n(s) = 3 at the threshold itself
    assert res.profile(b3 * (1 - 1e-9)) == 32.0  # strict threshold pushes to n = 4
    assert res.audit_value("n_min") == 2.0
    assert res.profile.r0 == b_oracle(2, 1.0, 2.0, 1.0)


def test_weighted_scan_against_bruteforce():
    # oracle: evaluate b(n) for n <= 100 and pick the smallest qualifying n
    cert = WeightedLSICertificate(a=1.0, C_exp=1.0, M=2.0)
    res = weighted_lsi_to_weak_lsi(cert)
    s = 1e-6
    n_min = int(res.audit_value("n_min"))
    qualifying = [n for n in range(n_min, 101) if b_oracle(n, 1.0, 1.0, 2.0) <= s]
    assert qualifying, "oracle found no level"
    assert res.profile(s) == 2.0 * qualifying[0] ** 2
    assert_matches_oracle(res.profile)
    assert_matches_oracle(weighted_lsi_to_weak_lsi(cert, smooth=True).profile)


def test_weighted_rejects_bad_certs():
    with pytest.raises(TransferError):
        WeightedLSICertificate(a=1.0, C_exp=1.0, M=0.5)  # M < 1
    with pytest.raises(TransferError):
        WeightedLSICertificate(a=0.0, C_exp=1.0)
    with pytest.raises(TransferError):
        WeightedLSICertificate(a=1.0, C_exp=math.inf)


def test_weighted_smooth_variant_brackets_scan():
    cert = WeightedLSICertificate(a=0.3, C_exp=0.7, M=1.0)
    scan = weighted_lsi_to_weak_lsi(cert).profile
    smooth = weighted_lsi_to_weak_lsi(cert, smooth=True).profile
    n_min = scan.params["n_min"]
    for s in np.geomspace(1e-12, scan.r0 * 0.9, 25):
        # the root lies in [max(n - 1, n_min), n] for the scan's level n
        n = math.sqrt(scan(s) / 2.0)
        assert 2.0 * max(n - 1.0, n_min) ** 2 <= smooth(s) <= scan(s)


@pytest.mark.parametrize("a,C,M", [(0.3, 0.7, 1.0), (0.05, 0.05, 1.0), (1.7, 1.9, 1.8), (0.4, 0.9, 1.2)])
def test_weighted_smooth_rate_is_never_below_the_certificate(a, C, M):
    # beta(s) = 2 r^2 with b(r) <= s at every tabulated point: the rate a level
    # r certifies reaches down to s
    res = weighted_lsi_to_weak_lsi(WeightedLSICertificate(a=a, C_exp=C, M=M), smooth=True)
    grid = np.geomspace(1e-200, 0.99 * res.profile.r0, 1000)
    r = np.sqrt(res.profile.tabulate(grid) / 2.0)
    assert np.all(cutoff_levels(res.profile.params, r) <= grid)


def linear_scan_start(a, C):
    # the scan start as a linear search from level 1: the first n at which
    # T(max(n, r*)) - C (n - 1) < 0, T(r) = 8 a^2 r / (4 a^2 r^2 + 1/e + 1)
    r_star = math.sqrt(INV_E + 1.0) / (2.0 * a)

    def T(r):
        return 8.0 * a * a * r / (4.0 * a * a * r * r + (INV_E + 1.0))

    n = 1
    while T(max(n, r_star)) - C * (n - 1.0) >= 0:
        n += 1
    return n


def test_scan_start_bisection_matches_linear_search():
    # certify's certificates take a and C_exp in [0.05, 2]
    for a in np.geomspace(0.01, 20.0, 15):
        for C in np.geomspace(1e-8, 20.0, 19):
            cert = WeightedLSICertificate(a=float(a), C_exp=float(C))
            assert transfer._scan_start(cert) == linear_scan_start(float(a), float(C)), (a, C)


def test_scan_start_past_the_last_level_is_a_transfer_error():
    # n_min is about sqrt(2/C_exp): 8.2e6 levels at 3e-14, 1.4e8 at 1e-16
    n = transfer._scan_start(WeightedLSICertificate(a=1.0, C_exp=3e-14))
    assert 8e6 < n <= profiles.LAST_WEIGHTED_LEVEL
    for C in (1e-16, 1e-320):
        with pytest.raises(TransferError, match=f"C_exp = {C} is too small"):
            weighted_lsi_to_weak_lsi(WeightedLSICertificate(a=1.0, C_exp=C))


@pytest.mark.parametrize("a", [1e154, 1e200])
def test_huge_gradient_bound_is_a_transfer_error(a):
    # 4 a^2 r^2 + 1/e + 1 overflows at the scan start r* from a = 1e154 on, and
    # so does the first level b(n_min); the transfer used to return n_min 1, r0
    # inf and beta = 3200 at every s
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning on the way
        with pytest.raises(TransferError, match=re.escape(f"gradient bound a = {a} is too large")):
            weighted_lsi_to_weak_lsi(WeightedLSICertificate(a=a, C_exp=1.0))
    assert weighted_lsi_to_weak_lsi(WeightedLSICertificate(a=1e153, C_exp=1.0)).profile.r0 < math.inf


@pytest.mark.parametrize("a", [1e152, 1e160])
def test_huge_gradient_bound_of_a_tail_is_a_transfer_error(a):
    # 4 a^2 n^2 + 1/e + 1 overflows by level 1000, the tail scan's last, from
    # a = 1e152 on; the levels were then inf * sqrt(m), NaN where m = 0 (with a
    # RuntimeWarning), and the transfer failed with "no level improves on the first"
    tail = TailBound(levels=(0.0, 1.0, 2.0, 3.0), values=(1.0, 0.1, 0.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TransferError, match=re.escape(f"gradient bound a = {a} is too large")):
            tail_to_weak_lsi(a, tail)
        assert tail_to_weak_lsi(1e150, tail).profile.params["s_min"] == 0.0


def log_b_oracle(r, a, C, M):
    # log b(r) without forming b(r): 4 a^2 r^2 may overflow and exp(-(C/2)(r-1)^2) underflow
    return 2.0 * math.log(2.0 * a * r) + math.log1p((INV_E + 1.0) / (2.0 * a * r) / (2.0 * a * r)) + math.log(M) \
        - 0.5 * C * (r - 1.0) ** 2


@pytest.mark.parametrize(
    "a, C, want",
    [(1e100, 1.0, (4050.0, 5000.0)), (1e150, 1e-5, (468_853_442.0, 561_058_002.0)), (1e153, 1.0, None)],
    ids=["a1e100", "a1e150", "a1e153"],
)
def test_levels_past_the_float_range_keep_the_certificate(a, C, want):
    # the levels used to be formed as a product, 0 (or inf * 0 = NaN) once the
    # exponential underflowed: beta(1e-200) read 3200 for a = 1e100.  At
    # a = 1e153 the factor overflows from the audited levels on, which were
    # rejected as inf though b(n) is finite there
    s = np.array([1e-200, 1e-250, 1e-300])
    cert = WeightedLSICertificate(a=a, C_exp=C)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = [weighted_lsi_to_weak_lsi(cert, smooth=sm) for sm in (False, True)]
        got_scan, got_smooth = (res.profile.tabulate(s) for res in results)
    n_min = results[0].profile.params["n_min"]
    for res in results:
        assert not np.isnan(res.profile._cache["min"]).any()
        for n in range(n_min, n_min + 16):
            assert math.log(res.audit_value(f"b({n})")) == pytest.approx(log_b_oracle(n, a, C, 1.0), rel=1e-12)
    for si, beta_scan, beta_smooth in zip(s, got_scan, got_smooth):
        n = n_min  # b decreases from n_min on: the first level at or below s
        while log_b_oracle(n, a, C, 1.0) > math.log(si):
            n += 1
        assert beta_scan == 2.0 * n * n
        lo, hi = max(n - 1.0, n_min), float(n)  # the root of log b(r) = log s
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (lo, mid) if log_b_oracle(mid, a, C, 1.0) <= math.log(si) else (mid, hi)
        assert beta_smooth == pytest.approx(2.0 * hi * hi, rel=1e-12)
    if want is not None:
        assert (got_scan[0], got_scan[2]) == want


def test_weighted_scan_grows_by_doubling_blocks_up_to_its_last_level(monkeypatch):
    cert = WeightedLSICertificate(a=0.05, C_exp=0.05, M=1.0)
    params = weighted_lsi_to_weak_lsi(cert).profile.params
    n_min = params["n_min"]
    b = cutoff_levels(params, np.arange(n_min, n_min + 41.0))  # decreasing from n_min on
    prof = weighted_lsi_to_weak_lsi(cert).profile
    assert prof(b[10]) == 2.0 * (n_min + 10) ** 2
    assert prof._cache["min"].size == 16
    assert prof(b[40]) == 2.0 * (n_min + 40) ** 2
    assert prof._cache["min"].size == 64  # blocks of 16, 16 and 32 levels
    # with the scan stopped at n_min + 40, an s below b(n_min + 40) is below every level
    monkeypatch.setattr(profiles, "LAST_WEIGHTED_LEVEL", n_min + 40)
    for smooth in (False, True):
        prof = weighted_lsi_to_weak_lsi(cert, smooth=smooth).profile
        assert prof(b[40]) == 2.0 * (n_min + 40) ** 2
        with pytest.raises(DomainError, match="no qualifying level below cap 41"):
            prof.tabulate([b[10], b[40] * (1 - 1e-9)])
        assert prof._cache["min"].size == 41


def test_tail_scan_grows_only_as_far_as_asked():
    tail = TailBound.from_function(lambda s: math.exp(-(s * s)), np.arange(0.0, 11.0))  # m(10) > 0
    prof = tail_to_weak_lsi(1.0, tail).profile
    assert prof(10.0) == 2.0
    assert prof._cache["min"].size == 16
    with pytest.raises(DomainError, match="no qualifying level below cap 1000"):
        prof(prof.eval_floor * 0.5)
    assert prof._cache["min"].size == 1000


def test_weighted_asymptotic_log_rate():
    # beta(s)/|log s| -> 4/C; small (a, C) keeps the finite-s bias of the
    # +1 shift, the polynomial prefactor and integer rounding inside 20%
    cert = WeightedLSICertificate(a=0.05, C_exp=0.05, M=1.0)
    prof = weighted_lsi_to_weak_lsi(cert).profile
    target = 4.0 / cert.C_exp
    for s in np.geomspace(1e-30, 1e-20, 160):
        ratio = prof(s) / abs(math.log(s))
        assert 0.8 * target <= ratio <= 1.2 * target


# ---------------------------------------------------------------------------
# tail -> weak LSI


def test_tail_first_level_check():
    # survival-scale Gaussian-type tail; the cut-off estimate consumes
    # sqrt(m(n-1)), so level 1 qualifies once s reaches (4 a^2 + 1/e + 1) sqrt(m(0))
    tail = TailBound.from_function(lambda s: math.exp(-(s * s)), np.arange(0.0, 41.0))
    res = tail_to_weak_lsi(1.0, tail)
    s1 = (4.0 + INV_E + 1.0) * 1.0
    assert res.profile(s1 * (1 + 1e-12)) == 2.0
    assert res.profile(s1 * (1 - 1e-12)) > 2.0


def test_tail_scan_against_bruteforce():
    tail = TailBound.from_function(lambda s: math.exp(-(s * s)), np.arange(0.0, 41.0))
    res = tail_to_weak_lsi(1.0, tail)
    for s in (10.0, 1.0, 1e-3, 1e-40):
        ns = [
            n
            for n in range(1, 1001)
            if (4 * n * n + INV_E + 1) * math.sqrt(tail(n - 1.0)) <= s
        ]
        assert res.profile(s) == 2.0 * ns[0] ** 2
    assert_matches_oracle(res.profile)
    u = 0.4 * np.abs(np.random.default_rng(11).normal(size=20_000))
    assert_matches_oracle(tail_to_weak_lsi(0.5, TailBound.from_samples(u)).profile)


def test_tail_no_decay_is_an_error():
    flat = TailBound(levels=tuple(np.arange(0.0, 11.0)), values=(1.0,) * 11)
    with pytest.raises(TransferError, match="no weak-LSI derivable"):
        tail_to_weak_lsi(1.0, flat)


def test_tail_empirical_scan_matches_direct_scan():
    # empirical upper-confidence tail from heavy-ish samples; oracle is a
    # direct scan of the same m over n <= 1000
    rng = np.random.default_rng(42)
    u = np.abs(rng.normal(size=10_000)) * 0.8
    tail = TailBound.from_samples(u, confidence=0.99)
    res = tail_to_weak_lsi(0.5, tail)
    s_min = res.audit_value("s_min")
    for s in (s_min * 1.01, s_min * 3, 1.0):
        ns = [
            n
            for n in range(1, 1001)
            if (4 * 0.25 * n * n + INV_E + 1) * math.sqrt(tail(n - 1.0)) <= s
        ]
        assert res.profile(s) == 2.0 * ns[0] ** 2
    with pytest.raises(DomainError, match="no weak-LSI derivable"):
        res.profile(s_min * 0.5)


def test_tail_monotone_coupling():
    # m1 <= m2 pointwise implies beta1 <= beta2 pointwise
    levels = np.arange(0.0, 31.0)
    t1 = TailBound.from_function(lambda s: math.exp(-(s * s)), levels)
    t2 = TailBound.from_function(lambda s: math.exp(-(s * s) / 2), levels)
    r1 = tail_to_weak_lsi(1.0, t1).profile
    r2 = tail_to_weak_lsi(1.0, t2).profile
    for s in np.geomspace(max(r1.eval_floor, r2.eval_floor) * 1.01, 10.0, 1000):
        assert r1(s) <= r2(s)


# ---------------------------------------------------------------------------
# dyadic constants


def test_c3_paper_point():
    # direct arithmetic oracle with A = 9
    val = c3(PAPER_PARAMS)
    oracle = (2.0 - 1.0) / (4.0 * math.log(math.sqrt(2.0))) / 64.0 + 0.125 / math.log(2.0)
    assert val == pytest.approx(oracle, rel=1e-12)
    assert val < 1


def test_c2_power_of_two_arithmetic():
    # delta0^2 delta^2 / eps = 2^9 * 2 * 8 = 2^13
    assert c2(PAPER_PARAMS, 1.0) == pytest.approx(13.0, rel=1e-12)


def test_c1_c2_homogeneous_in_C():
    p = DyadicParams(delta0=7.0, delta=1.7, epsilon=0.2)
    for C in (0.3, 1.0, 5.5):
        assert c1(p, 2 * C) == 2 * c1(p, C)
        assert c2(p, 2 * C) == 2 * c2(p, C)


def test_c3_requires_A_above_one():
    with pytest.raises(TransferError):
        DyadicParams(delta0=1.2, delta=1.5, epsilon=0.1)  # A < 1


# ---------------------------------------------------------------------------
# weak LSI -> Poincare


def test_poincare_paper_constant():
    beta = BetaProfile(family="c_log_inv_s", C=1.0, r0=0.5)
    res = weak_lsi_to_poincare(beta, PAPER_PARAMS)
    alpha = res.profile.value
    assert abs(alpha - 40.82) <= 0.10 * 40.82
    assert res.audit_value("A") == 9.0
    assert res.audit_value("C2") == pytest.approx(13.0, rel=1e-12)
    # combined constant equals per-half: the two half gradients have
    # disjoint supports, so no extra factor is picked up
    assert res.audit_value("alpha_per_half") == res.audit_value("alpha_combined")
    assert res.audit_value("r_n_sup_below_r0") == 1.0


def test_poincare_linear_in_C():
    p = DyadicParams(delta0=11.0, delta=1.5, epsilon=0.1)
    for lam in (2.0, 7.0, 0.25):
        b1 = BetaProfile(family="c_log_inv_s", C=1.0, r0=0.5)
        b2 = BetaProfile(family="c_log_inv_s", C=lam, r0=0.5)
        a1 = weak_lsi_to_poincare(b1, p).profile.value
        a2 = weak_lsi_to_poincare(b2, p).profile.value
        assert a2 == pytest.approx(lam * a1, rel=1e-12)


def test_poincare_infeasible_params_name_constraint():
    beta = BetaProfile(family="c_log_inv_s", C=1.0, r0=1e-6)
    with pytest.raises(TransferError, match="r0"):
        weak_lsi_to_poincare(beta, PAPER_PARAMS)
    bad = DyadicParams(delta0=4.0, delta=2.0, epsilon=0.9)  # C3 > 1
    with pytest.raises(TransferError, match="C3"):
        weak_lsi_to_poincare(BetaProfile(family="c_log_inv_s", C=1.0, r0=0.5), bad)


def test_poincare_rejects_wrong_family():
    scan = weighted_lsi_to_weak_lsi(WeightedLSICertificate(a=0.5, C_exp=1.0)).profile
    with pytest.raises(TransferError, match="log\\(1/s\\)"):
        weak_lsi_to_poincare(scan, PAPER_PARAMS)


def test_poincare_auto_params_dominate_paper_point():
    beta = BetaProfile(family="c_log_inv_s", C=1.0, r0=0.5)
    res = weak_lsi_to_poincare(beta, params=None)
    assert res.profile.value <= 40.82 * (1 + 1e-6)


def test_transfer_results_are_pure():
    beta = BetaProfile(family="c_log_inv_s", C=1.0, r0=0.5)
    r1 = weak_lsi_to_poincare(beta, PAPER_PARAMS)
    r2 = weak_lsi_to_poincare(beta, PAPER_PARAMS)
    assert json.dumps(r1.to_dict()) == json.dumps(r2.to_dict())
    c = WeightedLSICertificate(a=0.7, C_exp=1.3, M=1.1)
    assert json.dumps(weighted_lsi_to_weak_lsi(c).to_dict()) == json.dumps(
        weighted_lsi_to_weak_lsi(c).to_dict()
    )


def test_replay_reproduces_bit_identically():
    beta = BetaProfile(family="c_log_inv_s", C=1.0, r0=0.5)
    res = weak_lsi_to_poincare(beta, PAPER_PARAMS)
    assert replay_profile(res).value == res.profile.value

    res2 = weighted_lsi_to_weak_lsi(WeightedLSICertificate(a=0.4, C_exp=0.9, M=1.2))
    rp = replay_profile(res2)
    for s in np.geomspace(1e-20, res2.profile.r0 * 0.99, 16):
        assert rp(s) == res2.profile(s)


def test_transfer_result_roundtrip():
    res = weak_lsi_to_poincare(BetaProfile(family="c_log_inv_s", C=1.0, r0=0.5), PAPER_PARAMS)
    back = TransferResult.from_dict(json.loads(json.dumps(res.to_dict())))
    assert back.to_dict() == res.to_dict()
    assert back.profile.value == res.profile.value


def test_replay_of_every_kind_from_json_is_bit_identical():
    beta = BetaProfile(family="c_log_inv_s", C=1.0, r0=0.5)
    cert = WeightedLSICertificate(a=0.4, C_exp=0.9, M=1.2)
    u = np.abs(np.random.default_rng(11).normal(size=50_000)) * 0.5
    tail_wl = tail_to_weak_lsi(0.5, TailBound.from_samples(u))
    results = {
        "weighted_lsi_scan": weighted_lsi_to_weak_lsi(cert),
        "weighted_lsi_smooth": weighted_lsi_to_weak_lsi(cert, smooth=True),
        "tail_scan": tail_wl,
        "poincare": weak_lsi_to_poincare(beta, PAPER_PARAMS),
        "poincare_optimized": weak_lsi_to_poincare(beta),
        "weak_poincare": weak_lsi_to_weak_poincare(tail_wl.profile),
    }
    for name, res in results.items():
        back = TransferResult.from_dict(json.loads(json.dumps(res.to_dict())))
        assert replay_profile(back).to_dict() == res.profile.to_dict(), name


def test_poincare_replay_recomputes_from_the_audit():
    # replay reruns the transfer on the audited inputs, so a changed input shows
    res = weak_lsi_to_poincare(BetaProfile(family="c_log_inv_s", C=1.0, r0=0.5), PAPER_PARAMS)
    d = res.to_dict()
    d["audit"] = [[k, v * 1.01 if k == "epsilon" else v] for k, v in d["audit"]]
    assert replay_profile(TransferResult.from_dict(d)).to_dict() != res.profile.to_dict()


def test_tail_scan_and_weak_poincare_replays_recompute_their_parameters():
    # a profile parameter that disagrees with the audit no longer replays equal
    levels = [float(s) for s in range(11)]
    tail = TailBound(levels=tuple(levels), values=tuple(math.exp(-s * s) for s in levels))
    tail_wl = tail_to_weak_lsi(0.5, tail)
    for res, key in ((tail_wl, "a"), (weak_lsi_to_weak_poincare(tail_wl.profile), "C1_prime")):
        d = json.loads(json.dumps(res.to_dict()))
        assert replay_profile(TransferResult.from_dict(d)).to_dict() == res.profile.to_dict()
        d["profile"]["params"][key] *= 1.01
        assert replay_profile(TransferResult.from_dict(d)).to_dict() != d["profile"], key


# ---------------------------------------------------------------------------
# optimizer


def test_optimizer_deterministic_and_feasible():
    p1 = optimize_dyadic_params(1.0, 0.5)
    p2 = optimize_dyadic_params(1.0, 0.5)
    assert p1 == p2
    assert c3(p1) < 1
    assert p1.r < 0.5 and p1.r_n(0) < 0.5


def test_optimizer_argmin_invariant_under_C_scaling():
    p1 = optimize_dyadic_params(1.0, 0.5)
    p7 = optimize_dyadic_params(7.0, 0.5)
    assert p1 == p7
    assert poincare_objective(p7, 7.0) == pytest.approx(7 * poincare_objective(p1, 1.0), rel=1e-12)


def test_optimizer_no_feasible_point():
    # r_n(0) = 1/(delta0^2 delta^2 A^2) cannot get below ~1e-17 inside the
    # search box (delta0 <= 2^20), so this r0 admits no feasible point
    with pytest.raises(TransferError):
        optimize_dyadic_params(1.0, 1e-20)


def _reference_optimize(C, r0, budget):
    """The optimizer as one scalar call per search point, making at most
    ``budget`` evaluations: the oracle of the array search (range checks of C
    and r0 left to the real one)."""
    evals = 0

    def try_point(ld, A, le):
        nonlocal evals
        evals += 1
        d = math.exp(ld)
        eps = math.exp(le)
        if not (1.0 < d <= 4.0 and A > math.e and 0 < eps < 1):
            return math.inf
        d0 = d**A
        if not (d < d0 <= 2.0**20):
            return math.inf
        try:
            return poincare_objective(DyadicParams(delta0=d0, delta=d, epsilon=eps, A=A).validate(r0))
        except TransferError:
            return math.inf

    n_side = max(4, int((0.6 * budget) ** (1.0 / 3.0)))
    lds = np.linspace(math.log(1.02), math.log(4.0), n_side)
    As = np.linspace(math.e + 0.01, 40.0, n_side)
    les = np.linspace(math.log(1e-4), math.log(0.9), n_side)

    best = (math.inf, None)
    for ld in lds:
        for A in As:
            for le in les:
                v = try_point(ld, A, le)
                if v < best[0]:
                    best = (v, (ld, A, le))
    if best[1] is None:
        raise TransferError("no feasible dyadic parameters in the search box")

    x = list(best[1])
    fbest = best[0]
    widths = [0.5, 8.0, 1.5]
    while evals + 16 <= budget and max(widths) > 1e-7:
        for i in range(3):
            if evals + 16 > budget:
                break
            lo, hi = x[i] - widths[i], x[i] + widths[i]
            grid = np.linspace(lo, hi, 15)
            vals = []
            for g in grid:
                y = list(x)
                y[i] = g
                vals.append(try_point(*y))
            j = int(np.argmin(vals))
            if vals[j] < fbest:
                fbest = vals[j]
                x[i] = float(grid[j])
            widths[i] *= 0.5

    ld, A, le = x
    return DyadicParams(delta0=math.exp(ld) ** A, delta=math.exp(ld), epsilon=math.exp(le), A=A).validate(r0)


def _optimize_or_error(f, *args):
    try:
        return f(*args)
    except TransferError as exc:
        return str(exc)


@pytest.mark.parametrize("budget", [1000, 3000, 10_000])
def test_coarse_screen_matches_the_scalar_loop(budget, monkeypatch):
    # 1e-20 and 1e-18 admit no point of the box.  numpy's exp and power may
    # differ from libm's in the last bit, so the array search may pick another
    # point than the scalar loop, but never a worse one
    cases = [(C, float(r0)) for C in (1.0, 3.7) for r0 in (1e-20, 1e-18, *np.geomspace(1e-6, 5.0, 40))]
    order = np.random.default_rng(budget).permutation(len(cases))
    monkeypatch.setattr(transfer, "SEARCH_EVALS", budget)  # screens of 8^3, 12^3 and 18^3 points
    infeasible = 0
    for idx in order:
        C, r0 = cases[idx]
        want = _optimize_or_error(_reference_optimize, C, r0, budget)
        got = _optimize_or_error(optimize_dyadic_params, C, r0)
        if isinstance(want, str):
            assert got == want, (C, r0)
            infeasible += 1
            continue
        assert isinstance(got, DyadicParams), (C, r0, got)
        got.validate(r0)
        assert poincare_objective(got, C) <= poincare_objective(want, C) * (1 + 1e-12), (C, r0)
    assert infeasible == 4


def _in_box_point(ld_frac, A_frac, le_frac):
    """A search point (ld, A, le) at fractions of the search box, whose edge
    delta0 = delta^A <= 2^20 bounds A by 20 log 2 / ld."""
    lo, hi = math.log(1.02), math.log(4.0)
    ld = lo + ld_frac * (hi - lo)
    A_hi = min(40.0, 20.0 * math.log(2.0) / ld)
    return ld, math.e + A_frac * (A_hi - math.e), math.log(1e-4) + le_frac * (math.log(0.9) - math.log(1e-4))


def _far_from(x, edge):
    return abs(x - edge) >= 1e-9 * abs(edge)


@settings(max_examples=300, deadline=None)
@given(
    fracs=st.tuples(*[st.floats(1e-8, 1.0 - 1e-8)] * 3),
    r0=st.floats(math.log(1e-6), math.log(5.0)).map(math.exp),
)
def test_search_objective_is_the_objective_at_each_point(fracs, r0):
    ld, A, le = _in_box_point(*fracs)
    d, eps = math.exp(ld), math.exp(le)
    p = DyadicParams(delta0=d**A, delta=d, epsilon=eps, A=A)
    assume(_far_from(d, 4.0) and _far_from(p.delta0, 2.0**20))
    assume(_far_from(c3(p), 1.0) and _far_from(p.r, r0) and _far_from(p.r_n(0), r0))
    got = transfer._search_objective(np.array([ld]), np.array([A]), np.array([le]), r0)
    assert got.shape == (1,)
    try:
        p.validate(r0)
    except TransferError:
        assert got[0] == math.inf
    else:
        assert got[0] == pytest.approx(poincare_objective(p), rel=1e-12, abs=0)


def test_poincare_objective_of_arrays_rejects_any_infeasible_point():
    def paper_points(epsilon):  # PAPER_PARAMS at each epsilon
        k = len(epsilon)
        return transfer._Points(delta0=np.full(k, 2.0**4.5), delta=np.full(k, 2.0**0.5), epsilon=np.array(epsilon),
                                A=np.full(k, 9.0))

    with pytest.raises(TransferError, match="infeasible: C3 = "):
        poincare_objective(paper_points([0.125, 0.9]))  # C3 >= 1 at epsilon 0.9 only
    got = poincare_objective(paper_points([0.125]), 2.0)
    assert got.shape == (1,) and got[0] == pytest.approx(poincare_objective(PAPER_PARAMS, 2.0), rel=1e-15)


# ---------------------------------------------------------------------------
# weak LSI -> weak Poincare


def test_weak_poincare_formula_substitution_oracle():
    # oracle: direct substitution into the displayed formula with the audited constants
    beta = BetaProfile(family="c_log_inv_s", C=2.0, r0=0.5)
    res = weak_lsi_to_weak_poincare(beta)
    c1p = res.audit_value("C1_prime")
    c2p = res.audit_value("C2_prime")
    s = 1e-4
    inner = c2p * s * math.log(1 / s)
    assert res.profile(s) == beta(inner) / (c1p * math.log(1 / s))


def test_weak_poincare_monotone_coupling():
    b1 = BetaProfile(family="c_log_inv_s", C=1.0, r0=0.5)
    b2 = BetaProfile(family="c_log_inv_s", C=2.0, r0=0.5)
    r1 = weak_lsi_to_weak_poincare(b1)
    r2 = weak_lsi_to_weak_poincare(b2)
    lo = 1e-10
    hi = min(r1.profile.r0, r2.profile.r0) * 0.99
    for s in np.geomspace(lo, hi, 1000):
        assert r1.profile(s) <= r2.profile(s)


def test_weak_poincare_domain_errors():
    beta = BetaProfile(family="c_log_inv_s", C=1.0, r0=0.5)
    res = weak_lsi_to_weak_poincare(beta)
    with pytest.raises(DomainError):
        res.profile(res.profile.r0 * 1.01)
    with pytest.raises(DomainError):
        res.profile(0.5)  # above 1/e


def test_weak_poincare_audit_records_construction():
    beta = BetaProfile(family="c_log_inv_s", C=1.0, r0=0.5)
    res = weak_lsi_to_weak_poincare(beta)
    for key in ("delta", "delta0", "r", "sigma", "sup_norm_multiplier", "C1_prime", "C2_prime"):
        assert res.audit_value(key) is not None
    assert res.audit_value("sigma") < 1
    assert remark_level_count(res, 1e-6) >= 1


def remark_level_count(result, s):
    """Truncation depth N(s) = ceil(log(1/s) / (4 log delta)) used at query s."""
    delta = result.audit_value("delta")
    return math.ceil(math.log(1.0 / s) / (4.0 * math.log(delta)))


def test_weak_poincare_default_r_with_floor_just_below_budget():
    # the default r = min(1.02 floor, r_budget) used to land on r_budget itself
    # when beta's floor lay within 2% below it, and was then rejected
    slack = weak_lsi_to_weak_poincare(BetaProfile(family="c_log_inv_s", C=1.0, r0=0.5)).audit_value(
        "slack_levels"
    )
    r_budget = (0.9 - slack) * math.log(2.0) / (1.25 * 1.02) ** 2
    # a tail scan whose floor q(3) = cutoff_factor(a, 3) sqrt(w) is 0.985 r_budget
    w = (0.985 * r_budget / cutoff_factor(0.01, 3)) ** 2
    beta = tail_to_weak_lsi(0.01, TailBound((0, 1, 2), (1, 0.5, w))).profile
    assert beta.eval_floor == pytest.approx(0.985 * r_budget, rel=1e-15)
    res = weak_lsi_to_weak_poincare(beta)
    assert res.audit_value("r") == 0.5 * (beta.eval_floor + r_budget)
    assert beta.eval_floor < res.audit_value("r") < r_budget
    assert res.audit_value("sigma") < 0.9
    _, alpha = res.profile.tabulate_monotone(n_points=32)
    assert np.all(alpha > 0)


def test_weak_poincare_floor_below_1e_146():
    # the bisections for the domain used to underflow sqrt(lo * hi) to 0 and
    # divide by zero once beta's floor fell below about 1e-146
    tail = TailBound.from_function(lambda s: math.exp(-0.8 * s * s), np.arange(0.0, 31.0))
    for a in (0.25, 0.5, 1.0):
        beta = tail_to_weak_lsi(a, tail).profile
        assert 0 < beta.eval_floor < 1e-146
        res = weak_lsi_to_weak_poincare(beta)
        s_lo = res.audit_value("s_lo")
        assert 0 < s_lo < res.profile.r0
        assert res.audit_value("C2_prime") * s_lo * math.log(1.0 / s_lo) > beta.eval_floor
        _, alpha = res.profile.tabulate_monotone(n_points=64)
        assert np.all(np.isfinite(alpha)) and np.all(alpha > 0)


def test_weak_poincare_infeasible_sigma():
    beta = BetaProfile(family="c_log_inv_s", C=1.0, r0=0.5)
    with pytest.raises(TransferError, match="slack|infeasible"):
        weak_lsi_to_weak_poincare(beta, delta=2.0, delta0=4.0)


@pytest.mark.parametrize("cap", [3.0, 1.0 + 1e-12, 0.0, -0.5, math.nan, math.inf])
def test_weak_poincare_rejects_sigma_cap_outside_unit_interval(cap):
    # a cap above 1 let sigma reach past 1 and gave negative C1' and alpha
    beta = BetaProfile(family="c_log_inv_s", C=1.0, r0=0.5)
    with pytest.raises(TransferError, match="sigma_cap"):
        weak_lsi_to_weak_poincare(beta, r=0.45, sigma_cap=cap)


# ---------------------------------------------------------------------------
# entropy inequality self-test


def test_entropy_inequality_two_point_equality():
    # G = 1 on half the points, phi = log 2 there: both sides equal log(2)/2
    n = 1000
    G = np.zeros(n)
    G[: n // 2] = 1.0
    support = G > 0
    assert entropy_inequality_check(G, 2.0, support)
    lhs = (G**2)[support].sum() * math.log(2.0) / n
    m = (G**2).mean()
    ent = np.sum((G[support] ** 2) * (np.log(G[support] ** 2) - math.log(m))) / n
    assert lhs == pytest.approx(ent, rel=1e-12)


def test_entropy_inequality_zero_case():
    G = np.full(64, 3.0)
    assert entropy_inequality_check(G, 1.0, np.ones(64, dtype=bool))


def test_entropy_inequality_random_exhaustive():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = 1000
        G = np.zeros(n)
        mask = rng.random(n) < 0.4
        G[mask] = rng.normal(size=int(mask.sum()))
        c = 1.0 / max(mask.mean(), 1e-9)  # E e^phi = 1 exactly at this level
        assert entropy_inequality_check(G, c, mask)


def test_entropy_inequality_precondition_violations():
    G = np.ones(10)
    with pytest.raises(TransferError, match="e\\^phi"):
        entropy_inequality_check(G, 3.0, np.ones(10, dtype=bool))
    mask = np.zeros(10, dtype=bool)
    mask[:5] = True
    with pytest.raises(TransferError, match="vanish"):
        entropy_inequality_check(G, 2.0, mask)


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=40, deadline=None)
@given(
    delta=st.floats(1.05, 3.5),
    A=st.floats(2.8, 30.0),
    eps=st.floats(1e-4, 0.6),
    C=st.floats(0.1, 10.0),
)
def test_objective_linearity_property(delta, A, eps, C):
    p = DyadicParams(delta0=delta**A, delta=delta, epsilon=eps, A=A)
    if c3(p) >= 1:
        return
    assert poincare_objective(p, C) == pytest.approx(C * poincare_objective(p, 1.0), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(a=st.floats(0.1, 2.0), scale=st.floats(0.3, 3.0))
def test_tail_beta_nonincreasing_property(a, scale):
    levels = np.arange(0.0, 26.0)
    tail = TailBound.from_function(lambda s: math.exp(-((s / scale) ** 2)), levels)
    prof = tail_to_weak_lsi(a, tail).profile
    # eval_floor can be exactly 0 when the tail bound underflows to 0
    grid = np.geomspace(max(prof.eval_floor * 1.001, 1e-60), 50.0, 300)
    vals = prof.tabulate(grid)
    assert np.all(np.diff(vals) <= 0)
    assert np.all(vals > 0)
