import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathineq.profiles import (
    AlphaProfile,
    BetaProfile,
    DomainError,
    ProfileError,
    TailBound,
    profile_from_dict,
)


def test_tail_bound_basic_eval():
    tb = TailBound(levels=(0.0, 1.0, 2.0), values=(1.0, 0.5, 0.1))
    assert tb(-1.0) == 1.0  # below grid: trivial bound
    assert tb(0.0) == 1.0
    assert tb(0.5) == 1.0  # step-left is conservative
    assert tb(1.0) == 0.5
    assert tb(1.7) == 0.5
    assert tb(2.0) == 0.1
    assert tb(100.0) == 0.1  # survival is non-increasing, last value stays valid


def test_tail_bound_rejects_bad_grids():
    with pytest.raises(ProfileError):
        TailBound(levels=(0.0, 0.0), values=(1.0, 0.5))
    with pytest.raises(ProfileError):
        TailBound(levels=(0.0, 1.0), values=(0.5, 0.9))  # increasing
    with pytest.raises(ProfileError):
        TailBound(levels=(0.0, 1.0), values=(1.5, 0.5))  # above 1


@pytest.mark.parametrize("levels, values", [((0.0, math.nan), (1.0, 0.5)), ((0.0, math.inf), (1.0, 0.5)),
                                            ((0.0, 1.0), (1.0, math.nan))], ids=["nan_level", "inf_level", "nan_value"])
def test_tail_bound_rejects_non_finite_grids(levels, values):
    with pytest.raises(ProfileError, match="finite"):
        TailBound(levels=levels, values=values)


@pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, -1.0, math.nan])
def test_empirical_tail_rejects_confidence_outside_unit_interval(confidence):
    # 1.5 and -1 made every value NaN; 0 made the bound 0 past level 0
    u = np.abs(np.random.default_rng(0).normal(size=2000))
    with pytest.raises(ProfileError, match=r"confidence must lie in \(0, 1\)"):
        TailBound.from_samples(u, confidence=confidence)


def test_empirical_tail_upper_confidence_covers_truth():
    # exponential samples: survival exp(-s); the 99% upper bound should
    # dominate the true survival at (almost) every level
    rng = np.random.default_rng(7)
    u = rng.exponential(size=20_000)
    tb = TailBound.from_samples(u, confidence=0.99)
    assert tb.source == "empirical"
    assert tb.n_samples == 20_000
    levels = np.array(tb.levels)
    vals = np.array(tb.values)
    truth = np.exp(-levels)
    frac_covered = np.mean(vals >= truth)
    assert frac_covered > 0.95
    assert np.all(np.diff(vals) <= 1e-15)  # monotonized
    assert tb(0.0) == 1.0


def test_empirical_tail_floor_is_positive_beyond_data():
    u = np.abs(np.random.default_rng(0).normal(size=1000))
    tb = TailBound.from_samples(u)
    # beyond the largest observed value the bound is the k=0 confidence floor
    floor = tb(np.max(u) * 2)
    assert 0 < floor < 0.01
    assert floor == pytest.approx(1.0 - 0.01 ** (1.0 / 1000.0), rel=1e-6)


@pytest.mark.parametrize("n", [2, 3, 1000, 50_000])
@pytest.mark.parametrize("c", [0.99, 0.95])
def test_clopper_pearson_quantile_matches_scipy_stats_bit_for_bit(n, c):
    # from_samples takes betaincinv(k + 1, n - k, c); scipy.stats, kept out of
    # the package, is the oracle for the quantile it replaced
    from scipy.special import betaincinv
    from scipy.stats import beta

    k = np.arange(n)
    got = betaincinv(k + 1, n - k, c)
    want = beta.ppf(c, k + 1, n - k)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_tail_bound_roundtrip():
    tb = TailBound.from_samples(np.random.default_rng(3).exponential(size=500))
    tb2 = TailBound.from_dict(json.loads(json.dumps(tb.to_dict())))
    assert tb2 == tb


def test_c_log_profile():
    b = BetaProfile(family="c_log_inv_s", C=2.0, r0=0.5)
    assert b(0.1) == 2.0 * math.log(10.0)
    with pytest.raises(DomainError):
        b(0.6)
    with pytest.raises(DomainError):
        b(0.0)
    with pytest.raises(ProfileError):
        BetaProfile(family="c_log_inv_s", C=2.0, r0=1.5)  # beta would go negative


def test_tabulated_profile_step_left():
    b = BetaProfile(
        family="tabulated", r0=1.0, s_grid=(0.01, 0.1, 0.5), values=(30.0, 10.0, 2.0)
    )
    assert b(0.05) == 30.0  # conservative: certificate at smaller s still applies
    assert b(0.1) == 10.0
    assert b(0.3) == 10.0
    with pytest.raises(DomainError):
        b(0.005)
    with pytest.raises(ProfileError):
        BetaProfile(family="tabulated", r0=1.0, s_grid=(0.01, 0.1), values=(1.0, 2.0))


def test_constant_alpha_profile():
    a = AlphaProfile(family="constant", r0=math.inf, value=42.0)
    assert a(1e-9) == 42.0
    assert a(0.3) == 42.0
    d = a.to_dict()
    assert d["is_constant"] is True
    assert AlphaProfile.from_dict(d) == a


def test_profile_json_roundtrip_lossless():
    profiles = [
        BetaProfile(family="c_log_inv_s", C=1.0 / 3.0, r0=0.4999999999),
        BetaProfile(
            family="tabulated",
            r0=0.9,
            s_grid=(1e-7, 1e-3, 0.1),
            values=(math.pi, 1.2345678901234567, 0.1),
        ),
        BetaProfile(
            family="composed",
            r0=6.0,
            form="weighted_lsi_scan",
            params={"a": 0.1, "C": 0.77, "M": 1.25, "n_min": 2},
        ),
    ]
    for p in profiles:
        q = profile_from_dict(json.loads(json.dumps(p.to_dict())))
        assert q.to_dict() == p.to_dict()
        for s in (1e-6, 1e-3, 0.05):
            try:
                v0 = p(s)
            except DomainError:
                with pytest.raises(DomainError):
                    q(s)
                continue
            assert q(s) == v0  # bit-identical evaluation after round trip


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.05, 3.0),
    C=st.floats(0.05, 3.0),
    M=st.floats(1.0, 5.0),
)
def test_weighted_scan_profile_is_nonincreasing_and_positive(a, C, M):
    from pathineq.transfer import WeightedLSICertificate, weighted_lsi_to_weak_lsi

    res = weighted_lsi_to_weak_lsi(WeightedLSICertificate(a=a, C_exp=C, M=M))
    hi = res.profile.r0 * (1 - 1e-9)
    vals = res.profile.tabulate(np.geomspace(min(1e-30, hi * 1e-12), hi, 200))
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) <= 1e-12 * np.maximum(np.abs(vals[:-1]), 1.0))
