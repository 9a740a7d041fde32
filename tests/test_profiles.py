import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathineq import jsontext
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


@pytest.mark.parametrize(
    "meta, message",
    [
        ({"source": "empirical", "n_samples": "many", "confidence": 7}, "n_samples"),
        ({"source": "empirical", "n_samples": 1, "confidence": 0.99}, "n_samples"),
        ({"source": "empirical", "n_samples": True, "confidence": 0.99}, "n_samples"),
        ({"source": "empirical", "n_samples": 500.0, "confidence": 0.99}, "n_samples"),
        ({"source": "empirical", "n_samples": 500}, "confidence"),
        ({"source": "empirical", "n_samples": 500, "confidence": 7.0}, "confidence"),
        ({"source": "empirical", "n_samples": 500, "confidence": math.nan}, "confidence"),
        ({"source": "analytic", "n_samples": -3}, "neither"),
        ({"confidence": 0.99}, "neither"),
    ],
    ids=["words", "one_sample", "bool_samples", "float_samples", "no_confidence", "confidence_7",
         "confidence_nan", "analytic_samples", "analytic_confidence"],
)
def test_tail_metadata_is_checked(meta, message):
    # each used to be published as is in a tail-scan profile's params
    with pytest.raises(ProfileError, match=message):
        TailBound(levels=(0.0, 1.0), values=(1.0, 0.5), **meta)
    d = {"type": "tail_bound", "levels": [0.0, 1.0], "values": [1.0, 0.5]} | meta
    with pytest.raises(ProfileError, match=message):
        TailBound.from_dict(d)
    assert TailBound(levels=(0.0, 1.0), values=(1.0, 0.5), source="empirical", n_samples=500,
                     confidence=0.99).n_samples == 500


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


@pytest.mark.parametrize(
    "kw",
    [
        {"family": "tabulated", "r0": 1.0},
        {"family": "constant", "r0": 1.0},
        {"family": "composed", "r0": 0.5, "form": "weak_poincare_formula", "params": {}},
        {"family": "composed", "r0": 0.5, "form": "tail_scan"},
    ],
    ids=["tabulated", "constant", "alpha_form", "no_params"],
)
def test_beta_profile_takes_only_its_own_families(kw):
    with pytest.raises(ProfileError):
        BetaProfile(**kw)
    with pytest.raises(ProfileError):
        profile_from_dict({"type": "beta_profile"} | kw)


def test_tabulated_beta_of_a_weak_poincare_result_is_a_profile_error():
    from pathineq.transfer import TransferResult, replay_profile, weak_lsi_to_weak_poincare

    d = weak_lsi_to_weak_poincare(BetaProfile(family="c_log_inv_s", C=1.0, r0=0.5)).to_dict()
    d["profile"]["params"]["beta"] = {"type": "beta_profile", "family": "tabulated", "r0": 0.5,
                                      "s_grid": [1e-12], "values": [5.0]}
    result = TransferResult.from_dict(d)
    with pytest.raises(ProfileError, match="unknown profile family 'tabulated'"):
        replay_profile(result)
    with pytest.raises(ProfileError, match="unknown profile family 'tabulated'"):
        result.profile(1e-4)


def test_constant_alpha_profile():
    a = AlphaProfile(family="constant", r0=math.inf, value=42.0)
    assert a(1e-9) == 42.0
    assert a(0.3) == 42.0
    d = a.to_dict()
    assert d["is_constant"] is True
    assert AlphaProfile.from_dict(d) == a


def test_constant_alpha_is_evaluated_on_its_domain_only():
    a = AlphaProfile(family="constant", r0=math.inf, value=42.0)
    for s in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            a(s)
    assert a.tabulate([1e-300, 0.5, 1e300]).tolist() == [42.0, 42.0, 42.0]
    with pytest.raises(DomainError, match="unbounded"):
        a.tabulate_monotone()


@pytest.mark.parametrize(
    "kw",
    [
        {"family": "tabulated", "r0": 1.0},
        {"family": "c_log_inv_s", "r0": 0.5, "C": 1.0},
        {"family": "constant", "r0": 0.5, "value": 42.0},
        {"family": "constant", "r0": math.inf},
        {"family": "composed", "r0": 0.5, "form": "tail_scan", "params": {}},
    ],
    ids=["tabulated", "c_log_inv_s", "constant_r0", "constant_no_value", "beta_form"],
)
def test_alpha_profile_takes_only_its_own_families(kw):
    with pytest.raises(ProfileError):
        AlphaProfile(**kw)
    d = {"type": "alpha_profile"} | {k: list(v) if isinstance(v, tuple) else v for k, v in kw.items()}
    with pytest.raises(ProfileError):
        AlphaProfile.from_dict(d)
    with pytest.raises(ProfileError):
        profile_from_dict(d)
    with pytest.raises(ProfileError, match="unknown serialized profile type"):
        profile_from_dict(d | {"type": "gamma_profile"})


def _weak_poincare_alpha():
    from pathineq.transfer import weak_lsi_to_weak_poincare

    return weak_lsi_to_weak_poincare(BetaProfile(family="c_log_inv_s", C=1.0, r0=0.5)).profile


def _weighted_scan_beta():
    from pathineq.transfer import WeightedLSICertificate, weighted_lsi_to_weak_lsi

    return weighted_lsi_to_weak_lsi(WeightedLSICertificate(a=0.5, C_exp=1.0)).profile


@pytest.mark.parametrize(
    "make, text",
    [
        (lambda: AlphaProfile(family="constant", r0=math.inf, value=42.0),
         '{\n "type": "alpha_profile",\n "family": "constant",\n "is_constant": true,\n "value": 42.0\n}'),
        (_weak_poincare_alpha,
         '{\n "type": "alpha_profile",\n "family": "composed",\n "r0": 0.008256724134343908,\n'
         ' "form": "weak_poincare_formula",\n "params": {\n  "beta": {\n   "type": "beta_profile",\n'
         '   "family": "c_log_inv_s",\n   "r0": 0.5,\n   "C": 1.0\n  },\n  "C1_prime": 0.00225093883178284,\n'
         '  "C2_prime": 12.624587447960975,\n  "s_lo": 0.0,\n  "r1": 0.008256724134343908\n },\n'
         ' "is_constant": false\n}'),
        (lambda: BetaProfile(family="c_log_inv_s", C=1.0, r0=0.5),
         '{\n "type": "beta_profile",\n "family": "c_log_inv_s",\n "r0": 0.5,\n "C": 1.0\n}'),
        (_weighted_scan_beta,
         '{\n "type": "beta_profile",\n "family": "composed",\n "r0": 3.2557834587115972,\n'
         ' "form": "weighted_lsi_scan",\n "params": {\n  "a": 0.5,\n  "C": 1.0,\n  "M": 1.0,\n  "n_min": 2\n }\n}'),
    ],
    ids=["constant_alpha", "composed_alpha", "c_log_inv_s", "composed_beta"],
)
def test_profile_json_text_is_pinned(make, text):
    # the text of each kind, key order included; a dict comparison does not see the order
    p = make()
    assert jsontext.dumps(p.to_dict()) == text
    assert profile_from_dict(json.loads(text)) == p


@pytest.mark.parametrize(
    "make, key",
    [
        (lambda: BetaProfile(family="c_log_inv_s", C=1.0, r0=0.5), "s_grid"),
        (_weighted_scan_beta, "C"),  # a composed beta writes no C
        (lambda: AlphaProfile(family="constant", r0=math.inf, value=42.0), "values"),
        (_weak_poincare_alpha, "value"),
        (lambda: TailBound.from_samples(np.random.default_rng(3).exponential(size=500)), "confidense"),
    ],
    ids=["c_log_inv_s", "composed_beta", "constant_alpha", "composed_alpha", "tail_bound"],
)
def test_from_dict_refuses_a_key_its_to_dict_does_not_write(make, key):
    # each used to be dropped, and the dict read as if the key were absent
    obj = make()
    d = json.loads(json.dumps(obj.to_dict()))
    assert type(obj).from_dict(d) == obj  # a constant alpha's is_constant among the keys taken
    with pytest.raises(ProfileError, match=f"unknown key '{key}' in a serialized "):
        type(obj).from_dict(d | {key: 1.0})


def test_profile_json_roundtrip_lossless():
    profiles = [
        BetaProfile(family="c_log_inv_s", C=1.0 / 3.0, r0=0.4999999999),
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
