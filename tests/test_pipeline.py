import math

import numpy as np
import pytest

from pathineq import pipeline
from pathineq.config import ConfigError
from pathineq.pipeline import PipelineError, pipeline_report, run_transfer_pipeline
from pathineq.profiles import BetaProfile, DomainError


def test_empty_pipeline_is_an_error():
    with pytest.raises(ConfigError, match="no stages"):
        run_transfer_pipeline({"name": "x", "pipeline": []})
    with pytest.raises(ConfigError, match="no stages"):
        run_transfer_pipeline({"name": "x"})


def test_paper_pipeline_constant():
    spec = {
        "name": "paper",
        "pipeline": [
            {
                "op": "weak_lsi_to_poincare",
                "beta": {"family": "c_log_inv_s", "C": 1.0, "r0": 0.5},
                "params": {"log2_delta": 0.5, "log2_delta0": 4.5, "epsilon": 0.125},
            }
        ],
    }
    (res,) = run_transfer_pipeline(spec)
    assert res.kind == "poincare"
    assert abs(res.profile.value - 40.82) <= 0.1 * 40.82
    assert res.audit_value("A") == 9.0


def test_chained_cert_to_weak_poincare():
    spec = {
        "name": "chain",
        "pipeline": [
            {"op": "weighted_lsi_to_weak_lsi", "cert": {"a": 0.5, "C_exp": 1.0}},
            {"op": "weak_lsi_to_weak_poincare"},
        ],
    }
    results = run_transfer_pipeline(spec)
    assert [r.kind for r in results] == ["weak_lsi", "weak_poincare"]
    # oracle: re-evaluate the displayed formula chain by hand on 3 grid points
    beta = results[0].profile
    wp = results[1]
    c1p = wp.audit_value("C1_prime")
    c2p = wp.audit_value("C2_prime")
    for s in (1e-6, 1e-4, 0.01):
        L = math.log(1.0 / s)
        assert wp.profile(s) == beta(c2p * s * L) / (c1p * L)


def test_stage_error_names_stage():
    spec = {
        "name": "bad",
        "pipeline": [
            {
                "op": "weak_lsi_to_poincare",
                "beta": {"family": "c_log_inv_s", "C": 1.0, "r0": 1e-20},
                "params": {"log2_delta": 0.5, "log2_delta0": 4.5, "epsilon": 0.125},
            }
        ],
    }
    with pytest.raises(PipelineError, match=r"stage 0 \(weak_lsi_to_poincare\)"):
        run_transfer_pipeline(spec)
    with pytest.raises(ConfigError, match=r"pipeline\[0\]\.op"):
        run_transfer_pipeline({"name": "x", "pipeline": [{"op": "bogus"}]})


def test_beta_stage_needs_a_weak_lsi_stage():
    # a Poincare constant or an alpha profile is not a beta profile
    poincare = {
        "op": "weak_lsi_to_poincare",
        "beta": {"C": 1.0, "r0": 0.5},
        "params": {"log2_delta": 0.5, "log2_delta0": 4.5, "epsilon": 0.125},
    }
    weak_lsi = {"op": "weighted_lsi_to_weak_lsi", "cert": {"a": 0.5, "C_exp": 1.0}}
    weak_poincare = {"op": "weak_lsi_to_weak_poincare"}
    for stages, got in (
        ([poincare, weak_poincare], "poincare"),
        ([weak_lsi, weak_poincare, weak_poincare], "weak_poincare"),
    ):
        named = rf"stage {len(stages) - 1} \(weak_lsi_to_weak_poincare\).* {got} result"
        with pytest.raises(PipelineError, match=named):
            run_transfer_pipeline({"name": "x", "pipeline": stages})


def test_inline_tail_stage():
    levels = list(np.arange(0.0, 21.0))
    values = [math.exp(-(s * s) / 4.0) for s in np.arange(0.0, 21.0)]
    spec = {
        "name": "tail",
        "pipeline": [
            {"op": "tail_to_weak_lsi", "a": 1.0, "tail": {"levels": levels, "values": values}}
        ],
    }
    (res,) = run_transfer_pipeline(spec)
    assert res.kind == "weak_lsi"
    assert res.profile.eval_floor > 0


def test_pipeline_report_shapes():
    spec = {
        "name": "chain",
        "pipeline": [
            {"op": "weighted_lsi_to_weak_lsi", "cert": {"a": 0.5, "C_exp": 1.0}},
            {"op": "weak_lsi_to_weak_poincare"},
        ],
    }
    report = pipeline_report(run_transfer_pipeline(spec), grid_points=16)
    assert report[0]["kind"] == "weak_lsi"
    assert "s" in report[0]["tabulated"] and "beta" in report[0]["tabulated"]
    assert "alpha" in report[1]["tabulated"]
    alphas = report[1]["tabulated"]["alpha"]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(alphas, alphas[1:]))


@pytest.mark.parametrize("error", [TypeError, DomainError])
def test_pipeline_report_records_only_domain_errors(monkeypatch, error):
    # a profile without an evaluable range is reported; a program bug is not hidden
    spec = {"name": "wl", "pipeline": [{"op": "weighted_lsi_to_weak_lsi", "cert": {"a": 0.5, "C_exp": 1.0}}]}
    results = run_transfer_pipeline(spec)

    def broken(self, s_values):
        raise error("tabulation failed")

    monkeypatch.setattr(BetaProfile, "tabulate", broken)
    if error is DomainError:
        assert pipeline_report(results)[0]["tabulated"] == {"error": "tabulation failed"}
    else:
        with pytest.raises(TypeError, match="tabulation failed"):
            pipeline_report(results)


CERT = {"op": "weighted_lsi_to_weak_lsi", "cert": {"a": 0.5, "C_exp": 1.0}}


@pytest.mark.parametrize(
    "stages, key",
    [
        # a string a used to raise TypeError, a program-bug class, and True to be taken as a = 1
        ([{**CERT, "cert": {"a": "abc", "C_exp": 1.0}}], "pipeline[0].cert.a"),
        ([{**CERT, "cert": {"a": True, "C_exp": 1.0}}], "pipeline[0].cert.a"),
        # the misspelled smooth used to be ignored, and the stage certified the scan profile
        ([{**CERT, "smoth": True}], "pipeline[0].smoth"),
        # a missing tail used to be reported as "stage 0 (tail_to_weak_lsi): 'tail'"
        ([{"op": "tail_to_weak_lsi", "a": 0.5}], "pipeline[0].tail"),
        ([CERT, {"op": "weak_lsi_to_weak_poincare", "sigma_cap": math.nan}], "pipeline[1].sigma_cap"),
        ([{**CERT, "beta": {"C": 1.0, "r0": 0.5}}], "pipeline[0].beta"),
    ],
    ids=["cert_a_string", "cert_a_bool", "smoth", "missing_tail", "sigma_cap_nan", "beta_on_weighted"],
)
def test_bad_stage_key_is_a_config_error_naming_it(monkeypatch, stages, key):
    # every stage is read before any transfer runs
    def ran(*args, **kwargs):
        raise AssertionError("a transfer ran")

    for op in ("weighted_lsi_to_weak_lsi", "tail_to_weak_lsi", "weak_lsi_to_weak_poincare"):
        monkeypatch.setattr(pipeline, op, ran)
    with pytest.raises(ConfigError) as exc:
        run_transfer_pipeline({"name": "x", "pipeline": stages})
    assert exc.value.path == key
