import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pathineq import pipeline
from pathineq.config import ConfigError
from pathineq.pipeline import PipelineError, pipeline_report, run_transfer_pipeline
from pathineq.profiles import BetaProfile, DomainError, ProfileError


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


def test_beta_stage_needs_a_weak_lsi_stage(monkeypatch):
    # a Poincare constant or an alpha profile is not a beta profile, and the source is read before stage 0 runs
    monkeypatch.setattr(pipeline, "weak_lsi_to_poincare", _ran)
    monkeypatch.setattr(pipeline, "weighted_lsi_to_weak_lsi", _ran)
    poincare = {
        "op": "weak_lsi_to_poincare",
        "beta": {"C": 1.0, "r0": 0.5},
        "params": {"log2_delta": 0.5, "log2_delta0": 4.5, "epsilon": 0.125},
    }
    weak_lsi = {"op": "weighted_lsi_to_weak_lsi", "cert": {"a": 0.5, "C_exp": 1.0}}
    weak_poincare = {"op": "weak_lsi_to_weak_poincare"}
    for stages in ([poincare, weak_poincare], [weak_lsi, weak_poincare, weak_poincare]):
        with pytest.raises(ConfigError) as exc:
            run_transfer_pipeline({"name": "x", "pipeline": stages})
        assert exc.value.path == f"pipeline[{len(stages) - 1}].beta"


def _ran(*args, **kwargs):
    raise AssertionError("a transfer ran")


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


@pytest.mark.parametrize(
    "text",
    ['[0.0, 1.0]', '{"type": "tail_bound", "levels": [0.0, 1.0]}',
     '{"type": "tail_bound", "levels": [0.0, {"a": 1}], "values": [1.0, 0.1]}',
     '{"type": "tail_bound", "levels": [0.0, "1"], "values": [1.0, 0.1]}',
     '{"type": "tail_bound", "levels": [0.0, 1.0], "values": [true, 0.1]}'],
    ids=["list", "no_values", "mapping", "string", "bool"],
)
def test_bad_tail_file_fails_its_stage(tmp_path, text):
    # a list used to raise AttributeError and a mapping TypeError, program-bug classes; a missing values was
    # reported as 'values', and "1" and true were read as numbers
    (tmp_path / "t.json").write_text(text)
    spec = {"name": "x", "pipeline": [{"op": "tail_to_weak_lsi", "a": 0.5, "tail": {"file": "t.json"}}]}
    with pytest.raises(PipelineError, match=r"stage 0 \(tail_to_weak_lsi\)") as exc:
        run_transfer_pipeline(spec, base_dir=str(tmp_path))
    assert isinstance(exc.value.__cause__, ProfileError)


BETA = {"C": 1.0, "r0": 0.5}
POW2 = {"log2_delta": 0.5, "log2_delta0": 4.5, "epsilon": 0.125}
# a valid stage of each op; per mapping it reads, the keys an extra one must not be, as a reader would take it
STAGES = [
    (CERT, {"": {"op", "cert", "smooth"}, "cert": {"a", "C_exp", "M"}}),
    ({"op": "tail_to_weak_lsi", "a": 0.5, "tail": {"levels": [0.0, 1.0, 2.0], "values": [1.0, 0.5, 0.1]}},
     {"": {"op", "a", "tail"}, "tail": {"levels", "values", "file", "from_ensemble", "confidence"}}),
    ({"op": "weak_lsi_to_poincare", "beta": BETA, "params": POW2},
     {"": {"op", "beta", "params"}, "beta": {"C", "r0", "family"}, "params": set(POW2)}),
    ({"op": "weak_lsi_to_poincare", "beta": BETA, "params": {"delta": 2.0, "delta0": 8.0, "epsilon": 0.1}},
     {"params": {"delta", "delta0", "epsilon", "log2_delta"}}),
    ({"op": "weak_lsi_to_weak_poincare", "beta": BETA},
     {"": {"op", "beta", "delta", "delta0", "r", "sigma_cap"}, "beta": {"C", "r0", "family"}}),
]
MAPPINGS = [(stage, sub, taken) for stage, subs in STAGES for sub, taken in subs.items()]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(MAPPINGS), st.from_regex(r"[A-Za-z_]{1,12}", fullmatch=True))
def test_unknown_key_in_any_mapping_of_a_stage_is_refused(mapping, key):
    stage, sub, taken = mapping
    assume(key not in taken)
    stage = {k: dict(x) if isinstance(x, dict) else x for k, x in stage.items()}
    (stage[sub] if sub else stage)[key] = 1.0
    with pytest.MonkeyPatch.context() as m, pytest.raises(ConfigError) as exc:
        for op in pipeline._OPS:  # the error comes before any transfer runs
            m.setattr(pipeline, op, _ran)
        run_transfer_pipeline({"name": "x", "pipeline": [stage]})
    assert exc.value.path == ".".join(("pipeline[0]", *filter(None, (sub, key))))
