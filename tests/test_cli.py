import csv
import hashlib
import json
import os
import subprocess
import sys

import pytest
import yaml

from pathineq import config
from pathineq.cli import main

TRANSFER_YAML = """\
name: paper-pipeline
pipeline:
  - op: weak_lsi_to_poincare
    beta: {family: c_log_inv_s, C: 1.0, r0: 0.5}
    params: {log2_delta: 0.5, log2_delta0: 4.5, epsilon: 0.125}
"""

SAMPLE_YAML = """\
name: tiny-bridge
sampler: hyperbolic_bridge
seed: 99
n_paths: 300
dim: 3
T: 1.0
grid:
  n_steps: 16
  tail: {lam: 0.5, floor: 1.0e-6}
x0: origin
y0: origin
out: bridge.pens
"""

ESTIMATE_YAML = """\
name: bridge-tail
ensemble: bridge.pens
estimators: [weight_tail, exp_square_moment]
exp_square_c: 0.25
out: tail_estimates.json
"""

DEFAULTS_YAML = """\
name: defaults
pipeline:
  - op: weak_lsi_to_poincare
    beta: {family: c_log_inv_s, C: 1.0, r0: 0.5}
    budget: 10000
  - op: tail_to_weak_lsi
    a: 0.5
    n_cap: 1000
    tail: {from_ensemble: bridge.pens, confidence: 0.99}
  - op: weighted_lsi_to_weak_lsi
    cert: {a: 1.0, C_exp: 0.5, M: 1.0}
    smooth: false
  - op: weak_lsi_to_weak_poincare
profile_grid: {points: 48}
"""


OP = "op: weak_lsi_to_poincare"


def first_stage(op, *keys):
    """What replaces TRANSFER_YAML's ``OP`` line: another op and its stage keys."""
    return "\n    ".join((f"op: {op}", *keys))


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_transfer_command(tmp_path):
    cfg = write(tmp_path, "t.yaml", TRANSFER_YAML)
    out = str(tmp_path / "out")
    assert main(["transfer", "--config", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "transfer_report.json").read_text())
    assert report["schema_version"] == "pathineq.runreport.v1"
    stages = json.loads((tmp_path / "out" / "paper-pipeline.transfer.json").read_text())
    assert abs(stages["stages"][0]["tabulated"]["constant"] - 42.261) < 0.01


def test_sample_estimate_roundtrip(tmp_path):
    scfg = write(tmp_path, "s.yaml", SAMPLE_YAML)
    ecfg = write(tmp_path, "e.yaml", ESTIMATE_YAML)
    out = str(tmp_path / "out")
    assert main(["sample", "--config", scfg, "--out", out]) == 0
    assert main(["estimate", "--config", ecfg, "--out", out]) == 0
    est = json.loads((tmp_path / "out" / "tail_estimates.json").read_text())
    assert est["provenance"]["seed"] == 99
    assert "config_hash" in est["provenance"]
    assert est["results"]["weight_tail"]["values"][0] == 1.0


def test_estimate_of_a_file_without_sup_distance_is_byte_identical(tmp_path):
    # files written before the sampler recorded u hold only presnap_gap; u is recomputed from the points
    from pathineq.samplers import load_ensemble, save_ensemble

    ecfg = write(tmp_path, "e.yaml", ESTIMATE_YAML)
    new, old = tmp_path / "new", tmp_path / "old"
    assert main(["sample", "--config", write(tmp_path, "s.yaml", SAMPLE_YAML), "--out", str(new)]) == 0
    ens = load_ensemble(new / "bridge.pens")
    del ens.diagnostics["sup_distance"]
    old.mkdir()
    save_ensemble(old / "bridge.pens", ens)
    assert b"sup_distance" not in (old / "bridge.pens").read_bytes()
    for out in (new, old):
        assert main(["estimate", "--config", ecfg, "--out", str(out)]) == 0
    assert (old / "tail_estimates.json").read_bytes() == (new / "tail_estimates.json").read_bytes()


def test_bad_diagnostic_shape_names_the_ensemble(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sample", "--config", write(tmp_path, "s.yaml", SAMPLE_YAML), "--out", str(out)]) == 0
    blob = (out / "bridge.pens").read_bytes()
    hlen = int.from_bytes(blob[10:18], "little")
    header = json.loads(blob[18 : 18 + hlen])
    header["diag_arrays"] = [[k, [299] if k == "sup_distance" else shp] for k, shp in header["diag_arrays"]]
    h = json.dumps(header, sort_keys=True).encode()
    (out / "bridge.pens").write_bytes(blob[:10] + len(h).to_bytes(8, "little") + h + blob[18 + hlen :])
    capsys.readouterr()
    assert main(["estimate", "--config", write(tmp_path, "e.yaml", ESTIMATE_YAML), "--out", str(out)]) == 2
    assert "bridge.pens: diagnostic sup_distance has shape [299], not [300]" in capsys.readouterr().err


def test_sample_determinism_byte_identical(tmp_path):
    cfg = write(tmp_path, "s.yaml", SAMPLE_YAML)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["sample", "--config", cfg, "--out", out1]) == 0
    assert main(["sample", "--config", cfg, "--out", out2]) == 0
    b1 = (tmp_path / "o1" / "bridge.pens").read_bytes()
    b2 = (tmp_path / "o2" / "bridge.pens").read_bytes()
    assert b1 == b2


def test_seed_override_changes_output(tmp_path):
    cfg = write(tmp_path, "s.yaml", SAMPLE_YAML)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["sample", "--config", cfg, "--out", out1]) == 0
    assert main(["sample", "--config", cfg, "--out", out2, "--seed", "1234"]) == 0
    assert (tmp_path / "o1" / "bridge.pens").read_bytes() != (
        tmp_path / "o2" / "bridge.pens"
    ).read_bytes()


def test_exp_half_keeps_its_coord(tmp_path):
    sample = SAMPLE_YAML.replace("hyperbolic_bridge", "wiener").replace("dim: 3", "dim: 2")
    estimate = """\
name: exp-half
ensemble: bridge.pens
estimators: [variance]
functions:
  - {type: exp_half, lam: 1.0, coord: 0, label: c0}
  - {type: exp_half, lam: 1.0, coord: 1, label: c1}
out: exp_half.json
"""
    out = str(tmp_path / "out")
    assert main(["sample", "--config", write(tmp_path, "s.yaml", sample), "--out", out]) == 0
    assert main(["estimate", "--config", write(tmp_path, "e.yaml", estimate), "--out", out]) == 0
    res = json.loads((tmp_path / "out" / "exp_half.json").read_text())["results"]["variance"]
    assert res["c0"]["value"] != res["c1"]["value"]


def test_lsi_ratio_zero_energy_is_written_flagged_zero(tmp_path):
    # a function of a bridge's pinned endpoint has no H-energy: no NaN in the JSON
    sample = SAMPLE_YAML.replace("hyperbolic_bridge", "flat_bridge").replace("dim: 3", "dim: 1")
    estimate = """\
name: pinned
ensemble: bridge.pens
estimators: [lsi_ratio]
kernel: bridge
functions: [{type: exp_half, lam: 0.5, label: end}]
out: pinned.json
"""
    out = str(tmp_path / "out")
    assert main(["sample", "--config", write(tmp_path, "s.yaml", sample), "--out", out]) == 0
    assert main(["estimate", "--config", write(tmp_path, "e.yaml", estimate), "--out", out]) == 0
    text = (tmp_path / "out" / "pinned.json").read_text()
    assert "NaN" not in text
    est = json.loads(text)["results"]["lsi_ratio"]["end"]
    assert (est["value"], est["std_error"], est["flags"]) == (0.0, 0.0, ["zero_energy"])


def test_transfer_chain_of_wrong_kind_is_config_error(tmp_path, capsys):
    chain = TRANSFER_YAML + "  - op: weak_lsi_to_weak_poincare\n"
    code = main(["transfer", "--config", write(tmp_path, "t.yaml", chain), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "stage 1 (weak_lsi_to_weak_poincare)" in capsys.readouterr().err


def test_subcommand_flags():
    from pathineq.cli import make_parser

    sub = next(a for a in make_parser()._actions if a.dest == "command")
    flags = {
        name: {o for a in sp._actions for o in a.option_strings if o.startswith("--") and o != "--help"}
        for name, sp in sub.choices.items()
    }
    assert flags == {
        "transfer": {"--config", "--out", "--threads"},
        "sample": {"--config", "--seed", "--out", "--threads"},
        "estimate": {"--config", "--out", "--threads"},
        "verify": {"--out"},
    }


def test_estimate_missing_ensemble_is_config_error(tmp_path, capsys):
    ecfg = write(tmp_path, "e.yaml", ESTIMATE_YAML)
    out = str(tmp_path / "out")
    code = main(["estimate", "--config", ecfg, "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert "e.yaml:2: ensemble: ensemble file not found" in err and "bridge.pens" in err


def test_config_error_reports_line_number(tmp_path, capsys):
    for old, new, line, key in (
        ("sampler: hyperbolic_bridge", "sampler: teleporter", 2, "sampler"),
        ("n_paths: 300", "n_paths: 0", 4, "n_paths"),
        # a bridge's grid has a geometric tail, and n_steps 0 used to divide by zero
        ("n_steps: 16", "n_steps: 0", 8, "grid.n_steps"),
        ("floor: 1.0e-6", "floor: 0", 9, "grid.tail.floor"),
        ("lam: 0.5", "lam: 1.5", 9, "grid.tail.lam"),
    ):
        cfg = write(tmp_path, "bad.yaml", SAMPLE_YAML.replace(old, new))
        code = main(["sample", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"bad.yaml:{line}: {key}: " in capsys.readouterr().err


def test_negative_tail_floor_exits_2_within_seconds(tmp_path):
    # the tail used to refine toward T for ever, as h lam^k > floor T stays true
    # once lam^k underflows to 0; a subprocess, so such a hang fails the test
    cfg = write(tmp_path, "bad.yaml", SAMPLE_YAML.replace("floor: 1.0e-6", "floor: -1"))
    proc = subprocess.run(
        [sys.executable, "-m", "pathineq.cli", "sample", "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2
    assert "bad.yaml:9: grid.tail.floor: tail floor must be positive" in proc.stderr


def test_tail_floor_below_float_spacing_names_its_key(tmp_path, capsys):
    # T - h lam^k stops moving toward T = 1 near k = 50, long before the
    # steps reach 1e-300; it used to fail as "grid nodes must be strictly
    # increasing", naming neither the key nor its line
    cfg = write(tmp_path, "bad.yaml", SAMPLE_YAML.replace("floor: 1.0e-6", "floor: 1.0e-300"))
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad.yaml:9: grid.tail.floor: tail floor 1e-300 is below the float spacing at T = 1.0" in err
    assert not (tmp_path / "out" / "bridge.pens").exists()


# m(s) = exp(-s^2) on integer levels: a tail that certifies a weak LSI
GAUSS_TAIL = "levels: [0, 1, 2, 3, 4, 5], values: [1.0, 0.37, 0.019, 1.3e-4, 1.2e-7, 1.4e-11]"


@pytest.mark.parametrize(
    "command, old, new, line, key",
    [
        ("sample", "x0: origin", "drift_caps: 0.5\nx0: origin", 10, "drift_caps"),
        ("transfer", OP, first_stage("tail_to_weak_lsi", "a: 0.5", f"tail: {{{GAUSS_TAIL}}}", "ncap: 5"), 6,
         "pipeline[0].ncap"),
        ("transfer", OP, first_stage("tail_to_weak_lsi", "a: 0.5", f"tail: {{{GAUSS_TAIL}, confidense: 0.5}}"), 5,
         "pipeline[0].tail.confidense"),
        ("transfer", OP, first_stage("weak_lsi_to_weak_poincare", "sigma_capp: 0.1"), 4, "pipeline[0].sigma_capp"),
    ],
    ids=["drift_caps", "ncap", "confidense", "sigma_capp"],
)
def test_misspelled_key_names_file_and_line(tmp_path, capsys, command, old, new, line, key):
    # each used to be ignored, and the run went on with the default
    text = {"sample": SAMPLE_YAML, "transfer": TRANSFER_YAML}[command]
    cfg = write(tmp_path, "bad.yaml", text.replace(old, new))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"bad.yaml:{line}: {key}: unknown key" in capsys.readouterr().err


@pytest.fixture(params=["module", "SafeLoader"])
def yaml_loader(request, monkeypatch):
    """Each config test runs with the module's loader (libyaml's where pyyaml
    has it) and again with pyyaml's pure-Python one."""
    if request.param == "SafeLoader":
        monkeypatch.setattr(config, "_LOADER", yaml.SafeLoader)
    return request.param


def two_pass_load(path):
    """What load_config did before it took one pass: the line map from
    ``yaml.compose``, the data from ``yaml.safe_load``."""
    with open(path) as fh:
        text = fh.read()
    linemap = {}
    config._walk(yaml.compose(text), "", linemap, path)
    return yaml.safe_load(text), linemap


MERGE_YAML = """\
defaults: &d {a: 1, b: 2}
x:
  <<: *d
  a: 3
"""


@pytest.mark.parametrize(
    "text", [TRANSFER_YAML, SAMPLE_YAML, ESTIMATE_YAML, DEFAULTS_YAML, MERGE_YAML],
    ids=["transfer", "sample", "estimate", "defaults", "merge"],
)
def test_one_pass_load_matches_two_passes(tmp_path, yaml_loader, text):
    # a merge key's override is not a duplicate key
    cfg = write(tmp_path, "c.yaml", text)
    assert config.load_config(cfg) == two_pass_load(cfg)


@pytest.mark.parametrize(
    "text, line",
    [
        ("name: x\nestimators: [weight_tail\nout: y\n", 3),
        ("name: x\n  sampler: wiener\n", 2),
        ("\tname: x\n", 1),
        ("name:\tx\n", 1),
        ("name: x\nseed: 1\n---\nname: y\n", 3),
        ("name: x\nseed: *nope\n", 2),
        ("name: x\nseed: !!python/object:os.system {}\n", 2),
    ],
    ids=["unclosed_flow_sequence", "bad_indent", "tab", "tab_after_colon", "two_documents", "undefined_alias",
         "python_object_tag"],
)
def test_malformed_yaml_names_file_and_line(tmp_path, capsys, yaml_loader, text, line):
    cfg = write(tmp_path, "bad.yaml", text)
    with pytest.raises(config.ConfigError) as exc:
        config.load_config(cfg)
    assert (exc.value.file, exc.value.line) == (cfg, line)
    assert main(["transfer", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"bad.yaml:{line}: YAML syntax error" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "# only\n# comments\n"], ids=["empty", "comments_only"])
def test_empty_config_is_a_config_error(tmp_path, capsys, yaml_loader, text):
    cfg = write(tmp_path, "bad.yaml", text)
    assert main(["transfer", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "bad.yaml: empty config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, line, key",
    [
        ("params: {log2_delta: 0.5, log2_delta0: 4.5, epsilon: 0.125}",
         "params: auto\n    budget: 100000\n    budget: 1000", 7, "pipeline[0].budget"),
        ("C: 1.0,", "C: 1.0, C: 2.0,", 4, "pipeline[0].beta.C"),
        ("pipeline:", "name: other\npipeline:", 2, "name"),
    ],
    ids=["stage_option", "flow_mapping", "top_level"],
)
def test_duplicate_key_names_file_and_line(tmp_path, capsys, yaml_loader, old, new, line, key):
    # the last value used to win silently: budget 1000 ran and exited 0
    cfg = write(tmp_path, "bad.yaml", TRANSFER_YAML.replace(old, new))
    assert main(["transfer", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"bad.yaml:{line}: {key}: duplicate key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, line, key",
    [
        ("name: x\npipeline: &p [*p]\n", 2, "pipeline[0]"),
        ("name: x\na: &m\n  k: 1\n  sub: [1, *m]\n", 2, "a.sub[1]"),
    ],
    ids=["sequence", "mapping"],
)
def test_recursive_alias_names_file_and_line(tmp_path, capsys, yaml_loader, text, line, key):
    # the line-map walk used to recurse until RecursionError; aliases that only repeat a node still load
    cfg = write(tmp_path, "bad.yaml", text)
    assert main(["transfer", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"bad.yaml:{line}: {key}: recursive alias" in capsys.readouterr().err
    shared = write(tmp_path, "shared.yaml", "name: x\na: &m {k: 1}\nb: [*m, *m]\n")
    assert config.load_config(shared)[0] == {"name": "x", "a": {"k": 1}, "b": [{"k": 1}, {"k": 1}]}


def test_missing_hermite_degree_names_file_and_line(tmp_path, capsys):
    estimate = """\
name: he
ensemble: bridge.pens
estimators: [variance]
functions:
  - {type: coordinate}
  - {type: hermite, time: 1.0}
out: he.json
"""
    cfg = write(tmp_path, "he.yaml", estimate)
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "he.yaml:6" in err and "functions[1].degree" in err


def test_domain_error_names_its_scenario_file(tmp_path, capsys):
    sample = SAMPLE_YAML.replace("hyperbolic_bridge", "wiener").replace("n_paths: 300", "n_paths: 1")
    estimate = ESTIMATE_YAML.replace(
        "[weight_tail, exp_square_moment]", "[variance]\nfunctions: [{type: coordinate}]"
    )
    out = str(tmp_path / "out")
    assert main(["sample", "--config", write(tmp_path, "s.yaml", sample), "--out", out]) == 0
    capsys.readouterr()
    ecfg = write(tmp_path, "e.yaml", estimate)
    assert main(["estimate", "--config", ecfg, "--out", out]) == 2
    assert f"error: {ecfg}: degenerate ensemble: need at least two paths" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, old, new, line, key",
    [
        ("sample", "lam: 0.5", "lam: abc", 9, "grid.tail.lam"),
        ("sample", "floor: 1.0e-6", "floor: abc", 9, "grid.tail.floor"),
        ("sample", "x0: origin", "drift_cap: abc\nx0: origin", 10, "drift_cap"),
        ("estimate", "exp_square_c: 0.25", "exp_square_c: abc", 4, "exp_square_c"),
        ("transfer", "epsilon: 0.125}\n", "epsilon: 0.125}\nprofile_grid: {points: abc}\n", 6, "profile_grid.points"),
        ("estimate", "out:", "functions: [{type: coordinate, coord: abc}]\nout:", 5, "functions[0].coord"),
        ("estimate", "out:", "functions: [{type: coordinate, time: abc}]\nout:", 5, "functions[0].time"),
        # YAML booleans are not numbers, though bool subclasses int
        ("estimate", "out:", "functions: [{type: coordinate, coord: true}]\nout:", 5, "functions[0].coord"),
        ("sample", "n_paths: 300", "n_paths: true", 4, "n_paths"),
        ("sample", "seed: 99", "seed: false", 3, "seed"),
        ("sample", "T: 1.0", "T: true", 6, "T"),
        # a start or end point is origin or a list of numbers
        ("sample", "x0: origin", "x0: foo", 10, "x0"),
        ("sample", "y0: origin", "y0: [0, a, 0, 1]", 11, "y0[1]"),
        # transfer stage inputs are checked by op before any transfer runs
        ("transfer", OP, first_stage("weighted_lsi_to_weak_lsi", "cert: {a: abc, C_exp: 1.0}"), 4,
         "pipeline[0].cert.a"),
        ("transfer", OP, first_stage("tail_to_weak_lsi", "a: 0.5", "tail: {levels: [0, 1], values: [1, 0.1]}",
                                     "n_cap: abc"), 6, "pipeline[0].n_cap"),
    ],
    ids=["lam", "floor", "drift_cap", "exp_square_c", "points", "coord", "time",
         "coord_bool", "n_paths_bool", "seed_bool", "T_bool", "x0_word", "y0_entry", "cert_a", "n_cap"],
)
def test_non_numeric_option_names_file_and_line(tmp_path, capsys, command, old, new, line, key):
    text = {"sample": SAMPLE_YAML, "estimate": ESTIMATE_YAML, "transfer": TRANSFER_YAML}[command]
    cfg = write(tmp_path, "bad.yaml", text.replace(old, new))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"bad.yaml:{line}: {key}: expected " in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, line, key, message",
    [
        ("epsilon: 0.125}\n", "epsilon: 0.125}\nprofile_grid: {points: 0}\n", 6, "profile_grid.points", ">= 1"),
        ("epsilon: 0.125}", "epsilon: abc}", 5, "pipeline[0].params.epsilon", "expected "),
        ("params: {log2_delta: 0.5, log2_delta0: 4.5, epsilon: 0.125}", "params: manual", 5,
         "pipeline[0].params", "'auto'"),
        ("beta: {family: c_log_inv_s, C: 1.0, r0: 0.5}", "beta: {C: one, r0: 0.5}", 4, "pipeline[0].beta.C",
         "expected "),
        (OP, first_stage("weighted_lsi_to_weak_lsi", "cert: {a: 1.0, C_exp: 1.0}", "smooth: 1"), 5,
         "pipeline[0].smooth", "expected bool"),
        (OP, first_stage("weak_lsi_to_weak_poincare", "sigma_cap: high"), 4, "pipeline[0].sigma_cap", "expected "),
        (OP, first_stage("tail_to_weak_lsi", "a: 0.5", "tail: {levels: [0, 1], values: [1, 0.1], confidence: abc}"),
         5, "pipeline[0].tail.confidence", "expected "),
        # a confidence of 0 used to certify s_min = 0, and 1.5 a tail of NaNs
        (OP, first_stage("tail_to_weak_lsi", "a: 0.5", "tail: {from_ensemble: b.pens, confidence: 0}"),
         5, "pipeline[0].tail.confidence", "must lie in (0, 1)"),
        (OP, first_stage("tail_to_weak_lsi", "a: 0.5", "tail: {from_ensemble: b.pens, confidence: 1.5}"),
         5, "pipeline[0].tail.confidence", "must lie in (0, 1)"),
    ],
    ids=["points_zero", "params_value", "params_word", "beta_C", "smooth", "sigma_cap", "confidence",
         "confidence_zero", "confidence_above_one"],
)
def test_bad_transfer_input_names_file_and_line(tmp_path, capsys, old, new, line, key, message):
    cfg = write(tmp_path, "bad.yaml", TRANSFER_YAML.replace(old, new))
    assert main(["transfer", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"bad.yaml:{line}: {key}: " in err and message in err


def test_nan_tail_file_is_rejected_by_its_stage(tmp_path, capsys):
    (tmp_path / "tail.json").write_text(
        '{"type": "tail_bound", "levels": [0.0, 1.0, 2.0], "values": [1.0, NaN, 0.01]}'
    )
    stage = first_stage("tail_to_weak_lsi", "a: 0.5", "tail: {file: tail.json}")
    code = main(["transfer", "--config", write(tmp_path, "t.yaml", TRANSFER_YAML.replace(OP, stage)),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "stage 0 (tail_to_weak_lsi): tail levels and values must be finite" in capsys.readouterr().err


def test_sigma_cap_above_one_is_rejected_by_its_stage(tmp_path, capsys):
    # with sigma_cap 3 the stage used to exit 0 with negative C1' and alpha
    chain = TRANSFER_YAML + "  - " + first_stage(
        "weak_lsi_to_weak_poincare", "beta: {C: 1.0, r0: 0.5}", "r: 0.45", "sigma_cap: 3.0\n"
    )
    code = main(["transfer", "--config", write(tmp_path, "t.yaml", chain), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "stage 1 (weak_lsi_to_weak_poincare): sigma_cap must lie in (0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("coord", [3, -1], ids=["out_of_range", "negative"])
def test_bad_coord_names_file_and_key(tmp_path, capsys, coord):
    # a 3-d Wiener ensemble has coordinates 0, 1 and 2
    sample = SAMPLE_YAML.replace("hyperbolic_bridge", "wiener")
    estimate = ESTIMATE_YAML.replace(
        "[weight_tail, exp_square_moment]", f"[variance]\nfunctions: [{{type: coordinate, coord: {coord}}}]"
    )
    out = str(tmp_path / "out")
    assert main(["sample", "--config", write(tmp_path, "s.yaml", sample), "--out", out]) == 0
    capsys.readouterr()
    assert main(["estimate", "--config", write(tmp_path, "bad.yaml", estimate), "--out", out]) == 2
    assert "bad.yaml:4: functions[0].coord: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "sampler, dim, message",
    [("wiener", 0, "dim must be >= 1"), ("wiener", -1, "dim must be >= 1"),
     ("hyperbolic_bridge", 4, "the hyperbolic bridge takes dim 2 or 3")],
    ids=["zero", "negative", "bridge_4"],
)
def test_bad_dim_names_file_and_line(tmp_path, capsys, sampler, dim, message):
    # dim 0 used to write an ensemble without coordinates, -1 to fail inside
    # numpy and 4 on the bridge to name neither the key nor its line
    sample = SAMPLE_YAML.replace("hyperbolic_bridge", sampler).replace("dim: 3", f"dim: {dim}")
    assert main(["sample", "--config", write(tmp_path, "s.yaml", sample), "--out", str(tmp_path / "out")]) == 2
    assert f"s.yaml:5: dim: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("out/*.pens"))


# a 1-d Wiener ensemble on the grid 0, 0.25, 0.5, 0.75, 1
WIENER_4_YAML = (SAMPLE_YAML.replace("hyperbolic_bridge", "wiener").replace("dim: 3", "dim: 1")
                 .replace("n_steps: 16", "n_steps: 4").replace("  tail: {lam: 0.5, floor: 1.0e-6}\n", ""))


@pytest.mark.parametrize(
    "time, message",
    [(0.3, "time 0.3 is not a grid node"), (-1, "evaluation times must be positive"),
     (2.0, "time 2.0 is not a grid node"), (0, "evaluation times must be positive")],
    ids=["off_grid", "negative", "past_T", "zero"],
)
def test_bad_function_time_names_file_and_key(tmp_path, capsys, time, message):
    out = str(tmp_path / "out")
    assert main(["sample", "--config", write(tmp_path, "s.yaml", WIENER_4_YAML), "--out", out]) == 0
    estimate = ESTIMATE_YAML.replace("[weight_tail, exp_square_moment]",
                                     f"[variance]\nfunctions:\n  - {{type: coordinate, time: {time}}}")
    capsys.readouterr()
    assert main(["estimate", "--config", write(tmp_path, "e.yaml", estimate), "--out", out]) == 2
    assert f"e.yaml:5: functions[0].time: {message}" in capsys.readouterr().err


# an absent key is named at the line of the mapping it is missing from
@pytest.mark.parametrize("functions, where", [("functions: []\n", "e.yaml:4"), ("", "e.yaml:1")],
                         ids=["empty", "absent"])
def test_rayleigh_without_functions_names_the_key(tmp_path, capsys, functions, where):
    estimate = ESTIMATE_YAML.replace("estimators: [weight_tail, exp_square_moment]\n",
                                     f"estimators: [rayleigh]\n{functions}")
    assert main(["estimate", "--config", write(tmp_path, "e.yaml", estimate), "--out", str(tmp_path / "o")]) == 2
    assert f"{where}: functions: rayleigh needs at least one function" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_program_bug_is_not_a_config_error(tmp_path, monkeypatch, threads):
    import pathineq.estimators

    def broken(*args, **kwargs):
        raise TypeError("unexpected keyword 'x'")

    out = str(tmp_path / "out")
    assert main(["sample", "--config", write(tmp_path, "s.yaml", SAMPLE_YAML), "--out", out]) == 0
    e2 = ESTIMATE_YAML.replace("bridge-tail", "other").replace("tail_estimates", "other")
    configs = ["--config", write(tmp_path, "e1.yaml", ESTIMATE_YAML), "--config", write(tmp_path, "e2.yaml", e2)]
    monkeypatch.setattr(pathineq.estimators, "weight_tail", broken)
    with pytest.raises(TypeError, match="unexpected keyword"):
        main(["estimate", *configs, "--out", out, "--threads", threads])


def test_duplicate_scenario_names_rejected(tmp_path, capsys):
    c1 = write(tmp_path, "a.yaml", SAMPLE_YAML)
    c2 = write(tmp_path, "b.yaml", SAMPLE_YAML)
    code = main(["sample", "--config", c1, "--config", c2, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "duplicate" in capsys.readouterr().err


def test_threads_flag_merges_deterministically(tmp_path):
    c1 = write(tmp_path, "a.yaml", SAMPLE_YAML)
    c2 = write(tmp_path, "b.yaml", SAMPLE_YAML.replace("tiny-bridge", "other").replace("bridge.pens", "other.pens"))
    out = str(tmp_path / "o")
    assert main(["sample", "--config", c1, "--config", c2, "--out", out, "--threads", "2"]) == 0
    report = json.loads((tmp_path / "o" / "sample_report.json").read_text())
    names = [s["name"] for s in report["scenarios"]]
    assert names == sorted(names)  # merged by scenario name


def test_thread_count_does_not_change_outputs(tmp_path):
    from pathineq.samplers import _CHUNK

    other = SAMPLE_YAML.replace("tiny-bridge", "other").replace("bridge.pens", "other.pens")
    samples = [write(tmp_path, "s1.yaml", SAMPLE_YAML), write(tmp_path, "s2.yaml", other.replace("99", "7"))]
    # two bridges of more than one path chunk each: under --threads 2 their chunk pools run side by side
    for name, seed in (("big-a", 3), ("big-b", 4)):
        big = SAMPLE_YAML.replace("tiny-bridge", name).replace("bridge.pens", f"{name}.pens")
        big = big.replace("seed: 99", f"seed: {seed}").replace("n_paths: 300", f"n_paths: {_CHUNK + 1000}")
        samples.append(write(tmp_path, f"{name}.yaml", big))
    e2 = ESTIMATE_YAML.replace("bridge-tail", "other-tail").replace("bridge.pens", "other.pens")
    estimates = [write(tmp_path, "e1.yaml", ESTIMATE_YAML), write(tmp_path, "e2.yaml", e2.replace("tail_estimates", "other"))]
    runs = {}
    for threads in ("1", "2"):
        out = str(tmp_path / f"o{threads}")
        for command, cfgs in (("sample", samples), ("estimate", estimates)):
            configs = [a for c in cfgs for a in ("--config", c)]
            assert main([command, *configs, "--out", out, "--threads", threads]) == 0
        runs[threads] = {f: (tmp_path / f"o{threads}" / f).read_bytes() for f in sorted(os.listdir(out))}

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k != "elapsed_s"}
        return [strip(v) for v in obj] if isinstance(obj, list) else obj

    assert runs["1"].keys() == runs["2"].keys()
    for f, b1 in runs["1"].items():
        if f.endswith("_report.json"):
            r1, r2 = (json.loads(r[f].decode().replace(str(tmp_path / f"o{t}"), "OUT")) for t, r in runs.items())
            assert strip(r1) == strip(r2)
        else:
            assert b1 == runs["2"][f], f


GAUSS_SAMPLE_YAML = """\
name: gauss
sampler: wiener
seed: 5
n_paths: 2000
dim: 1
T: 1.0
grid: {n_steps: 1}
out: gauss.pens
"""

GAUSS_ESTIMATE_YAML = """\
name: est-gauss
ensemble: gauss.pens
kernel: based_path
estimators: [rayleigh, lsi_ratio, variance, entropy]
functions:
  - {type: hermite, degree: 1, label: He1}
  - {type: hermite, degree: 2, label: He2}
  - {type: hermite, degree: 3, label: He3}
  - {type: exp_half, lam: 0.5, label: exp0.5}
out: est-gauss.json
"""

H3_ESTIMATE_YAML = """\
name: est-h3
ensemble: bridge.pens
kernel: bridge
estimators: [rayleigh, variance, entropy, weight_tail, exp_square_moment]
functions:
  - {type: coordinate, coord: 0, time: 0.25}
  - {type: coordinate, coord: 0, time: 0.5}
  - {type: coordinate, coord: 1, time: 0.75}
exp_square_c: 0.25
out: est-h3.json
"""


def run_estimate_digest_scenarios(tmp_path, estimates=(GAUSS_ESTIMATE_YAML, H3_ESTIMATE_YAML)):
    out = str(tmp_path / "out")
    samples = [write(tmp_path, "gauss.yaml", GAUSS_SAMPLE_YAML), write(tmp_path, "bridge.yaml", SAMPLE_YAML)]
    assert main(["sample", *(a for c in samples for a in ("--config", c)), "--out", out]) == 0
    configs = [write(tmp_path, f"e{i}.yaml", text) for i, text in enumerate(estimates)]
    assert main(["estimate", *(a for c in configs for a in ("--config", c)), "--out", out]) == 0
    return tmp_path / "out"


# SHA-256 of the estimate JSON and Rayleigh CSV bytes, recorded with numpy
# 2.4.6 and scipy 1.17.1; a refactor of the estimators must reproduce them
ESTIMATE_DIGESTS = {
    "est-gauss.json": "dc7282920179ff867c5bf64a93caebf57f424926b06861e794dc3136f5894a60",
    "est-gauss.rayleigh.csv": "78f34993525869549d0fe91594833a8b045e11cf703332507263d52fcc26179e",
    "est-h3.json": "789335c7a617ff95ee556fd6cc5431c154abe7eaeea85d07019d12ae54bcd2a7",
    "est-h3.rayleigh.csv": "9dc693c1a524f944701e055ff40db935cc2d8608ab65d300770f6275c2dc7af8",
}


def test_estimate_outputs_pinned_digests(tmp_path):
    out = run_estimate_digest_scenarios(tmp_path)
    assert {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ESTIMATE_DIGESTS} == ESTIMATE_DIGESTS


def csv_numbers(path, columns):
    """Every cell of the named columns of a CSV file, parsed with float()."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, path
    return [float(row[c]) for row in rows for c in columns]


def test_csv_outputs_hold_plain_numbers(tmp_path):
    out = run_estimate_digest_scenarios(tmp_path)
    columns = ("variance", "variance_se", "energy", "energy_se", "ratio", "ratio_se")
    for name in ("est-gauss", "est-h3"):
        csv_numbers(out / f"{name}.rayleigh.csv", columns)
    chain = "name: chain\npipeline:\n  - op: weighted_lsi_to_weak_lsi\n    cert: {a: 0.4, C_exp: 0.9}\n" \
            "  - op: weak_lsi_to_weak_poincare\n"
    assert main(["transfer", "--config", write(tmp_path, "t.yaml", chain), "--out", str(out)]) == 0
    report = json.loads((out / "chain.transfer.json").read_text())
    for i, ycol in enumerate(("beta", "alpha")):
        tab = report["stages"][i]["tabulated"]
        assert csv_numbers(out / f"chain.stage{i}.{ycol}.csv", ("s", ycol)) == [
            x for pair in zip(tab["s"], tab[ycol]) for x in pair
        ]


def test_estimate_kernel_follows_from_the_ensemble(tmp_path):
    # the estimates without their kernel lines: the ensembles' measures give
    # the same kernels, so the pinned digests hold
    out = run_estimate_digest_scenarios(
        tmp_path, estimates=[y.replace("kernel: based_path\n", "").replace("kernel: bridge\n", "")
                             for y in (GAUSS_ESTIMATE_YAML, H3_ESTIMATE_YAML)]
    )
    assert {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ESTIMATE_DIGESTS} == ESTIMATE_DIGESTS


def test_estimate_kernel_measure_mismatch_is_config_error(tmp_path, capsys):
    sample = SAMPLE_YAML.replace("hyperbolic_bridge", "flat_bridge").replace("dim: 3", "dim: 1")
    estimate = ESTIMATE_YAML.replace(
        "[weight_tail, exp_square_moment]", "[variance]\nkernel: based_path\nfunctions: [{type: coordinate}]"
    )
    out = str(tmp_path / "out")
    assert main(["sample", "--config", write(tmp_path, "s.yaml", sample), "--out", out]) == 0
    capsys.readouterr()
    assert main(["estimate", "--config", write(tmp_path, "bad.yaml", estimate), "--out", out]) == 2
    err = capsys.readouterr().err
    assert "bad.yaml:4: kernel: a flat_bridge ensemble takes the bridge kernel" in err


def test_estimate_takes_each_total_once(tmp_path, monkeypatch):
    # rayleigh, lsi_ratio, variance and entropy of one function share four
    # components (F, F^2, F^2 log F^2, |grad F|_H^2): at most four exact_sum
    # totals and one energy computation per function; no total falls back to fsum
    import math

    import pathineq.estimators

    calls = {"exact_sum": 0, "fsum": 0, "energy": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(math, "fsum", counted("fsum", math.fsum))
    monkeypatch.setattr(pathineq.estimators, "exact_sum", counted("exact_sum", pathineq.estimators.exact_sum))
    monkeypatch.setattr(
        pathineq.estimators, "h_gradient_energy", counted("energy", pathineq.estimators.h_gradient_energy)
    )
    run_estimate_digest_scenarios(tmp_path, estimates=(GAUSS_ESTIMATE_YAML,))
    n_functions = GAUSS_ESTIMATE_YAML.count("{type:")
    assert 0 < calls["exact_sum"] <= 4 * n_functions
    assert calls["fsum"] == 0
    assert calls["energy"] == n_functions


def test_spelled_out_defaults_are_the_defaults(tmp_path):
    assert main(["sample", "--config", write(tmp_path, "s.yaml", SAMPLE_YAML), "--out", str(tmp_path)]) == 0
    bare = DEFAULTS_YAML
    for spelled in ("    budget: 10000\n", "    n_cap: 1000\n", ", confidence: 0.99", ", M: 1.0",
                    "    smooth: false\n", "profile_grid: {points: 48}\n"):
        assert spelled in bare
        bare = bare.replace(spelled, "")
    outputs = []
    for name, text in (("spelled", DEFAULTS_YAML), ("bare", bare)):
        assert main(["transfer", "--config", write(tmp_path, "t.yaml", text), "--out", str(tmp_path / name)]) == 0
        outputs.append((tmp_path / name / "defaults.transfer.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nonsense"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_verify_fast_suite_and_exit_codes(tmp_path, monkeypatch):
    out = str(tmp_path / "out")
    assert main(["verify", "ou", "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["scenarios"][0]["criterion"] == "A7"
    assert report["scenarios"][0]["passed"] is True

    # force a failure: exit code must flip to 1
    import pathineq.acceptance as acc

    def failing(out_dir=None):
        from pathineq.acceptance import CriterionResult

        return CriterionResult(cid="A7", passed=False, seconds=0.0, details={})

    failing.cid = "A7"
    monkeypatch.setitem(acc.CRITERIA, "A7", failing)
    assert main(["verify", "ou", "--out", out]) == 1


def test_env_var_default_out_dir(tmp_path, monkeypatch):
    cfg = write(tmp_path, "t.yaml", TRANSFER_YAML)
    monkeypatch.setenv("PATHINEQ_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert main(["transfer", "--config", cfg]) == 0
    assert (tmp_path / "envout" / "transfer_report.json").exists()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pathineq.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "transfer" in proc.stdout and "verify" in proc.stdout


def _schema_of(obj):
    if isinstance(obj, dict):
        return {k: _schema_of(v) for k, v in sorted(obj.items())}
    if isinstance(obj, list):
        return [_schema_of(obj[0])] if obj else ["empty"]
    if isinstance(obj, bool):
        return "bool"
    if isinstance(obj, (int, float)):
        return "number"
    return type(obj).__name__


def test_runreport_schema_golden(tmp_path):
    # the RunReport JSON schema is versioned; this golden file pins it
    out = str(tmp_path / "out")
    assert main(["verify", "ou", "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    got = _schema_of(report)
    golden_path = os.path.join(os.path.dirname(__file__), "data", "verify_report.schema.json")
    with open(golden_path) as fh:
        golden = json.load(fh)
    assert got == golden
