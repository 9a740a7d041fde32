import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time

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
  - op: tail_to_weak_lsi
    a: 0.5
    tail: {from_ensemble: bridge.pens, confidence: 0.99}
  - op: weighted_lsi_to_weak_lsi
    cert: {a: 1.0, C_exp: 0.5, M: 1.0}
    smooth: false
  - op: weak_lsi_to_weak_poincare
profile_grid: {points: 48}
"""


OP = TRANSFER_YAML[TRANSFER_YAML.index("op:"):].rstrip("\n")
HUGE = "1" + "0" * 400  # an integer beyond float range


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
    assert "t.yaml:6: pipeline[1].beta: " in capsys.readouterr().err
    assert not any((tmp_path / "o").iterdir())


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


@pytest.mark.parametrize("old, new, line, key", [("n_steps: 16", "n_steps: 100000000", 8, "grid.n_steps"),
                                                 ("lam: 0.5", "lam: 0.999999999", 9, "grid.tail.lam")])
def test_a_grid_too_large_exits_2_before_a_node_is_built(tmp_path, capsys, monkeypatch, old, new, line, key):
    # each used to build every node before any check, and ran past 60 s on its way to exhausting memory
    from pathineq.samplers import TimeGrid

    built, init = [], TimeGrid.__init__
    monkeypatch.setattr(TimeGrid, "__init__", lambda self, nodes: built.append(nodes) or init(self, nodes))
    cfg = write(tmp_path, "big.yaml", SAMPLE_YAML.replace(old, new))
    t = time.perf_counter()
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - t < 1.0
    assert f"big.yaml:{line}: {key}: " in capsys.readouterr().err
    assert built == []


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
        # a mapping entry raised TypeError; a string and a bool were read as numbers
        ("transfer", OP, first_stage("tail_to_weak_lsi", "a: 0.5", "tail: {levels: [0, 1, {x: 1}, 3], values: [1, 0]}"),
         5, "pipeline[0].tail.levels[2]"),
        ("transfer", OP, first_stage("tail_to_weak_lsi", "a: 0.5", "tail: {levels: [0, 1, '2', 3], values: [1, 0]}"),
         5, "pipeline[0].tail.levels[2]"),
        ("transfer", OP, first_stage("tail_to_weak_lsi", "a: 0.5", "tail: {levels: [0, 1], values: [true, 0]}"),
         5, "pipeline[0].tail.values[0]"),
    ],
    ids=["lam", "floor", "drift_cap", "exp_square_c", "points", "coord", "time",
         "coord_bool", "n_paths_bool", "seed_bool", "T_bool", "x0_word", "y0_entry", "cert_a",
         "tail_level_mapping", "tail_level_string", "tail_value_bool"],
)
def test_non_numeric_option_names_file_and_line(tmp_path, capsys, command, old, new, line, key):
    text = {"sample": SAMPLE_YAML, "estimate": ESTIMATE_YAML, "transfer": TRANSFER_YAML}[command]
    cfg = write(tmp_path, "bad.yaml", text.replace(old, new))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"bad.yaml:{line}: {key}: expected " in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, old, new, line, key",
    [
        # a NaN time used to be read as node 0, and a NaN exp_square_c to write NaN, which is not JSON
        ("estimate", "out:", "functions: [{type: coordinate, time: .nan}]\nout:", 5, "functions[0].time"),
        ("estimate", "exp_square_c: 0.25", "exp_square_c: .nan", 4, "exp_square_c"),
        # an infinite T used to be reported against grid.tail.floor
        ("sample", "T: 1.0", "T: .inf", 6, "T"),
        ("sample", "lam: 0.5", "lam: -.inf", 9, "grid.tail.lam"),
        ("transfer", OP, first_stage("weighted_lsi_to_weak_lsi", "cert: {a: 1.0, C_exp: .nan}"), 4,
         "pipeline[0].cert.C_exp"),
        # an integer no float holds raised OverflowError, a traceback
        ("sample", "T: 1.0", f"T: {HUGE}", 6, "T"),
        ("transfer", OP, first_stage("weighted_lsi_to_weak_lsi", f"cert: {{a: {HUGE}, C_exp: 1.0}}"), 4,
         "pipeline[0].cert.a"),
        ("transfer", OP, first_stage("tail_to_weak_lsi", "a: 0.5", f"tail: {{levels: [0, {HUGE}], values: [1, 0]}}"),
         5, "pipeline[0].tail.levels[1]"),
    ],
    ids=["time_nan", "exp_square_c_nan", "T_inf", "lam_minus_inf", "C_exp_nan",
         "T_huge", "cert_a_huge", "tail_level_huge"],
)
def test_non_finite_number_names_file_and_line(tmp_path, capsys, command, old, new, line, key):
    text = {"sample": SAMPLE_YAML, "estimate": ESTIMATE_YAML, "transfer": TRANSFER_YAML}[command]
    cfg = write(tmp_path, "bad.yaml", text.replace(old, new))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"bad.yaml:{line}: {key}: expected a finite number" in capsys.readouterr().err
    assert not any((tmp_path / "o").iterdir())


@pytest.mark.parametrize("cap", ["0", "-1.0"], ids=["zero", "negative"])
def test_non_positive_drift_cap_names_file_and_line(tmp_path, capsys, cap):
    # a negative cap used to clip every drift, with cap_event_fraction 1.0
    cfg = write(tmp_path, "bad.yaml", SAMPLE_YAML.replace("x0: origin", f"drift_cap: {cap}\nx0: origin"))
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "bad.yaml:10: drift_cap: drift_cap must be positive" in capsys.readouterr().err
    assert not list(tmp_path.glob("o/*.pens"))


def test_tiny_moment_exponent_exits_2_within_seconds(tmp_path, capsys):
    # the scan start was a linear search over about sqrt(2/C_exp) levels: at
    # C_exp = 1e-16 it ran for minutes, and every evaluation then failed
    stage = first_stage("weighted_lsi_to_weak_lsi", "cert: {a: 1.0, C_exp: 1.0e-16}")
    cfg = write(tmp_path, "t.yaml", TRANSFER_YAML.replace(OP, stage))
    t = time.perf_counter()
    assert main(["transfer", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - t < 2.0
    err = capsys.readouterr().err
    assert "stage 0 (weighted_lsi_to_weak_lsi): moment exponent C_exp = 1e-16 is too small" in err


@pytest.mark.parametrize("a", ["1.0e+154", "1.0e+200"])
def test_huge_gradient_bound_exits_2_naming_a(tmp_path, capsys, a):
    # the cut-off levels overflow: the stage used to certify beta = 3200 at every s
    stage = first_stage("weighted_lsi_to_weak_lsi", f"cert: {{a: {a}, C_exp: 1.0}}")
    cfg = write(tmp_path, "t.yaml", TRANSFER_YAML.replace(OP, stage))
    assert main(["transfer", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"stage 0 (weighted_lsi_to_weak_lsi): gradient bound a = {float(a)} is too large" in err


def test_huge_gradient_bound_of_a_tail_exits_2_naming_a(tmp_path, capsys):
    # the cut-off factor overflows: the stage used to fail with "no level improves on the first"
    stage = first_stage("tail_to_weak_lsi", "a: 1.0e+160", "tail: {levels: [0, 1, 2, 3], values: [1, 0.1, 0, 0]}")
    cfg = write(tmp_path, "t.yaml", TRANSFER_YAML.replace(OP, stage))
    assert main(["transfer", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "stage 0 (tail_to_weak_lsi): gradient bound a = 1e+160 is too large" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, line, key, message",
    [
        ("epsilon: 0.125}\n", "epsilon: 0.125}\nprofile_grid: {points: 0}\n", 6, "profile_grid.points",
         "must lie in [1, 100000], got 0"),
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


@pytest.mark.parametrize(
    "old, new, line, key, message",
    [
        # each was taken and then ignored, and the run exited 0
        (OP, first_stage("weighted_lsi_to_weak_lsi", "cert: {a: 1.0, C_exp: 1.0}", "beta: {C: 1.0, r0: 0.5}"), 5,
         "pipeline[0].beta", "unknown key"),
        (OP, first_stage("weighted_lsi_to_weak_lsi", "cert: {a: 1.0, C_exp: 1.0}", "params: auto"), 5,
         "pipeline[0].params", "unknown key"),
        (OP, first_stage("tail_to_weak_lsi", "a: 0.5", f"tail: {{{GAUSS_TAIL}}}", "beta: {C: 1.0, r0: 0.5}"), 6,
         "pipeline[0].beta", "unknown key"),
        (OP, first_stage("tail_to_weak_lsi", "a: 0.5", f"tail: {{{GAUSS_TAIL}}}", "params: auto"), 6,
         "pipeline[0].params", "unknown key"),
        (OP, first_stage("weak_lsi_to_weak_poincare", "beta: {C: 1.0, r0: 0.5}", "params: auto"), 5,
         "pipeline[0].params", "unknown key"),
        # the inline levels won, and the file was never opened
        (OP, first_stage("tail_to_weak_lsi", "a: 0.5", f"tail: {{{GAUSS_TAIL}, file: nonexistent.json}}"), 5,
         "pipeline[0].tail.file", "a tail takes one of"),
        # the scan and search sizes are no stage's keys
        (OP, first_stage("tail_to_weak_lsi", "a: 0.5", f"tail: {{{GAUSS_TAIL}}}", "n_cap: 1000"), 6,
         "pipeline[0].n_cap", "unknown key"),
        (OP, first_stage("weak_lsi_to_poincare", "beta: {C: 1.0, r0: 0.5}", "params: auto", "budget: 10000"), 6,
         "pipeline[0].budget", "unknown key"),
        # a stray key inside beta or params was ignored, a missing one named only by its quoted name
        ("r0: 0.5}", "r0: 0.5, R0: 3}", 4, "pipeline[0].beta.R0", "unknown key"),
        ("C: 1.0, r0: 0.5}", "C: 1.0}", 4, "pipeline[0].beta.r0", "missing required key"),
        ("family: c_log_inv_s", "family: tabulated", 4, "pipeline[0].beta.family",
         "expected one of ['c_log_inv_s'], got 'tabulated'"),
        ("epsilon: 0.125}", "epsilon: 0.125, delta: 9}", 5, "pipeline[0].params.delta", "unknown key"),
        ("log2_delta: 0.5, log2_delta0: 4.5, epsilon: 0.125", "delta: 2.0, epsilon: 0.1", 5,
         "pipeline[0].params.delta0", "missing required key"),
    ],
    ids=["beta_on_weighted", "params_on_weighted", "beta_on_tail", "params_on_tail", "params_on_weak_poincare",
         "tail_levels_and_file", "n_cap", "budget", "beta_R0", "beta_no_r0", "beta_family",
         "params_delta_beside_log2", "params_no_delta0"],
)
def test_stage_key_no_reader_takes_names_file_and_line(tmp_path, capsys, old, new, line, key, message):
    cfg = write(tmp_path, "bad.yaml", TRANSFER_YAML.replace(old, new))
    assert main(["transfer", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"bad.yaml:{line}: {key}: {message}" in capsys.readouterr().err
    assert not any((tmp_path / "o").iterdir())


def test_nan_tail_file_is_rejected_by_its_stage(tmp_path, capsys):
    (tmp_path / "tail.json").write_text(
        '{"type": "tail_bound", "levels": [0.0, 1.0, 2.0], "values": [1.0, NaN, 0.01]}'
    )
    stage = first_stage("tail_to_weak_lsi", "a: 0.5", "tail: {file: tail.json}")
    code = main(["transfer", "--config", write(tmp_path, "t.yaml", TRANSFER_YAML.replace(OP, stage)),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "stage 0 (tail_to_weak_lsi): tail levels and values must be finite" in capsys.readouterr().err


def test_bad_tail_file_metadata_is_rejected_by_its_stage(tmp_path, capsys):
    # the metadata used to be published as is in the tail-scan profile's params
    (tmp_path / "tail.json").write_text(
        '{"type": "tail_bound", "levels": [0.0, 1.0, 2.0], "values": [1.0, 0.1, 0.01], "source": "empirical",'
        ' "n_samples": "many", "confidence": 7}'
    )
    stage = first_stage("tail_to_weak_lsi", "a: 0.5", "tail: {file: tail.json}")
    code = main(["transfer", "--config", write(tmp_path, "t.yaml", TRANSFER_YAML.replace(OP, stage)),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "stage 0 (tail_to_weak_lsi): an empirical tail needs n_samples, an int >= 2, got 'many'" in (
        capsys.readouterr().err)
    assert not any((tmp_path / "o").iterdir())


@pytest.mark.parametrize("points", [1000000000000000, 100001], ids=["points_huge", "points_past_max"])
def test_oversize_scan_exits_2_before_it_is_allocated(tmp_path, capsys, monkeypatch, points):
    # 10**15 points ran every transfer and then was a program-bug traceback: numpy could not allocate the table
    from pathineq import pipeline

    def ran(*args):
        raise AssertionError("a transfer ran before the grid size was read")

    monkeypatch.setattr(pipeline, "weak_lsi_to_poincare", ran)
    cfg = write(tmp_path, "t.yaml", TRANSFER_YAML + f"profile_grid: {{points: {points}}}\n")
    assert main(["transfer", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"t.yaml:6: profile_grid.points: points must lie in [1, 100000], got {points}" in capsys.readouterr().err
    assert not any((tmp_path / "o").iterdir())


def test_misspelled_key_in_a_tail_file_fails_its_stage(tmp_path, capsys):
    # it used to be dropped, and the tail read as if the key were absent
    (tmp_path / "tail.json").write_text('{"type": "tail_bound", "levels": [0.0, 1.0, 2.0], "values": [1.0, 0.1, 0.01]'
                                        ', "source": "analytic", "confidense": 0.99}')
    stage = first_stage("tail_to_weak_lsi", "a: 0.5", "tail: {file: tail.json}")
    code = main(["transfer", "--config", write(tmp_path, "t.yaml", TRANSFER_YAML.replace(OP, stage)),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "stage 0 (tail_to_weak_lsi): unknown key 'confidense' in a serialized tail bound" in capsys.readouterr().err
    assert not any((tmp_path / "o").iterdir())


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


@pytest.mark.parametrize(
    "sampler, key, point, message",
    [
        # the ou paths used to start from the stationary law whatever x0 said
        ("ou", "x0", "[5.0, 0, 0]", "the ou sampler starts from its stationary law: x0 must be origin"),
        # y0 used to be hashed into the ensemble and never used
        ("wiener", "y0", "[0, 0, 0]", "the wiener sampler takes no end point: y0 must be origin"),
        ("flat_bridge", "y0", "[1, 0, 0]", "the flat_bridge sampler takes no end point: y0 must be origin"),
        ("ou", "y0", "[0, 0, 0]", "the ou sampler takes no end point: y0 must be origin"),
        # numpy's broadcast error used to name no key
        ("wiener", "x0", "[1.0, 2.0]", "expected 3 coordinates, got 2"),
        # a point of H^3 has dim + 1 = 4 coordinates
        ("hyperbolic_bridge", "x0", "[0, 0, 1]", "expected 4 coordinates, got 3"),
        ("hyperbolic_bridge", "y0", "[0, 0, 0, 1, 0]", "expected 4 coordinates, got 5"),
        # the samplers' own checks used to name neither the line nor the key
        ("hyperbolic_bridge", "x0", "[0.5, 0, 0, 1.0]", "x0 must be a point on the hyperboloid sheet of H^3"),
        ("hyperbolic_bridge", "y0", "[0, 0, 0, 2.0]", "y0 must be a point on the hyperboloid sheet of H^3"),
        # the lower sheet used to pass, and the bridge then failed with an IndexError
        ("hyperbolic_bridge", "x0", "[0, 0, 0, -1.0]", "x0 must be a point on the hyperboloid sheet of H^3"),
        ("flat_bridge", "x0", "[1.0, 0, 0]", "flat bridge is pinned at the origin"),
    ],
    ids=["ou_x0", "wiener_y0", "flat_bridge_y0", "ou_y0", "wiener_x0_length", "bridge_x0_length", "bridge_y0_length",
         "bridge_x0_off_sheet", "bridge_y0_off_sheet", "bridge_x0_lower_sheet", "flat_bridge_x0"],
)
def test_bad_start_or_end_point_names_file_and_key(tmp_path, capsys, sampler, key, point, message):
    sample = SAMPLE_YAML.replace("hyperbolic_bridge", sampler).replace(f"{key}: origin", f"{key}: {point}")
    assert main(["sample", "--config", write(tmp_path, "s.yaml", sample), "--out", str(tmp_path / "out")]) == 2
    line = {"x0": 10, "y0": 11}[key]
    assert f"s.yaml:{line}: {key}: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("out/*.pens"))


@pytest.mark.parametrize(
    "sampler, point",
    [("flat_bridge", "[0, -0.0, 0]"), ("hyperbolic_bridge", "[0.6, 0, 0.8, 1.4142135623730951]")],
    ids=["flat_bridge_zero", "bridge_on_sheet"],
)
def test_start_point_on_its_sampler_is_taken(tmp_path, sampler, point):
    from pathineq.samplers import load_ensemble

    sample = SAMPLE_YAML.replace("hyperbolic_bridge", sampler).replace("x0: origin", f"x0: {point}")
    out = tmp_path / "out"
    assert main(["sample", "--config", write(tmp_path, "s.yaml", sample), "--out", str(out)]) == 0
    assert load_ensemble(str(out / "bridge.pens")).points[0, 0, :].tolist() == yaml.safe_load(point)


def test_start_point_of_a_flat_sampler_is_taken(tmp_path):
    from pathineq.samplers import load_ensemble

    sample = SAMPLE_YAML.replace("hyperbolic_bridge", "wiener").replace("x0: origin", "x0: [1.0, -2.0, 0.5]")
    out = tmp_path / "out"
    assert main(["sample", "--config", write(tmp_path, "s.yaml", sample), "--out", str(out)]) == 0
    assert load_ensemble(str(out / "bridge.pens")).points[:, 0, :].tolist() == [[1.0, -2.0, 0.5]] * 300


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


@pytest.mark.parametrize(
    "second, key, label",
    [("{type: hermite, degree: 1, label: f}", "functions[1].label", "f"),
     ("{type: coordinate, coord: 0}", "functions[1]", "x0(t=1.0)"),
     ("{type: hermite, degree: 1, label: x0(t=1.0)}", "functions[1].label", "x0(t=1.0)")],
    ids=["given", "default", "given_as_default"],
)
def test_duplicate_function_label_names_file_and_key(tmp_path, capsys, second, key, label):
    # the variance result used to keep one entry per label, the last function's
    out = tmp_path / "out"
    assert main(["sample", "--config", write(tmp_path, "s.yaml", WIENER_4_YAML), "--out", str(out)]) == 0
    first = "{type: coordinate, label: f}" if label == "f" else "{type: coordinate}"
    estimate = ESTIMATE_YAML.replace("[weight_tail, exp_square_moment]",
                                     f"[variance, rayleigh]\nfunctions:\n  - {first}\n  - {second}")
    capsys.readouterr()
    assert main(["estimate", "--config", write(tmp_path, "e.yaml", estimate), "--out", str(out)]) == 2
    assert f"e.yaml:6: {key}: duplicate label {label!r}" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["bridge.pens", "sample_report.json"]


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
    from pathineq.samplers import _BLOCK

    other = SAMPLE_YAML.replace("tiny-bridge", "other").replace("bridge.pens", "other.pens")
    samples = [write(tmp_path, "s1.yaml", SAMPLE_YAML), write(tmp_path, "s2.yaml", other.replace("99", "7"))]
    # two bridges of more than one path block each: under --threads 2 their block pools run side by side
    for name, seed in (("big-a", 3), ("big-b", 4)):
        big = SAMPLE_YAML.replace("tiny-bridge", name).replace("bridge.pens", f"{name}.pens")
        big = big.replace("seed: 99", f"seed: {seed}").replace("n_paths: 300", f"n_paths: {_BLOCK + 1000}")
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
    "est-h3.json": "23b9539e9f199718fd786b46495d4f82ad54bcdcd74e5c5cd5393419089fc729",
    "est-h3.rayleigh.csv": "f95b2ea642caf1190009c687a9f7e22d247ff2e0f604eb694cb6d00779598d1b",
}


def test_estimate_outputs_pinned_digests(tmp_path):
    out = run_estimate_digest_scenarios(tmp_path)
    assert {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ESTIMATE_DIGESTS} == ESTIMATE_DIGESTS


# a tail's weak LSI (r0 = Infinity), its weak-Poincare table and a Poincare constant
TRANSFER_DIGEST_YAML = """\
name: pins
pipeline:
  - op: tail_to_weak_lsi
    a: 0.5
    tail: {levels: [0, 1, 2, 3, 4, 5, 6], values: [1.0, 0.5, 0.1, 0.01, 1.0e-4, 1.0e-7, 1.0e-11]}
  - op: weak_lsi_to_weak_poincare
  - op: weak_lsi_to_poincare
    beta: {C: 1.0, r0: 0.5}
    params: {log2_delta: 0.5, log2_delta0: 4.5, epsilon: 0.125}
profile_grid: {points: 16}
"""

# SHA-256 of the transfer JSON and stage CSV bytes, recorded with numpy 2.4.6
# and scipy 1.17.1 from json.dump(indent=1) and repr; the report writer must reproduce them
TRANSFER_DIGESTS = {
    "pins.transfer.json": "1c609bf3ac4312060184d0c81746dc9ae60f55edb1ef6b27584631d079bbdb58",
    "pins.stage0.beta.csv": "0c20644f3bdc447d4a9d3b1104b1fcfe94e983f91a4a0619c7fc3b1b4a18dacd",
    "pins.stage1.alpha.csv": "1d74f75dd0e0ca84ca004f89ac659b4c7d0126244589c8417a46370ce2974ac5",
}


def test_transfer_outputs_pinned_digests(tmp_path):
    out = tmp_path / "out"
    assert main(["transfer", "--config", write(tmp_path, "t.yaml", TRANSFER_DIGEST_YAML), "--out", str(out)]) == 0
    assert {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in TRANSFER_DIGESTS} == TRANSFER_DIGESTS


def test_non_finite_table_values_are_json_and_repr(tmp_path, monkeypatch):
    # the JSON writes Infinity and NaN as json does, the CSV writes repr
    from pathineq import pipeline

    report = pipeline.pipeline_report

    def with_non_finite(results, **kw):
        out = report(results, **kw)
        tab = out[1]["tabulated"]
        tab["s"][:3], tab["alpha"][:3] = [1e-300, 5e-324, -0.0], [math.inf, math.nan, -math.inf]
        tab["alpha"][3:5] = [-0.0, 0.0]  # one dict key
        return out

    monkeypatch.setattr(pipeline, "pipeline_report", with_non_finite)
    out = tmp_path / "out"
    assert main(["transfer", "--config", write(tmp_path, "t.yaml", TRANSFER_DIGEST_YAML), "--out", str(out)]) == 0
    text = (out / "pins.transfer.json").read_text()
    stages = json.loads(text)["stages"]
    assert text == json.dumps({"name": "pins", "stages": stages}, indent=1)
    assert stages[1]["tabulated"]["alpha"][:3] == [math.inf, pytest.approx(math.nan, nan_ok=True), -math.inf]
    rows = (out / "pins.stage1.alpha.csv").read_text().splitlines()
    assert [r.split(",")[1] for r in rows[:6]] == ["alpha", "inf", "nan", "-inf", "-0.0", "0.0"]
    assert rows[1:] == [f"{s!r},{a!r}" for s, a in zip(stages[1]["tabulated"]["s"], stages[1]["tabulated"]["alpha"])]


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
    for spelled in (", confidence: 0.99", ", M: 1.0",
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


def test_bad_config_seed_names_its_line_and_bad_seed_flag_does_not(tmp_path, capsys):
    cfg = write(tmp_path, "bad.yaml", SAMPLE_YAML.replace("seed: 99", "seed: -1"))
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "bad.yaml:3: seed: seed must fit in 64 bits" in capsys.readouterr().err
    # no config line is at fault for a flag
    cfg = write(tmp_path, "s.yaml", SAMPLE_YAML)
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2
    assert f"error: {cfg}: seed must fit in 64 bits" in capsys.readouterr().err
    assert not list(tmp_path.glob("o/*.pens"))


def test_csv_export_limit_is_checked_before_sampling(tmp_path, capsys, monkeypatch):
    from pathineq import samplers

    csv_yaml = WIENER_4_YAML.replace("n_steps: 4", "n_steps: 1").replace("out: bridge.pens", "format: csv\nout: w.csv")
    out = tmp_path / "out"

    def sample(cfg):
        raise AssertionError("sampled a run that CSV export refuses")

    with monkeypatch.context() as m:
        m.setattr(samplers, "sample_wiener", sample)
        cfg = write(tmp_path, "s.yaml", csv_yaml.replace("n_paths: 300", "n_paths: 10001"))
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 2
    assert "s.yaml:11: format: CSV export is for small runs (n_paths <= 10000)" in capsys.readouterr().err
    assert not any(out.iterdir())
    cfg = write(tmp_path, "s.yaml", csv_yaml.replace("n_paths: 300", "n_paths: 10000"))
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    assert len((out / "w.csv").read_text().splitlines()) == 1 + 10000 * 2


def test_sample_calls_the_sampler_the_module_holds(tmp_path, monkeypatch):
    # a wrap of the module's sampler, as perfbench's tracer makes, is what the CLI must run
    from pathineq import samplers

    calls = []

    def sample(cfg, run=samplers.sample_hyperbolic_bridge, **kw):
        calls.append(cfg.n_paths)
        return run(cfg, **kw)

    monkeypatch.setattr(samplers, "sample_hyperbolic_bridge", sample)
    assert main(["sample", "--config", write(tmp_path, "s.yaml", SAMPLE_YAML), "--out", str(tmp_path / "o")]) == 0
    assert calls == [300] and (tmp_path / "o" / "bridge.pens").exists()


@pytest.mark.parametrize("tail", [GAUSS_TAIL, "file: t.json"], ids=["levels", "file"])
def test_tail_confidence_off_an_ensemble_names_its_line(tmp_path, capsys, tail):
    # it used to be taken and then ignored
    stage = first_stage("tail_to_weak_lsi", "a: 0.5", f"tail: {{{tail}, confidence: 0.5}}")
    cfg = write(tmp_path, "bad.yaml", TRANSFER_YAML.replace(OP, stage))
    assert main(["transfer", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "bad.yaml:5: pipeline[0].tail.confidence: confidence applies only to a tail from_ensemble" in err


def test_negative_hermite_degree_names_its_key(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["sample", "--config", write(tmp_path, "s.yaml", WIENER_4_YAML), "--out", out]) == 0
    for degree in (-1, 151, 1000000000000000):  # 10**15 was a program-bug traceback: numpy could not allocate
        estimate = ESTIMATE_YAML.replace("[weight_tail, exp_square_moment]",
                                         f"[variance]\nfunctions:\n  - {{type: hermite, degree: {degree}}}")
        capsys.readouterr()
        assert main(["estimate", "--config", write(tmp_path, "e.yaml", estimate), "--out", out]) == 2
        assert f"e.yaml:5: functions[0].degree: degree must be an int in [0, 150], got {degree}" in (
            capsys.readouterr().err)


@pytest.mark.parametrize("tag, dim", [("wiener", 2), ("flat_bridge", 2), ("ou", 1), ("hyperbolic_bridge", 3)])
def test_pens_file_loads_to_the_sampler_in_memory_bit_for_bit(tmp_path, tag, dim):
    # the CLI samples straight into the file's pages; the arrays start on a page, after a space-padded header
    import numpy as np

    from pathineq import samplers

    text = SAMPLE_YAML.replace("hyperbolic_bridge", tag).replace("dim: 3", f"dim: {dim}").replace("300", "4100")
    if tag != "hyperbolic_bridge":
        text = text.replace("y0: origin\n", "")
    assert main(["sample", "--config", write(tmp_path, "s.yaml", text), "--out", str(tmp_path / "o")]) == 0
    path = tmp_path / "o" / "bridge.pens"
    blob = path.read_bytes()
    hlen = int.from_bytes(blob[10:18], "little")
    text_header = blob[18 : 18 + hlen].decode()
    _, end = json.JSONDecoder().raw_decode(text_header)
    assert (18 + hlen) % 4096 == 0 and set(text_header[end:]) == {" "}
    grid = samplers.TimeGrid.with_geometric_tail(1.0, 16, 0.5, 1e-6)
    want = getattr(samplers, f"sample_{tag}")(samplers.SamplerConfig(seed=99, n_paths=4100, grid=grid, dim=dim))
    got = samplers.load_ensemble(path)
    assert got.points.tobytes() == want.points.tobytes()
    assert got.diagnostics.keys() == want.diagnostics.keys()
    for k, v in want.diagnostics.items():
        assert (got.diagnostics[k].tobytes() == v.tobytes()) if isinstance(v, np.ndarray) else got.diagnostics[k] == v
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["bridge.pens", "sample_report.json"]


def test_sampler_input_error_reserves_no_file(tmp_path, capsys, monkeypatch):
    # the sampler checks x0 before it asks for its points, so 10**9 paths reserve nothing
    calls = []
    monkeypatch.setattr(os, "posix_fallocate", lambda *args: calls.append(args))
    text = SAMPLE_YAML.replace("300", "1000000000").replace("x0: origin", "x0: [1.0, 0.0, 0.0, 1.0]")
    out = tmp_path / "o"
    assert main(["sample", "--config", write(tmp_path, "s.yaml", text), "--out", str(out)]) == 2
    assert "x0: x0 must be a point on the hyperboloid sheet of H^3" in capsys.readouterr().err
    assert calls == [] and not list(out.glob("bridge.pens*"))
