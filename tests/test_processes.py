"""Fresh-process checks: what a command imports, and that the demos run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pathineq

SRC = Path(pathineq.__file__).resolve().parents[1]
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


def run_python(args, cwd):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)


TRANSFER_YAML = """\
name: small-chain
pipeline:
  - op: tail_to_weak_lsi
    a: 0.5
    tail: {levels: [0.0, 1.0, 2.0, 3.0, 4.0], values: [1.0, 0.4, 0.02, 1.0e-4, 1.0e-7]}
  - op: weak_lsi_to_weak_poincare
"""

SAMPLE_YAML = """\
name: small-bridge
sampler: hyperbolic_bridge
seed: 5
n_paths: 100
dim: 3
T: 1.0
grid: {n_steps: 8}
out: bridge.pens
"""

SAMPLE_H2_YAML = """\
name: small-bridge-h2
sampler: hyperbolic_bridge
seed: 5
n_paths: 100
dim: 2
T: 1.0
grid: {n_steps: 8}
out: bridge-h2.pens
"""

ESTIMATE_YAML = """\
name: small-tail
ensemble: bridge.pens
estimators: [weight_tail]
out: tail.json
"""

# runs each command in one process (sample on an H^3 and an H^2 bridge) and
# records, after each, whether scipy.stats and scipy.interpolate have been
# imported, and after the first the public scipy subpackages loaded; a bare
# `import pathineq` comes first
PROBE = """\
import json, sys
import pathineq
bare = sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})
from pathineq.cli import main
loaded = {"scipy.stats": {}, "scipy.interpolate": {}}
for command, configs in (("transfer", ["transfer"]), ("sample", ["sample", "sample-h2"]),
                         ("estimate", ["estimate"])):
    argv = [command, "--out", "out"]
    for config in configs:
        argv += ["--config", config + ".yaml"]
    assert main(argv) == 0, command
    for module, seen in loaded.items():
        seen[command] = module in sys.modules
    if command == "transfer":
        transfer = sorted({".".join(m.split(".")[:2]) for m in sys.modules
                           if m.startswith("scipy.") and not m.split(".")[1].startswith("_")})
print(json.dumps({"bare": bare, **loaded, "transfer": transfer}))
"""


def test_commands_import_only_what_they_run(tmp_path):
    for name, text in (("transfer", TRANSFER_YAML), ("sample", SAMPLE_YAML), ("sample-h2", SAMPLE_H2_YAML),
                       ("estimate", ESTIMATE_YAML)):
        (tmp_path / f"{name}.yaml").write_text(text)
    proc = run_python(["-c", PROBE], tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["bare"] == []
    assert loaded["scipy.stats"] == {"transfer": False, "sample": False, "estimate": False}
    # the n = 2 bridge reads its drift from a numpy spline
    assert loaded["scipy.interpolate"]["sample"] is False
    # the transfer command needs scipy.special alone: no scipy.optimize, and so
    # no scipy.linalg, scipy.sparse or scipy.spatial
    assert loaded["transfer"] == ["scipy.special", "scipy.version"]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr
