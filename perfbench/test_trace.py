"""Tests of the benchmark's span recorder, tracer and definitions.

    python3 -m pytest perfbench/test_trace.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402
from spans import TARGETS, SpanRecorder, Tracer, self_times, summarize  # noqa: E402


def test_self_time_subtracts_direct_children(monkeypatch):
    clock = iter([0.0, 1.0, 3.0, 4.0, 4.5, 4.8, 5.0, 10.0])
    monkeypatch.setattr(spans, "perf_counter", lambda: next(clock))
    rec = SpanRecorder("t")
    with rec.span("outer"):
        with rec.span("a"):
            pass
        with rec.span("b"):
            with rec.span("c"):
                pass
    arr = rec.arrays()
    assert list(arr["parent"]) == [-1, 0, 0, 2]
    assert self_times(arr) == pytest.approx([10.0 - 2.0 - 1.0, 2.0, 1.0 - 0.3, 0.3])


def _bindings():
    """Every namespace entry and class attribute a Tracer may replace."""
    import importlib

    found = {}
    for module_name, attr in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, key = attr.split(".")
            cls = getattr(module, cls_name)
            found[(cls, key)] = vars(cls)[key]
            continue
        orig = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == "pathineq" or name.startswith("pathineq.")):
                for key, value in vars(mod).items():
                    if value is orig:
                        found[(mod, key)] = value
    return found


def test_tracer_restores_every_wrapped_attribute():
    import math

    from pathineq import cli, estimators, pipeline, samplers  # noqa: F401  (loads every traced module)
    from pathineq.profiles import TailBound
    from pathineq.samplers import SamplerConfig, TimeGrid

    before = _bindings()
    rec = SpanRecorder("t")
    with Tracer(rec) as tracer:
        assert tracer.replaced
        assert all(vars(owner)[key] is not orig for owner, key, orig in tracer.replaced)
        cfg = SamplerConfig(seed=3, n_paths=50, grid=TimeGrid.with_geometric_tail(1.0, 8), dim=3)
        u = estimators.sup_distance(samplers.sample_hyperbolic_bridge(cfg))
        TailBound.from_samples(u)
        levels = [float(s) for s in range(11)]
        tail = {"levels": levels, "values": [math.exp(-s * s) for s in levels]}
        pipeline.run_transfer_pipeline({"pipeline": [{"op": "tail_to_weak_lsi", "a": 0.5, "tail": tail}]})
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    m = summarize(rec.arrays())
    steps = cfg.n_paths * (cfg.grid.n_nodes - 1)
    assert m["sup_distance.calls"] == 1 and m["TailBound.from_samples.calls"] == 1
    assert m["step_normals.normals"] == steps * 3
    assert m["dist.points_per_path_step"] == pytest.approx(3.0, abs=0.1)
    assert m["tail_to_weak_lsi.calls"] == 1 and math.isclose(m["quad.calls"], 0.0)


def test_benchmark_json_matches_what_the_runs_report():
    import run
    import workloads

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS

    rec = SpanRecorder("t")
    with rec.span("checks"):
        pass
    layer = [*summarize(rec.arrays()), *run.PROCESS_METRICS]
    assert [m["name"] for m in bench["per_layer"]] == layer
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in bench["per_layer"])


def test_inputs_depend_only_on_the_seed(tmp_path):
    import workloads

    def generate(seed, sub):
        workloads.certify(seed, tmp_path / sub)
        cfg = tmp_path / sub / "cfg"
        return {p.name: p.read_bytes() for p in sorted(cfg.iterdir())}

    first = generate(7, "a")
    assert generate(7, "b") == first
    assert generate(8, "c") != first
