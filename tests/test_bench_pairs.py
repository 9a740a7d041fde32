"""The rules by which ``tools/bench_pairs.py pairs`` judges a claimed gain and a bound, a run of every
``repeat`` case at a tiny shape and one ``repeat`` through its child processes, the ``.pens`` digest by
which ``outputs`` tells a change of the stored bytes from a change of the loaded arrays, and the command
line a record stores.

``_verdict`` decides, for one end-to-end metric, whether the change's runs
carry a claimed gain over the base's and whether the change's median is worse
than the base's by more than the metric's bound.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
BENCH_PAIRS = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(BENCH_PAIRS)


@pytest.fixture(scope="module")
def bench_pairs():
    return BENCH_PAIRS


@pytest.fixture(scope="module")
def verdict(bench_pairs):
    return bench_pairs._verdict


FLAT = [10.0] * 10
SPREAD = [float(x) for x in range(10, 20)]  # inclusive quartiles 12.25 and 16.75: an interquartile range of 4.5


@pytest.mark.parametrize(
    "base, change, better, wins, losses, holds",
    [
        (FLAT, [9.0] * 9 + [10.0], "lower", 9, 0, True),  # a tie counts for neither side
        (FLAT, [9.0] * 8 + [10.0] * 2, "lower", 8, 0, False),  # 8 of 10 is not enough
        (FLAT, [9.0] * 9 + [11.0], "lower", 9, 1, True),
        (FLAT, [11.0] * 9 + [10.0], "higher", 9, 0, True),
        (FLAT, [9.0] * 10, "higher", 0, 10, False),
        (SPREAD, [x - 1.0 for x in SPREAD], "lower", 10, 0, False),  # a gain of 1 within the base's spread
        (SPREAD, [x - 4.5 for x in SPREAD], "lower", 10, 0, False),  # the gain must exceed the range, not equal it
        (SPREAD, [x - 5.0 for x in SPREAD], "lower", 10, 0, True),
        (SPREAD, [x + 5.0 for x in SPREAD], "higher", 10, 0, True),
    ],
    ids=["nine_wins_one_tie", "eight_wins", "nine_wins_one_loss", "higher_nine_wins", "higher_all_lost",
         "gain_within_iqr", "gain_equal_to_iqr", "gain_past_iqr", "higher_gain_past_iqr"],
)
def test_a_claimed_gain_needs_nine_wins_in_ten_and_a_median_gain_past_the_iqr(verdict, base, change, better, wins,
                                                                              losses, holds):
    v = verdict(base, change, better, 0.25)
    assert (v["wins"], v["losses"], v["claim_holds"]) == (wins, losses, holds)


@pytest.mark.parametrize(
    "change, better, worse",
    [
        ([12.4] * 10, "lower", False),
        ([12.6] * 10, "lower", True),  # 26% above a median of 10 with a bound of 25%
        ([7.6] * 10, "lower", False),
        ([7.6] * 10, "higher", False),
        ([7.4] * 10, "higher", True),  # 26% below
        ([12.6] * 10, "higher", False),
    ],
)
def test_worse_than_bound_is_a_share_of_the_base_median_in_the_metric_direction(verdict, change, better, worse):
    v = verdict(FLAT, change, better, 0.25)
    assert v["worse_than_bound"] is worse
    assert v["better"] == better and v["bound"] == 0.25


# the module constants of the cases at a tiny shape, and what a record of equal runs per side holds there
TINY = {"EXACT_SUM_N": 1000, "BRIDGE_SHAPES": {"h3": (3, 40, 4), "h2": (2, 40, 4)}, "AGREE_CASES": 2,
        "FLAT_SHAPE": (2, 50, 4)}
EXPECT = {"bridge": {"ks_statistic": 0.0, "abs_du_max": 0.0}, "optimizer": {"params_differ_cases": 0}}


def _tiny_variants(case, tmp):
    """The variants of the cases whose set-up writes a workload's full-size configs, at a tiny shape."""
    if case == "sample":
        for dim in (3, 2):
            (tmp / f"h{dim}.yaml").write_text(f"name: h{dim}\nsampler: hyperbolic_bridge\nseed: 5\nn_paths: 40\n"
                                              f"dim: {dim}\nT: 1.0\ngrid: {{n_steps: 4, tail: {{lam: 0.5}}}}\n"
                                              f"out: h{dim}.pens\n")
        return [("loops", [tmp, "pooled", "sample", tmp / "h3.yaml", tmp / "h2.yaml"])]
    from pathineq.samplers import SamplerConfig, TimeGrid, sample_wiener, save_ensemble

    save_ensemble(tmp / "w.pens", sample_wiener(SamplerConfig(seed=5, n_paths=200, grid=TimeGrid.uniform(1.0, 2))))
    (tmp / "e.yaml").write_text("name: e\nensemble: w.pens\nestimators: [rayleigh, variance]\n"
                                "functions: [{type: hermite, degree: 2, label: He2}]\nout: e.json\n")
    return [(mode, [tmp, mode, "estimate", tmp / "e.yaml"]) for mode in ("serial", "pooled")]


@pytest.mark.parametrize("case", list(BENCH_PAIRS.CASES))
def test_each_case_runs_in_process_at_a_tiny_shape(bench_pairs, tmp_path, monkeypatch, case):
    from pathineq import samplers

    for name, value in TINY.items():
        monkeypatch.setattr(bench_pairs, name, value)
    monkeypatch.setattr(sys, "path", list(sys.path))  # a set-up puts src and perfbench first
    monkeypatch.setattr(samplers, "_WORKERS", samplers._WORKERS)  # a serial run takes one thread
    c = bench_pairs.CASES[case]
    variants = _tiny_variants(case, tmp_path) if case in ("estimators", "sample") else c.setup(5, tmp_path)
    assert variants
    for _, args in variants:
        run = c.run(*map(str, args))  # as repeat-side passes them
        record = bench_pairs._variant({"base": [run], "change": [run]}, c.compare)
        assert record["digests_agree"] and record["sha256"]["change"] and record["results"]["change"]
        assert EXPECT.get(case, {}).items() <= record.items()


@pytest.mark.parametrize("sampler", ["wiener", "flat_bridge", "ou"])
def test_flat_repeat_runs_each_flat_sampler(bench_pairs, monkeypatch, sampler):
    assert bench_pairs.FLAT_SAMPLERS == ("wiener", "flat_bridge", "ou")
    assert bench_pairs.CASES["flat"].setup(5, None) == [(s, [s, 5]) for s in bench_pairs.FLAT_SAMPLERS]
    monkeypatch.setattr(bench_pairs, "FLAT_SHAPE", (2, 50, 4))
    monkeypatch.setattr(sys, "path", list(sys.path))
    out = bench_pairs.CASES["flat"].run(sampler, "5")  # as repeat-side passes it
    assert out.keys() == {"wall_s", "rss_before_mb", "peak_rss_mb", "points_mb", "growth_over_points", "sha256"}
    assert out["points_mb"] * 2**20 == 50 * 22 * 2 * 8  # 22 nodes: 4 uniform steps and 17 in the geometric tail
    # the kernel syncs its RSS counters lazily, so at this size the peak may read a little under the RSS
    assert out["rss_before_mb"] > 0.0 and out["peak_rss_mb"] > 0.0


def test_repeat_runs_each_side_in_a_child_and_stores_its_record(bench_pairs, tmp_path):
    into = tmp_path / "BENCH_x.json"
    bench_pairs.main(["repeat", "--base", str(ROOT), "--case", "exact_sum", "--repeats", "2", "--into", str(into)])
    record = json.loads(into.read_text())["exact_sum_seed20090"]
    assert {"machine", "loadavg", "commits", "case", "doc", "seed", "repeats", "variants"} <= record.keys()
    assert len(record["loadavg"]["before"]) == len(record["loadavg"]["after"]) == 3
    variant = record["variants"]["1M"]
    assert variant["digests_agree"] is True
    assert variant["sha256"]["base"] == variant["sha256"]["change"]
    assert variant["sha256"]["change"].keys() == {"normals.sha256", "x2logx2.sha256"}
    assert [len(variant["results"][side]["normals.fsum_ms"]["runs"]) for side in ("base", "change")] == [2, 2]


def test_pens_digest_reads_arrays_and_header_fields_not_padding(bench_pairs, tmp_path):
    from pathineq.samplers import SamplerConfig, TimeGrid, sample_wiener, save_ensemble

    ens = sample_wiener(SamplerConfig(seed=3, n_paths=10, grid=TimeGrid.uniform(1.0, 4), dim=2))
    ens.diagnostics = {"presnap_gap": np.arange(10.0), "sup_distance": np.arange(10.0, 20.0)}
    p = tmp_path / "a.pens"
    save_ensemble(p, ens)
    blob = p.read_bytes()
    hlen = int.from_bytes(blob[10:18], "little")
    h = blob[18 : 18 + hlen].rstrip(b" ") + b"  "
    repadded, changed, swapped = tmp_path / "b.pens", tmp_path / "c.pens", tmp_path / "d.pens"
    repadded.write_bytes(blob[:10] + len(h).to_bytes(8, "little") + h + blob[18 + hlen :])
    changed.write_bytes(blob[:-1] + bytes([blob[-1] ^ 1]))
    # the diagnostic arrays stored in the other order: the loaded arrays are equal, the bytes are not
    header = json.loads(blob[18 : 18 + hlen])
    header["diag_arrays"].reverse()
    swapped.write_bytes(blob[:18] + json.dumps(header).encode().ljust(hlen) + blob[18 + hlen : -160]
                        + blob[-80:] + blob[-160:-80])
    assert bench_pairs._sha256(repadded) != bench_pairs._sha256(p) != bench_pairs._sha256(swapped)
    assert bench_pairs._pens_sha256(repadded) == bench_pairs._pens_sha256(p) == bench_pairs._pens_sha256(swapped)
    assert bench_pairs._pens_sha256(changed) != bench_pairs._pens_sha256(p)


def test_a_record_names_its_checkout_and_file_not_where_they_lie(bench_pairs):
    argv = ["repeat", "--base", "/srv/parent", "--case", "sample", "--repeats", "2", "--into", "/srv/work/BENCH_x.json"]
    want = "python3 tools/bench_pairs.py repeat --base BASE --case sample --repeats 2 --into BENCH_x.json"
    assert bench_pairs._command(argv) == want
