"""The rules by which ``tools/bench_pairs.py pairs`` judges a claimed gain and a bound, a run of one
``optimizer`` repeat, a run of one ``bridge`` repeat and of each side of its sup-distance comparison,
and a run of one ``flat`` repeat of each flat sampler.

``_verdict`` decides, for one end-to-end metric, whether the change's runs
carry a claimed gain over the base's and whether the change's median is worse
than the base's by more than the metric's bound.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_optimizer_repeat_runs_on_params_auto_configs(bench_pairs, tmp_path, monkeypatch):
    # it passed optimize_dyadic_params a third argument, the number of evaluations, which it no longer takes
    for i, (C, r0) in enumerate([(1.0, 0.5), (3.7, 0.01)]):
        (tmp_path / f"c{i}.yaml").write_text(f"name: c{i}\npipeline:\n  - op: weak_lsi_to_poincare\n"
                                             f"    beta: {{C: {C}, r0: {r0}}}\n    params: auto\n")
    monkeypatch.setattr(bench_pairs, "AGREE_CASES", 2)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the repeat puts its src first
    out = bench_pairs.optimizer_repeat(ROOT / "src", tmp_path, agree=True)
    assert (out["configs"], out["optimizer_calls"], out["infeasible"]) == (2, 2, 0)
    assert [len(fields) for fields, _ in out["cases"]] == [4, 4]


def test_bridge_repeat_and_both_sup_distance_shapes_run(bench_pairs, tmp_path, monkeypatch):
    # the sup distances are compared at loop_h2's shape as well as loop_h3's
    assert {shape: dims[0] for shape, dims in bench_pairs.U_SHAPES.items()} == {"h3": 3, "h2": 2}
    small = {"h3": (3, 40, 4), "h2": (2, 40, 4)}
    monkeypatch.setattr(bench_pairs, "BRIDGE_SHAPES", small)
    monkeypatch.setattr(bench_pairs, "U_SHAPES", small)
    monkeypatch.setattr(sys, "path", list(sys.path))  # each run puts its src first
    out = bench_pairs.bridge_repeat(ROOT / "src")
    assert {"drift_build_n2_s", "h2.serial.wall_s", "h3.pooled.cpu_s", "h2.sha256"} <= out.keys()
    for shape in small:
        side = bench_pairs.bridge_u(ROOT / "src", tmp_path / f"{shape}.npy", shape)
        assert np.load(tmp_path / f"{shape}.npy").shape == (40,)
        assert side["sheet_residual_max"] < 1e-10 and 0.0 <= side["cap_event_fraction"] <= 1.0


@pytest.mark.parametrize("sampler", ["wiener", "flat_bridge", "ou"])
def test_flat_repeat_runs_each_flat_sampler(bench_pairs, monkeypatch, sampler):
    assert bench_pairs.FLAT_SAMPLERS == ("wiener", "flat_bridge", "ou")
    monkeypatch.setattr(bench_pairs, "FLAT_SHAPE", (2, 50, 4))
    monkeypatch.setattr(sys, "path", list(sys.path))  # the repeat puts its src first
    out = bench_pairs.flat_repeat(ROOT / "src", sampler)
    assert out.keys() == {"wall_s", "rss_before_mb", "peak_rss_mb", "points_mb", "sha256"}
    assert out["points_mb"] * 2**20 == 50 * 22 * 2 * 8  # 22 nodes: 4 uniform steps and 17 in the geometric tail
    # the kernel syncs its RSS counters lazily, so at this size the peak may read a little under the RSS
    assert out["rss_before_mb"] > 0.0 and out["peak_rss_mb"] > 0.0
