"""The rules by which ``tools/bench_pairs.py pairs`` judges a claimed gain and a bound.

``_verdict`` decides, for one end-to-end metric, whether the change's runs
carry a claimed gain over the base's and whether the change's median is worse
than the base's by more than the metric's bound.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def verdict():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._verdict


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
