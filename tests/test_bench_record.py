"""The gain rule and the no-regression verdict tools/bench_record.py prints
after each BENCH file, on synthetic paired runs."""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)
gain = bench_record.gain


def test_a_clear_gain_on_a_lower_better_metric():
    first = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    last = [x - 0.1 for x in first]
    rule = gain("lower", first, last)
    assert rule["pairs"] == 10 and rule["won"] == 10 and rule["ties"] == 0
    assert rule["first"] == bench_record.quartiles(first)
    assert rule["last"] == bench_record.quartiles(last)
    assert rule["gap"] == pytest.approx(0.1)
    assert rule["first"]["q3"] - rule["first"]["q1"] == pytest.approx(0.035)
    assert rule["clears_spread"]


def test_higher_better_counts_the_other_way():
    first = [10.0, 11.0, 12.0, 13.0, 14.0]
    last = [12.0, 11.0, 11.0, 16.0, 20.0]
    rule = gain("higher", first, last)
    # seed by seed: won, tie, lost, won, won
    assert (rule["won"], rule["ties"]) == (3, 1)
    assert rule["gap"] == 0.0  # both medians are 12
    assert not rule["clears_spread"]
    flipped = gain("lower", first, last)
    assert (flipped["won"], flipped["ties"]) == (1, 1)


def test_a_gap_inside_the_spread_does_not_clear():
    # the last side wins every pair, but by less than the first side's
    # quartile spread, 2
    first = [10.0, 11.0, 12.0, 13.0, 14.0]
    last = [x - 1.5 for x in first]
    rule = gain("lower", first, last)
    assert rule["won"] == 5 and rule["gap"] == 1.5
    assert not rule["clears_spread"]
    assert gain("lower", first, [x - 2.5 for x in first])["clears_spread"]
    # a gap in the worse direction never clears
    assert not gain("higher", first, [x - 2.5 for x in first])["clears_spread"]


def test_the_line_states_the_verdict():
    first = [1.0, 1.1, 0.9, 1.0, 1.05]
    rule = gain("lower", first, [x - 0.5 for x in first])
    line = bench_record.gain_line("op_p50_ms", ("parent", "change"), rule)
    assert line == ("op_p50_ms: parent 1 [1-1.05] -> change 0.5 "
                    "[0.5-0.55]; change won 5 of 5 pairs, 0 ties; median "
                    "gap 0.5 > parent's spread 0.05")


@pytest.mark.parametrize("better,last", [("lower", [1.0, 2.0]),
                                         ("faster", [1.0, 2.0, 3.0])])
def test_refuses_unpaired_runs_and_unknown_directions(better, last):
    with pytest.raises(ValueError):
        gain(better, [1.0, 2.0, 3.0], last)


def test_a_change_inside_the_bound_is_within_bound():
    first = [1.0, 1.1, 0.9, 1.0, 1.05]
    rule = bench_record.regression("lower", 0.2, first,
                                   [x * 1.1 for x in first])
    assert rule["worse"] == pytest.approx(0.1)
    assert rule["spread"] == pytest.approx(0.05)
    assert rule["verdict"] == "within bound" and not rule["beats"]
    # a higher-better metric that falls is worse by the fall
    rule = bench_record.regression("higher", 0.2, first,
                                   [x * 0.9 for x in first])
    assert rule["worse"] == pytest.approx(0.1)
    assert rule["verdict"] == "within bound"
    line = bench_record.regression_line(
        "op_p50_ms", ("parent", "change"),
        bench_record.regression("lower", 0.2, first, first))
    assert line == ("op_p50_ms: change 0.00% worse than parent (bound 20%, "
                    "parent's spread 5.00%): within bound")
    line = bench_record.regression_line(
        "op_p50_ms", ("parent", "change"),
        bench_record.regression("lower", 0.2, first, [x - 0.5 for x in first]))
    assert line == ("op_p50_ms: change 50.00% better than parent (bound 20%, "
                    "parent's spread 5.00%, every run beats every parent "
                    "run): within bound")


def test_a_change_past_the_bound_is_worse_than_bound():
    first = [1.0, 1.1, 0.9, 1.0, 1.05]
    rule = bench_record.regression("lower", 0.2, first,
                                   [x * 1.3 for x in first])
    assert rule["worse"] == pytest.approx(0.3)
    assert rule["verdict"] == "worse than bound"
    # an ok_frac-like metric, all 1 on the first side, that falls by 3%
    rule = bench_record.regression("higher", 0.02, [1.0] * 5, [0.97] * 5)
    assert rule["worse"] == pytest.approx(0.03) and rule["spread"] == 0.0
    assert rule["verdict"] == "worse than bound"


def test_a_spread_wider_than_the_bound_is_unresolved():
    # the first side's (q3 - q1) / median is 2/3, past the bound 0.2: a
    # change inside the bound is unresolved, and so is a gain that does
    # not beat every run, but a last side that beats every first-side run
    # is within bound
    first = [1.0, 2.0, 3.0, 4.0, 5.0]
    rule = bench_record.regression("lower", 0.2, first,
                                   [x * 1.05 for x in first])
    assert rule["spread"] == pytest.approx(2.0 / 3.0)
    assert rule["verdict"] == "unresolved"
    assert bench_record.regression(
        "lower", 0.2, first, [x * 0.5 for x in first])["verdict"] == "unresolved"
    rule = bench_record.regression("lower", 0.2, first, [0.5] * 5)
    assert rule["beats"] and rule["verdict"] == "within bound"
    rule = bench_record.regression("higher", 0.2, first, [6.0] * 5)
    assert rule["beats"] and rule["verdict"] == "within bound"
