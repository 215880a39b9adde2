import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [20.0, 21.0, 19.5, 20.5, 22.0, 20.2, 19.8, 21.5, 20.8, 20.1]


def _claim(parent, change, direction="lower"):
    return bench_pairs.summarise(parent, change, direction, 0.25)[
        "claim_holds"]


def test_claim_holds_on_ten_wins_beyond_the_parents_spread():
    assert _claim(PARENT, [p - 4.0 for p in PARENT])
    # higher is better: the same gap the other way
    assert _claim([-p for p in PARENT], [4.0 - p for p in PARENT], "higher")


def test_claim_needs_nine_wins_in_ten():
    nine = [p - 4.0 for p in PARENT[:9]] + [PARENT[9] + 1.0]
    assert _claim(PARENT, nine)
    eight = [p - 4.0 for p in PARENT[:8]] + [p + 1.0 for p in PARENT[8:]]
    assert not _claim(PARENT, eight)


def test_a_tie_counts_for_neither_side():
    tied = [p - 4.0 for p in PARENT[:8]] + PARENT[8:]
    summary = bench_pairs.summarise(PARENT, tied, "lower", 0.25)
    assert summary["change_better_pairs"] == 8
    assert not summary["claim_holds"]


def test_claim_needs_the_medians_apart_by_more_than_the_parents_iqr():
    _, _, iqr = (bench_pairs.summarise(PARENT, PARENT, "lower", 0.25)
                 ["parent"][k] for k in ("median", "q1", "iqr"))
    assert not _claim(PARENT, [p - 0.9 * iqr for p in PARENT])
    assert _claim(PARENT, [p - 1.1 * iqr for p in PARENT])


def test_claim_needs_ten_pairs():
    assert not _claim(PARENT[:9], [p - 4.0 for p in PARENT[:9]])


def test_quartiles_are_numpys_linear_percentiles():
    summary = bench_pairs.summarise(PARENT, PARENT[::-1], "lower", 0.25)
    q1, q2, q3 = np.percentile(PARENT, [25, 50, 75])
    assert (summary["parent"]["q1"], summary["parent"]["median"],
            summary["parent"]["q3"]) == pytest.approx((q1, q2, q3),
                                                      rel=1e-15)


def test_bound_is_checked_in_the_metrics_direction():
    worse = [p * 1.2 for p in PARENT]
    assert bench_pairs.summarise(PARENT, worse, "lower", 0.25)[
        "within_bound"]
    assert not bench_pairs.summarise(PARENT, worse, "lower", 0.1)[
        "within_bound"]
    # for a rate, 20% more is better, 20% less is worse
    assert bench_pairs.summarise(PARENT, worse, "higher", 0.0)[
        "within_bound"]
    assert not bench_pairs.summarise(PARENT, [p * 0.8 for p in PARENT],
                                     "higher", 0.1)["within_bound"]


def test_parse_seeds():
    assert bench_pairs.parse_seeds("1-4,11-13,20") == [1, 2, 3, 4, 11, 12,
                                                        13, 20]
