"""The statistics of tools/bench_pairs.py, on made-up pairs (no benchmark runs)."""

import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


def test_summary_is_the_median_and_inclusive_quartiles():
    assert bench_pairs.summary([4.0, 1.0, 3.0, 2.0, 5.0]) == {"median": 3.0, "q1": 2.0,
                                                             "q3": 4.0}
    assert bench_pairs.summary([1.0, 2.0]) == {"median": 1.5, "q1": 1.25, "q3": 1.75}
    assert bench_pairs.summary([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_wins_follow_the_better_direction_and_ties_are_no_win():
    parent, change = [4.0, 4.0, 3.0, 5.0], [3.5, 4.0, 3.2, 4.0]
    assert bench_pairs.wins(parent, change, "lower") == 2
    assert bench_pairs.wins(parent, change, "higher") == 1


def test_compare_summarizes_each_metric_of_the_pairs():
    pairs = [{"seed": 1, "parent": {"wall_ref": 4.0, "peak_rss_mb": 61.0},
              "change": {"wall_ref": 3.0, "peak_rss_mb": 61.2}},
             {"seed": 2, "parent": {"wall_ref": 4.4, "peak_rss_mb": 61.0},
              "change": {"wall_ref": 3.6, "peak_rss_mb": 61.0}},
             {"seed": 3, "parent": {"wall_ref": 4.2, "peak_rss_mb": 61.1},
              "change": {"wall_ref": 3.4, "peak_rss_mb": 61.1}}]
    out = bench_pairs.compare(pairs, {"wall_ref": "lower", "peak_rss_mb": "lower"})
    wall = out["wall_ref"]
    assert wall["parent"] == pytest.approx({"median": 4.2, "q1": 4.1, "q3": 4.3})
    assert wall["change"]["median"] == 3.4
    assert (wall["wins"], wall["pairs"], wall["better"]) == (3, 3, "lower")
    assert wall["median_delta"] == pytest.approx(-0.8 / 4.2)
    assert out["peak_rss_mb"]["wins"] == 0


def test_pairs_are_parsed_in_order_and_bad_ones_refused():
    assert list(bench_pairs.parse_pairs(["phi_3d=10", "embed_float=3"]).items()) == [
        ("phi_3d", 10), ("embed_float", 3)]
    for bad in ("phi_3d", "phi_3d=0", "phi_3d=x"):
        with pytest.raises(ValueError, match="WORKLOAD=COUNT"):
            bench_pairs.parse_pairs([bad])
