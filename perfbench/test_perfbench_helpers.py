"""Unit tests of the benchmark's own helpers.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import PER_LAYER, complete, kernel_cost  # noqa: E402
from stats import (  # noqa: E402
    balanced_mean,
    balanced_percentile,
    geomean,
    lateness_ms,
    ok_frac,
    percentile,
    self_times,
)


def test_percentile_matches_linear_interpolation():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 90) == pytest.approx(4.6)
    assert percentile([1.0, 2.0], 50) == 1.5
    assert percentile([7.0], 90) == 7.0


def test_percentile_rejects_empty_and_bad_rank():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_balanced_percentile_weighs_classes_equally():
    # one class: Hazen positions, so the median of 1..4 is 2.5
    assert balanced_percentile([1.0, 2.0, 3.0, 4.0], [0] * 4, 50) == 2.5
    assert balanced_percentile([1.0, 2.0, 3.0, 4.0], [0] * 4, 0) == 1.0
    assert balanced_percentile([1.0, 2.0, 3.0, 4.0], [0] * 4, 100) == 4.0
    # three cheap items of class a must not outvote one of class b
    values, classes = [1.0, 1.0, 1.0, 10.0], ["a", "a", "a", "b"]
    assert percentile(values, 50) == 1.0
    assert balanced_percentile(values, classes, 50) == pytest.approx(3.25)
    assert balanced_percentile(values, classes, 90) == 10.0
    with pytest.raises(ValueError):
        balanced_percentile([1.0], [0, 1], 50)


def test_balanced_mean():
    assert balanced_mean([1.0, 1.0, 1.0, 10.0], "aaab") == 5.5
    assert balanced_mean([2.0, 4.0], [0, 0]) == 3.0
    with pytest.raises(ValueError):
        balanced_mean([], [])


def test_geomean():
    assert geomean([1.0, 4.0, 16.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])
    with pytest.raises(ValueError):
        geomean([])


def test_ok_frac_counts_failures_against_attempts():
    assert ok_frac(10, 0) == 1.0
    assert ok_frac(4, 1) == 0.75
    with pytest.raises(ValueError):
        ok_frac(0, 0)
    with pytest.raises(ValueError):
        ok_frac(3, 4)


def test_lateness_is_ms_and_never_negative():
    due = [1.0, 2.0, 3.0]
    sent = [1.001, 1.999, 3.25]
    assert lateness_ms(due, sent) == pytest.approx([1.0, 0.0, 250.0])
    with pytest.raises(ValueError):
        lateness_ms([1.0], [])


def _span(start, end, parent=-1, leaf_s=0.0):
    return {"start": start, "end": end, "parent": parent, "leaf_s": leaf_s}


def test_self_time_subtracts_children_and_leaves():
    spans = [
        _span(0.0, 10.0),               # root
        _span(1.0, 3.0, parent=0),      # child
        _span(2.0, 5.0, parent=0),      # overlaps the first child
        _span(1.5, 2.5, parent=1),      # grandchild, not root's child
        _span(6.0, 9.0, parent=0, leaf_s=1.0),
    ]
    selfs = self_times(spans)
    # root: 10 minus the union [1, 5] and [6, 9] = 10 - 4 - 3
    assert selfs[0] == pytest.approx(3.0)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(2.0)


def test_self_time_clips_children_to_parent():
    spans = [_span(0.0, 2.0), _span(1.0, 4.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_kernel_cost_scales_with_shape_and_dtype():
    flops, moved = kernel_cost(16, 32, 4, "float64")
    assert flops == 4 * 4 * 16 * 32 + 12 * 4 * 64
    assert moved == 8 * (2 * 16 * 32 + 14 * 4 * 64)
    assert kernel_cost(16, 32, 4, "float32")[1] == moved // 2


def test_complete_reports_every_layer_metric():
    report = complete({"kernel.steps": 5})
    assert list(report) == [name for name, _ in PER_LAYER]
    assert report["kernel.steps"] == {"value": 5.0, "unit": "count"}
    assert all(math.isfinite(m["value"]) for m in report.values())
