"""Pure helpers shared by the benchmark workloads (no repro imports).

Everything here is deterministic arithmetic over plain lists so the
unit tests in ``test_perfbench_helpers.py`` can pin it down.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear interpolation.

    Matches NumPy's default (``method="linear"``): rank
    ``(n - 1) * q / 100`` between the two closest order statistics.
    Raises ``ValueError`` on an empty input, because a metric built from
    no samples must not read as a number.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile rank must be in [0, 100], got {q}")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * frac


def _by_class(values: Sequence[float], classes: Sequence) -> Dict:
    if len(values) != len(classes):
        raise ValueError("values and classes differ in length")
    if not values:
        raise ValueError("empty sample")
    groups: Dict = {}
    for value, cls in zip(values, classes):
        groups.setdefault(cls, []).append(value)
    return groups


def balanced_mean(values: Sequence[float], classes: Sequence) -> float:
    """Mean over classes of each class's mean: every class weighs the
    same however many of its items a run happened to complete.
    """
    groups = _by_class(values, classes)
    return sum(sum(g) / len(g) for g in groups.values()) / len(groups)


def balanced_percentile(values: Sequence[float], classes: Sequence,
                        q: float) -> float:
    """The ``q``-th percentile of the equal-weight mixture of the
    per-class samples.

    Each class's items share weight ``1 / n_classes``.  Every item sits
    at the middle of its weight on the cumulative axis (Hazen plotting
    positions); the result interpolates linearly between the two items
    around ``q / 100`` and clamps to the extremes outside them.
    """
    groups = _by_class(values, classes)
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile rank must be in [0, 100], got {q}")
    weight = 1.0 / len(groups)
    points = sorted(
        (value, weight / len(g)) for g in groups.values() for value in g
    )
    target = q / 100.0
    cumulative = 0.0
    previous = None
    for value, w in points:
        position = cumulative + w / 2.0
        cumulative += w
        if position >= target:
            if previous is None:
                return value
            low_pos, low_value = previous
            frac = (target - low_pos) / (position - low_pos)
            return low_value + (value - low_value) * frac
        previous = (position, value)
    return points[-1][0]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values."""
    logs = []
    for value in values:
        if value <= 0.0:
            raise ValueError(f"geomean needs positive values, got {value}")
        logs.append(math.log(value))
    if not logs:
        raise ValueError("geomean of an empty sample")
    return math.exp(sum(logs) / len(logs))


def ok_frac(attempted: int, failed: int) -> float:
    """Share of attempted operations that succeeded and passed checks."""
    if attempted < 1:
        raise ValueError("ok_frac needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return (attempted - failed) / attempted


def lateness_ms(due: Sequence[float], sent: Sequence[float]) -> List[float]:
    """How late each open-loop send started, in ms (never negative).

    ``due[i]`` is when arrival ``i`` was scheduled and ``sent[i]`` when
    the generator actually began sending it, on the same clock.
    """
    if len(due) != len(sent):
        raise ValueError("due and sent differ in length")
    return [max(0.0, (s - d) * 1000.0) for d, s in zip(due, sent)]


def _covered(interval: Tuple[float, float],
             children: List[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    start, end = interval
    clipped = sorted(
        (max(start, s), min(end, e)) for s, e in children
        if min(end, e) > max(start, s)
    )
    total = 0.0
    cur_start = cur_end = None
    for s, e in clipped:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Dict]) -> List[float]:
    """Self time of every span, in the input order.

    Each span is a mapping with ``start``, ``end``, ``parent`` (index
    into ``spans`` or ``-1``) and optionally ``leaf_s``: time spent in
    untracked leaf calls (kernel steps) directly inside the span.  Self
    time is the duration minus the part of the interval that child
    spans cover, minus ``leaf_s``, floored at zero.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span["parent"]
        if parent >= 0:
            children.setdefault(parent, []).append(
                (span["start"], span["end"])
            )
    out = []
    for index, span in enumerate(spans):
        interval = (span["start"], span["end"])
        covered = _covered(interval, children.get(index, []))
        own = interval[1] - interval[0] - covered - span.get("leaf_s", 0.0)
        out.append(max(0.0, own))
    return out
