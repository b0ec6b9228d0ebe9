"""Closed-open time periods ``[start, end)`` and their algebra.

The paper (Section 2.2) adopts the closed-open representation: a tuple with
``T1 = 2, T2 = 20`` is valid on days 2 through 19.  All helpers here follow
that convention; a period is *empty* when ``start >= end``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True, order=True)
class Period:
    """A closed-open period ``[start, end)`` over integer day numbers."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"period end {self.end} precedes start {self.start}")

    @property
    def duration(self) -> int:
        """Number of days covered."""
        return self.end - self.start

    def is_empty(self) -> bool:
        """True when the period covers no day."""
        return self.start >= self.end

    def contains(self, instant: int) -> bool:
        """True when *instant* lies in ``[start, end)`` (a timeslice test)."""
        return self.start <= instant < self.end

    def overlaps(self, other: "Period") -> bool:
        """True when the two periods share at least one day.

        This is the paper's SQL condition ``A.T1 < B.T2 AND A.T2 > B.T1``.
        """
        return self.start < other.end and self.end > other.start

    def intersect(self, other: "Period") -> "Period | None":
        """The common sub-period, or ``None`` when the periods are disjoint.

        The bounds are the paper's ``GREATEST(A.T1, B.T1)`` and
        ``LEAST(A.T2, B.T2)``.
        """
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if start >= end:
            return None
        return Period(start, end)

    def meets(self, other: "Period") -> bool:
        """True when this period ends exactly where *other* starts."""
        return self.end == other.start

    def merge(self, other: "Period") -> "Period":
        """Union of two overlapping or adjacent periods.

        Raises :class:`ValueError` if the union would not be a single period.
        """
        if not (self.overlaps(other) or self.meets(other) or other.meets(self)):
            raise ValueError(f"{self} and {other} are neither adjacent nor overlapping")
        return Period(min(self.start, other.start), max(self.end, other.end))


def overlaps(start1: int, end1: int, start2: int, end2: int) -> bool:
    """Overlap test on raw bounds (operators inline the same test)."""
    return start1 < end2 and end1 > start2


def intersect(start1: int, end1: int, start2: int, end2: int) -> tuple[int, int] | None:
    """Intersection on raw bounds; ``None`` when disjoint."""
    start = start1 if start1 > start2 else start2
    end = end1 if end1 < end2 else end2
    if start >= end:
        return None
    return start, end


def constant_intervals(periods: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """Yield the maximal *constant intervals* induced by a set of periods.

    A constant interval is a maximal period during which the set of covering
    input periods does not change.  Temporal aggregation produces one result
    tuple per non-empty constant interval (Figure 3(c)).  Intervals covered by
    zero input periods are skipped.

    >>> list(constant_intervals([(2, 20), (5, 25)]))
    [(2, 5), (5, 20), (20, 25)]
    """
    events: list[int] = []
    starts: list[int] = []
    ends: list[int] = []
    for start, end in periods:
        if start < end:
            starts.append(start)
            ends.append(end)
            events.append(start)
            events.append(end)
    if not events:
        return
    instants = sorted(set(events))
    starts.sort()
    ends.sort()
    si = ei = 0
    active = 0
    for left, right in zip(instants, instants[1:]):
        while si < len(starts) and starts[si] <= left:
            active += 1
            si += 1
        while ei < len(ends) and ends[ei] <= left:
            active -= 1
            ei += 1
        if active > 0:
            yield left, right


def coalesce_periods(periods: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Merge overlapping/adjacent periods into maximal disjoint periods.

    This is value-equivalent coalescing restricted to the timestamps
    themselves; :mod:`repro.xxl.coalesce` applies it per group of
    value-equivalent tuples.

    >>> coalesce_periods([(1, 5), (4, 8), (10, 12)])
    [(1, 8), (10, 12)]
    """
    nonempty = sorted(p for p in periods if p[0] < p[1])
    merged: list[tuple[int, int]] = []
    for start, end in nonempty:
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged
