"""Physical row-stream primitives of the MiniDB executor.

Everything is a generator over plain tuples; the planner assembles these
primitives into a pipeline.  Each primitive charges the
:class:`~repro.dbms.costmodel.CostMeter` with the work it performs, so
simulated costs track the actual algorithmic effort:

* scans charge one I/O per block;
* sorts charge ``n·log2(n)`` comparisons plus spill I/O for inputs larger
  than the sort area;
* nested-loop joins charge one comparison per considered pair — the
  quadratic bill that makes SQL temporal aggregation expensive;
* merge joins charge linear work plus their sorts.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Sequence

from repro.algebra.schema import Schema
from repro.dbms.costmodel import CostMeter
from repro.dbms.sql.functions import Accumulator
from repro.errors import ExecutionError

RowIter = Iterator[tuple]
RowFunc = Callable[[tuple], object]

#: Rows that fit in the simulated sort area before a sort "spills" to disk.
SORT_AREA_ROWS = 100_000


class ResultSet:
    """A schema plus a (single-shot) row stream.

    Mirrors a JDBC result set: iterate once, or :meth:`fetchall` to
    materialize.  ``rows`` may be a list (re-iterable) or a generator.
    """

    def __init__(self, schema: Schema, rows: Iterable[tuple]):
        self.schema = schema
        self._rows = rows
        self._consumed = False

    def __iter__(self) -> RowIter:
        if self._consumed and not isinstance(self._rows, (list, tuple)):
            raise ExecutionError("result set was already consumed")
        self._consumed = True
        return iter(self._rows)

    def fetchall(self) -> list[tuple]:
        if isinstance(self._rows, list):
            self._consumed = True
            return self._rows
        return list(self)

    @property
    def column_names(self) -> tuple[str, ...]:
        return self.schema.names


# -- primitives -------------------------------------------------------------------


def filter_rows(rows: Iterable[tuple], predicate: RowFunc, meter: CostMeter) -> RowIter:
    charge = meter.charge_cpu
    for row in rows:
        charge(1)
        if predicate(row):
            yield row


def project_rows(rows: Iterable[tuple], kernel: RowFunc, meter: CostMeter) -> RowIter:
    """*kernel* maps a row to its whole output tuple (``compile_tuple``)."""
    charge = meter.charge_cpu
    for row in rows:
        charge(1)
        yield kernel(row)


def limit_rows(rows: Iterable[tuple], limit: int) -> RowIter:
    produced = 0
    for row in rows:
        if produced >= limit:
            return
        produced += 1
        yield row


def sort_rows(
    rows: Iterable[tuple],
    key: RowFunc,
    meter: CostMeter,
    reverse: bool = False,
    row_width: int = 64,
    block_size: int = 8192,
) -> list[tuple]:
    """Materializing sort.  Charges comparison CPU and, for inputs beyond the
    sort area, two passes of spill I/O (write runs + merge read)."""
    materialized = list(rows)
    count = len(materialized)
    if count > 1:
        meter.charge_cpu(int(count * math.log2(count)))
    if count > SORT_AREA_ROWS:
        blocks = max(1, count * row_width // block_size)
        meter.charge_io(2 * blocks)
    materialized.sort(key=key, reverse=reverse)
    return materialized


def distinct_rows(rows: Iterable[tuple], meter: CostMeter) -> RowIter:
    seen: set[tuple] = set()
    for row in rows:
        meter.charge_cpu(1)
        if row not in seen:
            seen.add(row)
            yield row


def concat_rows(parts: Sequence[Iterable[tuple]]) -> RowIter:
    for part in parts:
        yield from part


def nested_loop_join(
    outer: Iterable[tuple],
    inner: list[tuple],
    condition: RowFunc | None,
    meter: CostMeter,
) -> RowIter:
    """Tuple-at-a-time nested loop; ``condition`` sees the combined row."""
    for outer_row in outer:
        for inner_row in inner:
            meter.charge_cpu(1)
            combined = outer_row + inner_row
            if condition is None or condition(combined):
                yield combined


def merge_join(
    left: list[tuple],
    right: list[tuple],
    left_pos: int,
    right_pos: int,
    residual: RowFunc | None,
    meter: CostMeter,
) -> RowIter:
    """Sort-merge equi-join over inputs already sorted on their keys.

    The keys are the columns at *left_pos* / *right_pos*.  Handles
    duplicate keys on both sides (the value-pack cross product).
    """
    charge = meter.charge_cpu
    left_index = 0
    right_index = 0
    left_count = len(left)
    right_count = len(right)
    while left_index < left_count and right_index < right_count:
        charge(1)
        left_value = left[left_index][left_pos]
        right_value = right[right_index][right_pos]
        if left_value < right_value:  # type: ignore[operator]
            left_index += 1
        elif left_value > right_value:  # type: ignore[operator]
            right_index += 1
        else:
            left_end = left_index
            while left_end < left_count and left[left_end][left_pos] == left_value:
                left_end += 1
            right_end = right_index
            while right_end < right_count and right[right_end][right_pos] == left_value:
                right_end += 1
            right_pack = right[right_index:right_end]
            for i in range(left_index, left_end):
                left_row = left[i]
                for right_row in right_pack:
                    charge(1)
                    combined = left_row + right_row
                    if residual is None or residual(combined):
                        yield combined
            left_index = left_end
            right_index = right_end


def hash_group(
    rows: Iterable[tuple],
    key_func: RowFunc | None,
    aggregate_specs: Sequence[tuple[str, RowFunc | None, bool]],
    meter: CostMeter,
) -> RowIter:
    """Hash aggregation.

    *key_func* maps a row to its group-key tuple (``compile_tuple``);
    ``None`` means no grouping keys.  *aggregate_specs* entries are
    ``(func, argument_func, distinct)`` with ``argument_func`` ``None`` for
    ``COUNT(*)``.  Output rows are ``key values + aggregate results``.  With
    no keys, exactly one row is produced (scalar aggregation), even over an
    empty input.
    """
    charge = meter.charge_cpu
    step = 1 + len(aggregate_specs)
    arguments = [argument for _, argument, _ in aggregate_specs]
    groups: dict[tuple, list[Accumulator]] = {}
    for row in rows:
        charge(step)
        key = key_func(row) if key_func is not None else ()
        accumulators = groups.get(key)
        if accumulators is None:
            accumulators = [
                Accumulator(func, distinct) for func, _, distinct in aggregate_specs
            ]
            groups[key] = accumulators
        for accumulator, argument in zip(accumulators, arguments):
            accumulator.add(1 if argument is None else argument(row))
    if not groups and key_func is None:
        empty = [Accumulator(func, distinct) for func, _, distinct in aggregate_specs]
        groups[()] = empty
    for key, accumulators in groups.items():
        charge(1)
        yield key + tuple(accumulator.result() for accumulator in accumulators)
