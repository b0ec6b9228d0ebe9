"""Middleware temporal join ⋈^T — sort-merge with period intersection.

Matches rows on the join attributes *and* overlapping validity periods,
producing the intersection period (the DBMS translation of the same
operator is a regular join plus ``A.T1 < B.T2 AND A.T2 > B.T1`` and
``GREATEST``/``LEAST`` projections — Figure 5).

Both inputs must be sorted on their join attributes.  Output schema: left
non-temporal attributes, right non-temporal attributes (disambiguated),
then ``T1``/``T2`` with the intersection.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator

from repro.algebra.expressions import col, compile_tuple
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.dbms.costmodel import CostMeter
from repro.xxl.cursor import BatchReader, Cursor, GeneratorCursor
from repro.xxl.merge_join import read_group


class TemporalJoinCursor(GeneratorCursor):
    """Sort-merge temporal equi-join of two sorted inputs."""

    def __init__(
        self,
        left: Cursor,
        right: Cursor,
        left_attr: str,
        right_attr: str,
        period: tuple[str, str] = ("T1", "T2"),
        meter: CostMeter | None = None,
    ):
        self._left = left
        self._right = right
        self.left_attr = left_attr
        self.right_attr = right_attr
        self.period = period
        self._meter = meter
        super().__init__(left.schema)

    def _open(self) -> None:
        self._left.init()
        self._right.init()
        t1, t2 = self.period
        skip = {t1.lower(), t2.lower()}
        left_keep = [a for a in self._left.schema if a.name.lower() not in skip]
        right_keep = [a for a in self._right.schema if a.name.lower() not in skip]
        combined = Schema(left_keep).concat(Schema(right_keep))
        self.schema = Schema(
            list(combined)
            + [Attribute(t1, AttrType.DATE), Attribute(t2, AttrType.DATE)]
        )
        # Kept-columns kernels: one generated call per input row.
        self._left_values = compile_tuple(
            [col(a.name) for a in left_keep], self._left.schema
        )
        self._right_values = compile_tuple(
            [col(a.name) for a in right_keep], self._right.schema
        )
        super()._open()

    def _generate(self) -> Iterator[tuple]:
        left_schema = self._left.schema
        right_schema = self._right.schema
        left_pos = left_schema.index_of(self.left_attr)
        right_pos = right_schema.index_of(self.right_attr)
        t1, t2 = self.period
        left_t1 = left_schema.index_of(t1)
        left_t2 = left_schema.index_of(t2)
        right_t1 = right_schema.index_of(t1)
        right_t2 = right_schema.index_of(t2)
        left_values = self._left_values
        right_values = self._right_values
        right_start = itemgetter(right_t1)
        meter = self._meter

        left_reader = BatchReader(self._left, self.batch_size)
        right_reader = BatchReader(self._right, self.batch_size)
        left_row = left_reader.read()
        right_row = right_reader.read()
        while left_row is not None and right_row is not None:
            if meter is not None:
                meter.charge_cpu(1)
            left_value = left_row[left_pos]
            right_value = right_row[right_pos]
            if left_value < right_value:
                left_row = left_reader.read()
            elif left_value > right_value:
                right_row = right_reader.read()
            else:
                left_group, left_row = read_group(left_reader, left_pos, left_row)
                right_group, right_row = read_group(right_reader, right_pos, right_row)
                # Within a value pack, check every period pair; packs are
                # small for realistic keys, and sorting the pack by start
                # time lets us stop early.
                right_group.sort(key=right_start)
                right_pack = [
                    (r_row[right_t1], r_row[right_t2], right_values(r_row))
                    for r_row in right_group
                ]
                for l_row in left_group:
                    l_start = l_row[left_t1]
                    l_end = l_row[left_t2]
                    l_values = left_values(l_row)
                    for r_start, r_end, r_values in right_pack:
                        if r_start >= l_end:
                            break  # sorted by start: nothing later overlaps
                        if meter is not None:
                            meter.charge_cpu(1)
                        # Inline overlap test: A.T1 < B.T2 AND A.T2 > B.T1.
                        if l_start < r_end and l_end > r_start:
                            start = l_start if l_start > r_start else r_start
                            end = l_end if l_end < r_end else r_end
                            yield l_values + r_values + (start, end)

    def _close(self) -> None:
        super()._close()
        self._left.close()
        self._right.close()
