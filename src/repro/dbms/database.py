"""The MiniDB facade: catalog, DDL/DML dispatch, and query entry point.

A :class:`MiniDB` owns tables, indexes, per-table statistics, and one
:class:`~repro.dbms.costmodel.CostMeter` that accumulates all simulated work.
The middleware never touches this class directly — it goes through
:class:`repro.dbms.jdbc.Connection`, mirroring the paper's JDBC boundary —
but tests and workload generators use it freely.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from repro.algebra.expressions import compile_tuple
from repro.algebra.schema import Attribute, Schema
from repro.dbms.costmodel import CostMeter
from repro.dbms.indexes import Index
from repro.dbms.sql.ast import (
    AnalyzeStmt,
    CreateIndexStmt,
    CreateTableStmt,
    DeleteStmt,
    DropTableStmt,
    InsertSelectStmt,
    InsertValuesStmt,
    SelectStmt,
)
from repro.dbms.sql.executor import ResultSet
from repro.dbms.sql.parser import parse_statement
from repro.dbms.sql.planner import plan_select
from repro.dbms.statistics import TableStatistics, analyze_table
from repro.dbms.table import BLOCK_SIZE, Table
from repro.errors import CatalogError, DatabaseError


class MiniDB:
    """A single-user relational engine with an Oracle-flavoured catalog."""

    def __init__(self, block_size: int = BLOCK_SIZE):
        self.block_size = block_size
        self.meter = CostMeter()
        self._tables: dict[str, Table] = {}
        self._indexes: dict[str, Index] = {}
        self._statistics: dict[str, TableStatistics] = {}

    # -- catalog -----------------------------------------------------------------

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no such table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def list_tables(self) -> list[str]:
        return sorted(table.name for table in self._tables.values())

    def schema_of(self, name: str) -> Schema:
        return self.table(name).schema

    def clustered_order_of(self, name: str) -> tuple[str, ...]:
        return self.table(name).clustered_order

    def statistics_of(self, name: str) -> TableStatistics | None:
        """Catalog statistics for *name*, or ``None`` before ANALYZE."""
        return self._statistics.get(name.lower())

    def indexes_on(self, name: str) -> list[Index]:
        table = self.table(name)
        return [index for index in self._indexes.values() if index.table is table]

    def find_index(self, table_name: str, column: str) -> Index | None:
        for index in self.indexes_on(table_name):
            if index.column.lower() == column.lower():
                return index
        return None

    # -- DDL / DML ----------------------------------------------------------------

    def create_table(
        self, name: str, schema: Schema, temporary: bool = False
    ) -> Table:
        if self.has_table(name):
            raise CatalogError(f"table {name!r} already exists")
        table = Table(name, schema, self.block_size, temporary)
        self._tables[name.lower()] = table
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return
            raise CatalogError(f"no such table {name!r}")
        table = self._tables.pop(key)
        self._statistics.pop(key, None)
        for index_name in [
            index_name
            for index_name, index in self._indexes.items()
            if index.table is table
        ]:
            del self._indexes[index_name]

    def insert_rows(self, name: str, rows: Iterable[Sequence[object]]) -> int:
        """Conventional-path insert; rebuilds indexes; returns rows inserted."""
        table = self.table(name)
        inserted = 0
        for row in rows:
            table.append(row)
            inserted += 1
            self.meter.charge_cpu(5)
        self.meter.charge_io(max(1, inserted // table.rows_per_block()))
        self._rebuild_indexes(table)
        return inserted

    def delete_rows(self, name: str, rows: Iterable[Sequence[object]]) -> list[tuple]:
        """Delete specific rows (multiset semantics); returns them as stored.

        Each requested row must match a stored row exactly (a row present
        twice must be requested twice to remove both copies).  The call is
        atomic: if any requested row is absent, nothing is deleted and a
        :class:`~repro.errors.DatabaseError` is raised — an update stream
        that has drifted from the table must fail loudly, not corrupt the
        statistics delta.
        """
        table = self.table(name)
        wanted = Counter(tuple(row) for row in rows)
        if not wanted:
            return []
        kept: list[tuple] = []
        removed: list[tuple] = []
        for row in table.rows:
            if wanted.get(row, 0) > 0:
                wanted[row] -= 1
                removed.append(row)
            else:
                kept.append(row)
        missing = +wanted
        if missing:
            row, _count = next(iter(missing.items()))
            raise DatabaseError(
                f"DELETE of {len(missing)} distinct row(s) absent from "
                f"{table.name!r} (e.g. {row!r})"
            )
        table.rows[:] = kept
        table.clustered_order = ()
        table.pending_delta += len(removed)
        self.meter.charge_io(table.blocks)
        self.meter.charge_cpu(table.cardinality + len(removed))
        self._rebuild_indexes(table)
        return removed

    def stats_delta_of(self, name: str) -> int:
        """Rows changed in *name* since its last ANALYZE."""
        return self.table(name).pending_delta

    def analyze(
        self,
        name: str,
        histogram_columns: tuple[str, ...] | str = "auto",
        histogram_buckets: int = 10,
    ) -> TableStatistics:
        """Oracle's ``ANALYZE TABLE ... COMPUTE STATISTICS``."""
        table = self.table(name)
        statistics = analyze_table(table, histogram_columns, histogram_buckets)
        for index in self.indexes_on(name):
            column = statistics.column(index.column)
            column.has_index = True
            column.index_clustered = index.clustered
        self._statistics[name.lower()] = statistics
        table.pending_delta = 0
        self.meter.charge_io(table.blocks)
        self.meter.charge_cpu(table.cardinality * len(table.schema))
        return statistics

    def create_index(
        self, index_name: str, table_name: str, column: str, clustered: bool = False
    ) -> Index:
        if index_name.lower() in self._indexes:
            raise CatalogError(f"index {index_name!r} already exists")
        table = self.table(table_name)
        index = Index(index_name, table, column, clustered)
        self._indexes[index_name.lower()] = index
        self.meter.charge_io(table.blocks)
        return index

    def _rebuild_indexes(self, table: Table) -> None:
        for index in self._indexes.values():
            if index.table is table:
                index.rebuild()

    # -- statement execution ----------------------------------------------------------

    def execute(self, sql: str) -> ResultSet | int:
        """Execute one SQL statement.

        SELECTs return a :class:`ResultSet`; everything else returns an
        affected-row count (0 for DDL).
        """
        statement = parse_statement(sql)
        if isinstance(statement, SelectStmt):
            return plan_select(self, statement, self.meter)
        if isinstance(statement, CreateTableStmt):
            schema = Schema(
                Attribute(column.name, column.type, column.width)
                for column in statement.columns
            )
            self.create_table(statement.table, schema, statement.temporary)
            return 0
        if isinstance(statement, CreateIndexStmt):
            self.create_index(
                statement.index, statement.table, statement.column, statement.clustered
            )
            return 0
        if isinstance(statement, InsertValuesStmt):
            table = self.table(statement.table)
            rows = []
            for value_exprs in statement.rows:
                if len(value_exprs) != len(table.schema):
                    raise DatabaseError(
                        f"INSERT arity {len(value_exprs)} does not match "
                        f"{table.name}'s {len(table.schema)} columns"
                    )
                rows.append(compile_tuple(value_exprs, Schema([]))(()))
            return self.insert_rows(statement.table, rows)
        if isinstance(statement, InsertSelectStmt):
            result = plan_select(self, statement.select, self.meter)
            return self.insert_rows(statement.table, result.fetchall())
        if isinstance(statement, DeleteStmt):
            table = self.table(statement.table)
            if statement.where is None:
                removed = table.cardinality
                table.truncate()
            else:
                predicate = statement.where.compile(table.schema)
                kept = [row for row in table.rows if not predicate(row)]
                removed = table.cardinality - len(kept)
                table.rows[:] = kept
                table.clustered_order = ()
                table.pending_delta += removed
            self.meter.charge_io(table.blocks)
            self.meter.charge_cpu(table.cardinality + removed)
            self._rebuild_indexes(table)
            return removed
        if isinstance(statement, DropTableStmt):
            self.drop_table(statement.table, statement.if_exists)
            return 0
        if isinstance(statement, AnalyzeStmt):
            self.analyze(statement.table, statement.histogram_columns)
            return 0
        raise DatabaseError(f"unsupported statement {type(statement).__name__}")

    def query(self, sql: str) -> list[tuple]:
        """Convenience: execute a SELECT and return all rows."""
        result = self.execute(sql)
        if not isinstance(result, ResultSet):
            raise DatabaseError("query() requires a SELECT statement")
        return result.fetchall()
