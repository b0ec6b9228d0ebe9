"""The delta algebra behind incremental view maintenance.

An update batch against a base table is a *signed multiset*: rows
inserted and rows deleted.  :func:`compute_delta` propagates such deltas
through an operator tree, producing the signed multiset of output rows
that changed — without re-running the full plan:

* ``Select``/``Project`` distribute over deltas (filter or map both
  signs independently);
* ``Sort``/``T^M``/``T^D`` are content-preserving — the delta passes
  through unchanged (view contents are kept canonically ordered, so
  delivered order is not part of view identity);
* ``TemporalJoin`` uses the bilinear rule
  ``Δ(L ⋈ S) = ΔL ⋈ S_new  +  L_old ⋈ ΔS``
  (signs multiply through: deleted left rows join positively against the
  new right state but land on the delete side of the output delta);
* ``TemporalAggregate``/``Coalesce`` recompute *affected groups* only —
  the groups whose key appears in the input delta are re-evaluated on
  the old and the new input state, the old results becoming deletes and
  the new results inserts (the interval delta-merge / re-coalesce of the
  touched groups).  A grouping-free aggregate degenerates to a
  whole-node recompute, still without touching the DBMS.

Shapes with no delta rule (``Join``, ``Product``, ``Dedup``,
``Difference``) raise :class:`DeltaUnsupported`; the refresh machinery
falls back to a full recompute — incremental maintenance is an
optimization, never a semantics change.

Sub-plan evaluation reuses the *actual* middleware cursors
(:class:`~repro.xxl.temporal_aggregate.TemporalAggregateCursor`,
:class:`~repro.xxl.temporal_join.TemporalJoinCursor`,
:class:`~repro.xxl.coalesce.CoalesceCursor`) over in-memory relations,
so the delta path computes with exactly the semantics the engine would —
the equivalence wall in ``tests/property/test_prop_views.py`` holds by
construction, not by re-implementation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.algebra.expressions import compile_tuple
from repro.algebra.operators import (
    Coalesce,
    Operator,
    Project,
    Scan,
    Select,
    Sort,
    TemporalAggregate,
    TemporalJoin,
    TransferD,
    TransferM,
)
from repro.errors import ViewError
from repro.fuzz.compare import canonical_rows, _sort_key
from repro.xxl.coalesce import CoalesceCursor
from repro.xxl.cursor import materialize
from repro.xxl.sources import RelationCursor
from repro.xxl.temporal_aggregate import TemporalAggregateCursor
from repro.xxl.temporal_join import TemporalJoinCursor


class DeltaUnsupported(ViewError):
    """The operator shape has no delta rule; refresh must recompute."""


class DeltaMismatch(ViewError):
    """A computed delta does not reconcile with the stored view contents.

    The safety net of the incremental path: a delete that is absent from
    the stored multiset means the delta and the materialization drifted
    apart, and the only correct answer is a full recompute.
    """


@dataclass
class Delta:
    """A signed multiset of rows: what an update adds and removes."""

    inserts: list[tuple] = field(default_factory=list)
    deletes: list[tuple] = field(default_factory=list)

    @property
    def rows(self) -> int:
        """Total touched rows, both signs (the ``view_delta_rows`` unit)."""
        return len(self.inserts) + len(self.deletes)

    def empty(self) -> bool:
        return not self.inserts and not self.deletes


def net_delta(
    inserts: Iterable[tuple], deletes: Iterable[tuple]
) -> tuple[list[tuple], list[tuple]]:
    """Cancel rows that appear on both sides (delete-then-reinsert is a
    no-op on multiset content); returns the netted (inserts, deletes)."""
    ins = Counter(tuple(row) for row in inserts)
    dels = Counter(tuple(row) for row in deletes)
    common = ins & dels
    ins -= common
    dels -= common
    return _expand(ins), _expand(dels)


def _expand(counts: Counter) -> list[tuple]:
    return [row for row, count in counts.items() for _ in range(count)]


class DeltaState:
    """Base-table state for one refresh: current contents plus the pending
    signed deltas, from which the pre-update contents are reconstructed.

    ``new_rows`` is what the DBMS holds now; ``old_rows`` is what it held
    at the last refresh — current rows minus the pending inserts plus the
    pending deletes, as multisets.
    """

    def __init__(self, db, deltas: dict[str, tuple[list[tuple], list[tuple]]]):
        self._db = db
        self._deltas = {name.lower(): delta for name, delta in deltas.items()}

    def delta(self, table: str) -> tuple[Sequence[tuple], Sequence[tuple]]:
        return self._deltas.get(table.lower(), ((), ()))

    def new_rows(self, table: str) -> list[tuple]:
        return list(self._db.table(table).rows)

    def old_rows(self, table: str) -> list[tuple]:
        rows = self.new_rows(table)
        inserts, deletes = self.delta(table)
        if not inserts and not deletes:
            return rows
        counts = Counter(rows)
        for row in inserts:
            row = tuple(row)
            if counts[row] <= 0:
                raise DeltaMismatch(
                    f"pending insert {row!r} is absent from {table!r}; the "
                    "delta log and the table have drifted apart"
                )
            counts[row] -= 1
        counts.update(tuple(row) for row in deletes)
        return _expand(+counts)


# -- sub-plan evaluation (the real cursors over in-memory relations) -------------------


def evaluate(node: Operator, rows_of: Callable[[str], list[tuple]]) -> list[tuple]:
    """Evaluate the delta-ruled fragment *node* over in-memory base rows.

    *rows_of* maps a base-table name to its rows for the state being
    evaluated (old or new).  Operators outside the delta-ruled set raise
    :class:`DeltaUnsupported` — by construction :func:`compute_delta` has
    already vetted every subtree it evaluates, so this is a backstop.
    """
    if isinstance(node, Scan):
        return rows_of(node.table)
    if isinstance(node, (Sort, TransferM, TransferD)):
        # Content-preserving: view contents are canonically ordered, so
        # only the multiset matters here.
        return evaluate(node.input, rows_of)
    if isinstance(node, Select):
        predicate = node.predicate.compile(node.input.schema)
        return [row for row in evaluate(node.input, rows_of) if predicate(row)]
    if isinstance(node, Project):
        kernel = compile_tuple([e for _, e in node.outputs], node.input.schema)
        return list(map(kernel, evaluate(node.input, rows_of)))
    if isinstance(node, TemporalAggregate):
        return _taggr_rows(node, evaluate(node.input, rows_of))
    if isinstance(node, Coalesce):
        return _coalesce_rows(node, evaluate(node.input, rows_of))
    if isinstance(node, TemporalJoin):
        return _temporal_join_rows(
            node, evaluate(node.left, rows_of), evaluate(node.right, rows_of)
        )
    raise DeltaUnsupported(f"no delta evaluation for {node.name}")


def _order_key(positions: Sequence[int]):
    """Sort key over selected columns; NULLs last, per column."""

    def key(row: tuple) -> tuple:
        return tuple((row[p] is None, row[p]) for p in positions)

    return key


def _taggr_rows(node: TemporalAggregate, rows: list[tuple]) -> list[tuple]:
    source = node.input.schema
    positions = [source.index_of(name) for name in node.group_by]
    positions.append(source.index_of(node.period[0]))
    ordered = sorted(rows, key=_order_key(positions))
    cursor = TemporalAggregateCursor(
        RelationCursor(source, ordered), node.group_by, node.aggregates, node.period
    )
    return materialize(cursor)


def _coalesce_rows(node: Coalesce, rows: list[tuple]) -> list[tuple]:
    source = node.input.schema
    positions = _value_positions(source, node.period)
    positions.append(source.index_of(node.period[0]))
    ordered = sorted(rows, key=_order_key(positions))
    return materialize(CoalesceCursor(RelationCursor(source, ordered), node.period))


def _temporal_join_rows(
    node: TemporalJoin, left_rows: list[tuple], right_rows: list[tuple]
) -> list[tuple]:
    left_schema, right_schema = node.left.schema, node.right.schema
    left_sorted = sorted(
        left_rows, key=_order_key([left_schema.index_of(node.left_attr)])
    )
    right_sorted = sorted(
        right_rows, key=_order_key([right_schema.index_of(node.right_attr)])
    )
    cursor = TemporalJoinCursor(
        RelationCursor(left_schema, left_sorted),
        RelationCursor(right_schema, right_sorted),
        node.left_attr,
        node.right_attr,
        node.period,
    )
    return materialize(cursor)


def _value_positions(schema, period: tuple[str, str]) -> list[int]:
    skip = {name.lower() for name in period}
    return [
        index
        for index, attribute in enumerate(schema)
        if attribute.name.lower() not in skip
    ]


# -- the delta rules -------------------------------------------------------------------


def compute_delta(node: Operator, state: DeltaState) -> Delta:
    """The signed output delta of *node* under *state*'s pending updates.

    Raises :class:`DeltaUnsupported` for shapes without a rule; the
    caller falls back to a full recompute.
    """
    if isinstance(node, Scan):
        inserts, deletes = state.delta(node.table)
        return Delta(list(inserts), list(deletes))
    if isinstance(node, (Sort, TransferM, TransferD)):
        return compute_delta(node.input, state)
    if isinstance(node, Select):
        delta = compute_delta(node.input, state)
        if delta.empty():
            return delta
        predicate = node.predicate.compile(node.input.schema)
        return Delta(
            [row for row in delta.inserts if predicate(row)],
            [row for row in delta.deletes if predicate(row)],
        )
    if isinstance(node, Project):
        delta = compute_delta(node.input, state)
        if delta.empty():
            return delta
        kernel = compile_tuple([e for _, e in node.outputs], node.input.schema)
        return Delta(list(map(kernel, delta.inserts)), list(map(kernel, delta.deletes)))
    if isinstance(node, TemporalJoin):
        return _temporal_join_delta(node, state)
    if isinstance(node, TemporalAggregate):
        return _group_recompute_delta(
            node,
            state,
            key_positions=[
                node.input.schema.index_of(name) for name in node.group_by
            ],
            evaluate_node=_taggr_rows,
        )
    if isinstance(node, Coalesce):
        return _group_recompute_delta(
            node,
            state,
            key_positions=_value_positions(node.input.schema, node.period),
            evaluate_node=_coalesce_rows,
        )
    raise DeltaUnsupported(f"no delta rule for {node.name}")


def _rewind(new_rows: Iterable[tuple], delta: Delta) -> list[tuple]:
    """The pre-update multiset of an operator's output: its current rows
    minus the delta's inserts plus its deletes (delta rules are exact, so
    this reconstruction is too).  An insert absent from the current rows
    means the delta log and the data drifted apart."""
    counts = Counter(tuple(row) for row in new_rows)
    for row in delta.inserts:
        row = tuple(row)
        if counts[row] <= 0:
            raise DeltaMismatch(
                f"pending insert {row!r} is absent from the current state; "
                "the delta log and the data have drifted apart"
            )
        counts[row] -= 1
    counts.update(tuple(row) for row in delta.deletes)
    return _expand(+counts)


def _temporal_join_delta(node: TemporalJoin, state: DeltaState) -> Delta:
    """The bilinear rule: ``Δ(L ⋈ S) = ΔL ⋈ S_new + L_old ⋈ ΔS``."""
    left_delta = compute_delta(node.left, state)
    right_delta = compute_delta(node.right, state)
    if left_delta.empty() and right_delta.empty():
        return Delta()
    inserts: list[tuple] = []
    deletes: list[tuple] = []
    if not left_delta.empty():
        right_new = evaluate(node.right, state.new_rows)
        inserts.extend(_temporal_join_rows(node, left_delta.inserts, right_new))
        deletes.extend(_temporal_join_rows(node, left_delta.deletes, right_new))
    if not right_delta.empty():
        left_old = _rewind(evaluate(node.left, state.new_rows), left_delta)
        inserts.extend(_temporal_join_rows(node, left_old, right_delta.inserts))
        deletes.extend(_temporal_join_rows(node, left_old, right_delta.deletes))
    netted_inserts, netted_deletes = net_delta(inserts, deletes)
    return Delta(netted_inserts, netted_deletes)


def _group_recompute_delta(
    node: Operator,
    state: DeltaState,
    key_positions: list[int],
    evaluate_node,
) -> Delta:
    """Affected-group recompute for TAGGR and Coalesce.

    The groups whose key appears in the input delta are re-evaluated on
    both states; everything the old state produced for them is deleted
    and everything the new state produces is inserted.  With no grouping
    key every row is one group: recompute the whole node in memory.
    """
    input_delta = compute_delta(node.input, state)
    if input_delta.empty():
        return Delta()

    if key_positions:
        affected = {
            tuple(row[p] for p in key_positions)
            for row in input_delta.inserts + input_delta.deletes
        }

        def restrict(rows: list[tuple]) -> list[tuple]:
            return [
                row
                for row in rows
                if tuple(row[p] for p in key_positions) in affected
            ]

    else:

        def restrict(rows: list[tuple]) -> list[tuple]:
            return rows

    new_restricted = restrict(evaluate(node.input, state.new_rows))
    old_restricted = _rewind(
        new_restricted,
        Delta(restrict(input_delta.inserts), restrict(input_delta.deletes)),
    )
    old_output = evaluate_node(node, old_restricted)
    new_output = evaluate_node(node, new_restricted)
    inserts, deletes = net_delta(new_output, old_output)
    return Delta(inserts, deletes)


# -- applying a delta to the stored (canonical) view contents --------------------------


def apply_delta_rows(
    stored: Sequence[tuple], delta: Delta
) -> list[tuple]:
    """Merge *delta* into the canonically stored view rows.

    The stored rows are trusted to already be in
    :func:`~repro.fuzz.compare.canonical_rows` form (the storage
    invariant every write path maintains), so only the delta — which
    comes fresh from the cursors and may say ``2.0`` where the store
    says ``2`` — is canonicalized; the merge itself is a sorted splice,
    O(stored + delta·log(stored)) rather than a whole-view re-sort.
    Raises :class:`DeltaMismatch` when a delete has no matching stored
    row — the signal to fall back to a full recompute.
    """
    insert_counts = Counter(tuple(row) for row in canonical_rows(delta.inserts))
    delete_counts = Counter(tuple(row) for row in canonical_rows(delta.deletes))
    common = insert_counts & delete_counts
    insert_counts -= common
    delete_counts -= common

    kept: list[tuple] = []
    for row in stored:
        row = tuple(row)
        if delete_counts.get(row, 0) > 0:
            delete_counts[row] -= 1
        else:
            kept.append(row)
    unmatched = +delete_counts
    if unmatched:
        row, needed = next(iter(unmatched.items()))
        raise DeltaMismatch(
            f"delta deletes {needed} more of {row!r} than the view holds"
        )

    inserts = sorted(_expand(insert_counts), key=_sort_key)
    if not inserts:
        return kept
    # Splice each (sorted) insert into the (sorted) survivors; binary
    # search keeps key computations to O(inserts · log(stored)).
    positions: list[int] = []
    for row in inserts:
        row_key = _sort_key(row)
        low, high = positions[-1] if positions else 0, len(kept)
        while low < high:
            mid = (low + high) // 2
            if _sort_key(kept[mid]) < row_key:
                low = mid + 1
            else:
                high = mid
        positions.append(low)
    merged: list[tuple] = []
    previous = 0
    for position, row in zip(positions, inserts):
        merged.extend(kept[previous:position])
        merged.append(row)
        previous = position
    merged.extend(kept[previous:])
    return merged
