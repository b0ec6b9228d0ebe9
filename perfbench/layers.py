"""The traced run's per-layer split, recorded from the benchmark's side.

:class:`Recorder` wraps the public entry point of each TANGO layer (a
class attribute or module function, restored by :meth:`Recorder.remove`)
and, while a measured operation is running, records one span per call:
layer, function, thread, start, end and *self time* — the call's duration
minus the time its wrapped callees took on the same thread.  Spans are
kept in memory and written out once, at the end of the run.

MiniDB hands back lazy result sets, so DBMS work that happens while rows
are pulled shows up under ``Cursor.fetchmany`` (the ``jdbc`` layer), not
under ``MiniDB.execute``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from functools import wraps

from repro.core import tango as tango_module
from repro.core.plan_cache import PlanCache
from repro.core.translator import SQLTranslator
from repro.core.engine import ExecutionEngine
from repro.dbms.database import MiniDB
from repro.dbms.jdbc import Connection, ConnectionPool, Cursor
from repro.optimizer.search import Optimizer
from repro.stats.cardinality import CardinalityEstimator
from repro.stats.collector import StatisticsCollector
from repro.views.manager import ViewManager
from repro import Tango

#: (owner, attribute, layer).  ``Connection._simulate_wire`` is the one
#: private hook: it is the simulated wire, and nothing public isolates it.
HOOKS = (
    (Tango, "parse", "parser"),
    (Optimizer, "optimize", "optimizer"),
    (CardinalityEstimator, "estimate", "stats"),
    (StatisticsCollector, "collect", "stats"),
    (PlanCache, "get", "plan_cache"),
    (SQLTranslator, "translate", "translator"),
    (SQLTranslator, "translate_partition", "translator"),
    (tango_module, "compile_plan", "engine"),
    (ExecutionEngine, "execute", "xxl"),
    (MiniDB, "execute", "dbms"),
    (MiniDB, "insert_rows", "dbms"),
    (MiniDB, "delete_rows", "dbms"),
    (MiniDB, "analyze", "dbms"),
    (Connection, "bulk_load", "dbms"),
    (Connection, "executemany", "dbms"),
    (Cursor, "fetchmany", "jdbc"),
    (Connection, "_simulate_wire", "jdbc"),
    (ConnectionPool, "acquire", "exchange"),
    (ViewManager, "choose", "views"),
    (ViewManager, "refresh", "views"),
)

LAYERS = (
    "parser", "optimizer", "stats", "plan_cache", "translator", "engine",
    "xxl", "dbms", "jdbc", "exchange", "views",
)

#: Spans kept for the written trace; aggregates always cover every call.
SPAN_CAP = 200_000


def _name(owner, attribute: str) -> str:
    return f"{getattr(owner, '__name__', owner)}.{attribute}".replace(
        "repro.core.tango.", ""
    )


class Recorder:
    """Per-call spans and per-function aggregates at layer boundaries."""

    def __init__(self):
        self.active = False
        self.operation = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.exclusive: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.dropped = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        for owner, attribute, layer in HOOKS:
            original = getattr(owner, attribute, None)
            if original is None:
                # A renamed entry point: its metrics read 0 from here on.
                print(f"perfbench: no hook {_name(owner, attribute)}", file=sys.stderr)
                continue
            setattr(owner, attribute, self._wrap(original, _name(owner, attribute), layer))
            self._installed.append((owner, attribute, original))

    def remove(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()

    def _wrap(self, original, name: str, layer: str):
        recorder = self

        @wraps(original)
        def traced(*args, **kwargs):
            if not recorder.active:
                return original(*args, **kwargs)
            stack = recorder._stack()
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                recorder._record(name, layer, start, end, elapsed - frame[0])

        return traced

    def _record(self, name: str, layer: str, start: float, end: float, own: float) -> None:
        with self._lock:
            self.calls[name] += 1
            self.inclusive[name] += end - start
            self.exclusive[name] += own
            self.layer_self[layer] += own
            if len(self.spans) < SPAN_CAP:
                self.spans.append(
                    (self.operation, layer, name, threading.get_ident(), start, end, own)
                )
            else:
                self.dropped += 1

    def operation_span(self, index: int, cls: str):
        """Context for one measured operation: the root span, whose self
        time on the client thread is the unattributed remainder."""
        return _Operation(self, index, cls)

    def write(self, path: str, meta: dict) -> None:
        fields = ("op", "layer", "name", "thread", "start", "end", "self")
        with open(path, "w") as handle:
            json.dump({**meta, "fields": fields, "dropped": self.dropped}, handle)
            handle.write("\n")
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


class _Operation:
    def __init__(self, recorder: Recorder, index: int, cls: str):
        self._recorder = recorder
        self._index = index
        self._cls = cls
        self._frame = [0.0]

    def __enter__(self):
        recorder = self._recorder
        recorder.operation = self._index
        recorder._stack().append(self._frame)
        recorder.active = True
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        end = time.perf_counter()
        recorder = self._recorder
        recorder.active = False
        recorder._stack().pop()
        recorder._record(
            f"op.{self._cls}", "op", self._start, end, (end - self._start) - self._frame[0]
        )
        return False


def _counter(before: dict, after: dict, name: str) -> float:
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


def _histogram(before: dict, after: dict, name: str) -> tuple[float, float]:
    """(count, total) observed between two registry snapshots."""
    empty = {"count": 0, "total": 0.0}
    old = before["histograms"].get(name, empty)
    new = after["histograms"].get(name, empty)
    return new["count"] - old["count"], new["total"] - old["total"]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: Recorder,
    *,
    ops: int,
    updates: int,
    refreshes: int,
    invalidations: int,
    metrics_before: dict,
    metrics_after: dict,
    dbms_delta,
    mw_ticks: int,
    op_seconds: float,
    overhead_ratio: float,
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, with units, of one traced phase of *ops*
    operations."""
    calls, inclusive, exclusive = recorder.calls, recorder.inclusive, recorder.exclusive
    ms = 1000.0

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    def counter(name: str) -> float:
        return _counter(metrics_before, metrics_after, name)

    memo_count, memo_total = _histogram(metrics_before, metrics_after, "memo_elements")
    eff_count, eff_total = _histogram(metrics_before, metrics_after, "parallel_efficiency")
    _, delta_rows = _histogram(metrics_before, metrics_after, "view_delta_rows")
    hits, misses = counter("plan_cache_hits"), counter("plan_cache_misses")
    round_trips, rows_fetched = counter("dbms_round_trips"), counter("dbms_rows_fetched")
    values = {
        "parser.busy_ms_per_op": per_op(inclusive["Tango.parse"] * ms),
        "optimizer.calls_per_op": per_op(calls["Optimizer.optimize"]),
        "optimizer.busy_ms_per_op": per_op(exclusive["Optimizer.optimize"] * ms),
        "optimizer.memo_elements_per_call": _ratio(memo_total, memo_count),
        "stats.estimate_calls_per_op": per_op(calls["CardinalityEstimator.estimate"]),
        "stats.collect_ms_per_op": per_op(inclusive["StatisticsCollector.collect"] * ms),
        "plan_cache.lookups_per_op": per_op(calls["PlanCache.get"]),
        "plan_cache.hit_ratio": _ratio(hits, hits + misses),
        "translator.busy_ms_per_op": per_op(
            (inclusive["SQLTranslator.translate"] + inclusive["SQLTranslator.translate_partition"])
            * ms
        ),
        "engine.compile_ms_per_op": per_op(exclusive["compile_plan"] * ms),
        "dbms.execute_calls_per_op": per_op(calls["MiniDB.execute"]),
        "dbms.busy_ms_per_op": per_op(exclusive["MiniDB.execute"] * ms),
        "dbms.ticks_per_op": per_op(dbms_delta.ticks),
        "dbms.io_blocks_per_op": per_op(dbms_delta.io),
        "dbms.tuples_touched_per_row_returned": _ratio(dbms_delta.cpu, rows_fetched),
        "dbms.load_ms_per_op": per_op(
            (inclusive["Connection.bulk_load"] + inclusive["Connection.executemany"]) * ms
        ),
        "dbms.write_ms_per_op": per_op(
            (inclusive["MiniDB.insert_rows"] + inclusive["MiniDB.delete_rows"]) * ms
        ),
        "dbms.analyze_ms_per_op": per_op(inclusive["MiniDB.analyze"] * ms),
        "jdbc.round_trips_per_op": per_op(round_trips),
        "jdbc.fetch_ms_per_op": per_op(inclusive["Cursor.fetchmany"] * ms),
        "jdbc.wire_wait_ms_per_op": per_op(inclusive["Connection._simulate_wire"] * ms),
        "jdbc.rows_per_round_trip": _ratio(rows_fetched, round_trips),
        "jdbc.retries_per_op": per_op(counter("retries")),
        "xxl.self_ms_per_op": per_op(exclusive["ExecutionEngine.execute"] * ms),
        "xxl.mw_ticks_per_op": per_op(mw_ticks),
        "exchange.partitions_per_op": per_op(counter("exchange_partitions")),
        "exchange.parallel_efficiency": _ratio(eff_total, eff_count),
        "exchange.pool_wait_ms_per_op": per_op(inclusive["ConnectionPool.acquire"] * ms),
        "views.refresh_ms_per_refresh": _ratio(inclusive["ViewManager.refresh"] * ms, refreshes),
        "views.choose_ms_per_refresh": _ratio(inclusive["ViewManager.choose"] * ms, refreshes),
        "views.incremental_ratio": _ratio(counter("view_refresh_incremental"), refreshes),
        "views.delta_rows_per_refresh": _ratio(delta_rows, refreshes),
        "views.fallbacks_per_refresh": _ratio(counter("view_refresh_fallbacks"), refreshes),
        "cardinality.feedback_updates_per_op": per_op(counter("cardinality_feedback_updates")),
        "cardinality.invalidations_per_update": _ratio(invalidations, updates),
        "trace.overhead_ratio": overhead_ratio,
    }
    # Exchange partitions run on pool threads, so on ``remote`` the layer
    # shares can add up to more than 1; the unattributed share is the
    # client thread's time outside every wrapped call.
    for layer in LAYERS:
        values[f"{layer}.self_share"] = _ratio(recorder.layer_self[layer], op_seconds)
    values["trace.unattributed_share"] = _ratio(recorder.layer_self["op"], op_seconds)
    values["optimizer.share"] = _ratio(inclusive["Optimizer.optimize"], op_seconds)
    return {name: (value, _unit(name)) for name, value in values.items()}


def _unit(name: str) -> str:
    if name.endswith(("share", "ratio", "efficiency")):
        return "ratio"
    if "_ms_" in name:
        return "ms"
    if "ticks" in name:
        return "ticks"
    if "blocks" in name:
        return "blocks"
    return "count"
