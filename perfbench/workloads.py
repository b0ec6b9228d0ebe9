"""The benchmark's four workloads: data set-up, seeded operation streams
and answer checks.

Everything here drives TANGO through its public API only: ``Tango.run``,
``apply_updates``, ``create_view``/``refresh_view`` and the
``repro.workloads`` query and data builders.  A workload is a generator of
*passes*; a pass is a list of :class:`Op`.  The same seed always yields the
same passes, and the runner only stops between passes, so every run of a
seed sees the same operation mix in the same order.

All workloads load the same UIS instance (scale 0.02: 1,677 POSITION
rows, 999 EMPLOYEE rows, eight POSITION size variants) and materialize the
same two views (a Query-1-shaped TAGGR view and a Query-3-shaped temporal
self-join view over POSITION).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

from repro import MiniDB, Tango, TangoConfig
from repro.fuzz.compare import canonical_rows
from repro.temporal.timestamps import iso_of, year_start
from repro.workloads.queries import (
    query1_sql,
    query2_initial_plan,
    query3_initial_plan,
    query4_initial_plan,
)
from repro.workloads.uis import load_uis, position_rows

#: Fraction of the paper's UIS cardinalities loaded.
SCALE = 0.02
#: The three smallest POSITION variants (``adhoc`` reads these).
ADHOC_TABLES = ("POSITION_8000", "POSITION_17000", "POSITION_27000")
#: Figure 10 (Query 2) period ends and Figure 11(a) (Query 3) start bounds.
PAPER_Q2_ENDS = tuple(f"{year}-01-01" for year in range(1984, 2001, 2))
PAPER_Q3_BOUNDS = tuple(
    f"{year}-01-01" for year in (1988, 1990, 1992, 1994, 1995, 1996, 1997, 1998, 1999)
)
#: Copies of the parameterless Q1 and Q4 in each ``paper-mix`` pass.
#: Both sweeps have an odd number of points, so a swept template's
#: median is its middle point's, not a value between two of them.
PAPER_REPEATS = 4
#: Draws per template per ``adhoc`` pass, one from each equal slice of
#: the parameter's range (a multiple of the three variants).
ADHOC_STRATA = 12
#: The materialized views every workload sets up.
VIEW_Q1 = "V_Q1"
VIEW_Q3 = "V_Q3"
VIEW_Q3_BOUND = "1994-01-01"
#: ``churn``'s Query 2 period end (its read rotation is Q1, Q2, Q3, Q4).
CHURN_Q2_END = "1990-01-01"
#: Share of POSITION replaced by one update batch.
UPDATE_SHARE = 0.01
#: Update/refresh cycles of the write epilogue the read-only workloads
#: run after their timed reads (so every workload reports the write path).
EPILOGUE_CYCLES = 100


@dataclass(frozen=True)
class Spec:
    """One workload: why it exists, its configuration and its seeds."""

    name: str
    why: str
    config: dict
    default_seed: int
    held_out_seed: int
    #: A pass's time at the reference speed: a run of ``--seconds``
    #: measures ``seconds / pass_seconds`` passes, the same work on any
    #: machine.  Part of the benchmark's definition, like the seeds.
    pass_seconds: float
    #: Whether the read phase is followed by the write epilogue.
    epilogue: bool = True


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            "paper-mix",
            "Q1-Q4 with the Figure 10/11 sweeps, warm plan cache: execution "
            "(DBMS SQL + middleware operators) does all the work",
            {},
            default_seed=1,
            held_out_seed=9001,
            pass_seconds=0.5,
        ),
        Spec(
            "adhoc",
            "Q1-Q4 with drawn parameters over the 3 smallest POSITION "
            "variants: the plan cache misses, parse/optimize/estimate dominate",
            {},
            default_seed=2,
            held_out_seed=9002,
            pass_seconds=0.5,
        ),
        Spec(
            "churn",
            "1% POSITION update, two view refreshes and a Q1-Q4 read per "
            "cycle, learning cardinalities: writes move the epochs, reads "
            "re-optimize",
            {"learn_cardinalities": True},
            default_seed=3,
            held_out_seed=9003,
            pass_seconds=0.16,
            epilogue=False,
        ),
        Spec(
            "remote",
            "the paper-mix sequence at workers=2 and 2 ms per round trip: "
            "JDBC wire waits and the exchange/partition/pool layers work",
            {"workers": 2, "network_latency_seconds": 0.002},
            default_seed=4,
            held_out_seed=9004,
            pass_seconds=2.5,
        ),
    )
}


@dataclass
class Op:
    """One client operation: ``call(tango)`` is what the runner times."""

    cls: str  # q1..q4, update, refresh_taggr, refresh_tjoin
    call: Callable[[Tango], object]
    #: For reads: the query handed to TANGO (SQL text or initial plan) —
    #: its Section 3.1 all-DBMS initial plan is the answer oracle.
    query: object = None
    #: For reads: identity of the query (oracle cache key).
    key: str = ""
    #: For reads checked against a view: the view holding the answer.
    view: str | None = None


def setup(spec: Spec, tracing: bool = False) -> Tango:
    """Everything ``setup_s`` times: data load, ANALYZE, index builds,
    the ``Tango`` instance and both views' materialization."""
    db = MiniDB()
    load_uis(db, scale=SCALE)
    tango = Tango(db, TangoConfig(tracing=tracing, **spec.config))
    for name, query in view_definitions(db).items():
        tango.create_view(name, query)
    return tango


def digest(rows, canonical: bool = False) -> int:
    """Order-insensitive identity of a result multiset.  Views store
    their contents in canonical form, so results compared against a view
    are canonicalized first."""
    if canonical:
        return hash(tuple(canonical_rows(rows)))
    try:
        return hash(tuple(sorted(rows)))
    except TypeError:  # NULLs do not order against values
        return hash(tuple(canonical_rows(rows)))


class Oracle:
    """Canonical answers from the Section 3.1 initial plans (all
    processing in the DBMS), run on a private, serial, zero-latency
    ``Tango`` so the measured instance's caches and counters stay
    untouched.  Never timed."""

    def __init__(self, db: MiniDB):
        self.tango = Tango(db)
        self._cache: dict[str, int] = {}

    def answer(self, query, canonical: bool = False) -> int:
        initial = self.tango.parse(query) if isinstance(query, str) else query
        return digest(self.tango.execute_plan(initial).rows, canonical)

    def cached(self, key: str, query) -> int:
        if key not in self._cache:
            self._cache[key] = self.answer(query)
        return self._cache[key]

    def view_matches(self, tango: Tango, view: str, query) -> bool:
        """A view against a from-scratch recompute of its definition."""
        return view_digest(tango, view) == self.answer(query, canonical=True)

    def close(self) -> None:
        self.tango.close()


def view_digest(tango: Tango, view: str) -> int:
    return digest(tango.db.query(f"SELECT * FROM {view}"), canonical=True)


def view_definitions(db: MiniDB) -> dict[str, object]:
    return {
        VIEW_Q1: query1_sql(),
        VIEW_Q3: query3_initial_plan(db, VIEW_Q3_BOUND),
    }


# -- read streams -----------------------------------------------------------------------


def _read(cls: str, query, key: str, view: str | None = None) -> Op:
    return Op(cls, lambda tango: tango.run(query), query=query, key=key, view=view)


def paper_mix_passes(tango: Tango, seed: int) -> Iterator[list[Op]]:
    """The paper's queries: Q1 and Q4 on POSITION, Q2 over the Figure 10
    period ends, Q3 over the Figure 11(a) start bounds — 20 distinct
    queries, reshuffled (seeded) every pass."""
    db = tango.db
    reads = [_read("q1", query1_sql(), "q1")] * PAPER_REPEATS
    reads += [
        _read("q2", query2_initial_plan(db, end), f"q2:{end}") for end in PAPER_Q2_ENDS
    ]
    reads += [
        _read("q3", query3_initial_plan(db, bound), f"q3:{bound}")
        for bound in PAPER_Q3_BOUNDS
    ]
    reads += [_read("q4", query4_initial_plan(db), "q4")] * PAPER_REPEATS
    rng = random.Random(f"paper-mix:{seed}")
    while True:
        order = list(reads)
        rng.shuffle(order)
        yield order


def _stratified(rng: random.Random, low: int, high: int) -> list[int]:
    """One draw from each of ``ADHOC_STRATA`` equal slices of
    ``[low, high)``, in slice order: every pass covers the whole range
    evenly, so seeds differ in detail, not in mix."""
    width = (high - low) / ADHOC_STRATA
    return [low + int(width * (index + rng.random())) for index in range(ADHOC_STRATA)]


def adhoc_passes(tango: Tango, seed: int) -> Iterator[list[Op]]:
    """Every template with freshly drawn parameters over the three
    smallest POSITION variants: Q1 with a drawn ``PayRate`` filter, Q2
    with a drawn period end (1984-2000), Q3 with a drawn start bound
    (1988-1999) and Q4 on each variant.  Q1-Q3 are nearly always new to
    the 64-entry plan cache; Q4 has only three shapes and hits."""
    db = tango.db
    rng = random.Random(f"adhoc:{seed}")
    rotation = 0

    def tables() -> list[str]:
        """Stratum i reads variant (i + pass) mod 3: over three passes
        every slice of every range meets every variant."""
        return [
            ADHOC_TABLES[(index + rotation) % len(ADHOC_TABLES)]
            for index in range(ADHOC_STRATA)
        ]

    while True:
        rotation += 1
        ops = []
        for table, cents in zip(tables(), _stratified(rng, 400, 4000)):
            sql = (
                f"VALIDTIME SELECT PosID, COUNT(PosID) FROM {table} "
                f"WHERE PayRate > {cents / 100:.2f} GROUP BY PosID ORDER BY PosID"
            )
            ops.append(_read("q1", sql, sql))
        for table, day in zip(tables(), _stratified(rng, year_start(1984), year_start(2001))):
            end = iso_of(day)
            ops.append(_read("q2", query2_initial_plan(db, end, table), f"q2:{table}:{end}"))
        for table, day in zip(tables(), _stratified(rng, year_start(1988), year_start(2000))):
            bound = iso_of(day)
            ops.append(
                _read("q3", query3_initial_plan(db, bound, table), f"q3:{table}:{bound}")
            )
        for table in tables():
            ops.append(_read("q4", query4_initial_plan(db, table), f"q4:{table}"))
        rng.shuffle(ops)
        yield ops


# -- the write path ---------------------------------------------------------------------


class UpdateStream:
    """Seeded UIS-shaped update batches against POSITION.

    Tracks the live multiset, so each batch deletes rows that exist;
    inserts come from fresh POSITION-sized draws of the UIS generator,
    so they keep the relation's key skew and period distribution.
    """

    def __init__(self, tango: Tango, seed: int):
        self.live = list(tango.db.query("SELECT * FROM POSITION"))
        self._size = len(self.live)
        self._employees = tango.db.table("EMPLOYEE").cardinality
        self._rng = random.Random(f"updates:{seed}")
        self._pool: list[tuple] = []

    def _insert_rows(self, count: int) -> list[tuple]:
        while len(self._pool) < count:
            self._pool.extend(
                position_rows(
                    self._size,
                    seed=self._rng.randrange(2**31),
                    employee_count=self._employees,
                )
            )
        taken, self._pool = self._pool[:count], self._pool[count:]
        return taken

    def next_op(self) -> Op:
        count = max(1, round(UPDATE_SHARE * len(self.live)))
        picks = sorted(self._rng.sample(range(len(self.live)), count), reverse=True)
        deletes = [self.live[index] for index in picks]
        for index in picks:
            self.live[index] = self.live[-1]
            self.live.pop()
        inserts = self._insert_rows(count)
        self.live.extend(inserts)

        def call(tango: Tango):
            applied = tango.apply_updates("POSITION", inserts, deletes)
            if applied["inserted"] != count or applied["deleted"] != count:
                raise AssertionError(f"update applied {applied}, expected {count}/{count}")
            return applied

        return Op("update", call)


def _refresh(cls: str, view: str) -> Op:
    return Op(cls, lambda tango: tango.refresh_view(view), key=view)


def write_cycle(updates: UpdateStream) -> list[Op]:
    """An update and both refreshes.  The two views are two operation
    classes: their refresh times lie apart, and a median over both would
    fall in the gap between them."""
    return [
        updates.next_op(),
        _refresh("refresh_taggr", VIEW_Q1),
        _refresh("refresh_tjoin", VIEW_Q3),
    ]


def churn_passes(tango: Tango, seed: int) -> Iterator[list[Op]]:
    """Four cycles per pass; each cycle writes (update, refresh both
    views) and then reads one template on the updated table, rotating
    Q1, Q2, Q3, Q4.  The Q1 and Q3 reads are checked against the views
    just refreshed, Q2 and Q4 against their initial plans."""
    db = tango.db
    updates = UpdateStream(tango, seed)
    reads = [
        _read("q1", query1_sql(), "q1", view=VIEW_Q1),
        _read("q2", query2_initial_plan(db, CHURN_Q2_END), "q2"),
        _read("q3", query3_initial_plan(db, VIEW_Q3_BOUND), "q3", view=VIEW_Q3),
        _read("q4", query4_initial_plan(db), "q4"),
    ]
    while True:
        ops = []
        for read in reads:
            ops.extend(write_cycle(updates))
            ops.append(read)
        yield ops


def epilogue(tango: Tango, seed: int) -> list[Op]:
    """The write path after a read-only workload's timed reads."""
    updates = UpdateStream(tango, seed)
    ops: list[Op] = []
    for _ in range(EPILOGUE_CYCLES):
        ops.extend(write_cycle(updates))
    return ops


STREAMS = {
    "paper-mix": paper_mix_passes,
    "adhoc": adhoc_passes,
    "churn": churn_passes,
    "remote": paper_mix_passes,
}

#: Reads whose answer cannot move during a run: checked against an
#: oracle answer cached per distinct query.  ``churn``'s reads see a
#: table that changes every cycle and are checked on the spot.
CACHED_ORACLE = {"paper-mix": True, "adhoc": True, "churn": False, "remote": True}
#: Every n-th read is checked.  Nearly every ``adhoc`` query is new, and
#: its initial plans (TAGGR^D in SQL) cost 5-10x the operation itself,
#: so one read in three is checked: with the seeded order that still
#: covers every template and variant in every pass.
CHECK_EVERY = {"paper-mix": 1, "adhoc": 3, "churn": 1, "remote": 1}
