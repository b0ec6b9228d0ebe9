#!/usr/bin/env python3
"""TANGO's benchmark: run one workload from a seed, check every answer,
print every metric by name and unit.

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --workload churn --seed 3 --trace 1
    python3 perfbench/run.py --workload all --repeat 10    # steadiness table

One closed-loop client in one process: each operation is sent only after
the previous one returned.  ``--trace 0`` reports the end-to-end metrics
with tracing off; ``--trace 1`` reports the per-layer split from a traced
run (see ``layers.py``).  The last line of standard output is the result
object.  Before it, a ``perfbench meta`` line records the git revision,
the machine and the workload's configuration; a ``perfbench pins`` line
the simulated ticks and plan fingerprints per operation class (equal on
every run of the same code and seed, or a plan flipped); and, with
``--trace 0``, a ``perfbench raw`` line the timing metrics before scaling
to the reference speed.

``--repeat N`` runs N seeds in fresh processes, re-runs the first seed to
check the pins, and prints each metric's median, quartiles and spread
against its bound from ``BENCHMARK.json``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest measured operations per run (≥10 samples beyond the pooled p95).
MIN_OPS = 200
#: Where the traced run writes its spans (inside the checkout).
TRACE_DIR = ROOT / ".perfbench"
#: The reference kernel's time on the reference machine (2-vCPU x86-64
#: VM, Python 3.11) in its fast state; see :func:`reference_seconds`.
REFERENCE_MS = 0.85

#: Input of the reference kernel: fixed, independent of TANGO's code.
_REFERENCE_ROWS = [((i * 7919) % 1009, i % 97, f"k{i % 61}", i) for i in range(1500)]


def reference_seconds() -> float:
    """Time one run of a fixed pure-Python kernel (sort, group, rebuild
    tuples — the interpreter work TANGO's operators do).

    The host this benchmark was built on swings between two speeds, up to
    2x apart, for seconds at a time.  Each timed call is bracketed by this
    kernel, and the CPU-busy part of its wall time is scaled by
    ``REFERENCE_MS`` over the kernel's mean time around it (see
    :func:`scaled`): the result is the call's time at the reference
    speed.  The kernel calls nothing of TANGO's, so a change to TANGO
    moves the scaled times exactly as it moves the raw ones.
    """
    begin = time.perf_counter()
    rows = sorted(_REFERENCE_ROWS, key=lambda row: (row[1], row[0]))
    groups: dict = {}
    for a, b, c, _ in rows:
        groups[(b, c)] = groups.get((b, c), 0) + a
    [tuple(value for value in row) for row in rows[:500]]
    return time.perf_counter() - begin


def scaled(wall: float, cpu: float, before: float, after: float) -> float:
    """*wall* seconds at the reference speed.  Only the process's CPU time
    (*cpu*, at most *wall*) is scaled; time spent waiting — the simulated
    wire's sleeps on ``remote`` — does not depend on the CPU's speed."""
    busy = min(cpu, wall)
    return wall - busy + busy * (REFERENCE_MS / 1e3) / ((before + after) / 2)


class Stopwatch:
    """Wall and process CPU time of one block."""

    def __enter__(self):
        self._wall, self._cpu = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc_info):
        self.wall = time.perf_counter() - self._wall
        self.cpu = time.process_time() - self._cpu
        return False


def _bootstrap() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no TANGO sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _benchmark_file() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def git_revision() -> str:
    """The checkout's commit, read from ``.git`` (no git process)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    uname = os.uname()
    return {
        "system": uname.sysname,
        "release": uname.release,
        "arch": uname.machine,
        "cpus": os.cpu_count(),
        "python": sys.version.split()[0],
    }


def plan_fingerprint(op, result) -> str:
    if op.cls.startswith("refresh"):
        return result.strategy
    plan = getattr(result, "plan", None)
    if plan is None:
        return "-"
    return hashlib.sha1(plan.pretty().encode()).hexdigest()[:12]


class Session:
    """Runs operations on one ``Tango`` instance and checks every answer.

    ``bucket`` says what an operation counts towards: ``None`` for
    warm-up, ``"main"`` for the workload's timed sequence, ``"epilogue"``
    for the write path after a read-only workload.  Only the clock
    around ``op.call`` is measured; checks run with it stopped.  Each
    time is scaled to the reference speed (see :func:`reference_seconds`)
    and kept raw beside.
    """

    def __init__(self, spec, tango, recorder=None):
        from workloads import CACHED_ORACLE, CHECK_EVERY, Oracle

        self.spec = spec
        self.tango = tango
        self.oracle = Oracle(tango.db)
        self.cached_oracle = CACHED_ORACLE[spec.name]
        self.check_every = CHECK_EVERY[spec.name]
        self._reads = 0
        self.recorder = recorder
        self.attempted = 0
        self.failed = 0
        self.latencies = {"main": defaultdict(list), "epilogue": defaultdict(list)}
        self.raw = {"main": defaultdict(list), "epilogue": defaultdict(list)}
        self.ops = 0
        self.op_seconds = 0.0  # scaled
        self.raw_seconds = 0.0
        self._reference = reference_seconds()
        self.pins: dict[str, dict] = {}
        self.dbms_delta = None
        self.mw_ticks = 0
        self.updates = self.refreshes = self.invalidations = 0
        self._deferred: list[tuple] = []

    def fail(self, op, reason: str) -> None:
        self.failed += 1
        print(f"perfbench: {op.cls} {op.key} failed: {reason}", file=sys.stderr)

    def run(self, op, bucket: str | None) -> None:
        tango = self.tango
        self.attempted += 1
        dbms_before = tango.db.meter.snapshot()
        mw_before = tango.middleware_meter.ticks
        try:
            if self.recorder is not None and bucket is not None:
                with self.recorder.operation_span(self.ops, op.cls), Stopwatch() as watch:
                    result = op.call(tango)
                tango.tracer.drain()
            else:
                with Stopwatch() as watch:
                    result = op.call(tango)
        except Exception as error:  # noqa: BLE001 - a failed operation is counted
            self.fail(op, repr(error))
            return
        raw = watch.wall
        before, self._reference = self._reference, reference_seconds()
        seconds = scaled(raw, watch.cpu, before, self._reference)
        dbms = tango.db.meter.snapshot() - dbms_before
        mw_ticks = tango.middleware_meter.ticks - mw_before
        self._check(op, result)
        if bucket is None:
            return
        self.latencies[bucket][op.cls].append(seconds)
        self.raw[bucket][op.cls].append(raw)
        if bucket != "main":
            return
        self.ops += 1
        self.op_seconds += seconds
        self.raw_seconds += raw
        self.dbms_delta = dbms if self.dbms_delta is None else _add(self.dbms_delta, dbms)
        self.mw_ticks += mw_ticks
        if op.cls == "update":
            self.updates += 1
            self.invalidations += result["feedback_invalidated"]
        elif op.cls.startswith("refresh"):
            self.refreshes += 1
        pin = self.pins.setdefault(op.cls, {"dbms_ticks": 0, "mw_ticks": 0, "plans": []})
        pin["dbms_ticks"] += dbms.ticks
        pin["mw_ticks"] += mw_ticks
        pin["plans"].append(plan_fingerprint(op, result))

    def _check(self, op, result) -> None:
        from workloads import digest, view_digest

        if op.query is None:
            return  # writes: apply_updates' counts are checked in the op
        self._reads += 1
        if self._reads % self.check_every:
            return
        if op.view is not None:
            if digest(result.rows, canonical=True) != view_digest(self.tango, op.view):
                self.fail(op, f"answer differs from view {op.view}")
        elif self.cached_oracle:
            self._deferred.append((op, digest(result.rows)))
        elif digest(result.rows) != self.oracle.answer(op.query):
            self.fail(op, "answer differs from the initial plan's")

    def resolve(self) -> None:
        """Check deferred answers against the oracle (after each pass)."""
        deferred, self._deferred = self._deferred, []
        for op, seen in deferred:
            if seen != self.oracle.cached(op.key, op.query):
                self.fail(op, "answer differs from the initial plan's")

    def check_views(self) -> None:
        """Both views against a from-scratch recompute."""
        from workloads import view_definitions

        for view, query in view_definitions(self.tango.db).items():
            self.attempted += 1
            if not self.oracle.view_matches(self.tango, view, query):
                self.failed += 1
                print(f"perfbench: view {view} differs from a recompute", file=sys.stderr)

    def close(self) -> None:
        self.oracle.close()
        self.tango.close()


def _add(left, right):
    return type(left)(left.io + right.io, left.cpu + right.cpu)


def run_passes(session: Session, passes, seconds: float) -> int:
    """The timed phase: ``seconds / spec.pass_seconds`` whole passes — a
    fixed amount of work that takes *seconds* at the reference speed —
    and at least ``MIN_OPS`` operations.  Returns the passes run.

    Fixing the work rather than the wall time keeps everything counted
    per run (ticks, operations, the caches' growth behind
    ``peak_rss_mb``) a function of code and seed alone.
    """
    target = max(1, round(seconds / session.spec.pass_seconds))
    done = issued = 0
    while done < target or issued < MIN_OPS:
        for op in next(passes):
            session.run(op, "main")
            issued += 1
        session.resolve()
        done += 1
    return done


def prepare(spec, seed: int, tracing: bool = False, recorder=None):
    """A session warmed up by one pass (which covers every distinct
    ``paper-mix``/``remote`` query and fills the plan cache), plus its
    pass stream positioned after the warm-up."""
    from workloads import STREAMS, setup

    session = Session(spec, setup(spec, tracing=tracing), recorder)
    passes = STREAMS[spec.name](session.tango, seed)
    for op in next(passes):
        session.run(op, None)
    session.resolve()
    gc.collect()
    gc.freeze()
    return session, passes


def end_to_end(spec, seed: int, seconds: float) -> tuple[Session, dict]:
    from workloads import epilogue, setup

    setup_times, raw_setup = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = reference_seconds()
        with Stopwatch() as watch:
            tango = setup(spec)
        raw_setup.append(watch.wall)
        setup_times.append(scaled(watch.wall, watch.cpu, before, reference_seconds()))
        tango.close()
    session, passes = prepare(spec, seed)
    run_passes(session, passes, seconds)
    if spec.epilogue:
        gc.collect()
        gc.freeze()
        for op in epilogue(session.tango, seed):
            session.run(op, "epilogue")
    session.check_views()

    values = _timings(spec, session.latencies, setup_times)
    raw = {name: value for name, (value, _) in _timings(spec, session.raw, raw_setup).items()}
    print("perfbench raw " + json.dumps(raw, sort_keys=True))
    values["dbms_ticks_per_op"] = (session.dbms_delta.ticks / session.ops, "ticks")
    values["mw_ticks_per_op"] = (session.mw_ticks / session.ops, "ticks")
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
    )
    return session, values


def _timings(spec, latencies: dict, setup_times: list[float]) -> dict:
    main = latencies["main"]
    writes = latencies["epilogue" if spec.epilogue else "main"]
    pooled = [value for values in main.values() for value in values]
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_ops": (len(pooled) / sum(pooled), "1/s"),
        "latency_p95_ms": (statistics.quantiles(pooled, n=20)[18] * 1e3, "ms"),
    }
    for cls in ("q1", "q2", "q3", "q4"):
        values[f"{cls}_p50_ms"] = (statistics.median(main[cls]) * 1e3, "ms")
    for cls in ("update", "refresh_taggr", "refresh_tjoin"):
        values[f"{cls}_p50_ms"] = (statistics.median(writes[cls]) * 1e3, "ms")
    return values


def traced(spec, seed: int, seconds: float) -> tuple[Session, dict]:
    """An untraced phase for the baseline, then the same passes on a
    fresh, traced instance with the layer hooks installed."""
    from layers import Recorder, layer_metrics

    baseline, passes = prepare(spec, seed)
    count = run_passes(baseline, passes, seconds / 2)
    baseline.close()
    gc.unfreeze()

    recorder = Recorder()
    recorder.install()
    try:
        session, passes = prepare(spec, seed, tracing=True, recorder=recorder)
        before = session.tango.metrics.to_dict()
        for _ in range(count):
            for op in next(passes):
                session.run(op, "main")
            session.resolve()
        after = session.tango.metrics.to_dict()
    finally:
        recorder.remove()
    session.attempted += baseline.attempted
    session.failed += baseline.failed
    values = layer_metrics(
        recorder,
        ops=session.ops,
        updates=session.updates,
        refreshes=session.refreshes,
        invalidations=session.invalidations,
        metrics_before=before,
        metrics_after=after,
        dbms_delta=session.dbms_delta,
        mw_ticks=session.mw_ticks,
        op_seconds=session.raw_seconds,
        overhead_ratio=session.op_seconds / baseline.op_seconds,
    )
    TRACE_DIR.mkdir(exist_ok=True)
    recorder.write(
        str(TRACE_DIR / f"trace-{spec.name}-{seed}.jsonl"),
        {"workload": spec.name, "seed": seed, "ops": session.ops, "passes": count},
    )
    return session, values


def single_run(args) -> int:
    from workloads import SCALE, SPECS

    spec = SPECS[args.workload]
    seed = spec.default_seed if args.seed is None else args.seed
    seconds = args.seconds if args.seconds is not None else _benchmark_file()["run_seconds"]
    measure = traced if args.trace else end_to_end
    session, values = measure(spec, seed, seconds)
    session.close()
    meta = {
        "git": git_revision(),
        "machine": machine(),
        "workload": spec.name,
        "seed": seed,
        "held_out_seed": spec.held_out_seed,
        "scale": SCALE,
        "config": spec.config,
        "seconds": seconds,
        "ops": session.ops,
        "trace": bool(args.trace),
    }
    print("perfbench meta " + json.dumps(meta, sort_keys=True))
    pins = {
        cls: {**pin, "plans": hashlib.sha1("|".join(pin["plans"]).encode()).hexdigest()[:12]}
        for cls, pin in sorted(session.pins.items())
    }
    print("perfbench pins " + json.dumps(pins, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": session.failed == 0,
                "attempted": session.attempted,
                "failed": session.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()
                },
            }
        )
    )
    return 0


# -- repeat mode -------------------------------------------------------------------------


def _child(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {completed.returncode}:\n"
                           f"{completed.stderr[-2000:]}")
    lines = completed.stdout.strip().splitlines()
    pins = next(
        json.loads(line[len("perfbench pins "):])
        for line in lines if line.startswith("perfbench pins ")
    )
    return json.loads(lines[-1]), pins


def repeat(args) -> int:
    from workloads import SPECS

    bench = _benchmark_file()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    names = list(SPECS) if args.workload == "all" else [args.workload]
    steady = True
    for name in names:
        first = SPECS[name].default_seed if args.seed is None else args.seed
        seeds = [first + index for index in range(args.repeat)]
        results, first_pins = [], None
        for seed in seeds:
            result, pins = _child(name, seed, seconds, args.trace)
            results.append(result)
            first_pins = first_pins or pins
            print(f"# {name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            steady &= result["correct"]
        _, again = _child(name, seeds[0], seconds, args.trace)
        pinned = again == first_pins
        steady &= pinned
        print(f"## {name}: {len(seeds)} seeds from {first}, {seconds}s each; "
              f"pins on re-run of seed {seeds[0]}: {'same' if pinned else 'CHANGED'}")
        print(f"{'metric':38} {'unit':7} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for metric in metrics:
            values = [result["metrics"][metric["name"]]["value"] for result in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = metric.get("bound")
            verdict = ""
            if bound is not None and metric["name"] != "setup_s":
                ok = spread <= bound / 3
                steady &= ok
                verdict = "ok" if ok else "NOISY"
            print(f"{metric['name']:38} {metric['unit']:7} {median:12.5g} {q1:12.5g} "
                  f"{q3:12.5g} {spread:8.3f} {bound if bound is not None else '-':>6} {verdict}")
    return 0 if steady else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many seeds in fresh processes and "
                             "print the steadiness table")
    args = parser.parse_args(argv)
    _bootstrap()
    from workloads import SPECS

    if args.workload not in SPECS and not (args.repeat and args.workload == "all"):
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(SPECS)}")
    return repeat(args) if args.repeat else single_run(args)


if __name__ == "__main__":
    sys.exit(main())
