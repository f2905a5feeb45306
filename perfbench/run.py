#!/usr/bin/env python3
"""Closed-loop maintenance benchmark for the idIVM engine.

One client logs a batch through ``engine.log.*``, calls
``engine.maintain()``, and only then logs the next batch.  Every view is
compared with a from-scratch ``evaluate_plan`` recompute at the end of
warm-up, every few rounds and at the end, always outside the timed
region.

    python3 perfbench/run.py --workload devices-churn --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of an unmodified run.
``--trace 1`` runs the same loop twice, untraced and then traced (layer
entry points wrapped, span recorder on), and prints the per-layer
ledger.  The last stdout line is the JSON result; the line before it
holds provenance and sample counts.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Rounds run inside set-up, after the views are defined (the sharded
#: engine spawns its workers in the first one).
WARMUP_ROUNDS = 5
#: The p90s need at least 100 samples.
MIN_ROUNDS = 100
#: Sessions per untraced run, each a fresh set-up plus its share of the
#: timed rounds: ``setup_s`` is the median of their set-ups, and each
#: loop metric is reported at its best of them.
REPEATS = 3
#: Round seeds of one benchmark seed occupy their own block, so two
#: benchmark seeds never replay each other's update picks.
ROUND_SEED_STRIDE = 100_000

perf_counter = time.perf_counter


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (*q* in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def log_ops(log, ops, stamps) -> None:
    """Log one batch through the public ``engine.log.*`` calls, stamping
    the moment each call returns."""
    for kind, table, payload, changes in ops:
        if kind == "update":
            log.update(table, payload, changes)
        elif kind == "delete":
            log.delete(table, payload)
        else:
            log.insert(table, payload)
        stamps.append(perf_counter())


def round_signature(reports) -> tuple:
    """Every view's per-phase counts for one round (the exact quantity
    that two runs of one seed must agree on)."""
    return tuple(
        sorted(
            (view, phase, c.index_lookups, c.tuple_reads, c.tuple_writes)
            for view, report in reports.items()
            for phase, c in report.phase_counts.items()
            if phase != "__total__"
        )
    )


class Accounting:
    """Rounds attempted and failed, and every problem found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.problems: list[str] = []

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)
            print(f"problem: {text}", file=sys.stderr)


class Session:
    """One engine with its workload: set-up, rounds, oracle checks."""

    def __init__(self, workload, seed: int, acct: Accounting, ledger=None):
        self.workload = workload
        self.seed = seed
        self.acct = acct
        self.next_round = 0
        self.unchecked_ok = 0  # rounds that completed since the last check
        self.warm_signatures: list[tuple] = []
        started = perf_counter()
        self.db, self.config = workload.build(seed)
        self.build_s = perf_counter() - started
        self.engine = workload.make_engine(self.db)
        try:
            if ledger is not None:
                ledger.attach_log(self.engine.log)
            workload.define(self.engine, self.db, self.config)
            for _ in range(WARMUP_ROUNDS):
                ops = self.batch()
                log_ops(self.engine.log, ops, [])
                reports = self.maintain(self.engine.maintain)
                self.warm_signatures.append(
                    round_signature(reports) if reports is not None else None
                )
        except BaseException:
            self.close()
            raise
        self.setup_s = perf_counter() - started

    def batch(self):
        ops = self.workload.batch(
            self.db, self.config, self.seed * ROUND_SEED_STRIDE + self.next_round
        )
        self.next_round += 1
        return ops

    def maintain(self, call):
        """One maintenance round with failure accounting: a round that
        raises is counted and the run goes on."""
        self.acct.attempted += 1
        try:
            reports = call()
        except Exception:
            self.acct.failed += 1
            self.acct.problem(
                f"round {self.next_round - 1} raised:\n{traceback.format_exc()}"
            )
            return None
        self.unchecked_ok += 1
        return reports

    def check(self, where: str) -> None:
        """Compare every view with a recompute (outside the timed region).
        On a mismatch, every round since the last clean check counts as
        failed: none of them can be shown to have left the views right."""
        from repro.algebra.evaluate import evaluate_plan

        self.acct.checks += 1
        wrong = [
            name
            for name, view in self.engine.views.items()
            if Counter(evaluate_plan(view.plan, self.db).rows)
            != Counter(view.table.rows_uncounted())
        ]
        if wrong:
            self.acct.failed += self.unchecked_ok
            self.acct.problem(f"views {wrong} differ from recompute {where}")
        self.unchecked_ok = 0

    def close(self) -> None:
        self.workload.close(self.engine)


#: One timed round that completed: ``round_s`` is the ``maintain()``
#: wall, ``cycle_s`` logging plus ``maintain()``, ``write_s`` the logging
#: wall over the operations, ``staleness_s`` one value per modification.
Round = namedtuple("Round", "round_s cycle_s write_s staleness_s mods accesses")


class Loop:
    """Samples of one timed closed loop, one entry per round (``None``
    for a round that failed)."""

    def __init__(self) -> None:
        self.rounds: list[Round | None] = []
        self.signatures: list[tuple] = []

    def completed(self) -> list[Round]:
        return [r for r in self.rounds if r is not None]


def timed_rounds(workload, seconds: float) -> int:
    """Rounds one timed loop runs: what *seconds* of loop take on the
    reference host, and never fewer than the p90s need.  A fixed count
    gives every run of a seed the same work and the same state at every
    round, whatever the host's speed."""
    return max(MIN_ROUNDS, round(seconds * workload.rounds_per_s))


def timed_loop(session: Session, seconds: float, tracer=None) -> Loop:
    loop = Loop()
    engine = session.engine
    call = engine.maintain if tracer is None else (lambda: tracer.maintain(engine))
    rounds = timed_rounds(session.workload, seconds)
    # Every loop starts from empty collector generations, so the loops
    # of one run begin alike and none pays for the garbage of set-up.
    gc.collect()
    for timed in range(1, rounds + 1):
        ops = session.batch()
        stamps: list[float] = []
        t1 = perf_counter()
        log_ops(engine.log, ops, stamps)
        t2 = perf_counter()
        reports = session.maintain(call)
        t3 = perf_counter()
        if reports is not None:
            loop.rounds.append(
                Round(
                    round_s=t3 - t2,
                    cycle_s=t3 - t1,
                    write_s=(t2 - t1) / len(ops),
                    staleness_s=array.array("d", (t3 - stamp for stamp in stamps)),
                    mods=len(ops),
                    accesses=sum(r.total_cost for r in reports.values()),
                )
            )
            loop.signatures.append(round_signature(reports))
            if tracer is not None:
                tracer.close_round(t3 - t2, reports)
        else:
            loop.rounds.append(None)
            loop.signatures.append(None)
        if timed % session.workload.check_every == 0 and timed < rounds:
            session.check(f"after timed round {timed}")
    session.check("at the end of the run")
    return loop


def peak_rss_mb(sharded: bool) -> float:
    """Coordinator peak plus the largest shard worker's (workers are
    joined by then, so RUSAGE_CHILDREN holds their high-water mark)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sharded:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def compare_signatures(acct: Accounting, label: str, first, second) -> None:
    common = min(len(first), len(second))
    for i in range(common):
        if first[i] is not None and second[i] is not None and first[i] != second[i]:
            acct.problem(f"{label}: access counts differ at round {i} for one seed")
            return


def untraced_session(workload, seed: int, seconds: float, acct: Accounting):
    """Set up, check the warm-up, run the timed loop; always close."""
    session = Session(workload, seed, acct)
    try:
        session.check("at the end of warm-up")
        loop = timed_loop(session, seconds)
    finally:
        session.close()
    return session, loop


def loop_metrics(loop: Loop) -> dict:
    """The timed-loop metrics of one loop, as ``name: (value, unit)``."""
    rounds = loop.completed()
    round_ms = [r.round_s * 1e3 for r in rounds]
    staleness_ms = [s * 1e3 for r in rounds for s in r.staleness_s]
    mods = sum(r.mods for r in rounds)
    cycle_s = sum(r.cycle_s for r in rounds)
    return {
        "round_ms.p50": (percentile(round_ms, 50), "ms"),
        "round_ms.p90": (percentile(round_ms, 90), "ms"),
        "staleness_ms.p90": (percentile(staleness_ms, 90), "ms"),
        "mods_per_s": (mods / cycle_s if cycle_s else 0.0, "1/s"),
        "write_us.p50": (percentile([r.write_s * 1e6 for r in rounds], 50), "us"),
    }


def best_of(per_loop: list[dict]) -> dict:
    """Each metric at its best over loops that did the same work: other
    tenants of a shared host only ever slow a loop down, so the best
    loop is the steadiest estimate of the program's own cost."""
    best = {}
    for name, (_, unit) in per_loop[0].items():
        values = [metrics[name][0] for metrics in per_loop]
        best[name] = (max(values) if name == "mods_per_s" else min(values), unit)
    return best


def run_untraced(workload, seed: int, seconds: float, acct: Accounting, info: dict):
    setups: list[float] = []
    loops: list[Loop] = []
    for _ in range(REPEATS):
        session, loop = untraced_session(workload, seed, seconds / REPEATS, acct)
        setups.append(session.setup_s)
        if loops:
            compare_signatures(
                acct, "warm-up of a repeated session", warm, session.warm_signatures
            )
            compare_signatures(
                acct, "timed rounds of a repeated session", loops[0].signatures, loop.signatures
            )
        else:
            warm = session.warm_signatures
        loops.append(loop)
        del session  # free its database before the next set-up
    per_loop = [loop_metrics(loop) for loop in loops]
    rounds = [r for loop in loops for r in loop.completed()]
    mods = sum(r.mods for r in rounds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        **best_of(per_loop),
        "accesses_per_mod": (
            sum(r.accesses for r in rounds) / mods if mods else 0.0,
            "count",
        ),
        "peak_rss_mb": (peak_rss_mb(workload.sharded), "MB"),
    }
    info["samples"] = {
        "setup_s": len(setups),
        "loops": len(loops),
        "round_ms": [len(loop.completed()) for loop in loops],
        "staleness_ms": [sum(r.mods for r in loop.completed()) for loop in loops],
        "write_us": [len(loop.completed()) for loop in loops],
    }
    info["setup_s_each"] = setups
    info["loop_metrics"] = [
        {name: value for name, (value, _) in metrics.items()} for metrics in per_loop
    ]
    return metrics


def run_traced(workload, seed: int, seconds: float, acct: Accounting, info: dict):
    from ledger import SETUP_LAYERS, Ledger, Tracer, instrumented

    # The untraced reference loop (for the overhead), same seed.
    base_session, base = untraced_session(workload, seed, seconds, acct)
    base_warm = base_session.warm_signatures
    del base_session  # free its database before the traced set-up
    ledger = Ledger()
    with instrumented(ledger):
        session = Session(workload, seed, acct, ledger=ledger)
        try:
            setup_seconds = dict(ledger.seconds)
            setup_seconds["setup.build_db"] = session.build_s
            session.check("at the end of warm-up (traced)")
            tracer = Tracer(ledger, workload.sharded)
            ledger.reset()
            loop = timed_loop(session, seconds, tracer)
        finally:
            session.close()
    for text in tracer.problems:
        acct.problem(f"traced run: {text}")
    compare_signatures(acct, "warm-up, traced vs untraced", base_warm, session.warm_signatures)
    compare_signatures(acct, "timed rounds, traced vs untraced", base.signatures, loop.signatures)

    rows = tracer.rounds
    metrics = {}
    for name in rows[0] if rows else ():
        metrics[name] = (statistics.fmean(row[name] for row in rows), _layer_unit(name))
    metrics["modlog.append_us"] = (percentile(tracer.append_us, 50), "us")
    metrics["obs.trace_overhead"] = (
        percentile([r.round_s for r in loop.completed()], 50)
        / percentile([r.round_s for r in base.completed()], 50)
        - 1.0
        if base.completed() and loop.completed()
        else 0.0,
        "ratio",
    )
    for layer in ("setup.build_db",) + SETUP_LAYERS:
        metrics[f"{layer}_s"] = (setup_seconds.get(layer, 0.0), "s")
    info["samples"] = {
        "traced_rounds": len(rows),
        "untraced_rounds": len(base.completed()),
        "append_batches": len(tracer.append_us),
    }
    info["wrapped"] = len(ledger.wrapped)
    if ledger.missing:
        info["unwrapped"] = ledger.missing
    return metrics


def _layer_unit(name: str) -> str:
    if name.endswith("_ms") or ".view_ms." in name or ".phase_ms." in name:
        return "ms"
    if name == "shard.wire_bytes":
        return "bytes"
    if name in ("modlog.fold_ratio", "shard.parallel_frac", "shard.skew"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    # String hashing, and with it dict/set layout, is randomized per
    # process.  Tie it to the seed, so one seed is one reproducible
    # layout and the seeds of a series sample different layouts; shard
    # workers inherit it.
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": hash_seed},
        )
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"expected one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    try:
        return _run(workload, args)
    finally:
        _stop_resource_tracker()


def _run(workload, args) -> int:
    acct = Accounting()
    info: dict = {}
    started = perf_counter()
    if args.trace:
        metrics = run_traced(workload, args.seed, args.seconds, acct, info)
    else:
        metrics = run_untraced(workload, args.seed, args.seconds, acct, info)
    failed_frac = acct.failed / acct.attempted if acct.attempted else 1.0
    info.update(
        workload=workload.name,
        seed=args.seed,
        trace=args.trace,
        failed_frac=failed_frac,
        rounds_attempted=acct.attempted,
        rounds_failed=acct.failed,
        oracle_checks=acct.checks,
        problems=len(acct.problems),
        run_s=perf_counter() - started,
        nproc=os.cpu_count(),
        affinity=sorted(os.sched_getaffinity(0)),
        python=platform.python_version(),
    )
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": not acct.problems and acct.failed == 0,
        "attempted": acct.attempted,
        "failed": acct.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process that spawning shard workers
    starts, so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
