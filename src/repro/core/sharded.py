"""Shard-parallel maintenance: :class:`ShardedEngine`.

A drop-in :class:`~repro.core.engine.IdIvmEngine` that runs each
maintenance round across N shard workers when the round's ∆-script is
provably shard-local (see :mod:`repro.shard.router`), and falls back to
a single global execution (*broadcast* — bit-for-bit the base engine's
behaviour) otherwise.

The sharding model is **shared-database**: there is exactly one live
:class:`~repro.storage.Database`; what gets partitioned is the round's
i-diff *instance rows*, split by anchor key.  Every worker executes the
full ∆-script over its row subset in a private :class:`IrContext`.
Because the router proved every counted operation anchor-local, the
workers read and write disjoint rows of the shared caches and view,
the union of their outputs equals the single-shard result, and their
access counts — each shard's ``phase_delta`` of the database's one
:class:`CounterSet` — sum *exactly* to the single-shard counts.

That disjointness claim is *checked*, twice, rather than trusted: the
static interference pass (``repro.analysis.interference``, rules
RACE6xx) re-proves the per-round write-footprint disjointness at lint /
define time, and the **dynamic race detector** — ``race_check=True`` on
this engine — verifies it at run time by collecting every shard's
captured write-set per parallel round and asserting pairwise
key-disjointness before the round's effects are merged.  Under
``race_check="strict"`` an overlap raises
:class:`~repro.errors.ShardRaceError` (naming the table, key and
shards); under plain ``True`` it records a ``shard.race_overlaps``
metric and the overlap list on the round report.

The round itself is :meth:`IdIvmEngine.maintain`; this engine only
overrides its per-view hook (route, then execute) and its round-start
hook (sync live worker replicas).  A parallel round has two executors,
which feed one merge (:meth:`ShardedEngine._merge_shards`):

* ``backend="inline"`` (default) — the shard slices run one after
  another on the coordinator, each counted as a snapshot delta of the
  database counters under its own ``shard:{i}`` span.  Per-shard
  counts, the critical path and the race check are exactly those of a
  parallel run; wall-clock time is the sum of the slices.
* ``backend="process"`` — long-lived worker processes, each owning a
  replica of the database and view caches (:mod:`repro.shard.workers`).
  Per-round inputs travel in the compact columnar wire format of
  :mod:`repro.core.wire`; workers return exact counter deltas plus
  replayable write-sets that the coordinator merges back (the counts
  into the database counters), so counts still reconcile exactly while
  the ∆-scripts execute on separate cores.  Call
  :meth:`ShardedEngine.close` (or use the engine as a context manager)
  to shut the workers down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from ..errors import SchemaError, ShardRaceError
from ..obs import metrics
from ..obs import spans as obs
from ..obs.hist import LogHistogram
from ..shard.router import (
    RoutePlan,
    describe_plan,
    force_route,
    plan_route,
    split_instances,
)
from ..shard.workers import ProcessShardPool, build_blueprint, tagged_tables
from ..storage import CounterSet, Database
from . import wire
from .engine import (
    IdIvmEngine,
    MaintenanceReport,
    MaterializedView,
    phase_delta,
    round_context,
)
from .script import execute_script

BACKENDS = ("inline", "process")


def _writeset_overlaps(
    per_shard: list[dict[str, list[tuple]]],
) -> list[tuple[str, tuple, tuple[int, ...]]]:
    """Pairwise key-disjointness check over per-shard write-sets.

    *per_shard* maps, per shard index, capture tag -> replayable ops.
    Returns every (tag, key, shard indices) written by more than one
    shard.  Index builds (``"x"`` ops) are idempotent DDL, not row
    writes, and are excluded.
    """
    owners: dict[tuple[str, tuple], set[int]] = {}
    for shard, writes in enumerate(per_shard):
        for tag, ops in writes.items():
            for op in ops:
                if op[0] == "x":
                    continue
                owners.setdefault((tag, op[1]), set()).add(shard)
    overlaps = [
        (tag, key, tuple(sorted(shards)))
        for (tag, key), shards in owners.items()
        if len(shards) > 1
    ]
    overlaps.sort(key=lambda item: (item[0], repr(item[1])))
    return overlaps


@dataclass
class ShardRun:
    """One shard's slice of a parallel round, as an executor reports it.

    ``counters`` holds only this slice's counts (already in the database
    totals).  ``writes`` maps capture tag -> replayable ops; the inline
    executor fills it only under ``race_check``, the process executor
    always (the coordinator replays it).
    """

    counters: CounterSet
    diff_sizes: dict[str, int]
    seconds: float
    writes: dict[str, list[tuple]]


@dataclass
class ShardedMaintenanceReport(MaintenanceReport):
    """A round report plus how it was routed.

    ``phase_counts`` holds the *merged* per-phase counts (shard sums in
    shard order for parallel rounds); ``shard_reports`` keeps each
    shard's own report for critical-path analysis.
    """

    parallel: bool = False
    anchor: Optional[str] = None
    broadcast_reason: Optional[str] = None
    backend: str = "inline"
    #: one-line rendering of the route plan (``describe_plan``)
    route: str = ""
    shard_reports: list[MaintenanceReport] = field(default_factory=list)
    #: distribution of per-shard total cost for parallel rounds (one
    #: observation per shard); its sum reconciles *exactly* with
    #: :attr:`total_cost` — shard counters are complete, no tolerance.
    shard_cost_hist: Optional[LogHistogram] = None
    #: distribution of per-shard wall clocks for parallel rounds (one
    #: observation per shard, seconds).  Durations are measured where the
    #: slice runs (``perf_counter`` deltas), so they are comparable
    #: across processes — raw monotonic readings never cross the wire.
    shard_wall_hist: Optional[LogHistogram] = None
    #: (table tag, key, shard indices) triples the dynamic race detector
    #: found (``race_check`` rounds only; empty means the round's
    #: write-sets were pairwise disjoint, as the router's proof claims).
    race_overlaps: list = field(default_factory=list)
    #: tables whose counted writes escaped capture during a checked
    #: round (the dynamic face of RACE604); empty on healthy rounds.
    uncaptured_tables: list = field(default_factory=list)

    def critical_path(self) -> int:
        """The busiest shard's cost — the parallel wall-clock proxy.

        For broadcast rounds this is the whole round's cost (one worker
        did everything).
        """
        if not self.shard_reports:
            return self.total_cost
        return max(r.total_cost for r in self.shard_reports)

    def span_attrs(self) -> dict:
        attrs = super().span_attrs()
        attrs["route"] = self.route
        if self.parallel and self.backend == "process":
            # The counted work ran in worker processes, so no phase spans
            # exist in this trace to reconcile against; stamp the merged
            # counts under a different key so the validator stays honest.
            attrs["phase_counts_remote"] = attrs.pop("phase_counts")
        return attrs


class ShardedEngine(IdIvmEngine):
    """ID-based IVM with hash-partitioned parallel ∆-script execution."""

    def __init__(
        self,
        db: Database,
        shards: int = 2,
        backend: str = "inline",
        race_check: "bool | str" = False,
        **kwargs,
    ):
        if shards < 1:
            raise SchemaError(f"need at least one shard, got {shards}")
        if backend not in BACKENDS:
            raise SchemaError(
                f"unknown shard backend {backend!r}; expected one of {BACKENDS}"
            )
        if race_check not in (False, True, "strict"):
            raise SchemaError(
                f"race_check must be False, True or 'strict', got {race_check!r}"
            )
        self.shards = shards
        self.backend = backend
        #: dynamic race detector: False (off), True (record overlaps as
        #: the ``shard.race_overlaps`` metric + on the round report) or
        #: "strict" (raise :class:`ShardRaceError` before merging).
        self.race_check = race_check
        #: lazily spawned process pool (``backend="process"`` only): the
        #: first provably-parallel round pays the spawn + bootstrap cost,
        #: broadcast-only workloads never do.
        self._pool: Optional[ProcessShardPool] = None
        super().__init__(db, **kwargs)

    # ------------------------------------------------------------------
    # worker-process lifecycle (backend="process")
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the worker processes (no-op for the inline backend
        or before the first parallel round).  Idempotent."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def define_view(self, name: str, plan) -> MaterializedView:
        # A new view invalidates the workers' bootstrap blueprint; the
        # next parallel round respawns them with the full catalog.
        self.close()
        return super().define_view(name, plan)

    def _live_pool(self) -> Optional[ProcessShardPool]:
        if self._pool is None or self._pool.closed:
            return None
        return self._pool

    def _ensure_pool(self, entries) -> ProcessShardPool:
        """Spawn + bootstrap the workers on the first parallel round.

        The blueprint snapshots the coordinator's *current* state — base
        tables already at post-state (deferred IVM applies modifications
        at DML time) and cache tables as of this round's start — so the
        bootstrap round message passes ``sync=False``.
        """
        pool = self._live_pool()
        if pool is None:
            pool = ProcessShardPool(self.shards)
            try:
                pool.boot(build_blueprint(self.db, self.views))
                pool.begin_round(wire.encode_log_batch(entries), sync=False)
            except BaseException:
                pool.close()
                raise
            self._pool = pool
        return pool

    # ------------------------------------------------------------------
    # the two round hooks
    # ------------------------------------------------------------------
    def _begin_round(self, entries) -> None:
        span = obs.current_span()
        if span is not None:
            span.set(shards=self.shards)
        pool = self._live_pool()
        if pool is not None:
            # Workers already ran earlier rounds: bring their base-table
            # replicas to this round's post-state before anything else.
            pool.begin_round(wire.encode_log_batch(entries), sync=True)

    def _run_view(
        self, view: MaterializedView, instances, db_pre: Database, entries
    ) -> ShardedMaintenanceReport:
        """Route the round; run it on the shards when provably safe, as
        one global execution (*broadcast*) otherwise."""
        plan = plan_route(view.generated.script, instances, self.db, self.shards)
        override = getattr(view.generated, "route_override", None)
        if (
            not plan.parallel
            and override is not None
            and self.shards > 1
            and any(diff.rows for diff in instances.values())
        ):
            # Ablation / race-fixture knob: run the round parallel on the
            # forced anchor WITHOUT the router's proof.  The race detector
            # exists to catch exactly what this can cause.
            plan = force_route(view.generated.script, instances, self.db, override)
        if plan.parallel:
            metrics.counter("shard.rounds_parallel").inc()
            shard_instances = split_instances(plan, instances, self.shards)
            if self.backend == "process":
                report = self._run_process(view, shard_instances, entries, plan)
            else:
                report = self._run_inline(
                    view, shard_instances, db_pre, entries, plan
                )
        else:
            metrics.counter("shard.rounds_broadcast").inc()
            report = self._run_broadcast(view, instances, db_pre, entries, plan)
        report.route = describe_plan(plan)
        return report

    # ------------------------------------------------------------------
    # executors
    # ------------------------------------------------------------------
    def _run_broadcast(
        self, view: MaterializedView, instances, db_pre: Database, entries,
        plan: RoutePlan,
    ) -> ShardedMaintenanceReport:
        """The base engine's round; with a live process pool, its writes
        are captured and replayed on every worker so their view/cache
        replicas stay current for the next parallel round."""
        pool = self._live_pool()
        tables = (
            list(tagged_tables(view.caches, view.operator_caches)) if pool else []
        )
        sinks = {tag: table.begin_capture() for tag, table in tables}
        try:
            base = super()._run_view(view, instances, db_pre, entries)
        finally:
            for _, table in tables:
                table.end_capture()
        writes = {tag: ops for tag, ops in sinks.items() if ops}
        if pool is not None and writes:
            pool.apply_writes(view.name, wire.encode_writeset(writes))
        return ShardedMaintenanceReport(
            **vars(base), broadcast_reason=plan.reason, backend=self.backend
        )

    def _run_inline(
        self, view: MaterializedView, shard_instances, db_pre: Database,
        entries, plan: RoutePlan,
    ) -> ShardedMaintenanceReport:
        """Run the shard slices one after another on the coordinator."""
        modified = {entry.table for entry in entries}
        # Dynamic race detector: capture each slice's writes to the shared
        # cache/view tables, and audit every base table (counted writes
        # landing outside the tagged set would escape a process-backend
        # write-set merge — dynamic RACE604).
        race_tables = (
            list(tagged_tables(view.caches, view.operator_caches))
            if self.race_check else []
        )
        audit_hits: set[str] = set()
        if self.race_check:
            for name in self.db.table_names():
                self.db.table(name).audit_uncaptured(audit_hits.add)
        counters = self.db.counters
        runs: list[ShardRun] = []
        try:
            for i, shard_diffs in enumerate(shard_instances):
                ctx = round_context(view, shard_diffs, db_pre, self.db, modified)
                sinks = {tag: table.begin_capture() for tag, table in race_tables}
                before = counters.snapshot()
                started = time.perf_counter()
                try:
                    with obs.span(
                        f"shard:{i}", kind="shard", counters=counters,
                        shard=i, view=view.name, anchor=plan.anchor,
                    ):
                        execute_script(view.script, ctx, counters)
                finally:
                    for _, table in race_tables:
                        table.end_capture()
                runs.append(ShardRun(
                    CounterSet.from_phase_counts(
                        phase_delta(before, counters.snapshot())
                    ),
                    {k: len(v) for k, v in ctx.diffs.items()},
                    time.perf_counter() - started,
                    {tag: ops for tag, ops in sinks.items() if ops},
                ))
        finally:
            if self.race_check:
                for name in self.db.table_names():
                    self.db.table(name).audit_uncaptured(None)
        return self._merge_shards(view, plan, runs, sorted(audit_hits))

    def _run_process(
        self, view: MaterializedView, shard_instances, entries, plan: RoutePlan
    ) -> ShardedMaintenanceReport:
        """One worker *process* per shard (see :mod:`repro.shard.workers`
        for the protocol)."""
        pool = self._ensure_pool(entries)
        docs = [wire.encode_instances(diffs) for diffs in shard_instances]
        runs: list[ShardRun] = []
        for i, reply in enumerate(pool.exec_view(view.name, docs)):
            counters = wire.decode_counters(reply["counters"])
            # The counted work ran on a replica: keep the database-wide
            # totals truthful.
            self.db.counters.merge(counters)
            with obs.span(
                f"shard:{i}", kind="shard",
                shard=i, view=view.name, anchor=plan.anchor,
                worker_seconds=reply["seconds"], cost=counters.total.total,
            ):
                pass  # bookkeeping span: the work ran in the worker
            runs.append(ShardRun(
                counters,
                dict(reply["diff_sizes"]),
                reply["seconds"],
                wire.decode_writeset(reply["writes"]),
            ))
        # Raises under race_check="strict" BEFORE any write-set reaches the
        # coordinator's tables: a racy round leaves the authoritative
        # state untouched.
        report = self._merge_shards(view, plan, runs, ())
        merged: dict[str, list[tuple]] = {}
        for run in runs:
            for tag, ops in run.writes.items():
                merged.setdefault(tag, []).extend(ops)
        # The counted writes happened on the worker replicas; replay them
        # (uncounted — the cost is already in the folded counters) onto
        # the coordinator's authoritative tables, then onto every worker
        # so all replicas converge.  Replay is idempotent, so the merged
        # set going back to its originating shard is safe.
        coordinator_tables = dict(tagged_tables(view.caches, view.operator_caches))
        for tag, ops in merged.items():
            coordinator_tables[tag].replay_writes(ops)
        if merged:
            pool.apply_writes(view.name, wire.encode_writeset(merged))
        return report

    # ------------------------------------------------------------------
    def _merge_shards(
        self, view: MaterializedView, plan: RoutePlan, runs: list[ShardRun],
        uncaptured,
    ) -> ShardedMaintenanceReport:
        """Fold the per-shard slices of a parallel round into its report.

        Per-shard counter sets sum into the report phase by phase, so
        both executors reconcile against the same single-shard counts —
        and, since the merged diff sizes equal the single-shard ones,
        against the same prediction.
        """
        report = ShardedMaintenanceReport(
            view.name, parallel=True, anchor=plan.anchor, backend=self.backend
        )
        report.shard_cost_hist = LogHistogram("shard.round_cost", unit="accesses")
        report.shard_wall_hist = LogHistogram("shard.round_seconds", unit="seconds")
        apply_seconds = metrics.loghist("shard.apply_seconds", unit="seconds")
        shard_cost = metrics.loghist("shard.cost", unit="accesses")
        for i, run in enumerate(runs):
            cost = run.counters.total.total
            report.shard_cost_hist.observe(cost)
            report.shard_wall_hist.observe(run.seconds)
            apply_seconds.observe(run.seconds)
            shard_cost.observe(cost)
            shard_report = MaintenanceReport(
                f"{view.name}@shard{i}", run.counters.snapshot(), run.diff_sizes
            )
            report.shard_reports.append(shard_report)
            for phase, counts in shard_report.phase_counts.items():
                bucket = report.phase_counts.get(phase)
                if bucket is None:
                    report.phase_counts[phase] = counts.copy()
                else:
                    bucket.add(counts)
            for k, v in run.diff_sizes.items():
                report.diff_sizes[k] = report.diff_sizes.get(k, 0) + v
        if self.race_check:
            self._handle_race(
                view.name, report,
                _writeset_overlaps([run.writes for run in runs]), uncaptured,
            )
        report.predicted_counts = view.predict(report.diff_sizes)
        return report

    # ------------------------------------------------------------------
    def _handle_race(
        self,
        view_name: str,
        report: ShardedMaintenanceReport,
        overlaps: list[tuple[str, tuple, tuple[int, ...]]],
        uncaptured,
    ) -> None:
        """Surface what the dynamic detector found for one checked round."""
        if uncaptured:
            metrics.counter("shard.uncaptured_writes").inc(len(uncaptured))
            report.uncaptured_tables = list(uncaptured)
        if not overlaps:
            return
        metrics.counter("shard.race_overlaps").inc(len(overlaps))
        report.race_overlaps = overlaps
        if self.race_check == "strict":
            shown = "; ".join(
                f"{tag} key {key!r} written by shards {list(shards)}"
                for tag, key, shards in overlaps[:5]
            )
            more = f" (+{len(overlaps) - 5} more)" if len(overlaps) > 5 else ""
            raise ShardRaceError(
                f"parallel round for view {view_name!r} produced "
                f"overlapping per-shard write-sets — the shard-disjointness "
                f"claim is violated: {shown}{more}",
                overlaps=overlaps,
            )
