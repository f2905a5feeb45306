"""Per-layer ledger for the traced run.

:func:`instrumented` wraps each layer's public entry points where their
callers resolve them (module globals, found by identity in every loaded
``repro`` module, and class attributes), records each call's *self*
time (its wall minus the wrapped calls nested inside it), and restores
the originals on exit.  Only the traced run installs it; the untraced
run executes the program unmodified.

A name that a later version of the program no longer has is skipped
and listed in :attr:`Ledger.missing`; its time then shows up in
``engine.unattributed_ms`` instead of its layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from multiprocessing.reduction import ForkingPickler

from repro.obs import spans
from repro.obs.trace import phase_totals

from workloads import ALL_VIEWS, view_metric_name

perf_counter = time.perf_counter

#: Layers timed inside a maintenance round.  Their self times, plus the
#: residual ``engine.unattributed``, add up to the round's wall time.
ROUND_LAYERS = (
    "modlog.take",
    "engine.pre_state",
    "modlog.populate",
    "shard.route",
    "script.execute",
    "shard.encode",
    "shard.decode",
    "shard.exec",
    "shard.replay",
    "shard.sync",
    "engine.finish",
)

#: Layers of view definition and engine start-up (the set-up metrics).
SETUP_LAYERS = (
    "setup.generate",
    "setup.cost_model",
    "setup.materialize",
    "setup.compile",
    "setup.pool_spawn",
)

PHASES = ("cache_diff", "cache_update", "view_diff", "view_update")

#: Per-round metrics that only a sharded engine can make non-zero.
SHARD_METRICS = (
    "shard.route_ms",
    "shard.parallel_frac",
    "shard.encode_ms",
    "shard.decode_ms",
    "shard.wire_bytes",
    "shard.exec_ms",
    "shard.worker_ms",
    "shard.ipc_ms",
    "shard.skew",
    "shard.replay_ms",
    "shard.sync_ms",
)


def _counts_key(counts) -> tuple:
    return (
        counts.index_lookups,
        counts.tuple_reads,
        counts.tuple_writes,
        counts.index_maintenance,
    )


def _nonzero(phases: dict) -> dict:
    return {
        phase: _counts_key(counts)
        for phase, counts in phases.items()
        if phase != "__total__" and any(_counts_key(counts))
    }


def _is_remote(report) -> bool:
    """True for a report whose counted work ran in shard worker
    processes (no local phase spans exist for it)."""
    return bool(getattr(report, "parallel", False)) and (
        getattr(report, "backend", "process") == "process"
    )


class Ledger:
    """Self-time and counts per layer, reset for every round."""

    def __init__(self) -> None:
        self.missing: list[str] = []
        self.wrapped: list[str] = []
        self._stack: list[float] = []
        self.reset()

    def reset(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.stats: dict[str, float] = defaultdict(float)
        self.phase_deltas: dict[str, list[int]] = {}
        #: (message, copies) sent to or received from shard workers
        self.messages: list[tuple] = []
        #: pre-state databases built this round, held so that their
        #: release is timed into ``engine.pre_state`` (see Tracer.maintain)
        self.pre_states: list = []

    def wrap(self, layer: str, fn, before=None, after=None):
        """*fn* timed into *layer*; hooks run outside the timed part."""
        ledger = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            token = before(ledger, args, kwargs) if before else None
            stack = ledger._stack
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                nested = stack.pop()
                ledger.seconds[layer] += elapsed - nested
                ledger.calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
            if after:
                after(ledger, args, kwargs, result, token)
            return result

        return timed

    def wire_bytes(self) -> int:
        """Pickled size of every shard message of the round, as the pipe
        carries it (one copy per receiving worker)."""
        return sum(
            len(ForkingPickler.dumps(msg)) * copies for msg, copies in self.messages
        )

    def attach_log(self, log) -> None:
        """Time ``engine.log.*`` on this engine's modification log."""
        log.take = self.wrap("modlog.take", log.take, after=_after_take)
        for name in ("insert", "update", "delete"):
            setattr(log, name, self.wrap("modlog.append", getattr(log, name)))


# ----------------------------------------------------------------------
# hooks: counts gathered at the layer boundaries
# ----------------------------------------------------------------------
def _before_pre_state(ledger, args, kwargs):
    db = args[0] if args else kwargs["db"]
    ledger.stats["pre_state_rows"] += sum(len(t) for t in db.tables.values())


def _after_pre_state(ledger, args, kwargs, result, token):
    ledger.pre_states = [result]  # one per round; set-up rounds hold none longer


def _after_populate(ledger, args, kwargs, result, token):
    ledger.stats["idiff_rows"] += sum(len(diff) for diff in result.values())


def _after_take(ledger, args, kwargs, result, token):
    ledger.stats["log_entries"] += len(result)


def _before_execute(ledger, args, kwargs):
    counters = args[2] if len(args) > 2 else kwargs["counters"]
    return counters, counters.snapshot()


def _after_execute(ledger, args, kwargs, result, token):
    counters, before = token
    for phase, counts in counters.snapshot().items():
        if phase == "__total__":
            continue
        prior = before.get(phase)
        delta = _counts_key(counts - prior if prior is not None else counts)
        bucket = ledger.phase_deltas.setdefault(phase, [0, 0, 0, 0])
        for i, value in enumerate(delta):
            bucket[i] += value


def _after_exec_view(ledger, args, kwargs, result, token):
    view_name, docs = args[1], args[2]
    ledger.stats["worker_s"] += max(reply["seconds"] for reply in result)
    for doc, reply in zip(docs, result):
        ledger.messages.append((("exec", view_name, doc), 1))
        ledger.messages.append((("ok", reply), 1))


def _after_begin_round(ledger, args, kwargs, result, token):
    pool = args[0]
    ledger.messages.append((("round",) + tuple(args[1:]), pool.n_shards))


def _after_apply_writes(ledger, args, kwargs, result, token):
    pool = args[0]
    ledger.messages.append((("apply",) + tuple(args[1:]), pool.n_shards))


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
#: (defining module, name, layer, before hook, after hook): wrapped in
#: the defining module and wherever another repro module bound it.
_FUNCTIONS = (
    ("repro.core.engine", "_reconstruct_pre", "engine.pre_state", _before_pre_state, _after_pre_state),
    ("repro.core.modlog", "populate_instances", "modlog.populate", None, _after_populate),
    ("repro.core.script", "execute_script", "script.execute", _before_execute, _after_execute),
    ("repro.shard.router", "plan_route", "shard.route", None, None),
    ("repro.shard.router", "force_route", "shard.route", None, None),
    ("repro.shard.router", "split_instances", "shard.route", None, None),
    ("repro.core.wire", "encode_log_batch", "shard.encode", None, None),
    ("repro.core.wire", "encode_instances", "shard.encode", None, None),
    ("repro.core.wire", "encode_writeset", "shard.encode", None, None),
    ("repro.core.wire", "decode_counters", "shard.decode", None, None),
    ("repro.core.wire", "decode_writeset", "shard.decode", None, None),
    ("repro.core.schema_gen", "generate_base_schemas", "setup.generate", None, None),
    ("repro.analysis.cost", "infer_script_cost", "setup.cost_model", None, None),
    ("repro.algebra.evaluate", "materialize", "setup.materialize", None, None),
    ("repro.core.compile", "compile_script", "setup.compile", None, None),
    ("repro.shard.workers", "build_blueprint", "setup.pool_spawn", None, None),
)

#: (module, global name, layer): wrapped only in that one module — the
#: engine evaluates operator-cache inputs at define time with
#: ``evaluate_plan``, which other callers use for other things.
_SINGLE_GLOBALS = (
    ("repro.core.engine", "evaluate_plan", "setup.materialize"),
)

#: (module, class, method, layer, after hook)
_METHODS = (
    ("repro.core.engine", "IdIvmEngine", "_finish_round", "engine.finish", None),
    ("repro.core.generator", "ScriptGenerator", "generate", "setup.generate", None),
    ("repro.storage.table", "Table", "replay_writes", "shard.replay", None),
    ("repro.shard.workers", "ProcessShardPool", "__init__", "setup.pool_spawn", None),
    ("repro.shard.workers", "ProcessShardPool", "boot", "setup.pool_spawn", None),
    ("repro.shard.workers", "ProcessShardPool", "exec_view", "shard.exec", _after_exec_view),
    ("repro.shard.workers", "ProcessShardPool", "begin_round", "shard.sync", _after_begin_round),
    ("repro.shard.workers", "ProcessShardPool", "apply_writes", "shard.sync", _after_apply_writes),
)


def _import(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


@contextmanager
def instrumented(ledger: Ledger):
    """Install the layer wrappers for the block; restore on exit."""
    # Import every module a round may resolve a wrapped name through, so
    # the identity scan below sees its bindings.
    for name in ("repro.core.sharded", "repro.shard.workers", "repro.core.compile",
                 "repro.analysis.cost", "repro.core.wire"):
        _import(name)
    restore: list[tuple] = []

    def patch(owner, attr, wrapper, original):
        restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    try:
        for module_name, attr, layer, before, after in _FUNCTIONS:
            module = _import(module_name)
            original = getattr(module, attr, None) if module else None
            if original is None:
                ledger.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = ledger.wrap(layer, original, before, after)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("repro") or mod is None:
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        patch(mod, name, wrapper, original)
            ledger.wrapped.append(f"{module_name}.{attr}")
        for module_name, attr, layer in _SINGLE_GLOBALS:
            module = _import(module_name)
            original = getattr(module, attr, None) if module else None
            if original is None:
                ledger.missing.append(f"{module_name}.{attr}")
                continue
            patch(module, attr, ledger.wrap(layer, original), original)
            ledger.wrapped.append(f"{module_name}.{attr}")
        for module_name, cls_name, attr, layer, after in _METHODS:
            module = _import(module_name)
            cls = getattr(module, cls_name, None) if module else None
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is None:
                ledger.missing.append(f"{module_name}.{cls_name}.{attr}")
                continue
            patch(cls, attr, ledger.wrap(layer, original, after=after), original)
            ledger.wrapped.append(f"{module_name}.{cls_name}.{attr}")
        yield ledger
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# one traced round
# ----------------------------------------------------------------------
class Tracer:
    """Runs traced rounds and folds each into per-round metric values."""

    def __init__(self, ledger: Ledger, sharded: bool):
        self.ledger = ledger
        self.sharded = sharded
        self.recorder = None
        self.rounds: list[dict[str, float]] = []
        #: per batch: ``engine.log.*`` self time / calls, in microseconds
        self.append_us: list[float] = []
        self.problems: list[str] = []

    def problem(self, text: str) -> None:
        if len(self.problems) < 5:
            self.problems.append(text)

    def maintain(self, engine):
        calls = self.ledger.calls.get("modlog.append", 0)
        if calls:
            self.append_us.append(self.ledger.seconds["modlog.append"] / calls * 1e6)
        self.ledger.reset()
        self.recorder = None
        with spans.recording() as recorder:
            reports = engine.maintain()
        # Freeing a whole-database pre-state copy is part of its cost;
        # the engine drops it as maintain() returns, here it is timed.
        started = perf_counter()
        self.ledger.pre_states.clear()
        self.ledger.seconds["engine.pre_state"] += perf_counter() - started
        self.recorder = recorder
        return reports

    def close_round(self, wall_s: float, reports) -> None:
        """Fold the just-finished round (outside its timed region)."""
        ledger = self.ledger
        sec = ledger.seconds
        row: dict[str, float] = {}
        layer_ms = {layer: sec.get(layer, 0.0) * 1e3 for layer in ROUND_LAYERS}
        row["engine.traced_round_ms"] = wall_s * 1e3
        row["engine.unattributed_ms"] = wall_s * 1e3 - sum(layer_ms.values())
        row["engine.pre_state_ms"] = layer_ms["engine.pre_state"]
        row["engine.pre_state_rows"] = ledger.stats["pre_state_rows"]
        row["engine.finish_ms"] = layer_ms["engine.finish"]
        row["modlog.take_ms"] = layer_ms["modlog.take"]
        row["modlog.populate_ms"] = layer_ms["modlog.populate"]
        calls = ledger.calls.get("modlog.populate", 0)
        entries = ledger.stats["log_entries"]
        row["modlog.populate_calls"] = calls
        row["modlog.idiff_rows"] = ledger.stats["idiff_rows"]
        row["modlog.log_entries"] = entries
        row["modlog.fold_ratio"] = (
            ledger.stats["idiff_rows"] / calls / entries if calls and entries else 0.0
        )
        row["script.execute_ms"] = layer_ms["script.execute"]

        recorder = self.recorder
        phase_ms = dict.fromkeys(PHASES, 0.0)
        view_ms = dict.fromkeys(ALL_VIEWS, 0.0)
        for sp in recorder.spans:
            if sp.kind == "phase":
                phase = sp.attrs.get("phase", sp.name)
                phase_ms[phase] = phase_ms.get(phase, 0.0) + sp.duration * 1e3
            elif sp.kind == "view":
                view = sp.attrs.get("view", sp.name.partition(":")[2])
                view_ms[view] = view_ms.get(view, 0.0) + sp.duration * 1e3
        for phase in PHASES:
            row[f"script.phase_ms.{phase}"] = phase_ms[phase]
        for view in ALL_VIEWS:
            row[f"engine.view_ms.{view_metric_name(view)}"] = view_ms[view]

        accesses = dict.fromkeys(PHASES, 0)
        index_maintenance = 0
        local: dict[str, list[int]] = {}
        for report in reports.values():
            for phase, counts in report.phase_counts.items():
                if phase == "__total__":
                    continue
                accesses[phase] = accesses.get(phase, 0) + counts.total
                index_maintenance += counts.index_maintenance
                if not _is_remote(report):
                    bucket = local.setdefault(phase, [0, 0, 0, 0])
                    for i, value in enumerate(_counts_key(counts)):
                        bucket[i] += value
        for phase in PHASES:
            row[f"script.accesses.{phase}"] = accesses[phase]
        row["storage.index_maintenance"] = index_maintenance
        self._reconcile(local)

        row["shard.route_ms"] = layer_ms["shard.route"]
        row["shard.encode_ms"] = layer_ms["shard.encode"]
        row["shard.decode_ms"] = layer_ms["shard.decode"]
        row["shard.exec_ms"] = layer_ms["shard.exec"]
        row["shard.worker_ms"] = ledger.stats["worker_s"] * 1e3
        row["shard.ipc_ms"] = row["shard.exec_ms"] - row["shard.worker_ms"]
        row["shard.replay_ms"] = layer_ms["shard.replay"]
        row["shard.sync_ms"] = layer_ms["shard.sync"]
        row["shard.wire_bytes"] = ledger.wire_bytes()
        sharded_reports = [r for r in reports.values() if hasattr(r, "parallel")]
        parallel = [r for r in sharded_reports if r.parallel]
        row["shard.parallel_frac"] = (
            len(parallel) / len(sharded_reports) if sharded_reports else 0.0
        )
        skews = []
        for report in parallel:
            costs = [s.total_cost for s in getattr(report, "shard_reports", ())]
            if costs and sum(costs):
                skews.append(max(costs) / (sum(costs) / len(costs)))
        row["shard.skew"] = sum(skews) / len(skews) if skews else 0.0
        if not self.sharded:
            for name in SHARD_METRICS:
                if row[name]:
                    self.problem(f"{name} is {row[name]} on a single-node round")
        if row["engine.unattributed_ms"] < -1e-3:
            self.problem(
                f"layer self times exceed the round wall by "
                f"{-row['engine.unattributed_ms']:.4f} ms"
            )
        self.rounds.append(row)

    def _reconcile(self, local: dict) -> None:
        """Wrapped phase deltas == trace phase spans == local reports."""
        wrapped = {
            phase: tuple(v) for phase, v in self.ledger.phase_deltas.items() if any(v)
        }
        traced = _nonzero(phase_totals(self.recorder))
        reported = {phase: tuple(v) for phase, v in local.items() if any(v)}
        if not wrapped == traced == reported:
            self.problem(
                f"phase counts do not reconcile: wrapped {wrapped}, "
                f"trace spans {traced}, reports {reported}"
            )
