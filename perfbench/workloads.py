"""The four benchmark workloads, built only from the public engine API.

A workload builds a seeded database, an engine, its views, and one
modification batch per round.  Batches are lists of
``(kind, table, payload, changes)`` operations that the closed loop
logs through ``engine.log.*``; ``payload`` is a key for update/delete
and a full row for insert.
"""

from __future__ import annotations

import inspect
import os

from repro.core import engine as engine_mod
from repro.core.engine import IdIvmEngine
from repro.workloads import bsma, devices

def _engine_kwargs() -> dict:
    """Select the compiled executor while the knob exists; once the
    compiled executor is the only one, the knob is gone and the default
    is already the compiled path."""
    if hasattr(engine_mod, "EXEC_BACKENDS"):
        return {"exec_backend": "compiled"}
    return {}


def view_metric_name(view: str) -> str:
    """Metric-safe view name: ``Q*1`` becomes ``Qstar1``, ``V'`` becomes
    ``Vprime``."""
    return view.replace("*", "star").replace("'", "prime")


class Workload:
    name = ""
    why = ""
    views: tuple[str, ...] = ()
    #: oracle check period in timed rounds (checks run outside timing)
    check_every = 50
    #: timed rounds per second of loop on the reference host (2-CPU AMD
    #: EPYC, Python 3.11): ``--seconds`` times this is a run's round count
    rounds_per_s = 0.0
    sharded = False

    def build(self, seed: int):
        """Return ``(db, config)`` for *seed*."""
        raise NotImplementedError

    def make_engine(self, db):
        return IdIvmEngine(db, **_engine_kwargs())

    def define(self, engine, db, config) -> None:
        raise NotImplementedError

    def batch(self, db, config, round_seed: int) -> list[tuple]:
        raise NotImplementedError

    def close(self, engine) -> None:
        close = getattr(engine, "close", None)
        if close is not None:
            close()


class _Bsma(Workload):
    scale = 1
    updates = 0

    def build(self, seed: int):
        config = bsma.BsmaConfig(
            n_users=1_000 * self.scale, n_tweets=4_000 * self.scale, seed=seed
        )
        return bsma.build_database(config), config

    def define(self, engine, db, config) -> None:
        for view in self.views:
            engine.define_view(view, bsma.BSMA_QUERIES[view](db, config))

    def batch(self, db, config, round_seed: int) -> list[tuple]:
        return [
            ("update", "users", key, changes)
            for key, changes in bsma.user_update_batch(
                db, config, self.updates, round_seed
            )
        ]


class BsmaLargeTrickle(_Bsma):
    name = "bsma-large-trickle"
    why = (
        "16x BSMA base (~380k rows), 5 updates a round: fixed per-round "
        "costs and the O(|database|) pre-state copy dominate"
    )
    # Q11, Q18 and Q*1 are left out: their set-up grows much faster than
    # linearly with scale.
    views = ("Q7", "Q10", "Q15", "Q*2", "Q*3")
    scale = 16
    updates = 5
    check_every = 650  # one check takes ~1.7 s here
    rounds_per_s = 130.0


class BsmaBatch(_Bsma):
    name = "bsma-batch"
    why = (
        "all 8 BSMA views at 1x, 200 updates a round: delta-script "
        "execution and per-view log folding dominate"
    )
    views = tuple(bsma.BSMA_QUERIES)
    scale = 1
    updates = 200
    rounds_per_s = 25.0


class _Devices(Workload):
    views = ("V", "V'")
    n_parts = 2_000

    def build(self, seed: int):
        config = devices.DevicesConfig(
            n_parts=self.n_parts, diff_size=self.diff_size, seed=seed
        )
        return devices.build_database(config), config

    def define(self, engine, db, config) -> None:
        engine.define_view("V", devices.build_flat_view(db, config))
        engine.define_view("V'", devices.build_aggregate_view(db, config))


def shard_count() -> int:
    """One shard per usable CPU, at least 2 (so routing goes parallel)
    and at most 4 (each worker holds a full replica)."""
    return min(4, max(2, len(os.sched_getaffinity(0))))


class DevicesSharded(_Devices):
    name = "devices-sharded"
    why = (
        "devices V and V' on process shard workers, 480 price updates a "
        "round: the only workload with shard routing, wire, IPC and replay"
    )
    n_parts = 2_400
    diff_size = 480
    sharded = True
    rounds_per_s = 18.0

    def make_engine(self, db):
        from repro.core.sharded import ShardedEngine

        kwargs = _engine_kwargs()
        if "backend" in inspect.signature(ShardedEngine.__init__).parameters:
            kwargs["backend"] = "process"
        return ShardedEngine(db, shards=shard_count(), **kwargs)

    def batch(self, db, config, round_seed: int) -> list[tuple]:
        return [
            ("update", "parts", key, changes)
            for key, changes in devices.price_update_batch(db, config, round_seed)
        ]


class DevicesChurn(_Devices):
    name = "devices-churn"
    why = (
        "devices V and V' single node, ~540 mixed inserts/updates/deletes "
        "a round: heavy engine.log writes and insert/delete i-diffs"
    )
    n_parts = 2_000
    diff_size = 100
    rounds_per_s = 30.0

    def batch(self, db, config, round_seed: int) -> list[tuple]:
        return devices.mixed_modification_batch(
            db, config, updates=100, inserts=20, deletes=20, round_seed=round_seed
        ).operations


WORKLOADS = {
    wl.name: wl
    for wl in (BsmaLargeTrickle(), BsmaBatch(), DevicesSharded(), DevicesChurn())
}

#: Every view of every workload: the traced run reports a time for each
#: (zero where the workload lacks the view), so all runs print one set.
ALL_VIEWS = tuple(dict.fromkeys(v for wl in WORKLOADS.values() for v in wl.views))
