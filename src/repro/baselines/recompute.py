"""Full-recomputation baseline: the correctness oracle and the IVM
break-even comparator (the paper notes IVM stops paying off around diff
sizes of ~15k tuples, Section 7.2 footnote 9)."""

from __future__ import annotations

from ..algebra.evaluate import evaluate_plan, materialize
from ..algebra.plan import PlanNode
from ..core.engine import MaintenanceReport, phase_delta
from ..core.idinfer import annotate_plan
from ..core.modlog import ModificationLog
from ..errors import ScriptError
from ..storage import Database, Table


class RecomputeView:
    def __init__(self, name: str, plan: PlanNode, table: Table):
        self.name = name
        self.plan = plan
        self.table = table


class RecomputeEngine:
    """Maintains views by recomputing them from scratch."""

    def __init__(self, db: Database):
        self.db = db
        self.log = ModificationLog(db)
        self.views: dict[str, RecomputeView] = {}

    def define_view(self, name: str, plan: PlanNode) -> RecomputeView:
        """Materialize *plan*; maintenance will rebuild it from scratch."""
        if name in self.views:
            raise ScriptError(f"view {name!r} already defined")
        annotated = annotate_plan(plan)
        table = materialize(annotated, self.db, name)
        self.db.counters.reset()
        view = RecomputeView(name, annotated, table)
        self.views[name] = view
        return view

    def maintain(self) -> dict[str, MaintenanceReport]:
        """Re-evaluate each view over the current database (counted)."""
        self.log.take()
        counters = self.db.counters
        reports: dict[str, MaintenanceReport] = {}
        for view_name, view in self.views.items():
            before = counters.snapshot()
            with counters.phase("recompute"):
                result = evaluate_plan(view.plan, self.db)
                fresh = Table(view.table.schema, counters=counters)
                for row in result.rows:
                    fresh.insert(row)
            view.table._rows = fresh._rows  # swap in the fresh content
            view.table._indexes.clear()
            after = counters.snapshot()
            report = MaintenanceReport(view_name, phase_delta(before, after))
            reports[view_name] = report
        return reports
