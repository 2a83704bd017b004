"""Planner: validate a parsed statement and lower it onto an engine.

The planner owns a catalog of registered point tables
(:class:`~repro.data.dataset.PointDataset`) and region tables
(:class:`~repro.geometry.polygon.PolygonSet`).  Given a statement it checks
names and columns, builds the aggregate and filter objects, picks an engine
— the bounded engine when the statement carries a ``WITHIN`` bound, the
accurate engine otherwise — and executes.

The planner owns a :class:`~repro.cache.session.QuerySession` (or accepts a
shared one) and attaches it to every engine it lowers onto, so repeated
statements over the same region table reuse triangulations, coverage
and boundary masks instead of rebuilding them — the interactive
redraw-and-re-query loop the paper targets.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cache.session import QuerySession, freeze_points
from repro.core.accurate import AccurateRasterJoin
from repro.core.aggregates import Aggregate, Average, Count, Max, Min, Sum
from repro.core.multi import MultiAggregate
from repro.core.bounded import BoundedRasterJoin
from repro.core.engine import SpatialAggregationEngine
from repro.core.filters import Filter, FilterSet
from repro.data.dataset import PointDataset
from repro.device.memory import GPUDevice
from repro.errors import SqlError
from repro.exec.config import EngineConfig
from repro.geometry.polygon import PolygonSet
from repro.sql.ast import SelectStatement
from repro.sql.parser import parse
from repro.types import AggregationResult

_AGG_BUILDERS = {
    "COUNT": lambda col: Count(),
    "SUM": Sum,
    "AVG": Average,
    "MIN": Min,
    "MAX": Max,
}


class QueryPlanner:
    """Catalog + lowering for the SQL frontend."""

    def __init__(
        self,
        device: GPUDevice | None = None,
        session: QuerySession | None = None,
        config: EngineConfig | None = None,
    ) -> None:
        self.device = device
        #: Execution configuration attached to every lowered engine, so a
        #: SQL deployment opts whole statements into parallel tile
        #: execution — and into artifact persistence — in one place.
        #: The backend is resolved *once* and pinned into the config as
        #: an instance: every statement this planner lowers shares one
        #: backend, so its persistent worker pool survives across
        #: statements instead of being respawned (and leaked) per query.
        config = config if config is not None else EngineConfig()
        self.config = config.with_pinned_backend()
        if session is None:
            # The planner-owned session picks up the artifact store from
            # the config (explicit ``store_dir``, via the shared
            # EngineConfig.default_session gate) or — unlike bare
            # engines, which stay cache-free without a session — from
            # the environment (``$REPRO_STORE_DIR``), because a SQL
            # server always owns a session anyway; either way a
            # restarted server answers its first repeated statement
            # warm.
            session = self.config.default_session()
        if session is None:
            store = self.config.make_store()
            session = QuerySession(store=store if store is not None else False)
        self.session = session
        self._points: dict[str, PointDataset] = {}
        self._regions: dict[str, PolygonSet] = {}
        #: Lazily-built optimizer for EXPLAIN ANALYZE predictions: one
        #: instance per planner, so the calibration probes run once and
        #: every explained statement reuses the fitted cost model.
        self._optimizer = None
        #: Lazily-built serving layer (repro.serve): one server per
        #: planner, sharing its session, backend, and catalog.
        self._server = None

    def optimizer(self):
        """The calibrated cost model EXPLAIN ANALYZE predicts with (built
        on first use, over the planner's device)."""
        if self._optimizer is None:
            from repro.core.optimizer import RasterJoinOptimizer

            self._optimizer = RasterJoinOptimizer(self.device)
        return self._optimizer

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    def register_points(self, name: str, dataset: PointDataset) -> None:
        """Register (or replace) a point table.

        The columns the dataset owns are frozen (``writeable = False``):
        a registered table is immutable, so the session's content guard
        checks it in O(1) instead of folding every byte per statement.
        To change a table, register a new dataset under its name.  See
        ``docs/query_sessions.md``.
        """
        if name in self._regions:
            raise SqlError(f"{name!r} is already a region table")
        freeze_points(dataset)
        self._points[name] = dataset

    def register_regions(self, name: str, polygons: PolygonSet) -> None:
        """Register (or replace) a region table.

        Re-registering a name with an *edited* polygon set is the SQL
        face of the incremental path: the planner keeps one shared
        :class:`QuerySession`, so the next statement over that table
        delta-derives from the previous zoning's prepared artifacts —
        only the changed polygons rebuild
        (``stats.extra["polygons_rebuilt"]``); with a store attached the
        edited zoning persists under its own key as a whole pair.  See
        ``docs/incremental_edits.md``.
        """
        if name in self._points:
            raise SqlError(f"{name!r} is already a point table")
        self._regions[name] = polygons

    # ------------------------------------------------------------------
    # Validation + lowering
    # ------------------------------------------------------------------
    def _resolve(
        self, stmt: SelectStatement
    ) -> tuple[SelectStatement, PointDataset, PolygonSet]:
        """Map the FROM tables onto the catalog, normalizing their order.

        Returns the (possibly table-swapped) statement so later validation
        sees the canonical point/region assignment.
        """
        if stmt.point_table not in self._points:
            # The FROM clause does not order the tables; try both ways.
            # dataclasses.replace keeps every other field (the SELECT
            # list, the EXPLAIN ANALYZE flag) intact through the swap.
            if (
                stmt.region_table in self._points
                and stmt.point_table in self._regions
            ):
                stmt = replace(
                    stmt,
                    point_table=stmt.region_table,
                    region_table=stmt.point_table,
                )
            else:
                raise SqlError(f"unknown point table {stmt.point_table!r}")
        if stmt.region_table not in self._regions:
            raise SqlError(f"unknown region table {stmt.region_table!r}")
        return stmt, self._points[stmt.point_table], self._regions[stmt.region_table]

    def _build_one_aggregate(
        self, stmt: SelectStatement, points: PointDataset, spec
    ) -> Aggregate:
        if spec.function == "COUNT" and spec.column is None:
            return Count()
        if spec.column is None:
            raise SqlError(f"{spec.function} needs a column argument")
        if spec.table is not None and spec.table != stmt.point_table:
            raise SqlError(
                f"aggregate column must come from the point table "
                f"{stmt.point_table!r}, not {spec.table!r}"
            )
        points.column(spec.column)  # raises SchemaError when missing
        return _AGG_BUILDERS[spec.function](spec.column)

    def _build_aggregate(self, stmt: SelectStatement, points: PointDataset) -> Aggregate:
        specs = stmt.select_list()
        built = [self._build_one_aggregate(stmt, points, s) for s in specs]
        if len(built) == 1:
            return built[0]
        # Multiple SELECT items: one fused rendering pass (§8 extension).
        return MultiAggregate(built)

    def _build_filters(self, stmt: SelectStatement, points: PointDataset) -> FilterSet:
        filters = []
        for cond in stmt.conditions:
            if cond.table is not None and cond.table != stmt.point_table:
                raise SqlError(
                    f"filter column {cond.table}.{cond.column} must come "
                    f"from the point table {stmt.point_table!r}"
                )
            points.column(cond.column)
            filters.append(Filter(cond.column, cond.op, cond.value))
        return FilterSet(filters)

    def _check_group_by(self, stmt: SelectStatement) -> None:
        table = stmt.group_by_table
        if table is not None and table != stmt.region_table:
            raise SqlError(
                f"GROUP BY must reference the region table "
                f"{stmt.region_table!r}, got {table!r}"
            )
        if stmt.group_by_column not in ("id", "name", None):
            raise SqlError(
                f"GROUP BY column must be the region id, got "
                f"{stmt.group_by_column!r}"
            )

    def plan(
        self, statement: str | SelectStatement
    ) -> tuple[SpatialAggregationEngine, PointDataset, PolygonSet, Aggregate, FilterSet]:
        """Validate and lower without executing (inspectable plan)."""
        stmt = parse(statement) if isinstance(statement, str) else statement
        stmt, points, regions = self._resolve(stmt)
        aggregate = self._build_aggregate(stmt, points)
        filters = self._build_filters(stmt, points)
        self._check_group_by(stmt)
        epsilon = stmt.spatial.epsilon
        if epsilon is not None:
            engine: SpatialAggregationEngine = BoundedRasterJoin(
                epsilon=epsilon, device=self.device, session=self.session,
                config=self.config,
            )
        else:
            engine = AccurateRasterJoin(
                device=self.device, session=self.session, config=self.config,
            )
        return engine, points, regions, aggregate, filters

    def execute(self, statement: str | SelectStatement) -> AggregationResult:
        """Parse, plan, and run a statement.

        A multi-item SELECT runs its items in one pass
        (:class:`~repro.core.multi.MultiAggregate`): the result's
        ``values`` hold the first item only, and the planned aggregate's
        ``finalize_all(result.channels)`` gives every item by label.

        An ``EXPLAIN ANALYZE`` statement still executes, but returns an
        :class:`~repro.sql.explain.ExplainResult` wrapping the
        aggregation result with the traced span tree and the optimizer's
        per-term predicted-vs-measured comparison.
        """
        stmt = parse(statement) if isinstance(statement, str) else statement
        engine, points, regions, aggregate, filters = self.plan(stmt)
        if stmt.explain_analyze:
            from repro.sql.explain import explain_analyze

            return explain_analyze(
                self.optimizer(), engine, points, regions, aggregate, filters,
                statement=stmt,
            )
        return engine.execute(points, regions, aggregate=aggregate, filters=filters)

    def server(self, config=None):
        """This planner's concurrent serving layer (built on first use).

        ``config`` (a :class:`~repro.serve.ServeConfig`) only takes
        effect on the call that creates the server; later calls return
        the existing instance.  The server shares the planner's session,
        pinned backend, and catalog, so served statements hit the same
        warm caches as :meth:`execute`.
        """
        if self._server is None:
            from repro.serve import Server

            self._server = Server(self, config)
        return self._server

    async def execute_async(self, statement, timeout: float | None = None):
        """Serve a statement through the concurrent layer (asyncio).

        Concurrent identical statements coalesce onto one execution, and
        statements over the same points, regions and filters that queue
        behind a busy pool share one — see ``docs/serving.md``.  ``timeout`` bounds the wait (raising
        :class:`~repro.errors.QueryTimeoutError`), not the execution.
        """
        return await self.server().execute_async(statement, timeout=timeout)

    def prewarm(self, point_table: str, region_table: str) -> None:
        """Ready a point table for statements over a region table's canvas.

        The explicit opt-in to the ``pyramid-warm`` regime
        (``docs/aggregate_pyramid.md``): a dashboard calls this once
        after registering its tables, and the points are routed here.
        Every later exact statement over this point table and any region
        table sharing the frame — whatever its aggregate or filter —
        then reads its point framebuffers from the session (each
        scattered once, on first need) and touches only the rows on
        boundary pixels; the answer is bit for bit the one it would have
        given without this call.
        """
        if point_table not in self._points:
            raise SqlError(f"unknown point table {point_table!r}")
        if region_table not in self._regions:
            raise SqlError(f"unknown region table {region_table!r}")
        engine = AccurateRasterJoin(
            device=self.device, session=self.session, config=self.config,
        )
        engine.prewarm(
            self._points[point_table], self._regions[region_table]
        )

    def close(self) -> None:
        """Release the serving layer and the shared backend's worker pool.

        The planner stays usable — the next statement respawns the pool
        lazily (and :meth:`server` a fresh server); unclosed pools are
        reclaimed at interpreter exit.
        """
        if self._server is not None:
            server, self._server = self._server, None
            server.close()
        self.config.backend.close()

    def __enter__(self) -> "QueryPlanner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
