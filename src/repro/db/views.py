"""Materialized views: precomputed answers for hot query shapes.

The §V.A workload's hot query — ``SELECT COUNT(*) FROM records WHERE
grp = k`` — rescans (or re-probes) the base table for every request.
A :class:`MaterializedView` computes the *grouped* form of that shape
once (``SELECT grp, COUNT(*) FROM records GROUP BY grp``) and then
answers each keyed aggregate with a single dictionary probe, following
the ``materialized-views-pattern`` named in the roadmap.

Maintenance is row-level: a view subscribes to its base
:class:`~repro.db.table.Table` when it is created, so it sees every
insert, update and delete, whether it came through SQL or through the
table directly. A change that leaves the group column and the
aggregated columns alone is ignored; any other change marks the old and
new group keys *stale*. The next read the view can answer refreshes
lazily, recomputing only the stale groups (``WHERE <group> IN
(stale...)``, which the planner serves from the base table's index on
the group column). Only the first build aggregates the whole table.
Reads the view cannot answer fall through to the normal executor
untouched, so installing a catalog with no matching views changes
nothing.

The served :class:`~repro.db.executor.ResultSet` carries
``plan="view:<name>"`` and a one-row ``rows_examined``, so the database
server's cost model naturally charges a view probe far less than a
table scan — that cost difference *is* the optimization.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from ..errors import QueryError
from ..metrics import MetricsRegistry
from .engine import Database
from .executor import ExecutionStats, ResultSet, execute_statement
from .parser import parse
from .query import (
    Comparison,
    InList,
    SelectStatement,
    Statement,
    aggregate_label,
)
from .table import Row

__all__ = ["MaterializedView", "ViewCatalog"]


class MaterializedView:
    """One precomputed grouped aggregate over a base table.

    Parameters
    ----------
    name:
        Identifier; appears in the served plan as ``view:<name>``.
    database:
        The database holding the base table.
    definition:
        SQL (or parsed statement) of the form
        ``SELECT <group_col>, <aggregates...> FROM <table> GROUP BY
        <group_col>`` — a plain grouped aggregate with no WHERE, ORDER
        BY, or LIMIT. The base table and every named column must exist,
        and SUM/AVG must aggregate a numeric column.
    on_invalidate:
        Called when a write turns the view from up to date to stale.
    """

    def __init__(
        self,
        name: str,
        database: Database,
        definition: Union[str, SelectStatement],
        on_invalidate: Optional[Callable[[], None]] = None,
    ) -> None:
        stmt = parse(definition) if isinstance(definition, str) else definition
        if not isinstance(stmt, SelectStatement):
            raise QueryError(f"view {name!r}: definition must be a SELECT")
        if stmt.group_by is None or not stmt.aggregates:
            raise QueryError(
                f"view {name!r}: definition must be a grouped aggregate "
                f"(SELECT <col>, <agg...> FROM t GROUP BY <col>)"
            )
        if stmt.where is not None or stmt.order_by is not None or stmt.limit:
            raise QueryError(
                f"view {name!r}: definition must not filter, order, or limit"
            )
        if stmt.columns != (stmt.group_by,):
            raise QueryError(
                f"view {name!r}: definition must select its grouping column"
            )
        base = database.table(stmt.table)
        schema = base.schema
        group_position = schema.index_of(stmt.group_by)
        watched = {group_position}
        for function, column in stmt.aggregates:
            if column is None:
                continue
            position = schema.index_of(column)
            if function in ("SUM", "AVG") and schema.columns[position].type is str:
                raise QueryError(
                    f"view {name!r}: {function}({column}) needs a numeric column"
                )
            watched.add(position)
        self.name = name
        self.database = database
        self.definition = stmt
        self.table = stmt.table
        self.group_by = stmt.group_by
        self.aggregates = stmt.aggregates
        self._labels: Tuple[str, ...] = tuple(
            aggregate_label(agg) for agg in self.aggregates
        )
        self._base = base
        self._group_position = group_position
        self._watched = tuple(watched)
        self._index: Dict[object, Tuple] = {}
        self._built = False
        self._stale: Set[object] = set()
        self._on_invalidate = on_invalidate
        self.refreshes = 0
        base.subscribe(self._row_changed)

    @property
    def dirty(self) -> bool:
        """True before the first build and while any group is stale."""
        return not self._built or bool(self._stale)

    def _row_changed(self, old: Optional[Row], new: Optional[Row]) -> None:
        """Base-table observer: mark the groups a change can affect."""
        if not self._built:
            return  # the first build reads everything anyway
        if (
            old is not None
            and new is not None
            and all(old[p] == new[p] for p in self._watched)
        ):
            return  # the change touches no column the view reads
        if not self._stale and self._on_invalidate is not None:
            self._on_invalidate()
        if old is not None:
            self._stale.add(old[self._group_position])
        if new is not None:
            self._stale.add(new[self._group_position])

    def refresh(self) -> None:
        """Bring the view up to date with its base table (clears ``dirty``).

        The first build aggregates the whole table; later refreshes
        re-aggregate only the stale groups and drop those left empty.
        """
        stmt = self.definition
        if self._built:
            stale = tuple(self._stale)
            stmt = replace(stmt, where=InList(self.group_by, stale))
            for key in stale:
                self._index.pop(key, None)
        else:
            self._index = {}
        # Definition output: the group key first, then the aggregates in
        # select-list order (see the executor's aggregate layout).
        for row in execute_statement(self._base, stmt).rows:
            self._index[row[0]] = row[1:]
        self._stale.clear()
        self._built = True
        self.refreshes += 1

    def _empty_group_row(self) -> Tuple:
        # Aggregates over an empty group: COUNT is 0, the rest NULL.
        return tuple(
            0 if function == "COUNT" else None
            for function, _column in self.aggregates
        )

    def answer(self, stmt: SelectStatement) -> Optional[ResultSet]:
        """Serve *stmt* from the view, or ``None`` if it doesn't match.

        Matching shapes, given a definition grouped on ``g``:

        * ``SELECT <same aggregates> FROM t WHERE g = k`` — one probe;
        * ``SELECT g, <same aggregates> FROM t WHERE g IN (...) GROUP
          BY g`` — one probe per listed key;
        * the definition itself (full grouped read) — the whole index.
        """
        if stmt.table != self.table or stmt.aggregates != self.aggregates:
            return None
        if stmt.order_by is not None or stmt.limit is not None:
            return None

        probes = self._match_probes(stmt)
        if probes is None:
            return None
        if self.dirty:
            self.refresh()

        keyed, keys = probes
        rows: List[Tuple] = []
        if keys is None:  # full grouped read
            for key in sorted(self._index):
                rows.append((key,) + self._index[key])
            examined = len(rows)
        else:
            for key in keys:
                value = self._index.get(key)
                if keyed:
                    if value is not None:
                        rows.append((key,) + value)
                else:
                    rows.append(
                        value if value is not None else self._empty_group_row()
                    )
            examined = len(keys)
        columns = ((self.group_by,) if keyed else ()) + self._labels
        return ResultSet(
            columns=columns,
            rows=tuple(rows),
            stats=ExecutionStats(
                plan=f"view:{self.name}",
                rows_examined=examined,
                rows_matched=len(rows),
                rows_returned=len(rows),
            ),
        )

    def _match_probes(self, stmt: SelectStatement):
        """``(keyed, keys)`` for an answerable *stmt*, else ``None``.

        ``keys=None`` means the full grouped read; ``keyed`` says
        whether the group column appears in the output.
        """
        if stmt.group_by is None:
            # Keyed lookup: SELECT <aggs> FROM t WHERE g = k.
            if stmt.columns:
                return None
            where = stmt.where
            if (
                isinstance(where, Comparison)
                and where.op == "="
                and where.column == self.group_by
            ):
                return (False, (where.value,))
            if isinstance(where, InList) and where.column == self.group_by:
                return (False, tuple(where.values))
            return None
        # Grouped form: must group on the view's key and select it.
        if stmt.group_by != self.group_by:
            return None
        if stmt.columns not in ((), (self.group_by,)):
            return None
        keyed = bool(stmt.columns)
        if stmt.where is None:
            return (keyed, None)
        if isinstance(stmt.where, InList) and stmt.where.column == self.group_by:
            return (keyed, tuple(stmt.where.values))
        if (
            isinstance(stmt.where, Comparison)
            and stmt.where.op == "="
            and stmt.where.column == self.group_by
        ):
            return (keyed, (stmt.where.value,))
        return None

    def __repr__(self) -> str:
        return (
            f"<MaterializedView {self.name!r} on {self.table!r} "
            f"groups={len(self._index)} dirty={self.dirty}>"
        )


class ViewCatalog:
    """The set of materialized views installed on one database.

    Install with :meth:`Database.install_views`; the database then
    routes every statement through :meth:`intercept` — answerable reads
    are served, everything else falls through to the executor.
    ``db.view.hits`` counts served reads and ``db.view.invalidations``
    counts up-to-date → stale transitions of the catalog's views.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics or MetricsRegistry()
        self._by_table: Dict[str, List[MaterializedView]] = {}
        self._h_hits = self.metrics.handle("db.view.hits")
        self._h_invalidations = self.metrics.handle("db.view.invalidations")

    @property
    def views(self) -> List[MaterializedView]:
        """Every registered view, in registration order."""
        return [v for views in self._by_table.values() for v in views]

    def create(
        self,
        name: str,
        database: Database,
        definition: Union[str, SelectStatement],
    ) -> MaterializedView:
        """Define, register, and return a view over *database*."""
        view = MaterializedView(
            name, database, definition, on_invalidate=self._h_invalidations.inc
        )
        self._by_table.setdefault(view.table, []).append(view)
        return view

    def intercept(
        self, database: Database, stmt: Statement
    ) -> Optional[ResultSet]:
        """Apply the catalog to *stmt*; a ResultSet if a view served it.

        Reads return the first matching view's answer; everything else,
        writes included, returns ``None`` and falls through (views see
        writes through their base table, not here).
        """
        if not isinstance(stmt, SelectStatement):
            return None
        for view in self._by_table.get(stmt.table, ()):
            result = view.answer(stmt)
            if result is not None:
                self._h_hits.inc()
                return result
        return None

    def __repr__(self) -> str:
        return f"<ViewCatalog views={[v.name for v in self.views]}>"
