"""Tests for materialized views and their row-level maintenance."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, MaterializedView, ViewCatalog
from repro.db.executor import execute_statement
from repro.db.parser import parse
from repro.errors import QueryError
from repro.metrics import MetricsRegistry


@pytest.fixture
def db():
    database = Database()
    table = database.create_table(
        "records", [("id", int), ("grp", int), ("val", int)]
    )
    for i in range(12):
        table.insert((i, i % 3, i * 10))
    table.create_index("grp")
    return database


@pytest.fixture
def catalog(db):
    catalog = ViewCatalog(MetricsRegistry())
    catalog.create(
        "records_by_grp", db, "SELECT grp, COUNT(*) FROM records GROUP BY grp"
    )
    db.install_views(catalog)
    return catalog


class TestDefinitionValidation:
    def test_plain_select_rejected(self, db):
        with pytest.raises(QueryError):
            MaterializedView("v", db, "SELECT val FROM records")

    def test_ungrouped_aggregate_rejected(self, db):
        with pytest.raises(QueryError):
            MaterializedView("v", db, "SELECT COUNT(*) FROM records")

    def test_filtered_definition_rejected(self, db):
        with pytest.raises(QueryError):
            MaterializedView(
                "v", db,
                "SELECT grp, COUNT(*) FROM records WHERE grp = 1 GROUP BY grp",
            )

    def test_definition_must_select_group_column(self, db):
        with pytest.raises(QueryError):
            MaterializedView(
                "v", db, "SELECT val, COUNT(*) FROM records GROUP BY grp"
            )

    def test_unknown_aggregate_column_rejected_at_create(self, db):
        with pytest.raises(QueryError, match="nope"):
            ViewCatalog().create(
                "v", db, "SELECT grp, SUM(nope) FROM records GROUP BY grp"
            )

    def test_sum_over_text_column_rejected_at_create(self, db):
        db.create_table("people", [("grp", int), ("name", str)])
        with pytest.raises(QueryError, match="numeric"):
            ViewCatalog().create(
                "v", db, "SELECT grp, SUM(name) FROM people GROUP BY grp"
            )

    def test_unknown_table_rejected_at_create(self, db):
        with pytest.raises(QueryError, match="missing"):
            ViewCatalog().create(
                "v", db, "SELECT grp, COUNT(*) FROM missing GROUP BY grp"
            )

    def test_valid_definition_starts_dirty(self, db):
        view = MaterializedView(
            "v", db, "SELECT grp, COUNT(*) FROM records GROUP BY grp"
        )
        assert view.dirty
        assert view.refreshes == 0


class TestAnswering:
    def test_keyed_aggregate_served(self, db, catalog):
        result = db.execute("SELECT COUNT(*) FROM records WHERE grp = 1")
        assert result.stats.plan == "view:records_by_grp"
        assert result.rows == ((4,),)

    def test_absent_group_counts_zero(self, db, catalog):
        result = db.execute("SELECT COUNT(*) FROM records WHERE grp = 99")
        assert result.stats.plan == "view:records_by_grp"
        assert result.rows == ((0,),)

    def test_in_list_probe_per_key(self, db, catalog):
        result = db.execute("SELECT COUNT(*) FROM records WHERE grp IN (0, 2)")
        assert result.stats.plan == "view:records_by_grp"
        assert result.rows == ((4,), (4,))
        assert result.stats.rows_examined == 2

    def test_full_grouped_read_sorted(self, db, catalog):
        result = db.execute("SELECT grp, COUNT(*) FROM records GROUP BY grp")
        assert result.stats.plan == "view:records_by_grp"
        assert result.rows == ((0, 4), (1, 4), (2, 4))
        assert result.columns == ("grp", "count")

    def test_non_matching_select_falls_through(self, db, catalog):
        result = db.execute("SELECT val FROM records WHERE grp = 1")
        assert not result.stats.plan.startswith("view:")
        assert len(result.rows) == 4

    def test_different_aggregate_falls_through(self, db, catalog):
        result = db.execute("SELECT SUM(val) FROM records WHERE grp = 1")
        assert not result.stats.plan.startswith("view:")

    def test_hits_counted(self, db, catalog):
        db.execute("SELECT COUNT(*) FROM records WHERE grp = 0")
        db.execute("SELECT COUNT(*) FROM records WHERE grp = 1")
        assert catalog.metrics.counter("db.view.hits") == 2


class TestInvalidation:
    def test_write_marks_dirty_and_next_read_refreshes(self, db, catalog):
        view = catalog.views[0]
        db.execute("SELECT COUNT(*) FROM records WHERE grp = 0")
        assert not view.dirty
        refreshes = view.refreshes
        db.execute("INSERT INTO records (id, grp, val) VALUES (100, 0, 0)")
        assert view.dirty
        assert catalog.metrics.counter("db.view.invalidations") == 1
        result = db.execute("SELECT COUNT(*) FROM records WHERE grp = 0")
        assert result.rows == ((5,),)
        assert view.refreshes == refreshes + 1

    def test_lazy_refresh_amortized_over_reads(self, db, catalog):
        view = catalog.views[0]
        db.execute("UPDATE records SET val = 1 WHERE id = 0")
        db.execute("SELECT COUNT(*) FROM records WHERE grp = 0")
        db.execute("SELECT COUNT(*) FROM records WHERE grp = 1")
        db.execute("SELECT COUNT(*) FROM records WHERE grp = 2")
        assert view.refreshes == 1

    def test_repeat_writes_invalidate_once(self, db, catalog):
        db.execute("SELECT COUNT(*) FROM records WHERE grp = 0")
        db.execute("DELETE FROM records WHERE id = 0")
        db.execute("DELETE FROM records WHERE id = 1")
        assert catalog.metrics.counter("db.view.invalidations") == 1

    def test_write_to_other_table_ignored(self, db, catalog):
        other = db.create_table("other", [("id", int)])
        other.insert((1,))
        db.execute("SELECT COUNT(*) FROM records WHERE grp = 0")
        db.execute("DELETE FROM other WHERE id = 1")
        assert catalog.views[0].dirty is False


class TestDirectTableWrites:
    """Writes made through ``Table`` reach the view too, not just SQL."""

    @pytest.fixture
    def small(self):
        database = Database()
        table = database.create_table("records", [("id", int), ("grp", int)])
        for i in range(4):
            table.insert((i, i % 2))
        table.create_index("grp")
        catalog = ViewCatalog(MetricsRegistry())
        catalog.create(
            "by_grp", database, "SELECT grp, COUNT(*) FROM records GROUP BY grp"
        )
        database.install_views(catalog)
        assert self.count(database, 0) == 2  # builds the view
        return database, table

    @staticmethod
    def count(database, grp):
        result = database.execute(f"SELECT COUNT(*) FROM records WHERE grp = {grp}")
        assert result.stats.plan == "view:by_grp"
        return result.rows[0][0]

    def test_insert(self, small):
        database, table = small
        table.insert((9, 0))
        assert self.count(database, 0) == 3

    def test_update_moves_row_between_groups(self, small):
        database, table = small
        table.update(0, {"grp": 1})
        assert self.count(database, 0) == 1
        assert self.count(database, 1) == 3

    def test_delete(self, small):
        database, table = small
        table.delete(1)
        assert self.count(database, 1) == 1


class TestIncrementalRefresh:
    @staticmethod
    def spy_reads(table, monkeypatch):
        """Count the rows a refresh reads from *table*."""
        reads = {"get": 0, "scan": 0}
        get, scan = table.get, table.scan

        def counting_get(row_id):
            reads["get"] += 1
            return get(row_id)

        def counting_scan():
            reads["scan"] += 1
            return scan()

        monkeypatch.setattr(table, "get", counting_get)
        monkeypatch.setattr(table, "scan", counting_scan)
        return reads

    def test_refresh_reads_only_the_touched_groups(self, db, catalog, monkeypatch):
        view = catalog.views[0]
        db.execute("SELECT COUNT(*) FROM records WHERE grp = 0")  # first build
        reads = self.spy_reads(db.table("records"), monkeypatch)
        db.execute("UPDATE records SET grp = 1 WHERE id = 0")
        reads["get"] = reads["scan"] = 0  # the UPDATE's own row reads
        result = db.execute("SELECT grp, COUNT(*) FROM records GROUP BY grp")
        assert result.rows == ((0, 3), (1, 5), (2, 4))
        # Groups 0 and 1 now hold 3 + 5 rows; group 2's 4 are not read.
        assert reads == {"get": 8, "scan": 0}
        assert view.refreshes == 2

    def test_first_build_reads_the_whole_table(self, db, catalog, monkeypatch):
        reads = self.spy_reads(db.table("records"), monkeypatch)
        db.execute("SELECT COUNT(*) FROM records WHERE grp = 0")
        assert reads == {"get": 12, "scan": 1}

    def test_write_to_unread_column_keeps_view_clean(self, db, catalog):
        view = catalog.views[0]
        db.execute("SELECT COUNT(*) FROM records WHERE grp = 0")
        db.execute("UPDATE records SET val = 7 WHERE grp = 1")
        assert view.dirty is False
        assert catalog.metrics.counter("db.view.invalidations") == 0


# -- property: views agree with a fresh execution after any writes ----------

_DEFINITIONS = (
    "SELECT g, COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x) "
    "FROM t GROUP BY g",
    "SELECT g, COUNT(n), SUM(n), AVG(n), MIN(s), MAX(s) FROM t GROUP BY g",
    "SELECT g, COUNT(*) FROM t GROUP BY g",
)
_GROUPS = st.integers(min_value=0, max_value=3)
_FLOATS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_VALUES = {
    "g": _GROUPS,
    "x": st.none() | _FLOATS,
    "n": st.none() | st.integers(min_value=-50, max_value=50),
    "s": st.none() | st.sampled_from(["a", "b", "zz"]),
}
_ROWS = st.fixed_dictionaries(_VALUES)
_WRITES = st.one_of(
    st.tuples(st.just("insert"), st.booleans(), _ROWS),
    st.tuples(
        st.just("update"),
        st.booleans(),
        st.integers(min_value=0),
        st.lists(st.sampled_from(sorted(_VALUES) + ["id"]), min_size=1, unique=True),
    ),
    st.tuples(st.just("delete"), st.booleans(), st.integers(min_value=0)),
)


def _sql_literal(value):
    """A dialect literal for *value*, or ``None`` if SQL can't spell it."""
    if isinstance(value, str):
        return f"'{value}'"
    if isinstance(value, int) and value >= 0:
        return str(value)
    # The dialect has no minus sign, and -0.0 compares >= 0 but prints one.
    if isinstance(value, float) and math.copysign(1.0, value) > 0:
        return f"{value:.4f}"
    return None


def _apply(database, table, write, next_id, data):
    """Apply one random write, through SQL when it can be spelled."""
    kind, via_sql = write[0], write[1]
    if kind == "insert":
        values = dict(write[2], id=next_id)
        literals = {c: _sql_literal(v) for c, v in values.items() if v is not None}
        if via_sql and all(literals.values()):
            names = ", ".join(literals)
            database.execute(
                f"INSERT INTO t ({names}) VALUES ({', '.join(literals.values())})"
            )
        else:
            table.insert(values)
        return
    live = [row_id for row_id, _ in table.scan()]
    if not live:
        return
    row_id = live[write[2] % len(live)]
    row_key = table.value(table.get(row_id), "id")
    if kind == "delete":
        if via_sql:
            database.execute(f"DELETE FROM t WHERE id = {row_key}")
        else:
            table.delete(row_id)
        return
    changes = {
        column: (next_id + 1000 if column == "id" else data.draw(_VALUES[column]))
        for column in write[3]
    }
    literals = {c: _sql_literal(v) for c, v in changes.items()}
    if via_sql and all(literals.values()):
        sets = ", ".join(f"{c} = {v}" for c, v in literals.items())
        database.execute(f"UPDATE t SET {sets} WHERE id = {row_key}")
    else:
        table.update(row_id, changes)


def _agg_sql(aggregate):
    function, column = aggregate
    return f"{function}({column or '*'})"


def _check_views(database, table, views):
    """Every view answer equals a fresh execution that bypasses the catalog."""
    for view in views:
        keyed = [
            parse(
                f"SELECT {', '.join(_agg_sql(a) for a in view.aggregates)} "
                f"FROM t WHERE g = {grp}"
            )
            for grp in range(4)
        ]
        for stmt in (view.definition, *keyed):
            served = database.execute(stmt)
            assert served.stats.plan == f"view:{view.name}"
            assert served.rows == execute_statement(table, stmt).rows


class TestMaintenanceProperty:
    @given(
        initial=st.lists(_ROWS, max_size=12),
        steps=st.lists(st.lists(_WRITES, min_size=1, max_size=3), max_size=12),
        index_kind=st.sampled_from([None, "hash", "sorted"]),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_views_match_fresh_execution(self, initial, steps, index_kind, data):
        database = Database()
        table = database.create_table(
            "t", [("id", int), ("g", int), ("x", float), ("n", int), ("s", str)]
        )
        for i, values in enumerate(initial):
            table.insert(dict(values, id=i))
        if index_kind is not None:
            table.create_index("g", index_kind)
        catalog = ViewCatalog(MetricsRegistry())
        views = [
            catalog.create(f"v{i}", database, definition)
            for i, definition in enumerate(_DEFINITIONS)
        ]
        database.install_views(catalog)
        next_id = len(initial)
        _check_views(database, table, views)
        for step in steps:
            for write in step:
                _apply(database, table, write, next_id, data)
                next_id += 1
            _check_views(database, table, views)


class TestCatalog:
    def test_uninstalled_database_unaffected(self, db):
        result = db.execute("SELECT COUNT(*) FROM records WHERE grp = 1")
        assert not result.stats.plan.startswith("view:")

    def test_catalog_without_matching_table_falls_through(self, db):
        catalog = ViewCatalog()
        db.install_views(catalog)
        result = db.execute("SELECT COUNT(*) FROM records WHERE grp = 1")
        assert not result.stats.plan.startswith("view:")
