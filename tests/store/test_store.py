"""The persistent store's core guarantees: framing, schema, queries.

Everything here runs against throwaway stores in tmp_path — the suite
never touches a real ``.repro-store``.
"""

import sqlite3

import pytest

from repro.runner import call, fn_spec
from repro.store import (
    CorruptPayload,
    ResultStore,
    SCHEMA_VERSION,
    SchemaVersionError,
    decode_payload,
    encode_payload,
    resolve_store_path,
    retry_locked,
)
from repro.store.__main__ import main as store_cli
from repro.store.schema import read_version

from tests.store import helpers


def _summary(i=0):
    return fn_spec(call(helpers.square, i), i=i).execute()


class TestPayloadFraming:
    def test_roundtrip(self):
        summary = _summary()
        assert decode_payload(encode_payload(summary)).key == summary.key

    def test_truncation_detected(self):
        blob = encode_payload(_summary())
        with pytest.raises(CorruptPayload):
            decode_payload(blob[:-3])

    def test_foreign_bytes_detected(self):
        with pytest.raises(CorruptPayload):
            decode_payload(b"not a store payload at all")


class TestResolveStorePath:
    def test_directory_gets_filename(self, tmp_path):
        assert resolve_store_path(tmp_path).name == "store.sqlite"

    def test_sqlite_path_passes_through(self, tmp_path):
        target = tmp_path / "custom.sqlite"
        assert resolve_store_path(target) == target

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "env"))
        assert resolve_store_path() == tmp_path / "env" / "store.sqlite"


class TestSummaries:
    def test_put_get_roundtrip(self, tmp_path):
        summary = _summary(3)
        with ResultStore(tmp_path) as store:
            store.put_summary("k1", "salt", summary)
            store.flush()
            got = store.get_summary("k1", "salt")
        assert got.value == 9
        assert got.stable_digest() == summary.stable_digest()

    def test_miss_is_none(self, tmp_path):
        with ResultStore(tmp_path) as store:
            assert store.get_summary("nope", "salt") is None

    def test_salt_partitions_keys(self, tmp_path):
        with ResultStore(tmp_path) as store:
            store.put_summary("k", "salt-a", _summary(1))
            store.flush()
            assert store.get_summary("k", "salt-b") is None

    def test_corrupt_row_raises_then_misses(self, tmp_path):
        with ResultStore(tmp_path) as store:
            store.put_summary("k", "s", _summary())
            store.flush()
            store.write_connection.execute(
                "UPDATE run_summaries SET payload = X'00'"
            )
            with pytest.raises(CorruptPayload):
                store.get_summary("k", "s")
            # The torn row was deleted: next lookup is a clean miss.
            assert store.get_summary("k", "s") is None

    @pytest.mark.parametrize("batch", [1, 64])
    def test_a_closed_store_writes_again(self, tmp_path, batch):
        # close() reopens lazily, buffered writers included.
        store = ResultStore(tmp_path, batch=batch)
        store.put_summary("before", "s", _summary(1))
        store.close()
        store.put_summary("after", "s", _summary(2))
        store.close()
        with ResultStore(tmp_path) as reread:
            assert reread.get_summary("before", "s").value == 1
            assert reread.get_summary("after", "s").value == 4


def _kept_rows(root):
    """Every row of the tables that outlive a run, as stored."""
    con = sqlite3.connect(root / "store.sqlite")
    try:
        return {
            table: con.execute(f"SELECT * FROM {table} ORDER BY 1").fetchall()
            for table in ("run_summaries", "campaigns")
        }
    finally:
        con.close()


def _file_witness(root):
    """One row in the ``witnesses`` table stores before v6 carried,
    created as v5 created it."""
    con = sqlite3.connect(root / "store.sqlite")
    try:
        con.executescript(
            """
            CREATE TABLE IF NOT EXISTS witnesses (
                id INTEGER PRIMARY KEY, format INTEGER NOT NULL,
                family TEXT NOT NULL, target TEXT NOT NULL,
                violated TEXT NOT NULL, document TEXT NOT NULL,
                created REAL NOT NULL
            );
            INSERT INTO witnesses (format, family, target, violated,
                document, created)
                VALUES (1, 'explore', 'ct', '["validity"]', '{}', 0.0);
            """
        )
    finally:
        con.close()


def _file_queue(root):
    """A frontier run's queue row and its lease, in the ``work_queue`` and
    ``leases`` tables stores before v7 carried, created as v6 created
    them."""
    con = sqlite3.connect(root / "store.sqlite")
    try:
        con.executescript(
            """
            CREATE TABLE IF NOT EXISTS work_queue (
                id INTEGER PRIMARY KEY, scope TEXT NOT NULL,
                item TEXT NOT NULL, status TEXT NOT NULL,
                attempts INTEGER NOT NULL, not_before REAL NOT NULL,
                result BLOB, error TEXT, format INTEGER NOT NULL,
                created REAL NOT NULL
            );
            CREATE INDEX IF NOT EXISTS work_queue_scope
                ON work_queue (scope, status);
            CREATE TABLE IF NOT EXISTS leases (
                work_id INTEGER PRIMARY KEY, scope TEXT NOT NULL,
                worker TEXT NOT NULL, acquired REAL NOT NULL,
                heartbeat REAL NOT NULL, expires REAL NOT NULL,
                format INTEGER NOT NULL
            );
            CREATE INDEX IF NOT EXISTS leases_scope ON leases (scope, expires);
            INSERT INTO work_queue (scope, item, status, attempts,
                not_before, format, created)
                VALUES ('frontier:x', '{"prefix": []}', 'leased', 1, 0.0, 1,
                        0.0);
            INSERT INTO leases (work_id, scope, worker, acquired, heartbeat,
                expires, format) VALUES (1, 'frontier:x', 'w0', 0, 0, 5, 1);
            """
        )
    finally:
        con.close()


def _tables(root):
    con = sqlite3.connect(root / "store.sqlite")
    try:
        return {
            name for (name,) in con.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
    finally:
        con.close()


class TestSchemaVersioning:
    def test_fresh_store_is_current(self, tmp_path):
        store = ResultStore(tmp_path)
        assert read_version(store.write_connection) == SCHEMA_VERSION
        store.close()

    def test_newer_schema_refused_with_clear_error(self, tmp_path):
        store = ResultStore(tmp_path)
        store.write_connection.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 1),),
        )
        store.write_connection.commit()
        store.close()
        reopened = ResultStore(tmp_path)
        with pytest.raises(SchemaVersionError) as excinfo:
            reopened.write_connection
        # Downgrades are not migratable; the error says what to do.
        message = str(excinfo.value)
        assert f"v{SCHEMA_VERSION + 1}" in message
        assert "upgrade this checkout" in message

    def test_preversioned_file_migrates_to_current(self, tmp_path):
        # A schema-less SQLite file reads as version 0 and migrates up.
        path = tmp_path / "store.sqlite"
        sqlite3.connect(path).close()
        store = ResultStore(tmp_path)
        with pytest.raises(SchemaVersionError) as excinfo:
            store.write_connection
        assert "--migrate" in str(excinfo.value)
        assert store.migrate() == SCHEMA_VERSION
        store.put_summary("k", "s", _summary())
        store.close()

    def test_v2_bench_history_is_dropped_by_migrate(self, tmp_path, capsys):
        # A v2 file: today's tables plus the bench_history table v3
        # dropped, holding one bench row beside one run summary.
        with ResultStore(tmp_path) as store:
            store.put_summary("k", "s", _summary(5))
        con = sqlite3.connect(tmp_path / "store.sqlite")
        con.executescript(
            """
            CREATE TABLE bench_history (
                id INTEGER PRIMARY KEY, format INTEGER NOT NULL,
                bench TEXT NOT NULL, metrics TEXT NOT NULL,
                report TEXT NOT NULL, created REAL NOT NULL
            );
            CREATE INDEX bench_history_bench ON bench_history (bench, id);
            INSERT INTO bench_history (format, bench, metrics, report, created)
                VALUES (1, 'BENCH_sim', '{}', '{}', 0.0);
            UPDATE meta SET value = '2' WHERE key = 'schema_version';
            """
        )
        con.close()

        with pytest.raises(SchemaVersionError) as excinfo:
            ResultStore(tmp_path).write_connection
        assert "v2" in str(excinfo.value) and "--migrate" in str(excinfo.value)

        assert store_cli(["--db", str(tmp_path), "--migrate"]) == 0
        assert f"schema v{SCHEMA_VERSION}" in capsys.readouterr().out
        con = sqlite3.connect(tmp_path / "store.sqlite")
        try:
            names = {
                name for (name,) in con.execute(
                    "SELECT name FROM sqlite_master WHERE name LIKE 'bench%'"
                )
            }
        finally:
            con.close()
        assert names == set()
        with ResultStore(tmp_path) as store:
            assert store.get_summary("k", "s").value == 25

    def test_v3_coordination_tables_are_dropped_by_migrate(
        self, tmp_path, capsys
    ):
        # A v3 file: its coordination tables (the exchange_scopes
        # registry, work_queue with its kind column) hold rows a killed
        # run leaked, beside one summary, one campaign and one witness.
        with ResultStore(tmp_path) as store:
            store.put_summary("k", "s", _summary(5))
            store.record_campaign("c", "d", "s", 1, 0, 1, 0, 0, 0.5, 1)
        _file_witness(tmp_path)
        kept = _kept_rows(tmp_path)
        assert [len(rows) for rows in kept.values()] == [1, 1]
        con = sqlite3.connect(tmp_path / "store.sqlite")
        con.executescript(
            """
            CREATE TABLE leases (
                work_id INTEGER PRIMARY KEY, scope TEXT NOT NULL,
                worker TEXT NOT NULL, acquired REAL NOT NULL,
                heartbeat REAL NOT NULL, expires REAL NOT NULL,
                format INTEGER NOT NULL
            );
            CREATE TABLE work_queue (
                id INTEGER PRIMARY KEY, scope TEXT NOT NULL,
                kind TEXT NOT NULL, item TEXT NOT NULL,
                status TEXT NOT NULL, attempts INTEGER NOT NULL,
                not_before REAL NOT NULL, result BLOB, error TEXT,
                format INTEGER NOT NULL, created REAL NOT NULL
            );
            CREATE TABLE exchange_scopes (
                scope TEXT PRIMARY KEY, created REAL NOT NULL,
                format INTEGER NOT NULL
            );
            CREATE TABLE fingerprints (
                id INTEGER PRIMARY KEY, scope TEXT NOT NULL,
                fp TEXT NOT NULL, remaining INTEGER NOT NULL,
                format INTEGER NOT NULL, UNIQUE (scope, fp)
            );
            INSERT INTO work_queue (scope, kind, item, status, attempts,
                not_before, format, created)
                VALUES ('frontier:x', 'shard', '{}', 'leased', 1, 0.0, 1, 0.0);
            INSERT INTO leases (work_id, scope, worker, acquired, heartbeat,
                expires, format) VALUES (1, 'frontier:x', 'w0', 0, 0, 5, 1);
            INSERT INTO exchange_scopes VALUES ('scope:x', 0.0, 1);
            INSERT INTO fingerprints (scope, fp, remaining, format)
                VALUES ('scope:x', 'fp', 2, 1);
            UPDATE meta SET value = '3' WHERE key = 'schema_version';
            """
        )
        con.close()

        assert store_cli(["--db", str(tmp_path), "--migrate"]) == 0
        assert f"schema v{SCHEMA_VERSION}" in capsys.readouterr().out
        assert not {
            "exchange_scopes", "fingerprints", "witnesses", "work_queue",
            "leases",
        } & _tables(tmp_path)
        assert _kept_rows(tmp_path) == kept
        with ResultStore(tmp_path) as store:
            assert store.get_summary("k", "s").value == 25

    def test_v4_fingerprints_table_is_dropped_by_migrate(
        self, tmp_path, capsys
    ):
        # A v4 file: a finished run's queue row and its leftover
        # fingerprints beside one summary, one campaign and one witness.
        # The fingerprints table goes, then the witnesses, then the
        # queue.
        with ResultStore(tmp_path) as store:
            store.put_summary("k", "s", _summary(5))
            store.record_campaign("c", "d", "s", 1, 0, 1, 0, 0, 0.5, 1)
        _file_witness(tmp_path)
        _file_queue(tmp_path)
        kept = _kept_rows(tmp_path)
        con = sqlite3.connect(tmp_path / "store.sqlite")
        con.executescript(
            """
            CREATE TABLE fingerprints (
                id INTEGER PRIMARY KEY, scope TEXT NOT NULL,
                fp TEXT NOT NULL, remaining INTEGER NOT NULL,
                format INTEGER NOT NULL, UNIQUE (scope, fp)
            );
            INSERT INTO fingerprints (scope, fp, remaining, format)
                VALUES ('scope:x', 'fp', 2, 1);
            UPDATE meta SET value = '4' WHERE key = 'schema_version';
            """
        )
        con.close()
        with pytest.raises(SchemaVersionError) as excinfo:
            ResultStore(tmp_path).write_connection
        assert "v4" in str(excinfo.value) and "--migrate" in str(excinfo.value)

        assert store_cli(["--db", str(tmp_path), "--migrate"]) == 0
        assert f"schema v{SCHEMA_VERSION}" in capsys.readouterr().out
        assert not {
            "fingerprints", "witnesses", "work_queue", "leases",
        } & _tables(tmp_path)
        assert _kept_rows(tmp_path) == kept
        with ResultStore(tmp_path) as store:
            assert store.get_summary("k", "s").value == 25

    def test_v5_witnesses_table_is_dropped_by_migrate(self, tmp_path, capsys):
        # A v5 file: one witness beside one summary and one campaign.
        # Only the witnesses table goes; the kept rows stay byte for byte.
        with ResultStore(tmp_path) as store:
            store.put_summary("k", "s", _summary(5))
            store.record_campaign("c", "d", "s", 1, 0, 1, 0, 0, 0.5, 1)
        _file_witness(tmp_path)
        con = sqlite3.connect(tmp_path / "store.sqlite")
        con.execute("UPDATE meta SET value = '5' WHERE key = 'schema_version'")
        con.commit()
        con.close()
        kept = _kept_rows(tmp_path)
        assert [len(rows) for rows in kept.values()] == [1, 1]
        before = _tables(tmp_path)
        with pytest.raises(SchemaVersionError) as excinfo:
            ResultStore(tmp_path).write_connection
        assert "v5" in str(excinfo.value) and "--migrate" in str(excinfo.value)

        assert store_cli(["--db", str(tmp_path), "--migrate"]) == 0
        assert f"schema v{SCHEMA_VERSION}" in capsys.readouterr().out
        assert _tables(tmp_path) == before - {"witnesses"}
        assert _kept_rows(tmp_path) == kept
        with ResultStore(tmp_path) as store:
            assert store.get_summary("k", "s").value == 25

    def test_v6_queue_tables_are_dropped_by_migrate(self, tmp_path, capsys):
        # A v6 file: a frontier run's queue row and lease beside one
        # summary and one campaign.  Only the two queue tables go; the
        # kept rows stay byte for byte.
        with ResultStore(tmp_path) as store:
            store.put_summary("k", "s", _summary(5))
            store.record_campaign("c", "d", "s", 1, 0, 1, 0, 0, 0.5, 1)
        before = _tables(tmp_path)
        _file_queue(tmp_path)
        con = sqlite3.connect(tmp_path / "store.sqlite")
        con.execute("UPDATE meta SET value = '6' WHERE key = 'schema_version'")
        con.commit()
        con.close()
        kept = _kept_rows(tmp_path)
        assert [len(rows) for rows in kept.values()] == [1, 1]
        assert _tables(tmp_path) == before | {"work_queue", "leases"}
        with pytest.raises(SchemaVersionError) as excinfo:
            ResultStore(tmp_path).write_connection
        assert "v6" in str(excinfo.value) and "--migrate" in str(excinfo.value)

        assert store_cli(["--db", str(tmp_path), "--migrate"]) == 0
        assert "schema v7" in capsys.readouterr().out
        assert _tables(tmp_path) == before
        assert _kept_rows(tmp_path) == kept
        with ResultStore(tmp_path) as store:
            assert store.get_summary("k", "s").value == 25

    def test_migrate_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.migrate() == SCHEMA_VERSION
        assert store.migrate() == SCHEMA_VERSION
        store.close()


class TestCli:
    def _db(self, tmp_path):
        return str(tmp_path / "db")

    def test_summarise_and_show(self, tmp_path, capsys):
        db = self._db(tmp_path)
        with ResultStore(db) as store:
            store.put_summary("abcdef123", "salt", _summary(4))
        assert store_cli(["--db", db, "summarise"]) == 0
        assert store_cli(["--db", db, "show", "abcdef"]) == 0
        out = capsys.readouterr().out
        assert "run summaries" in out
        assert "16" in out  # the shown FnSummary value

    @pytest.mark.parametrize(
        "prefix,message",
        [("zz", "no stored run matches key prefix 'zz'"),
         ("abc", "2 runs match 'abc': abc111, abc222")],
        ids=["none", "several"],
    )
    def test_show_without_one_match_exits_1(
        self, tmp_path, capsys, prefix, message
    ):
        # A script can tell a found run from none by the exit status.
        db = self._db(tmp_path)
        with ResultStore(db) as store:
            store.put_summary("abc111", "salt", _summary(1))
            store.put_summary("abc222", "salt", _summary(2))
        assert store_cli(["--db", db, "show", prefix]) == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == message
        assert captured.out == ""

    def test_a_bug_in_show_is_not_mistaken_for_no_match(
        self, tmp_path, monkeypatch
    ):
        from repro.store import report

        def broken(store, key_prefix):
            raise KeyError("payload")

        monkeypatch.setattr(report, "show", broken)
        db = self._db(tmp_path)
        ResultStore(db).close()
        with pytest.raises(KeyError, match="payload"):
            store_cli(["--db", db, "show", "abc"])

    def test_migrate_flag(self, tmp_path, capsys):
        db = self._db(tmp_path)
        ResultStore(db).close()
        assert store_cli(["--db", db, "--migrate"]) == 0
        assert f"schema v{SCHEMA_VERSION}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command", [["summarise"], ["show", "abc"], ["--migrate"]]
    )
    def test_missing_store_is_an_error_not_created(
        self, tmp_path, capsys, command
    ):
        db = tmp_path / "nostore" / "typo"
        assert store_cli(["--db", str(db)] + command) == 2
        assert "error: no store at" in capsys.readouterr().err
        assert not (tmp_path / "nostore").exists()

    def test_version_mismatch_exits_2(self, tmp_path, capsys):
        db = self._db(tmp_path)
        store = ResultStore(db)
        store.write_connection.execute(
            "UPDATE meta SET value = '99' WHERE key = 'schema_version'"
        )
        store.write_connection.commit()
        store.close()
        assert store_cli(["--db", db, "summarise"]) == 2
        assert "version" in capsys.readouterr().err


class TestBusyRetry:
    def test_busy_errors_are_retried(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        assert retry_locked(flaky, base_delay=0.001) == "ok"
        assert len(attempts) == 3

    def test_non_busy_errors_are_not_retried(self):
        attempts = []

        def broken():
            attempts.append(1)
            raise sqlite3.OperationalError("no such table: nope")

        with pytest.raises(sqlite3.OperationalError):
            retry_locked(broken, base_delay=0.001)
        assert len(attempts) == 1

    def test_budget_exhaustion_reraises(self):
        attempts = []

        def always_locked():
            attempts.append(1)
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError):
            retry_locked(always_locked, retries=2, base_delay=0.001)
        assert len(attempts) == 3
