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
        # close() reopens lazily, buffered writers included: the
        # frontier's coordinator closes its store before every fork.
        store = ResultStore(tmp_path, batch=batch)
        store.put_summary("before", "s", _summary(1))
        store.record_witness({"case": {"target": "nbac"}})
        store.close()
        store.put_summary("after", "s", _summary(2))
        store.record_witness({"case": {"target": "ct"}})
        store.close()
        with ResultStore(tmp_path) as reread:
            assert reread.get_summary("after", "s").value == 4
            con = reread.read_connection()
            try:
                targets = con.execute(
                    "SELECT target FROM witnesses ORDER BY id"
                ).fetchall()
            finally:
                con.close()
        assert targets == [("nbac",), ("ct",)]


def _kept_rows(root):
    """Every row of the tables that outlive a run, as stored."""
    con = sqlite3.connect(root / "store.sqlite")
    try:
        return {
            table: con.execute(f"SELECT * FROM {table} ORDER BY 1").fetchall()
            for table in ("run_summaries", "campaigns", "witnesses")
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
            store.record_witness(
                {"format": "repro-explore-artifact/1",
                 "case": {"target": "ct"}, "violated": ["validity"]}
            )
        kept = _kept_rows(tmp_path)
        assert [len(rows) for rows in kept.values()] == [1, 1, 1]
        con = sqlite3.connect(tmp_path / "store.sqlite")
        con.executescript(
            """
            DROP TABLE work_queue;
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
        assert "schema v4" in capsys.readouterr().out
        con = sqlite3.connect(tmp_path / "store.sqlite")
        try:
            tables = {
                name for (name,) in con.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
            columns = {
                row[1] for row in con.execute("PRAGMA table_info(work_queue)")
            }
            leftovers = [
                con.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
                for table in ("work_queue", "leases", "fingerprints")
            ]
        finally:
            con.close()
        assert "exchange_scopes" not in tables
        assert "kind" not in columns
        assert leftovers == [0, 0, 0]
        assert _kept_rows(tmp_path) == kept
        with ResultStore(tmp_path) as store:
            assert store.get_summary("k", "s").value == 25

    def test_migrate_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.migrate() == SCHEMA_VERSION
        assert store.migrate() == SCHEMA_VERSION
        store.close()


class TestFingerprints:
    def test_upsert_keeps_max_remaining(self, tmp_path):
        with ResultStore(tmp_path) as store:
            store.publish_fingerprints("scope", [("fp", 3)])
            store.publish_fingerprints("scope", [("fp", 5), ("fp2", 1)])
            store.publish_fingerprints("scope", [("fp", 2)])
            visited, _ = store.load_fingerprints("scope")
        assert visited == {"fp": 5, "fp2": 1}

    def test_scopes_are_isolated(self, tmp_path):
        with ResultStore(tmp_path) as store:
            store.publish_fingerprints("a", [("fp", 3)])
            visited, _ = store.load_fingerprints("b")
        assert visited == {}

    def test_since_cursor_reads_only_the_delta(self, tmp_path):
        with ResultStore(tmp_path) as store:
            store.publish_fingerprints("s", [("fp1", 1)])
            _, cursor = store.load_fingerprints("s")
            store.publish_fingerprints("s", [("fp2", 2)])
            fresh, cursor2 = store.fingerprints_since("s", cursor)
            assert fresh == [("fp2", 2)]
            again, _ = store.fingerprints_since("s", cursor2)
            assert again == []


    def test_release_drops_the_scope_rows(self, tmp_path):
        with ResultStore(tmp_path) as store:
            store.publish_fingerprints("done", [("fp1", 3)])
            store.publish_fingerprints("live", [("fp2", 1)])
            store.release_scope("done")
            assert store.load_fingerprints("done")[0] == {}
            assert store.load_fingerprints("live")[0] == {"fp2": 1}


class TestWitnessesAndBench:
    def test_witness_families(self, tmp_path):
        with ResultStore(tmp_path) as store:
            store.record_witness(
                {"format": "repro-chaos-artifact/1",
                 "case": {"target": "nbac"}, "violated": ["agreement"]}
            )
            store.record_witness(
                {"format": "repro-explore-artifact/1",
                 "case": {"target": "ct"}, "violated": ["validity"]}
            )
            store.flush()
            rows = store.read_connection().execute(
                "SELECT family, target FROM witnesses ORDER BY family"
            ).fetchall()
        assert rows == [("chaos", "nbac"), ("explore", "ct")]


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
