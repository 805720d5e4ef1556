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
