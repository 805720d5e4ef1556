"""``python -m repro.store`` — report over the campaign database.

Recipes::

    python -m repro.store summarise                    # whole-store counts
    python -m repro.store show 3f2a91                  # one run by key prefix
    python -m repro.store sweep                        # collect leaked scopes
    python -m repro.store --migrate                    # schema upgrade

``--db`` points anywhere; the default is ``$REPRO_STORE_DIR`` (falling
back to ``.repro-store/``).
"""

from __future__ import annotations

import argparse
import sys

from repro.store import report as reports
from repro.store.db import ResultStore, SchemaVersionError, StoreError
from repro.store.schema import SCHEMA_VERSION


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Query and maintain the persistent campaign database.",
    )
    parser.add_argument(
        "--db",
        default=None,
        metavar="PATH",
        help="store directory or .sqlite file (default $REPRO_STORE_DIR "
        "or .repro-store/)",
    )
    parser.add_argument(
        "--migrate",
        action="store_true",
        help=f"migrate the store to schema v{SCHEMA_VERSION} and exit",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("summarise", help="whole-store counts and recent campaigns")
    show = sub.add_parser("show", help="one stored run by key prefix")
    show.add_argument("key", help="run key (prefix allowed)")
    sub.add_parser(
        "sweep",
        help="collect exchange scopes and queue rows leaked by killed searches",
    )
    return parser, parser.parse_args(argv)


def main(argv=None) -> int:
    parser, args = _parse_args(argv if argv is not None else sys.argv[1:])

    if args.migrate:
        store = ResultStore(args.db)
        version = store.migrate()
        print(f"{store.path}: schema v{version}")
        return 0

    if args.command is None:
        parser.print_help()
        return 2

    try:
        store = ResultStore(args.db)
        if args.command == "summarise":
            print(reports.summarise(store))
            return 0
        if args.command == "show":
            print(reports.show(store, args.key))
            return 0
        if args.command == "sweep":
            # Coordination state leaked by killed searches: orphan
            # fingerprint scopes, aged-out registrations, dead queue and
            # lease rows.  The sweep_log aggregate covers the
            # opportunistic open-time sweep too, whichever got there
            # first.
            store.sweep_stale_scopes()
            orphaned = sum(len(s["orphan_scopes"]) for s in store.sweep_log)
            stale = sum(len(s["stale_scopes"]) for s in store.sweep_log)
            rows = sum(s["fingerprint_rows"] for s in store.sweep_log)
            print(
                f"swept {orphaned} orphaned and {stale} stale "
                f"exchange scope(s) ({rows} fingerprint row(s))"
            )
            return 0
    except SchemaVersionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
