"""``python -m repro.store`` — report over the campaign database.

Recipes::

    python -m repro.store summarise                    # whole-store counts
    python -m repro.store show 3f2a91                  # one run by key prefix
    python -m repro.store --migrate                    # schema upgrade

``--db`` points anywhere; the default is ``$REPRO_STORE_DIR`` (falling
back to ``.repro-store/``).
"""

from __future__ import annotations

import argparse
import sys

from repro.store import report as reports
from repro.store.db import ResultStore, StoreError
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
    return parser, parser.parse_args(argv)


def main(argv=None) -> int:
    parser, args = _parse_args(argv if argv is not None else sys.argv[1:])

    if args.command is None and not args.migrate:
        parser.print_help()
        return 2

    try:
        # Every command reads an existing store: a mistyped --db is an
        # error, never a fresh empty store.
        store = ResultStore(args.db, create=False)
        if args.migrate:
            print(f"{store.path}: schema v{store.migrate()}")
        elif args.command == "summarise":
            print(reports.summarise(store))
        else:
            print(reports.show(store, args.key))
        return 0
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
