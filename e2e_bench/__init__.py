"""The repo benchmark behind ``BENCHMARK.json``; see ``README.md`` here."""

import os

PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))
#: The directory holding ``BENCHMARK.json``, ``src/`` and ``tests/``.
CHECKOUT = os.path.dirname(PACKAGE_DIR)
#: Traces, results and scratch stores; git-ignored.
OUT_DIR = os.path.join(PACKAGE_DIR, "out")

FRONTIER_WORKERS = 2
