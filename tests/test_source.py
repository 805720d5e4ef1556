"""Source-level rules no behavioural test sees on this interpreter."""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _reading(pattern):
    return sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if re.search(pattern, path.read_text(encoding="utf-8"))
    )


def test_no_source_reads_co_qualname():
    # Code objects have it only from Python 3.11, and the package
    # supports 3.10: a generator's own ``__qualname__`` is the same name.
    assert _reading(r"\bco_qualname\b") == []


def test_only_the_runner_pool_starts_processes():
    # One parallel executor (repro.runner.pool); nothing else forks.
    assert _reading(
        r"\bimport (multiprocessing|subprocess|concurrent)\b"
        r"|\bfrom (multiprocessing|subprocess|concurrent)\b|\bos\.fork\b"
    ) == ["repro/runner/pool.py"]
