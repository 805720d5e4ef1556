"""Stable content hashing for run specifications and results.

The cache and the determinism guarantees both rest on one primitive: a
*canonical form* for the objects a :class:`~repro.runner.spec.RunSpec`
may carry — primitives, containers, dataclasses, and the small
parameter-holding config objects of the simulation layer (failure
patterns, environments, oracle detectors, delay models).  The canonical
form is a nested structure of strings/tuples whose ``repr`` is stable
across processes, interpreter sessions and ``PYTHONHASHSEED`` values,
so hashing it yields a key that is safe to persist on disk.

Objects with reference semantics (lambdas, bound methods, open files,
RNGs) have no stable canonical form and are rejected loudly — a spec
containing one would silently break caching and cross-process
determinism.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path
from typing import Any, Optional

_PRIMITIVES = (type(None), bool, int, str)


def canonical(obj: Any) -> Any:
    """A hashable, deterministically-``repr``-able form of ``obj``."""
    if isinstance(obj, _PRIMITIVES):
        return obj
    if isinstance(obj, float):
        return ("float", repr(obj))
    if isinstance(obj, bytes):
        return ("bytes", obj.hex())
    if isinstance(obj, (tuple, list)):
        return ("seq", tuple(canonical(x) for x in obj))
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(repr(canonical(x)) for x in obj)))
    if isinstance(obj, dict):
        items = [(canonical(k), canonical(v)) for k, v in obj.items()]
        return ("map", tuple(sorted(items, key=lambda kv: repr(kv[0]))))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = tuple(
            (f.name, canonical(getattr(obj, f.name)))
            for f in dataclasses.fields(obj)
        )
        return ("dc", _type_tag(obj), fields)
    if callable(obj) and hasattr(obj, "__qualname__"):
        # Importable functions/classes are identified by their path;
        # closures and lambdas are rejected (no stable identity).
        qualname = obj.__qualname__
        if "<locals>" in qualname or "<lambda>" in qualname:
            raise TypeError(
                f"cannot fingerprint local/lambda callable {obj!r}; "
                f"use a module-level function (see repro.runner.call)"
            )
        return ("fn", f"{obj.__module__}:{qualname}")
    # Config-style objects: identify by class plus instance state.
    state = _object_state(obj)
    if state is not None:
        return ("obj", _type_tag(obj), canonical(state))
    raise TypeError(
        f"cannot fingerprint {type(obj).__name__} instance {obj!r}; "
        f"specs must carry primitives, containers, dataclasses or "
        f"plain config objects"
    )


def _type_tag(obj: Any) -> str:
    cls = type(obj)
    return f"{cls.__module__}:{cls.__qualname__}"


def _object_state(obj: Any) -> Any:
    """Instance state for canonicalisation, or None if unavailable."""
    getstate = getattr(obj, "__getstate__", None)
    if callable(getstate):
        try:
            state = getstate()
        except TypeError:
            state = None
        if state is not None:
            return state
    state: dict = {}
    if hasattr(obj, "__dict__"):
        state.update(obj.__dict__)
    for cls in type(obj).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            if slot != "__dict__" and hasattr(obj, slot):
                state.setdefault(slot, getattr(obj, slot))
    if state or hasattr(obj, "__dict__") or hasattr(type(obj), "__slots__"):
        return state
    return None


def fingerprint(obj: Any, salt: str = "") -> str:
    """A stable sha256 hex digest of ``obj``'s canonical form."""
    payload = repr((salt, canonical(obj))).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


_code_salt_memo: Optional[str] = None


def code_salt() -> str:
    """A hash of every source file of the installed ``repro`` package.

    The second half of a result-cache key (spec fingerprint × code
    salt): editing *any* library source invalidates every cached
    result — deliberately conservative, a stale verdict is far worse
    than a cold re-run — so summaries from any other version of the
    code are invisible rather than wrong.  Computed once per process
    (~200 small files).
    """
    global _code_salt_memo
    if _code_salt_memo is None:
        import repro

        digest = hashlib.sha256()
        root = Path(repro.__file__).parent
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
        _code_salt_memo = digest.hexdigest()
    return _code_salt_memo
