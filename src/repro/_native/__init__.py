"""Optional compiled hot core (see docs/PERF.md, "Native core").

``repro._native._core`` is a hand-written CPython extension holding
``Encoder``, a byte-exact port of the fingerprint byte-encoder from
:mod:`repro.explore.state` (``--fingerprint-mode native``).

The extension is strictly optional: when it is not built (no compiler,
no ``build_ext`` run) or is disabled via ``REPRO_NATIVE=0``, the mode
silently degrades to the pure-Python encoder, which stays in the tree
as the differential-test reference.  :func:`available` /
:func:`reason` report which way this process went, and
``python -m repro.native_status`` prints it.
"""

from __future__ import annotations

import os
from typing import Any, Optional

__all__ = [
    "available",
    "reason",
    "encoder_class",
    "status",
]

_DISABLED = os.environ.get("REPRO_NATIVE", "").strip() == "0"

_core: Any = None
_reason: Optional[str] = None
_bound = False

if _DISABLED:
    _reason = "disabled via REPRO_NATIVE=0"
else:
    try:
        # importlib, not `from . import _core`: the module-level
        # `_core` variable above would shadow the submodule.
        import importlib

        _core = importlib.import_module("repro._native._core")
    except ImportError as exc:
        _reason = f"compiled extension not importable ({exc})"


def _bind() -> bool:
    """Register the sentinel classes with the extension, once.

    Binding is deferred past import time so ``repro._native`` can be
    imported from anywhere without a circular import: the sim/explore
    modules are only pulled in when a caller first asks for the
    encoder.
    """
    global _bound, _reason
    if _bound or _core is None:
        return _bound
    try:
        from random import Random

        from repro.explore.state import _MAX_DEPTH, _SKIP_ATTRS
        from repro.sim.network import Message, Network, ReferenceNetwork
        from repro.sim.tasklets import WaitSteps, WaitUntil
        from repro.sim.trace import RunTrace

        _core.bind(
            WaitSteps,
            WaitUntil,
            Message,
            Random,
            Network,
            ReferenceNetwork,
            RunTrace,
            _SKIP_ATTRS,
            _MAX_DEPTH,
        )
    except Exception as exc:  # pragma: no cover - defensive
        _reason = f"binding sentinel classes failed ({exc})"
        return False
    _bound = True
    return True


def available() -> bool:
    """Whether the compiled core is loaded and usable in this process."""
    return _core is not None and _bind()


def reason() -> Optional[str]:
    """Why the compiled core is unavailable (None when it is loaded)."""
    if available():
        return None
    return _reason or "unknown"


def encoder_class() -> Optional[type]:
    """The compiled ``Encoder`` type, or None when unavailable."""
    if not available():
        return None
    return _core.Encoder


def status() -> dict:
    """A report dict for ``python -m repro.native_status`` and benches."""
    ok = available()
    return {
        "available": ok,
        "reason": None if ok else reason(),
        "version": getattr(_core, "VERSION", None) if ok else None,
        "extension": getattr(_core, "__file__", None) if _core else None,
        "disabled_by_env": _DISABLED,
    }
