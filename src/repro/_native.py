"""What is left of the compiled fingerprint encoder deleted in PR 24.

The frozen ``e2e_bench/adapters.py`` imports this module and calls
``available()`` in every repetition to stamp its results; nothing else
does.  The next ``benchmark`` PR drops that call, and this file with it.
"""

__all__ = ["available"]


def available() -> bool:
    return False
