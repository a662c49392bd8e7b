"""Warn-once deprecation plumbing (the PR 2 pattern, factored out).

Deprecated attributes warn exactly once per process per (owner, name)
pair: loud enough to drive migration, quiet enough not to flood a batch
service's logs.
"""

from __future__ import annotations

import warnings
from typing import Set, Tuple

_warned: Set[Tuple[str, str]] = set()


def warn_deprecated_attr(owner: str, name: str, replacement: str) -> None:
    """Emit a warn-once ``DeprecationWarning`` for a legacy attribute.

    The store refactor renamed the instance internals (``_facts`` and
    friends) that external code occasionally poked; the shim properties
    route through here so each (owner, attribute) pair warns once.
    """
    key = (owner, name)
    if key in _warned:
        return
    _warned.add(key)
    warnings.warn(
        f"{owner}.{name} is deprecated since the pluggable-store "
        f"refactor; use {replacement} instead",
        DeprecationWarning,
        stacklevel=3,
    )


def reset_warned() -> None:
    """Forget warn-once state (test isolation only)."""
    _warned.clear()
