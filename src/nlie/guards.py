"""Enumeration guards.

Exhaustive checks refuse to start when the instance count exceeds a bound.
The bound resolution order is: explicit argument, the NLIE_MAX_INSTANCES
environment variable, then the per-operation default.  A bound that is not
an integer >= 1 is refused with a ValueError naming where it came from.
"""

from __future__ import annotations

import os

ENV_VAR = "NLIE_MAX_INSTANCES"

DEFAULT_MAX_INSTANCES = 10**8
DEFAULT_MAX_ENUM = 10**6
DEFAULT_MAX_SUBSPACES = 10**5


class GuardExceeded(RuntimeError):
    """An enumeration would exceed its configured bound."""


def effective_limit(explicit: int | None, default: int, name: str) -> int:
    if explicit is not None:
        return _positive(explicit, name)
    env = os.environ.get(ENV_VAR)
    if env is not None:
        return _positive(env, ENV_VAR)
    return default


def _positive(value, source: str) -> int:
    try:
        bound = int(value)
    except (TypeError, ValueError):
        bound = 0
    if bound < 1:
        raise ValueError(f"{source} must be an integer >= 1, got {value!r}")
    return bound


def check_instances(count: int, limit: int | None, default: int, what: str) -> int:
    bound = effective_limit(limit, default, f"{what} limit")
    if count > bound:
        raise GuardExceeded(f"{what}: {count} instances exceed the bound {bound}")
    return count
