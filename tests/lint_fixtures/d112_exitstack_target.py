"""Fixture: D112 — a lambda target on a pool opened inside an ExitStack."""

from contextlib import ExitStack

from repro.core.pool import ShardPool


def fan_out(items):
    """Open the pool the way the sharded drivers do, then submit a lambda."""
    with ExitStack() as stack:
        pool = stack.enter_context(ShardPool(workers=2))
        return list(pool.map(lambda item: item + 1, items))  # MARK
