"""Fixture: D112 — pool machinery outside repro.core.pool."""

from concurrent.futures import ProcessPoolExecutor  # MARK

import multiprocessing  # MARK


def fan_out(items):
    """Fan work out; only the imports are findings (the pooled tests
    catch an unpicklable target by starting real workers)."""

    def _work(item):
        return item + 1

    with ProcessPoolExecutor(max_workers=2) as pool:
        return list(pool.map(_work, items))
