"""Fixture: D112 — a thread pool outside the sanctioned pool homes."""

from concurrent.futures import ThreadPoolExecutor  # MARK


def fan_out(items):
    """Fan work out on threads; only the import is the finding."""

    def _work(item):
        return item + 1

    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(_work, items))
