"""Fixture: D112 clean — pool machinery inside a sanctioned pool home."""

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor


def _work(item):
    return item + 1


def fan_out(items, threads: bool = False):
    """Fan work out from the one module allowed to own pools."""
    executor = ThreadPoolExecutor if threads else ProcessPoolExecutor
    with executor(max_workers=2) as pool:
        return list(pool.map(_work, items))
