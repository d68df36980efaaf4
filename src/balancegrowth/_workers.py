"""One rule for how many threads a command runs on: one per usable CPU."""

import os


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_on_cpus(fn, *iterables) -> list:
    """`list(map(fn, *iterables))`, on a thread per usable CPU when there are several.

    The results come back in order, and a failure raises the exception of
    the first failing call, as the sequential loop would. With one usable
    CPU or one call no thread is started, and the executor module is
    imported only when a pool is made.
    """
    calls = list(zip(*iterables))
    workers = min(usable_cpus(), len(calls))
    if workers <= 1:
        return [fn(*args) for args in calls]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*calls)))
