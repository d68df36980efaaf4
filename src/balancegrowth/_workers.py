"""One rule for how many threads a command runs on: one per usable CPU."""

import os

# glibc's mallopt parameter numbers
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _share_freed_memory():
    """Have glibc hand what worker threads free back to the whole process.

    By default glibc gives each thread a heap of its own and raises its
    mmap threshold to the largest block freed so far (up to 32 MB), so a
    block a worker frees stays in that worker's heap, where the work after
    the pool cannot reuse it: after four 2.5e5-row snapshot reads on two
    threads of a 2-core machine, `sweep`'s joins peaked about 55 MB higher
    than after sequential reads.
    One heap for every thread, and a mapping of its own for every block of
    1 MB or more (unmapped when freed), keep the peak below the sequential
    one. Without glibc this does nothing.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)
    mallopt(_M_MMAP_THRESHOLD, 1 << 20)


def map_on_cpus(fn, *iterables, share_freed_memory: bool = False) -> list:
    """`list(map(fn, *iterables))`, on a thread per usable CPU when there are several.

    The results come back in order, and a failure raises the exception of
    the first failing call, as the sequential loop would. With one usable
    CPU or one call no thread is started, and the executor module is
    imported only when a pool is made. Calls that free large temporaries
    the work after the pool should reuse, such as whole-file reads, pass
    `share_freed_memory`; calls that allocate many small blocks, such as
    the simulator's chunks, ran slower with it.
    """
    calls = list(zip(*iterables))
    workers = min(usable_cpus(), len(calls))
    if workers <= 1:
        return [fn(*args) for args in calls]
    from concurrent.futures import ThreadPoolExecutor

    if share_freed_memory:
        _share_freed_memory()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*calls)))
