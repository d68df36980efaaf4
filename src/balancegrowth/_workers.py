"""One rule for how many threads a command runs on: one per usable CPU, the calling thread included."""

import os
import threading


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_on_cpus(fn, *iterables) -> list:
    """`list(map(fn, *iterables))`, on a thread per usable CPU when there are several.

    The calling thread takes calls too, so with n usable CPUs only n - 1
    threads start, and none with one CPU or one call. Each thread takes
    the next call in order until none is left, or until a call has
    failed; then every call before the failed one has been taken, and
    the exception of the first failing call is raised, as the sequential
    loop would raise it. The results come back in order.
    """
    calls = list(zip(*iterables))
    results = [None] * len(calls)
    failures = {}
    taken = iter(range(len(calls)))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                i = None if failures else next(taken, None)
            if i is None:
                return
            try:
                results[i] = fn(*calls[i])
            except BaseException as exc:  # raised in the calling thread once every thread is done
                with lock:
                    failures[i] = exc

    threads = [threading.Thread(target=work) for _ in range(min(usable_cpus(), len(calls)) - 1)]
    for thread in threads:
        thread.start()
    try:
        work()
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[min(failures)]
    return results
