"""Run one function over a list of jobs, serially or on a process pool."""

from __future__ import annotations

import os


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has
    one, else the machine's count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def Pool(processes: int):
    """multiprocessing.Pool, imported on the first call."""
    from multiprocessing import Pool
    return Pool(processes)


def check_workers(workers: int) -> None:
    """Raise ValueError unless workers is a usable worker count."""
    if workers < 1:
        raise ValueError("workers must be at least 1")


def ordered_results(fn, jobs: list, workers: int = 1):
    """Yield fn(job) for each job, in job order, each as soon as it and
    every earlier job are done.  One worker (or one job, or one usable
    CPU) runs in this process; otherwise a pool of min(workers,
    len(jobs), _usable_cpus()) processes runs the jobs, so fn and the
    jobs must pickle."""
    workers = min(workers, len(jobs), _usable_cpus())
    if workers <= 1:
        yield from map(fn, jobs)
        return
    with Pool(workers) as pool:
        yield from pool.imap(fn, jobs)
