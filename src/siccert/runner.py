"""Run one function over a list of jobs, serially or on a process pool."""

from __future__ import annotations

import multiprocessing


def ordered_results(fn, jobs: list, workers: int = 1):
    """Yield fn(job) for each job, in job order, each as soon as it and
    every earlier job are done.  One worker (or one job) runs in this
    process; otherwise a pool of min(workers, len(jobs)) processes runs
    the jobs, so fn and the jobs must pickle."""
    workers = min(workers, len(jobs))
    if workers <= 1:
        yield from map(fn, jobs)
        return
    with multiprocessing.Pool(workers) as pool:
        yield from pool.imap(fn, jobs)
