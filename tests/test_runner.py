"""The ordered task runner shared by the census and realization pools."""

import time

import pytest

from siccert.runner import ordered_results


def _later_jobs_first(k):
    # job k sleeps less than job k - 1, so the pool finishes later jobs
    # first; the stamp records when each job ended
    time.sleep(0.1 * (4 - k))
    return k, time.monotonic()


@pytest.mark.parametrize("workers", [1, 2])
def test_results_come_in_job_order(workers):
    got = list(ordered_results(_later_jobs_first, list(range(4)), workers))
    assert [k for k, _ in got] == [0, 1, 2, 3]
    ends = [t for _, t in got]
    if workers == 2:  # job 1 ended before job 0 but still came second
        assert ends[1] < ends[0]


def test_more_workers_than_jobs():
    assert list(ordered_results(abs, [-3], workers=4)) == [3]
    assert list(ordered_results(abs, [], workers=2)) == []
