"""The ordered task runner shared by the census and realization pools."""

import time

import pytest

from siccert import runner
from siccert.runner import ordered_results


def _later_jobs_first(k):
    # job k sleeps less than job k - 1, so the pool finishes later jobs
    # first; the stamp records when each job ended
    time.sleep(0.1 * (4 - k))
    return k, time.monotonic()


@pytest.mark.parametrize("workers", [1, 2])
def test_results_come_in_job_order(workers, monkeypatch):
    # a real pool even where this process may use only one CPU
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    got = list(ordered_results(_later_jobs_first, list(range(4)), workers))
    assert [k for k, _ in got] == [0, 1, 2, 3]
    ends = [t for _, t in got]
    if workers == 2:  # job 1 ended before job 0 but still came second
        assert ends[1] < ends[0]


def test_more_workers_than_jobs():
    assert list(ordered_results(abs, [-3], workers=4)) == [3]
    assert list(ordered_results(abs, [], workers=2)) == []


class FakePool:
    """Stands in for multiprocessing.Pool: records the size asked for
    and maps in this process, so no worker is ever started."""

    sizes: list[int] = []

    def __init__(self, size):
        FakePool.sizes.append(size)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, jobs):
        return map(fn, jobs)


@pytest.fixture
def fake_pool(monkeypatch):
    FakePool.sizes = []
    monkeypatch.setattr(runner, "Pool", FakePool)
    return FakePool.sizes


def test_pool_bounded_by_affinity(fake_pool, monkeypatch):
    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    jobs = list(range(-20, 0))
    assert list(ordered_results(abs, jobs, workers=500)) == [-j for j in jobs]
    assert list(ordered_results(abs, jobs, workers=2)) == [-j for j in jobs]
    assert fake_pool == [3, 2]


def test_pool_bounded_by_cpu_count(fake_pool, monkeypatch):
    monkeypatch.delattr(runner.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 5)
    assert list(ordered_results(abs, [-1] * 9, workers=64)) == [1] * 9
    monkeypatch.setattr(runner.os, "cpu_count", lambda: None)
    assert list(ordered_results(abs, [-1] * 9, workers=64)) == [1] * 9
    assert fake_pool == [5]  # an unknown count runs in this process


@pytest.mark.parametrize("workers", [1.5, 2.0, 2.5, "2", None])
def test_non_integer_workers(workers):
    with pytest.raises(TypeError) as exc:
        runner.check_workers(workers)
    assert str(exc.value) == f"workers must be an integer, not {workers!r}"


def test_integer_workers():
    np = pytest.importorskip("numpy")
    for workers in (1, 2, np.int64(2), np.uint8(1)):
        assert runner.check_workers(workers) is None
    for workers in (0, -1, np.int64(0)):
        with pytest.raises(ValueError) as exc:
            runner.check_workers(workers)
        assert str(exc.value) == "workers must be at least 1"
