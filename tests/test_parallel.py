import multiprocessing
import threading
import time

import pytest

from stepturn.errors import TrackTooShortError
from stepturn.inference import chunk_bounds
from stepturn.parallel import ordered_map


def slow_early(context, task):
    # early tasks finish last, so a pool returning results as they finish reorders them
    time.sleep(context["delay"] * (context["n"] - task))
    return task, context["scale"] * task


def under_lock(context, task):
    with context["lock"]:
        return context["offset"](task)


def fails_on_two(context, task):
    if task == 2:
        raise TrackTooShortError(f"task {task} of {context}")
    return task


class TestOrderedMap:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_task_order_when_early_tasks_are_slower(self, workers):
        context = {"delay": 0.05, "n": 6, "scale": 3}
        results = list(ordered_map(slow_early, context, range(6), workers))
        assert results == [(task, 3 * task) for task in range(6)]

    def test_unpicklable_context_reaches_workers(self):
        # a lock and a lambda cannot be pickled: the pool children must inherit them
        context = {"lock": threading.Lock(), "offset": lambda task: task + 100}
        assert list(ordered_map(under_lock, context, range(5), 2)) == [
            100, 101, 102, 103, 104
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_exception_keeps_its_type(self, workers):
        with pytest.raises(TrackTooShortError, match="task 2"):
            list(ordered_map(fails_on_two, "ctx", range(4), workers))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_empty_and_single_task(self, workers):
        assert list(ordered_map(slow_early, {"delay": 0, "n": 1, "scale": 1}, [], workers)) == []
        assert list(ordered_map(under_lock, {"lock": threading.Lock(), "offset": abs},
                                [-4], workers)) == [4]

    def test_pool_no_larger_than_task_count(self, monkeypatch):
        fork = multiprocessing.get_context("fork")
        real_pool, sizes = fork.Pool, []

        def recording_pool(processes, *args, **kwargs):
            sizes.append(processes)
            return real_pool(processes, *args, **kwargs)

        monkeypatch.setattr(fork, "Pool", recording_pool)
        context = {"delay": 0, "n": 5, "scale": 2}
        assert list(ordered_map(slow_early, context, range(3), 8)) == [
            (task, 2 * task) for task in range(3)
        ]
        assert list(ordered_map(slow_early, context, range(5), 2)) == [
            (task, 2 * task) for task in range(5)
        ]
        assert sizes == [3, 2]


def test_chunk_bounds_cover_rows_in_order():
    assert chunk_bounds(10, 4) == [(0, 4), (4, 8), (8, 10)]
    assert chunk_bounds(3, 5) == [(0, 3)]
    assert chunk_bounds(6, 2) == [(0, 2), (2, 4), (4, 6)]
