"""The package's one way of spreading work over processes."""

import multiprocessing

_installed = None  # (worker, context) inside a pool child


def ordered_map(worker, context, tasks, workers):
    """Yield ``worker(context, task)`` for each task, in task order.

    With ``workers > 1`` and more than one task, the calls run on a fork
    pool of ``min(workers, len(tasks))`` processes, one task at a time per
    process. The pool initializer stores ``(worker, context)`` in each
    child, which fork children inherit without pickling, so the context
    (a 1e5-row table, say) need not be picklable; only tasks and results
    are. A worker's exception reaches the caller. Otherwise the tasks run
    inline.
    """
    tasks = list(tasks)
    if workers > 1 and len(tasks) > 1:
        ctx = multiprocessing.get_context("fork")
        processes = min(workers, len(tasks))
        with ctx.Pool(processes, initializer=_install, initargs=(worker, context)) as pool:
            yield from pool.imap(_call, tasks, chunksize=1)
    else:
        for task in tasks:
            yield worker(context, task)


def _install(worker, context):
    global _installed
    _installed = (worker, context)


def _call(task):
    worker, context = _installed
    return worker(context, task)
