"""The one process-pool fan-out shared by the experiment sweeps.

Table III (narrowband cells and wideband pairs) and the fleet campaign
all split into independent, independently seeded tasks.  :func:`map_tasks`
runs them serially in the calling process or over a process pool; either
way results come back in task order and are identical.
:func:`default_workers` is the one rule for how many processes a sweep
uses when its caller does not say.

The pool is made at the first fanned-out call and reused by every later
one, so a process that runs many sweeps (a benchmark loop, a test suite,
a seed sweep) forks its workers once and they keep the caches they
build between calls.  Every fanned-out call asks for
``min(workers, tasks)`` processes, so sweeps and campaigns at the
default share one pool of two.  It is replaced only when it is broken or
a call needs more processes than it has, and it is shut down at
interpreter exit.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = ["default_workers", "map_tasks"]

#: Most processes a sweep fans out to by default.
MAX_DEFAULT_WORKERS = 2

#: The reused pool and its number of processes (``None`` before the
#: first fanned-out call and after :func:`_shutdown`).
_executor: Optional[ProcessPoolExecutor] = None
_executor_size = 0


def default_workers(tasks: int) -> int:
    """``min(2, usable CPUs, tasks)``, and at least 1.

    Usable CPUs are the ones this process may run on (its affinity mask
    where the platform has one), not every CPU of the host.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - platforms without affinity masks
        cpus = os.cpu_count() or 1
    return max(1, min(MAX_DEFAULT_WORKERS, cpus, tasks))


def _shutdown() -> None:
    """Shut the reused pool down and join its processes, if there is one."""
    global _executor, _executor_size
    if _executor is not None:
        _executor.shutdown()
        _executor, _executor_size = None, 0


atexit.register(_shutdown)


def _submit(
    fn: Callable, tasks: Sequence[Dict[str, Any]], processes: int
) -> List[Future]:
    """Queue *tasks* on the reused pool, first making a new one when there
    is none or it has fewer than *processes*."""
    global _executor, _executor_size
    if _executor is None or _executor_size < processes:
        _shutdown()
        _executor, _executor_size = ProcessPoolExecutor(processes), processes
    return [_executor.submit(fn, **task) for task in tasks]


def map_tasks(
    fn: Callable, tasks: Sequence[Dict[str, Any]], workers: int
) -> List[Any]:
    """``[fn(**task) for task in tasks]``, over up to *workers* processes.

    *fn* must be a module-level function so it pickles to the workers.
    With ``workers == 1`` or a single task everything runs in the calling
    process and no pool is made.  Otherwise every task runs in the reused
    pool of ``min(workers, len(tasks))`` processes while the caller waits.

    A task that raises makes this raise once every queued task is
    cancelled or done, and leaves the pool usable.  A pool process that
    died (killed, or it crashed) breaks the pool: the tasks are run once
    more on a new one.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1 or len(tasks) <= 1:
        return [fn(**task) for task in tasks]
    processes = min(workers, len(tasks))
    retried = False
    while True:
        futures: List[Future] = []
        try:
            futures = _submit(fn, tasks, processes)
            return [future.result() for future in futures]
        except BrokenProcessPool:
            if retried:
                raise
            retried = True
            _shutdown()
        except BaseException:
            for future in futures:
                future.cancel()
            wait(futures)
            raise
