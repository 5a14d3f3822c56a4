"""The one process-pool fan-out shared by the experiment sweeps.

Table III (narrowband cells and wideband pairs) and the fleet campaign
all split into independent, independently seeded tasks.  :func:`map_tasks`
runs them serially in the calling process or over a process pool; either
way results come back in task order and are identical.
:func:`default_workers` is the one rule for how many processes a sweep
uses when its caller does not say.

The pool is made at the first fanned-out call and reused by every later
one, so a process that runs many sweeps (a benchmark loop, a test suite,
a seed sweep) forks its workers once and they keep their caches warm
between calls.  It is replaced only when it is broken or a call needs
more processes than it has, and it is shut down at interpreter exit.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = ["default_workers", "map_tasks", "warm_tx_cache"]

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


def warm_tx_cache(sample_rate: float) -> None:
    """Prebuild the process-wide waveform cache for the WazaBee TX modem.

    Idempotent: the cache is built by a process's first call and looked
    up by every later one, so pool processes run it before each task.
    """
    from repro.ble.packets import PhyMode
    from repro.phy.ble_phy import ble_modulator

    spc = sample_rate / 2e6
    if abs(spc - round(spc)) > 1e-9:
        return
    ble_modulator(PhyMode.LE_2M, int(round(spc))).warm()


def _apply(
    fn: Callable, kwargs: Dict[str, Any], warm_rate: Optional[float]
) -> Any:
    if warm_rate is not None:
        warm_tx_cache(warm_rate)
    return fn(**kwargs)


def _shutdown() -> None:
    """Shut the reused pool down and join its processes, if there is one."""
    global _executor, _executor_size
    if _executor is not None:
        _executor.shutdown()
        _executor, _executor_size = None, 0


atexit.register(_shutdown)


def _submit(
    fn: Callable,
    tasks: Sequence[Dict[str, Any]],
    processes: int,
    warm_rate: Optional[float],
) -> List[Future]:
    """Queue *tasks* on the reused pool, first making a new one when there
    is none or it has fewer than *processes*."""
    global _executor, _executor_size
    if _executor is None or _executor_size < processes:
        _shutdown()
        _executor, _executor_size = ProcessPoolExecutor(processes), processes
    return [_executor.submit(_apply, fn, task, warm_rate) for task in tasks]


def map_tasks(
    fn: Callable,
    tasks: Sequence[Dict[str, Any]],
    workers: int,
    warm_rate: Optional[float] = None,
) -> List[Any]:
    """``[fn(**task) for task in tasks]``, over up to *workers* processes.

    *fn* must be a module-level function so it pickles to the workers.
    With ``workers == 1`` or a single task everything runs in the calling
    process with no warm-up and no pool.  Otherwise the tasks go to the
    reused pool, whose processes first run :func:`warm_tx_cache` at
    *warm_rate*, when one is given.  When there is no more than one task
    per process the caller is one of them: it runs the first task itself,
    which saves a process and keeps its own caches warm.

    A task that raises makes this raise once every queued task is
    cancelled or done, and leaves the pool usable.  A pool process that
    died (killed, or it crashed) breaks the pool: the tasks it was to run
    are run once more on a new one.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1 or len(tasks) <= 1:
        return [fn(**task) for task in tasks]
    own = tasks[:1] if len(tasks) <= workers else []
    rest = tasks[len(own):]
    processes = min(workers, len(tasks)) - len(own)
    results: Optional[List[Any]] = None
    retried = False
    while True:
        futures: List[Future] = []
        try:
            futures = _submit(fn, rest, processes, warm_rate)
            if results is None:
                results = [fn(**task) for task in own]
            return results + [future.result() for future in futures]
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
