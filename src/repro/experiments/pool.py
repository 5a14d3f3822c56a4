"""The one process-pool fan-out shared by the experiment sweeps.

Table III (narrowband cells and wideband pairs) and the fleet campaign
all split into independent, independently seeded tasks.  :func:`map_tasks`
runs them serially in the calling process or over a process pool; either
way results come back in task order and are identical.
:func:`default_workers` is the one rule for how many processes a sweep
uses when its caller does not say.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["default_workers", "map_tasks", "warm_tx_cache"]

#: Most processes a sweep fans out to by default.
MAX_DEFAULT_WORKERS = 2


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

    The pool initializer, so each worker pays cache construction once
    before its first task rather than inside it.
    """
    from repro.ble.packets import PhyMode
    from repro.phy.ble_phy import ble_modulator

    spc = sample_rate / 2e6
    if abs(spc - round(spc)) > 1e-9:
        return
    ble_modulator(PhyMode.LE_2M, int(round(spc))).warm()


def _apply(call: Tuple[Callable, Dict[str, Any]]) -> Any:
    fn, kwargs = call
    return fn(**kwargs)


def map_tasks(
    fn: Callable,
    tasks: Sequence[Dict[str, Any]],
    workers: int,
    warm_rate: Optional[float] = None,
) -> List[Any]:
    """``[fn(**task) for task in tasks]``, over up to *workers* processes.

    *fn* must be a module-level function so it pickles to the workers.
    With ``workers == 1`` or a single task everything runs in the calling
    process with no warm-up.  Otherwise each pool process first runs
    :func:`warm_tx_cache` at *warm_rate*, when one is given.  When there
    is no more than one task per process the caller is one of them: it
    runs the first task itself, which saves a fork and keeps its own
    caches warm for the next pool to inherit.  The pool is shut down and
    its processes joined before this returns or raises.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1 or len(tasks) <= 1:
        return [fn(**task) for task in tasks]
    warm = warm_rate is not None
    own = tasks[:1] if len(tasks) <= workers else []
    with ProcessPoolExecutor(
        max_workers=min(workers, len(tasks)) - len(own),
        initializer=warm_tx_cache if warm else None,
        initargs=(warm_rate,) if warm else (),
    ) as pool:
        rest = pool.map(_apply, [(fn, task) for task in tasks[len(own):]])
        return [fn(**task) for task in own] + list(rest)
