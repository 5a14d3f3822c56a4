"""The one process-pool fan-out shared by the experiment sweeps.

Table III (narrowband cells and wideband pairs) and the fleet campaign
all split into independent, independently seeded tasks.  :func:`map_tasks`
runs them serially in the calling process or over a process pool; either
way results come back in task order and are identical.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["map_tasks", "warm_tx_cache"]


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
    :func:`warm_tx_cache` at *warm_rate*, when one is given.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1 or len(tasks) <= 1:
        return [fn(**task) for task in tasks]
    warm = warm_rate is not None
    with ProcessPoolExecutor(
        max_workers=min(workers, len(tasks)),
        initializer=warm_tx_cache if warm else None,
        initargs=(warm_rate,) if warm else (),
    ) as pool:
        return list(pool.map(_apply, [(fn, task) for task in tasks]))
