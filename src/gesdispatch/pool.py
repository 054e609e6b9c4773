"""One thread pool for independent tasks that run in borrowed scratch buffers.

Load-time DIU propagation (`scenario_io`) runs one task per unit; the
Monte-Carlo evaluator (`reliability`) runs one task per run of units that
share a realization template, cut to about `TASK_ELEMENTS`.  A task spends
its time in numpy calls over its draws that release the GIL, so the tasks
of one call can run on the CPUs this process may use.

Each task borrows a *workspace*, scratch that it overwrites and that nothing
it returns points into.  The thread that calls `map_in_workspaces` allocates
one workspace per worker before any task runs and lends them out through a
queue, so no two tasks hold one at a time and the workers reuse warm pages.
Allocated by a worker instead, the buffers would stay in that worker's malloc
arena after the pool ends.
"""

from __future__ import annotations

import os
import queue
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from typing import TypeVar

Item = TypeVar("Item")
Workspace = TypeVar("Workspace")
Result = TypeVar("Result")

#: when the largest task of a call has fewer elements (units × draws ×
#: horizon) than this, every task runs on the calling thread.  Measured with
#: the evaluator on `synthetic_100tcl` while it ran one unit per task (100
#: units, 24 steps, the R2 strategy; 2 shared cores, numpy 2.4.6), median of
#: 7 in-process calls each, calling thread against two workers, two rounds:
#: 300 draws (7,200 elements) 0.094/0.112 against 0.107/0.090 s, 400 draws
#: 0.106/0.141 against 0.126/0.147 s, 500 draws (12,000) 0.134/0.175 against
#: 0.147/0.144 s, 600 draws 0.190/0.182 against 0.165/0.151 s, 1,000 draws
#: (24,000) 0.253/0.239 against 0.167/0.177 s; 3,000 draws 0.587 against
#: 0.384 s.  Below the tie a task is bound by Python per-call cost, and
#: handing the GIL between threads only adds to it.  The tie lies near
#: 12,000 elements, below this value.  Since the evaluator's tasks hold
#: `TASK_ELEMENTS`, its calls fall below this value only when every run of
#: units is small (smoke3 below 1,000 draws).
POOL_MIN_ELEMENTS = 24_000

#: elements (units × draws × horizon) of one evaluator task: `reliability`
#: cuts each run of units that share a realization template into tasks of
#: ``max(1, TASK_ELEMENTS // (draws × horizon))`` units, so a task's numpy
#: calls run long enough to pay for handing the GIL between threads.
#: Measured on a generated 1000-unit thermal fleet (seed 5; one run) with
#: its R1 strategy at 200 draws (4,800 elements per unit); in-process
#: `evaluate_reliability` seconds, median of 10 runs interleaved across
#: the sizes (2 shared cores, numpy 2.4.6, scipy 1.17.1):
#:
#: ========  =====  ===========  ==============
#: elements  units  two workers  calling thread
#: ========  =====  ===========  ==============
#:    4,800      1   0.66 (a)        0.63
#:   24,000      5   0.46            0.46
#:   48,000     10   0.39            0.46
#:  120,000     25   0.34            0.46
#:  240,000     50   0.35            0.49
#:  480,000    100   0.38            0.49
#: ========  =====  ===========  ==============
#:
#: (a) below `POOL_MIN_ELEMENTS`, so on the calling thread; measured alone
#: in alternating processes it ties with a per-unit evaluator (medians
#: 0.52–0.56 s against 0.48–0.59 s).
#: At 10,000 draws a unit alone exceeds this value, so each task holds one.
TASK_ELEMENTS = 120_000


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_in_workspaces(
    task: Callable[[Item, Workspace], Result],
    items: Iterable[Item],
    new_workspace: Callable[[], Workspace],
    elements: int,
) -> list[Result]:
    """``[task(item, workspace) for item in items]``, on a thread pool when
    the work of one task is large enough.

    `elements` is the work of the largest task.  Below `POOL_MIN_ELEMENTS`,
    or with a single item or CPU, every task runs on the calling thread in
    one workspace.  Otherwise the pool has ``min(usable_cpus(), len(items))``
    workers and as many workspaces, all allocated here by `new_workspace`.
    Results come back in input order, and the first failing item in that
    order raises its error.
    """
    items = list(items)
    if not items:
        return []
    workers = min(usable_cpus(), len(items)) if elements >= POOL_MIN_ELEMENTS else 1
    if workers == 1:
        workspace = new_workspace()
        return [task(item, workspace) for item in items]

    workspaces: queue.SimpleQueue = queue.SimpleQueue()
    for _ in range(workers):
        workspaces.put(new_workspace())

    def run(item: Item) -> Result:
        workspace = workspaces.get()
        try:
            return task(item, workspace)
        finally:
            workspaces.put(workspace)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, items))
