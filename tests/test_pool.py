"""The shared per-unit thread pool: order, errors, workspaces and threads."""

import sys
import threading
import time

import pytest

from gesdispatch import pool
from gesdispatch.pool import POOL_MIN_ELEMENTS, map_in_workspaces


class Workspace:
    """A workspace that notices when two tasks hold it at once."""

    def __init__(self, made: list):
        self.busy = False
        made.append(self)


def task(item, workspace):
    assert not workspace.busy, "a workspace was lent to two tasks at once"
    workspace.busy = True
    try:
        time.sleep(0.002 * (item % 3))  # completion order differs from input order
        return item, threading.get_ident(), workspace
    finally:
        workspace.busy = False


def test_pooled_results_come_back_in_input_order(two_cpus):
    made = []
    results = map_in_workspaces(task, range(12), lambda: Workspace(made), POOL_MIN_ELEMENTS)
    assert [item for item, _, _ in results] == list(range(12))
    assert len(made) == 2
    assert {id(ws) for _, _, ws in results} <= {id(ws) for ws in made}
    assert threading.get_ident() not in {ident for _, ident, _ in results}


def test_exactly_one_workspace_per_worker():
    made = []
    items = range(2 * pool.usable_cpus() + 1)
    map_in_workspaces(task, items, lambda: Workspace(made), POOL_MIN_ELEMENTS)
    assert len(made) == min(pool.usable_cpus(), len(items))


@pytest.mark.parametrize("elements, items", [(POOL_MIN_ELEMENTS - 1, 6), (POOL_MIN_ELEMENTS, 1)])
def test_small_or_single_tasks_run_on_the_calling_thread(two_cpus, elements, items):
    made = []
    results = map_in_workspaces(task, range(items), lambda: Workspace(made), elements)
    assert {ident for _, ident, _ in results} == {threading.get_ident()}
    assert len(made) == 1
    assert [item for item, _, _ in results] == list(range(items))


def test_no_items_allocate_no_workspace():
    made = []
    assert map_in_workspaces(task, [], lambda: Workspace(made), POOL_MIN_ELEMENTS) == []
    assert made == []


@pytest.mark.parametrize("elements", [POOL_MIN_ELEMENTS - 1, POOL_MIN_ELEMENTS])
def test_first_failing_item_in_input_order_raises(two_cpus, elements):
    def fail_late_items(item, workspace):
        if item in (3, 5):
            time.sleep(0.02 if item == 3 else 0.0)  # item 5 fails first in time
            raise ValueError(f"item {item}")
        return item

    with pytest.raises(ValueError, match="item 3"):
        map_in_workspaces(fail_late_items, range(8), lambda: None, elements)


def test_stress_more_workers_than_cores_never_share_a_workspace(monkeypatch):
    monkeypatch.setattr(pool, "usable_cpus", lambda: 8)
    made = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = map_in_workspaces(task, range(400), lambda: Workspace(made), POOL_MIN_ELEMENTS)
    finally:
        sys.setswitchinterval(interval)
    assert [item for item, _, _ in results] == list(range(400))
    assert len(made) == 8
    assert not any(ws.busy for ws in made)
