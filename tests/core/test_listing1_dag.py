"""Listing 1 / Fig. 1: the task-dependency graph, executed for real.

The paper's example builds this graph with events::

    event e1, e2, e3;
    async(p1, &e1)(t1);
    async(p2, &e1)(t2);
    async_after(p3, &e1, &e2)(t3);
    async(p4, &e2)(t4);
    async_after(p5, &e2, &e3)(t5);
    async_after(p6, &e2, &e3)(t6);
    e3.wait();

Constraints (Fig. 1): t1 and t2 precede t3; t3 and t4 precede t5 and
t6; e3.wait() returns only after t5 and t6 complete.  Every test runs
in both thread modes.
"""

import threading
import time

import repro
from tests.conftest import run_spmd_both_modes as run_spmd


def _run_dag(task_sleep=0.0):
    """Execute Listing 1 on rank 0, recording completion order."""
    order: list[str] = []
    lock = threading.Lock()

    def record(name):
        def cb(fut):
            with lock:
                order.append(name)
        return cb

    def task(name):
        if task_sleep:
            time.sleep(task_sleep)
        return name

    n = repro.ranks()
    p = [k % n for k in (1, 2, 3, 4, 5, 6)]
    e1, e2, e3 = repro.Event(), repro.Event(), repro.Event()
    repro.async_(p[0], signal=e1)(task, "t1").add_callback(record("t1"))
    repro.async_(p[1], signal=e1)(task, "t2").add_callback(record("t2"))
    repro.async_after(p[2], after=e1, signal=e2)(task, "t3") \
        .add_callback(record("t3"))
    repro.async_(p[3], signal=e2)(task, "t4").add_callback(record("t4"))
    repro.async_after(p[4], after=e2, signal=e3)(task, "t5") \
        .add_callback(record("t5"))
    repro.async_after(p[5], after=e2, signal=e3)(task, "t6") \
        .add_callback(record("t6"))
    e3.wait()
    return order, (e1, e2, e3)


def _check_constraints(order):
    pos = {name: i for i, name in enumerate(order)}
    assert set(pos) == {"t1", "t2", "t3", "t4", "t5", "t6"}
    assert pos["t1"] < pos["t3"] and pos["t2"] < pos["t3"]
    assert pos["t3"] < pos["t5"] and pos["t3"] < pos["t6"]
    assert pos["t4"] < pos["t5"] and pos["t4"] < pos["t6"]


def test_listing1_ordering_constraints():
    def body():
        if repro.myrank() == 0:
            order, events = _run_dag()
            _check_constraints(order)
            assert all(e.test() for e in events)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=4))


def test_listing1_with_slow_tasks():
    """Sleeping tasks shake out races between event firing and waits."""
    def body():
        if repro.myrank() == 0:
            order, _ = _run_dag(task_sleep=0.01)
            _check_constraints(order)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=4))


def test_listing1_repeatable():
    """The DAG can run repeatedly in one world with fresh events."""
    def body():
        if repro.myrank() == 0:
            for _ in range(5):
                order, _ = _run_dag()
                _check_constraints(order)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=4))


def test_listing1_on_two_ranks():
    """Place mapping k % n keeps the DAG valid on small worlds."""
    def body():
        if repro.myrank() == 0:
            order, _ = _run_dag()
            _check_constraints(order)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))
