"""Events and event-driven task dependencies (paper §III-G), in both
thread modes."""

import pytest

import repro
from repro.errors import PgasError
from tests.conftest import run_spmd_both_modes as run_spmd


def test_event_counts_registered_operations():
    def body():
        if repro.myrank() == 0:
            e = repro.Event()
            assert e.test()  # nothing registered: trivially fired
            repro.async_(1, signal=e)(int, 1)
            repro.async_(2, signal=e)(int, 2)
            e.wait()
            assert e.test() and e.pending() == 0
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3))


def test_async_after_fires_only_after_event():
    def body():
        if repro.myrank() == 0:
            import time

            e = repro.Event()
            order = []
            repro.async_(1, signal=e)(time.sleep, 0.02)
            repro.async_after(2, after=e)(int, 0).add_callback(
                lambda f: order.append("dependent")
            )
            assert order == []  # cannot have fired yet
            e.wait()
            repro.async_wait()
            while not order:
                repro.advance()
            assert order == ["dependent"]
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3))


def test_async_after_on_already_fired_event_launches_immediately():
    def body():
        if repro.myrank() == 0:
            e = repro.Event()  # never registered: counts as fired
            f = repro.async_after(1, after=e)(lambda: "ran")
            assert f.get() == "ran"
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_over_signal_rejected():
    def body():
        if repro.myrank() == 0:
            e = repro.Event()
            with pytest.raises(PgasError):
                e.signal()
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_incref_validation():
    def body():
        if repro.myrank() == 0:
            e = repro.Event()
            with pytest.raises(ValueError):
                e.incref(-1)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_manual_event_usage():
    """Events as raw countdown latches (incref/signal by hand)."""
    def body():
        if repro.myrank() == 0:
            e = repro.Event()
            e.incref(3)
            assert not e.test() and e.pending() == 3
            e.signal()
            e.signal()
            assert not e.test()
            e.signal()
            assert e.test()
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_event_chain_three_stages():
    def body():
        if repro.myrank() == 0:
            e1, e2 = repro.Event(), repro.Event()
            stages = []
            repro.async_(1, signal=e1)(lambda: stages.append)  # noqa: dummy
            repro.async_after(1, after=e1, signal=e2)(lambda: "b")
            f = repro.async_after(1, after=e2)(lambda: "c")
            assert f.get() == "c"
            assert e1.test() and e2.test()
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))
