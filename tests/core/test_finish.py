"""The finish construct (paper §III-G RAII block), in both thread
modes."""

import time

import pytest

import repro
from repro.errors import SerializationError, TransientCommError
from tests.conftest import run_spmd_both_modes as run_spmd


def test_paper_example_two_tasks_complete_inside_finish():
    def body():
        me = repro.myrank()
        done = []
        if me == 0:
            with repro.finish():
                repro.async_(1)(time.sleep, 0.01)
                repro.async_(2)(time.sleep, 0.01)
                f1 = repro.async_(1)(lambda: done_marker(1))
                f2 = repro.async_(2)(lambda: done_marker(2))
            # RAII exit: both tasks must have completed.
            assert f1.done() and f2.done()
        repro.barrier()
        return True

    def done_marker(x):
        return x

    assert all(run_spmd(body, ranks=3))


def test_finish_counts_only_dynamic_scope():
    """Asyncs issued outside the block are not waited on."""
    def body():
        if repro.myrank() == 0:
            before = repro.async_(1)(lambda: time.sleep(0.05) or "slow")
            t0 = time.perf_counter()
            with repro.finish():
                pass  # nothing registered inside
            assert time.perf_counter() - t0 < 0.05
            assert before.get() == "slow"
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_nested_finish_scopes():
    def body():
        if repro.myrank() == 0:
            order = []
            with repro.finish():
                repro.async_(1)(int, 0).add_callback(
                    lambda f: order.append("outer")
                )
                with repro.finish():
                    repro.async_(2)(int, 1).add_callback(
                        lambda f: order.append("inner")
                    )
                assert "inner" in order  # inner scope drained first
            assert "outer" in order
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3))


def test_finish_surfaces_remote_task_errors():
    def body():
        if repro.myrank() == 0:
            with pytest.raises(ZeroDivisionError):
                with repro.finish():
                    repro.async_(1)(lambda: 1 / 0)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_finish_with_team_async():
    def body():
        if repro.myrank() == 0:
            with repro.finish():
                mf = repro.async_(repro.Team([1, 2]))(lambda: repro.myrank())
            assert mf.get() == [1, 2]
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3))


def test_finish_propagates_user_exception_without_hanging():
    def body():
        if repro.myrank() == 0:
            with pytest.raises(KeyError):
                with repro.finish():
                    repro.async_(1)(int, 0)
                    raise KeyError("user bug inside finish")
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


@pytest.mark.parametrize("conduit,telemetry", [
    ("smp", None), ("proc+socket", None), ("smp", "flight"),
], ids=["smp", "proc+socket", "smp-flight"])
def test_async_failing_at_its_call_site_releases_scope_and_event(
        conduit, telemetry):
    """An async that never went out completes with the call-site error:
    the finish block raises it at once (it used to sit out the whole
    op timeout, and a peer's CommTimeout masked the real error) and the
    event still fires.  Under telemetry the ``fail_next_am`` hook is set
    on the telemetry layer and must still reach the send decision."""
    def body():
        me = repro.myrank()
        world = repro.current_world()
        out = None
        if me == 0:
            done = repro.Event()
            if conduit == "smp":
                boom = TransientCommError("injected")
                world.conduit.fail_next_am = boom
                fn = int
            else:
                boom = SerializationError
                fn = lambda x: x * x  # noqa: E731 - cannot cross a process
            t0 = time.perf_counter()
            try:
                with repro.finish() as scope:
                    repro.async_(1, signal=done)(fn, 3)
            except (TransientCommError, SerializationError) as exc:
                out = (exc is boom or type(exc) is boom,
                       time.perf_counter() - t0, scope.outstanding,
                       done.test())
        repro.barrier()
        return out

    results = run_spmd(body, ranks=2, conduit=conduit, telemetry=telemetry,
                       timeout=5.0)
    for right_error, elapsed, outstanding, fired in results[::2]:  # rank 0s
        assert right_error and elapsed < 1.0
        assert outstanding == 0 and fired


def _echo(x):
    # module-level: an async's function crosses processes by name
    return x


@pytest.mark.parametrize("launch", ["call", "after"])
@pytest.mark.parametrize("conduit", ["smp", "proc+socket"])
def test_team_async_failing_part_way_at_its_call_site(conduit, launch,
                                                       monkeypatch):
    """A Team async to ranks 1, 2 and 3 whose second send raises: the
    first request went out and completes normally, the second and the
    third (never sent) complete with the call-site error, and so the
    finish scope and the signal event both release.  Launched at the
    call, the call raises the error; launched by an ``async_after``
    event, the futures carry it alone and the finish block raises it."""
    from repro.core import async_task
    from repro.core.endpoint import Endpoint

    boom = TransientCommError("injected at the second member's send")
    real_send = Endpoint.send
    made, sends = [], []

    def send(self, dst, am, fut=None, encode=None):
        if self.rank == 0 and am.handler == "exec_task":
            sends.append(dst)
            if len(sends) == 2:
                raise boom
        return real_send(self, dst, am, fut, encode)

    class Spy(async_task.TaskFuture):
        __slots__ = ()

        def __init__(self, ctx):
            super().__init__(ctx)
            made.append(self)

    monkeypatch.setattr(Endpoint, "send", send)
    monkeypatch.setattr(async_task, "TaskFuture", Spy)

    def body():
        out = None
        if repro.myrank() == 0:
            made.clear()
            sends.clear()
            team, done = repro.Team([1, 2, 3]), repro.Event()
            with pytest.raises(TransientCommError) as raised:
                with repro.finish() as scope:
                    if launch == "call":
                        repro.async_(team, signal=done)(_echo, 7)
                    else:
                        after = repro.Event()
                        after.incref()
                        repro.async_after(team, after, signal=done)(
                            _echo, 7)
                        after.signal()
            errors = []
            for fut in made[1:]:
                with pytest.raises(TransientCommError) as err:
                    fut.get()
                errors.append(err.value is boom)
            out = (raised.value is boom, list(sends), made[0].get(),
                   errors, scope.outstanding, done.test())
        repro.barrier()
        return out

    for got in run_spmd(body, ranks=4, conduit=conduit, timeout=5.0)[::4]:
        assert got == (True, [1, 2], 7, [True, True], 0, True)


def test_many_tasks_in_one_finish():
    def body():
        me = repro.myrank()
        n = repro.ranks()
        if me == 0:
            futures = []
            with repro.finish():
                for i in range(40):
                    futures.append(repro.async_(i % n)(lambda x: x + 1, i))
            assert [f.get() for f in futures] == list(range(1, 41))
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=4))
