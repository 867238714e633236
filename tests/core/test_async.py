"""Remote function invocation: async_, futures, teams, errors."""

import sys
import types

import numpy as np
import pytest

import repro
from repro.errors import SerializationError
from repro.gasnet import Trace
from tests.conftest import run_spmd


def _square(x):
    return x * x


def _whoami():
    return repro.myrank()


def test_paper_example_lambda_on_remote_rank():
    """async(2)([](int n){...}, 5) — the paper's §III-G example."""
    def body():
        if repro.myrank() == 0:
            f = repro.async_(2)(lambda n: n * 10, 5)
            assert f.get() == 50
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3))


def test_task_executes_on_target_rank():
    def body():
        me = repro.myrank()
        n = repro.ranks()
        f = repro.async_((me + 1) % n)(_whoami)
        got = f.get()
        assert got == (me + 1) % n
        repro.barrier()
        return got

    run_spmd(body, ranks=4)


def test_module_level_functions_are_pickled():
    def body():
        if repro.myrank() == 0:
            assert repro.async_(1)(_square, 7).get() == 49
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_self_async_is_deferred_not_inline():
    """A local async goes through the task queue (UPC++ semantics), so
    it has NOT run before progress is made."""
    def body():
        if repro.myrank() == 0:
            seen = []
            # a lambda ships by reference, so the closure list is shared
            repro.async_(0)(lambda: seen.append(1))
            assert seen == []          # not executed inline
            repro.async_wait()
            assert seen == [1]
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_kwargs_supported():
    def body():
        if repro.myrank() == 0:
            f = repro.async_(1)(divmod, 17, 5)
            assert f.get() == (3, 2)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_remote_exception_raises_at_future_get():
    def body():
        if repro.myrank() == 0:
            f = repro.async_(1)(lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                f.get()
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_unserializable_arguments_rejected_eagerly():
    def body():
        if repro.myrank() == 0:
            with pytest.raises(SerializationError):
                repro.async_(1)(lambda x: x, lambda: None)  # lambda arg
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_numpy_args_and_results_roundtrip():
    def body():
        if repro.myrank() == 0:
            arr = np.arange(100.0)
            f = repro.async_(1)(np.sum, arr)
            assert f.get() == arr.sum()
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_async_to_team_returns_multifuture():
    def body():
        if repro.myrank() == 0:
            team = repro.Team([1, 2, 3])
            mf = repro.async_(team)(_whoami)
            assert len(mf) == 3
            assert mf.get() == [1, 2, 3]
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=4))


def test_async_target_validation():
    def body():
        with pytest.raises(ValueError):
            repro.async_(99)(int)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_tasks_can_issue_pgas_ops():
    """An async task body can itself use the PGAS API on its rank."""
    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=4, block=1)
        repro.barrier()
        if me == 0:
            def task():
                sa[repro.myrank()] = repro.myrank() + 100
                return repro.myrank()

            with repro.finish():
                repro.async_(1)(task)
                repro.async_(2)(task)
        repro.barrier()
        return (int(sa[1]), int(sa[2]))

    res = run_spmd(body, ranks=3)
    assert res[0] == (101, 102)


def test_future_done_and_wait():
    def body():
        if repro.myrank() == 0:
            f = repro.async_(1)(_square, 3)
            f.wait()
            assert f.done() and f.get() == 9
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_nested_asyncs():
    """A task can spawn further asyncs (no transitive-wait semantics —
    the paper's deliberate divergence from X10 finish)."""
    def body():
        me = repro.myrank()
        if me == 0:
            def outer():
                inner = repro.async_(2)(_square, 4)
                return inner.get() + 1

            f = repro.async_(1)(outer)
            assert f.get() == 17
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3))


def _fail(x):
    raise ValueError(f"task {x} failed")


def _nothing():
    return None


@pytest.mark.parametrize("conduit", ["smp", "proc+socket"])
def test_task_reply_shapes(conduit):
    """Success is a reply without ``"__error__"``: no marker travels, so
    the raw reply is ``((), result)`` and an error reply is ``("__error__", exc)`` completing the
    future with the task's own exception."""
    def body():
        out = None
        if repro.myrank() == 0:
            ok = repro.async_(1)(_square, 3).wait()
            none = repro.async_(1)(_nothing).wait()
            bad = repro.async_(1)(_fail, 8)
            with pytest.raises(ValueError, match="task 8 failed"):
                bad.get()
            multi = repro.async_(repro.Team([0, 1]))(_square, 4)
            out = (ok.result_raw(), ok.get(), none.result_raw(),
                   bad.result_raw(), multi.get())
        repro.barrier()
        return out

    raw_ok, got, raw_none, raw_bad, multi = run_spmd(
        body, ranks=2, conduit=conduit)[0]
    assert raw_ok == ((), 9) and got == 9
    assert raw_none == ((), None)
    assert raw_bad is None
    assert multi == [16, 16]


def _first(v):
    return int(v[0])


def test_one_target_async_takes_its_arguments_by_value_at_the_call():
    """The frame is encoded inside ``async_``: an ndarray argument the
    caller mutates right after the call is not what the task sees."""
    def body():
        out = None
        if repro.myrank() == 0:
            x = np.zeros(8, dtype=np.int64)
            fut = repro.async_(1)(_first, x)
            x[0] = 99
            out = fut.get()
        repro.barrier()
        return out

    assert run_spmd(body, ranks=2)[0] == 0


def test_one_target_async_request_is_86_bytes(monkeypatch):
    """The rpc spine's request, with a 14-byte function name as the
    bench's ``workloads:echo``: the 42-byte header, ``exec_task`` and
    ``(fn, args, kwargs)`` written straight into the frame — 86 bytes,
    with no pre-encoded payload spliced in (21 more)."""
    mod = types.ModuleType("rpc_bench")
    exec("def echo(x):\n    return x\n", mod.__dict__)
    monkeypatch.setitem(sys.modules, "rpc_bench", mod)

    def body():
        sizes = None
        world = repro.current_world()
        repro.barrier()
        if repro.myrank() == 0:
            with Trace(world) as trace:
                assert repro.async_(1)(mod.echo, 1 << 29).get() == 1 << 29
            sizes = [ev.nbytes for ev in trace.select(kind="am", src=0)]
        repro.barrier()
        return sizes

    assert run_spmd(body, ranks=2)[0] == [86]
