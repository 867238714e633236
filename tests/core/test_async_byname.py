"""What an async's function travels as: its name when it has a
module-level one, a reference otherwise (smp only).

A name on the wire is resolved when it is used, not remembered: the
sender checks that the name still reaches *this* function before every
send, the receiver looks it up on every message.
"""

import pathlib
import subprocess
import sys
import time

import pytest

import repro
from repro.errors import SerializationError
from tests.conftest import run_spmd

CONDUITS = ("smp", "proc+socket")
SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def target(x):
    return ("old", x)


def _replacement(x):
    return ("new", x)


# what a reload, a decorator or a monkeypatch leaves behind: another
# object answering to the same module:qualname
_replacement.__qualname__ = "target"
_ORIGINAL = target


class Box:
    @staticmethod
    def held(x):
        return ("held", x)


def _echo(x):
    return x


def my_stats():
    return repro.current_world().ranks[repro.myrank()].stats


@pytest.mark.parametrize("conduit", CONDUITS)
def test_rebound_name_runs_the_new_function_and_orphans_the_old(conduit):
    mod = sys.modules[__name__]

    def body():
        me = repro.myrank()
        out = {}
        repro.barrier()
        if me == 0:
            out["before"] = repro.async_(1)(target, 1).get()
        repro.barrier()
        mod.target = _replacement  # every rank: SPMD ranks share an image
        repro.barrier()
        if me == 0:
            out["after"] = repro.async_(1)(mod.target, 2).get()
            # the function the name used to reach no longer has one
            t0 = time.perf_counter()
            try:
                with repro.finish():
                    fut = repro.async_(1)(_ORIGINAL, 3)
                out["orphan"] = fut.get()
            except SerializationError as exc:
                out["orphan"] = type(exc)
            out["orphan_s"] = time.perf_counter() - t0
            out["byref"] = my_stats().snapshot()["wire_byref"]
        repro.barrier()
        return out

    try:
        out = run_spmd(body, ranks=2, conduit=conduit, timeout=10.0)[0]
    finally:
        mod.target = _ORIGINAL
    assert out["before"] == ("old", 1)
    assert out["after"] == ("new", 2)
    assert out["orphan_s"] < 1.0
    if conduit == "smp":
        assert out["orphan"] == ("old", 3) and out["byref"] == 1
    else:
        assert out["orphan"] is SerializationError


@pytest.mark.parametrize("conduit", CONDUITS)
def test_lambda_and_nested_def_travel_as_before(conduit):
    """By reference on smp (the closure's cell is the sender's), an
    eager ``SerializationError`` at the call site on proc."""
    def body():
        out = []
        repro.barrier()
        if repro.myrank() == 0:
            seen = []

            def nested(x):
                seen.append(x)
                return x + 1

            for fn in (lambda x: seen.append(x) or x + 1, nested):
                try:
                    out.append(repro.async_(1)(fn, 4).get())
                except SerializationError as exc:
                    out.append(type(exc))
            out.append(seen)
        repro.barrier()
        return out

    out = run_spmd(body, ranks=2, conduit=conduit, timeout=10.0)[0]
    if conduit == "smp":
        assert out == [5, 5, [4, 4]]
    else:
        assert out == [SerializationError, SerializationError, []]


@pytest.mark.parametrize("conduit", CONDUITS)
def test_named_functions_never_touch_pickle(conduit):
    """100 int-argument asyncs, a staticmethod's dotted qualname among
    them: ``pickle_fallbacks`` does not move on either side."""
    def body():
        me = repro.myrank()
        repro.barrier()
        before = my_stats().snapshot()["pickle_fallbacks"]
        got = None
        if me == 0:
            got = [repro.async_(1)(_echo, i << 20).get() for i in range(99)]
            got.append(repro.async_(1)(Box.held, 5).get())
        repro.barrier()
        return got, my_stats().snapshot()["pickle_fallbacks"] - before

    res = run_spmd(body, ranks=2, conduit=conduit)
    assert res[0][0] == [i << 20 for i in range(99)] + [("held", 5)]
    assert [moved for _got, moved in res] == [0, 0]


def test_proc_receiver_imports_a_module_only_the_sender_had(monkeypatch):
    """Like pickle, the receiver imports what the name needs."""
    monkeypatch.delitem(sys.modules, "colorsys", raising=False)

    def body():
        me = repro.myrank()
        had = "colorsys" in sys.modules
        repro.barrier()
        got = None
        if me == 0:
            import colorsys

            got = repro.async_(1)(colorsys.rgb_to_hls, 1.0, 0.0, 0.0).get()
        repro.barrier()
        return had, got, "colorsys" in sys.modules

    res = run_spmd(body, ranks=2, conduit="proc+socket")
    assert res[0] == (False, (0.0, 0.5, 1.0), True)
    assert res[1] == (False, None, True)


def test_proc_main_level_function_travels_by_name(tmp_path):
    script = tmp_path / "main_level.py"
    script.write_text(
        "import repro\n"
        "def double(x):\n"
        "    return x * 2\n"
        "def body():\n"
        "    out = None\n"
        "    if repro.myrank() == 0:\n"
        "        out = repro.async_(1)(double, 21).get()\n"
        "    repro.barrier()\n"
        "    st = repro.current_world().ranks[repro.myrank()].stats\n"
        "    return out, st.snapshot()['pickle_fallbacks']\n"
        "if __name__ == '__main__':\n"
        "    assert double.__module__ == '__main__'\n"
        "    print(repro.spmd(body, ranks=2, conduit='proc+socket'))\n"
    )
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        timeout=120, env={"PYTHONPATH": str(SRC), "PATH": ""},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[(42, 0), (None, 0)]"
