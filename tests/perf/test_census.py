"""The call census: what a public op costs the interpreter, counted, not
timed.

Each cell is one op on one backend, 2 ranks: the Python calls of
functions defined in the ``repro`` package on each rank's thread
(``sys.setprofile`` "call" events; a name in ``<...>`` is skipped, since
comprehensions are inlined on Python 3.12 but not on 3.10), from the
first counted op to the end of the closing barrier, per op; a rank that
only serves counts from the start of the opening barrier, so that no op
it serves escapes the count.  A count repeats to about 0.1 call between
runs and machines, where microseconds do not.

A cell pins each rank at the whole number of calls its op costs: the
count, with the closing barrier's share (a fraction of a call), stays
below the pin plus one, so one more call per op crosses it.  (Where a
wait makes the count move between runs, the pin is the top of the
measured range.)  No op enters NumPy's or the standard library's
wrapper frames (:data:`WRAPPERS`), nor ``CommStats.add``: a per-op
counter charge goes through a fixed-argument recorder.  Where one
rank serves the other (an rpc, a GUPS window) the server's count is per
op it served, and a ``None`` pin leaves it unpinned.  A failed cell
prints its calls per op by module, so the change that moved it can see
where.

To re-pin: a change that adds a call to an op raises the pin to its new
count and says why in CHANGES.md; one that removes a call lowers it.
"""

from __future__ import annotations

import collections
import functools
import os
import sys
from typing import NamedTuple

import numpy as np
import pytest

import repro
from repro.gasnet.stats import CommStats
from tests.conftest import run_spmd

#: An op entering one of these (NumPy's Python ``max()`` / ``min()``
#: bodies, a ``nullcontext`` standing in for a guard) is a regression,
#: not a re-pin.
WRAPPERS = (os.path.join("_core", "_methods.py"), "contextlib")

#: ``CommStats.add`` (a kwargs dict, a name check, a loop) is for cold
#: paths; an op entering it is a regression, not a re-pin.
COLD_ADD = CommStats.add.__code__


def _echo(x):
    # module-level: an async's function crosses processes by name
    return x


def _rpc(i):
    return repro.async_(1)(_echo, i).get()


def _finish_rpc(i):
    with repro.finish():
        repro.async_(1)(_echo, i)


def _after():
    """``async_after`` on an event signalled before the op: it launches
    at the call, through the same ``_launch`` as ``async_``."""
    fired = repro.Event()
    fired.incref()
    fired.signal()
    return lambda i: repro.async_after(1, fired)(_echo, i).get()


def _barrier(i):
    repro.barrier()


def _allreduce(i):
    return repro.collectives.allreduce(i, "sum")


def _gups():
    """The ``gups_proc`` window: ``atomic_batch(idx, "xor", vals)`` with
    256 int64 indices into a 2**16-element uint64 table, ``block=1``, so
    about half of each window is rank 1's.  Collective: every rank
    builds it."""
    sa = repro.SharedArray(np.uint64, 1 << 16, block=1)
    sa.fill_local(0)
    rng = np.random.default_rng(44)
    idx = rng.integers(0, 1 << 16, (8, 256), dtype=np.int64)
    vals = rng.integers(1, 1 << 63, (8, 256), dtype=np.uint64)
    return lambda i: sa.atomic_batch(idx[i % 8], "xor", vals[i % 8])


def _kv(kind: str):
    """The kv workloads' map, ``DistHashMap(cache=True, replicas=1)``
    (collective), and one op on a key of theirs whose primary is rank 1
    and whose backup is rank 0: a replicated ``put`` of a 64 B value, a
    ``get`` its read cache serves, a ``get`` after ``invalidate_cache()``
    (``get_miss``: one kv_get round trip), or an ``update(key, "add",
    1)``; or a ``refresh()`` of the whole map.  ``get_local`` reads a key
    whose primary is rank 0 itself."""
    def make():
        kv = repro.DistHashMap(cache=True, replicas=1)
        owner = 0 if kind == "get_local" else 1
        key = next(key for key in (f"key:{k:06d}" for k in range(64))
                   if kv.owner_of(key) == owner)
        value = bytes(range(64))
        if repro.myrank() == 0:
            kv.put(key, 0 if kind == "update" else value)
        if kind == "put":
            return lambda i: kv.put(key, value)
        if kind in ("get", "get_local"):
            return lambda i: kv.get(key)
        if kind == "get_miss":
            def get_miss(i):
                kv.invalidate_cache()
                return kv.get(key)
            return get_miss
        if kind == "refresh":
            return lambda i: kv.refresh()
        return lambda i: kv.update(key, "add", 1)
    return make


def _element(kind: str):
    """``sa[1]`` or ``sa[1] = i`` on a cyclic array: element 1 is rank
    1's.  Collective: every rank builds it."""
    def make():
        sa = repro.SharedArray(np.int64, 4, block=1)
        if kind == "get":
            return lambda i: sa[1]
        def put(i):
            sa[1] = i
        return put
    return make


class Cell(NamedTuple):
    op: str
    conduit: str
    telemetry: str
    pins: tuple     # calls per op, per rank (None: unpinned)

    def __str__(self) -> str:
        return f"{self.op}-{self.conduit}-{self.telemetry}"


#: op -> (make the op on every rank, ops counted, only rank 0 issues it)
OPS = {
    "rpc": (lambda: _rpc, 500, True),
    "finish_rpc": (lambda: _finish_rpc, 500, True),
    "after_rpc": (_after, 500, True),
    "gups": (_gups, 200, True),
    "kv_put": (_kv("put"), 600, True),
    "kv_get": (_kv("get"), 500, True),
    "kv_get_local": (_kv("get_local"), 500, True),
    "kv_get_miss": (_kv("get_miss"), 500, True),
    "kv_update": (_kv("update"), 600, True),
    "kv_refresh": (_kv("refresh"), 300, False),
    "sa_get": (_element("get"), 500, True),
    "sa_put": (_element("put"), 500, True),
    "barrier": (lambda: _barrier, 300, False),
    "allreduce": (lambda: _allreduce, 300, False),
}

CELLS = [
    # async_(1)(echo, i).get(): caller / target
    Cell("rpc", "smp", "off", (39, 31)),
    Cell("rpc", "proc+socket", "off", (38, 31)),
    Cell("rpc", "smp", "flight", (42, 37)),
    Cell("rpc", "proc+socket", "flight", (41, 37)),
    # with finish(): async_(1)(echo, i) -- the scope's wait, not get()
    Cell("finish_rpc", "smp", "off", (50, 31)),
    Cell("finish_rpc", "proc+socket", "off", (49, 31)),
    # async_after(1, fired)(echo, i).get(), the event already signalled
    Cell("after_rpc", "smp", "off", (40, 31)),
    Cell("after_rpc", "proc+socket", "off", (39, 31)),
    # SharedArray.atomic_batch, one 256-update window; rank 1 runs
    # nothing for it (the RMA is one-sided)
    Cell("gups", "smp", "off", (15, None)),
    Cell("gups", "proc+socket", "off", (15, None)),
    Cell("gups", "smp", "flight", (16, None)),
    Cell("gups", "proc+socket", "flight", (16, None)),
    # DistHashMap(cache=True, replicas=1), a key rank 1 serves: caller /
    # primary, under the kv workloads' flight telemetry
    Cell("kv_put", "smp", "flight", (100, 93)),
    Cell("kv_put", "proc+socket", "flight", (99, 92)),
    Cell("kv_get", "smp", "flight", (6, 0)),
    Cell("kv_get", "proc+socket", "flight", (6, 0)),
    # get_local: a key rank 0 serves itself
    Cell("kv_get_local", "smp", "flight", (6, 0)),
    Cell("kv_get_local", "proc+socket", "flight", (6, 0)),
    # invalidate_cache() (3 calls) and the get's kv_get round trip
    Cell("kv_get_miss", "smp", "flight", (59, 44)),
    Cell("kv_get_miss", "proc+socket", "flight", (58, 44)),
    Cell("kv_get_miss", "smp", "off", (55, 44)),
    Cell("kv_get_miss", "proc+socket", "off", (54, 44)),
    Cell("kv_update", "smp", "flight", (114, 107)),
    Cell("kv_update", "proc+socket", "flight", (113, 106)),
    # the replicated put and update with telemetry off: flight's share
    # of a replicated write is the difference from their flight cells
    Cell("kv_put", "smp", "off", (96, 93)),
    Cell("kv_put", "proc+socket", "off", (95, 92)),
    Cell("kv_update", "smp", "off", (110, 107)),
    Cell("kv_update", "proc+socket", "off", (109, 106)),
    # refresh() on both ranks: each surveys the other (one kv_roles AM)
    # and serves the other's survey.  On proc the count moves with how
    # often the survey's wait polls before the answer is in: 73.0-75.5
    Cell("kv_refresh", "smp", "flight", (71, 71)),
    Cell("kv_refresh", "proc+socket", "flight", (75, 75)),
    # with telemetry off: on proc 68.7-71.2 measured
    Cell("kv_refresh", "smp", "off", (69, 69)),
    Cell("kv_refresh", "proc+socket", "off", (71, 71)),
    # sa[1] and sa[1] = i: one-sided, so rank 1 runs nothing for it
    Cell("sa_get", "smp", "off", (10, 0)),
    Cell("sa_get", "proc+socket", "off", (10, 0)),
    Cell("sa_put", "smp", "off", (10, 0)),
    Cell("sa_put", "proc+socket", "off", (10, 0)),
    Cell("sa_get", "smp", "flight", (11, 0)),
    Cell("sa_get", "proc+socket", "flight", (11, 0)),
    Cell("sa_put", "smp", "flight", (11, 0)),
    Cell("sa_put", "proc+socket", "flight", (11, 0)),
    # every rank calls it.  A proc barrier costs one more poll when its
    # peer's token is not in yet as it starts to wait: 44.2-46.2 measured
    Cell("barrier", "smp", "off", (43, 43)),
    Cell("barrier", "proc+socket", "off", (46, 46)),
    Cell("allreduce", "smp", "off", (57, 56)),
    Cell("allreduce", "proc+socket", "off", (57, 56)),
    # under flight telemetry: both wait in the progress engine, and a
    # proc barrier measured 49.1-51.2
    Cell("barrier", "smp", "flight", (48, 48)),
    Cell("barrier", "proc+socket", "flight", (51, 51)),
    Cell("allreduce", "smp", "flight", (62, 61)),
    Cell("allreduce", "proc+socket", "flight", (62, 61)),
]


def _count(name: str):
    """On this rank: calls per op of ``OPS[name]``, the calls per op by
    module, and the wrapper frames (and ``CommStats.add``) entered."""
    make, n, client_only = OPS[name]
    op = make()
    root = os.path.dirname(repro.__file__) + os.sep
    runs = not client_only or repro.myrank() == 0
    for i in range(100 if runs else 0):
        op(i)
    repro.barrier()             # the warm-up is served everywhere
    calls: collections.Counter = collections.Counter()
    wrappers = set()

    def count(frame, event, arg):
        if event == "call":
            code = frame.f_code
            path = code.co_filename
            if path.startswith(root):
                if not code.co_name.startswith("<"):
                    calls[path[len(root):]] += 1
                if code is COLD_ADD:
                    wrappers.add("CommStats.add")
            elif any(w in path for w in WRAPPERS):
                wrappers.add(f"{path}:{code.co_name}")

    try:
        if not runs:
            # A serving rank counts from before the opening barrier: the
            # client may send its first op as it leaves the barrier.
            sys.setprofile(count)
        repro.barrier()
        sys.setprofile(count)
        for i in range(n if runs else 0):
            op(i)
        repro.barrier()
    finally:
        sys.setprofile(None)
    return (sum(calls.values()) / n,
            {module: c / n for module, c in calls.most_common()},
            sorted(wrappers))


def _census(names):
    return {name: _count(name) for name in names}


@functools.lru_cache(maxsize=None)
def _run(conduit: str, telemetry: str) -> dict:
    """Every op of one (backend, telemetry) pair, counted in one world:
    op -> per rank ``(count, split, wrappers)``."""
    names = [c.op for c in CELLS
             if (c.conduit, c.telemetry) == (conduit, telemetry)]
    per_rank = run_spmd(functools.partial(_census, names), ranks=2,
                        conduit=conduit, telemetry=telemetry)
    return {name: [got[name] for got in per_rank] for name in names}


@pytest.mark.parametrize("cell", CELLS, ids=str)
def test_a_cell_costs_its_pinned_calls(cell):
    ranks = _run(cell.conduit, cell.telemetry)[cell.op]
    for rank, ((count, split, wrappers), pin) in enumerate(
            zip(ranks, cell.pins)):
        assert not wrappers, f"rank {rank} entered {wrappers}"
        if pin is not None:
            assert count < pin + 1, (
                f"{cell}: {count:.2f} calls per op on rank {rank}, "
                f"pinned at {pin}; by module: "
                + ", ".join(f"{m} {c:.2f}" for m, c in split.items()))
