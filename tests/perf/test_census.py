"""The call census: what a public op costs the interpreter, counted, not
timed.

Each cell is one op on one backend, 2 ranks: the Python calls of
functions defined in the ``repro`` package on each rank's thread
(``sys.setprofile`` "call" events; a name in ``<...>`` is skipped, since
comprehensions are inlined on Python 3.12 but not on 3.10), from the
first counted op to the end of the closing barrier, per op.  A count
repeats to about 0.1 call between runs and machines, where
microseconds do not.

A cell pins each rank at the whole number of calls its op costs: the
count, with the closing barrier's share (a fraction of a call), stays
below the pin plus one, so one more call per op crosses it.  (Where a
wait makes the count move between runs, the pin is the top of the
measured range.)  No op enters NumPy's or the standard library's
wrapper frames (:data:`WRAPPERS`).  Where one
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
from tests.conftest import run_spmd

#: An op entering one of these (NumPy's Python ``max()`` / ``min()``
#: bodies, a ``nullcontext`` standing in for a guard) is a regression,
#: not a re-pin.
WRAPPERS = (os.path.join("_core", "_methods.py"), "contextlib")


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
    ``get`` its read cache serves, or an ``update(key, "add", 1)``."""
    def make():
        kv = repro.DistHashMap(cache=True, replicas=1)
        key = next(key for key in (f"key:{k:06d}" for k in range(64))
                   if kv.owner_of(key) == 1)
        value = bytes(range(64))
        if repro.myrank() == 0:
            kv.put(key, 0 if kind == "update" else value)
        if kind == "put":
            return lambda i: kv.put(key, value)
        if kind == "get":
            return lambda i: kv.get(key)
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
    "kv_update": (_kv("update"), 600, True),
    "sa_get": (_element("get"), 500, True),
    "sa_put": (_element("put"), 500, True),
    "barrier": (lambda: _barrier, 300, False),
    "allreduce": (lambda: _allreduce, 300, False),
}

CELLS = [
    # async_(1)(echo, i).get(): caller / target
    Cell("rpc", "smp", "off", (40, 32)),
    Cell("rpc", "proc+socket", "off", (40, 33)),
    Cell("rpc", "smp", "flight", (50, 48)),
    Cell("rpc", "proc+socket", "flight", (50, 49)),
    # with finish(): async_(1)(echo, i) -- the scope's wait, not get()
    Cell("finish_rpc", "smp", "off", (51, 32)),
    Cell("finish_rpc", "proc+socket", "off", (51, 33)),
    # async_after(1, fired)(echo, i).get(), the event already signalled
    Cell("after_rpc", "smp", "off", (41, 32)),
    Cell("after_rpc", "proc+socket", "off", (41, 33)),
    # SharedArray.atomic_batch, one 256-update window; rank 1 runs
    # nothing for it (the RMA is one-sided)
    Cell("gups", "smp", "off", (15, None)),
    Cell("gups", "proc+socket", "off", (15, None)),
    # DistHashMap(cache=True, replicas=1), a key rank 1 serves: caller /
    # primary, under the kv workloads' flight telemetry.  A primary that
    # leaves the opening barrier after the first put arrives does not
    # count it: the smp update primary reads 128.92 (129.1 less a 600th)
    Cell("kv_put", "smp", "flight", (127, 115)),
    Cell("kv_put", "proc+socket", "flight", (128, 116)),
    Cell("kv_get", "smp", "flight", (14, 0)),
    Cell("kv_get", "proc+socket", "flight", (14, 0)),
    Cell("kv_update", "smp", "flight", (142, 129)),
    Cell("kv_update", "proc+socket", "flight", (143, 130)),
    # sa[1] and sa[1] = i: one-sided, so rank 1 runs nothing for it
    Cell("sa_get", "smp", "off", (10, 0)),
    Cell("sa_get", "proc+socket", "off", (10, 0)),
    Cell("sa_put", "smp", "off", (10, 0)),
    Cell("sa_put", "proc+socket", "off", (10, 0)),
    # every rank calls it.  A proc barrier costs one more poll when its
    # peer's token is not in yet as it starts to wait: 46.2-48.2 measured
    Cell("barrier", "smp", "off", (44, 44)),
    Cell("barrier", "proc+socket", "off", (48, 48)),
    Cell("allreduce", "smp", "off", (58, 57)),
    Cell("allreduce", "proc+socket", "off", (59, 58)),
]


def _count(name: str):
    """On this rank: calls per op of ``OPS[name]``, the calls per op by
    module, and the wrapper frames entered."""
    make, n, client_only = OPS[name]
    op = make()
    root = os.path.dirname(repro.__file__) + os.sep
    runs = not client_only or repro.myrank() == 0
    for i in range(100 if runs else 0):
        op(i)
    repro.barrier()
    calls: collections.Counter = collections.Counter()
    wrappers = set()

    def count(frame, event, arg):
        if event == "call":
            code = frame.f_code
            path = code.co_filename
            if path.startswith(root):
                if not code.co_name.startswith("<"):
                    calls[path[len(root):]] += 1
            elif any(w in path for w in WRAPPERS):
                wrappers.add(f"{path}:{code.co_name}")

    sys.setprofile(count)
    try:
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
