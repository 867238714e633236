#!/usr/bin/env python
"""Quickstart: the UPC++ programming model in five minutes.

Runs an SPMD region on 4 ranks and tours the core constructs of the
paper — shared objects, global pointers, one-sided copies, asyncs and
finish.  Ranks are threads of this process by default (the SMP
conduit); ``REPRO_CONDUIT=proc`` runs the same script on OS processes.

    python examples/quickstart.py
"""

import numpy as np

import repro


def square(x):
    # module-level: an async's function travels by name, so it runs on
    # either backend (a lambda only crosses threads, not processes)
    return x * x


def main():
    me = repro.myrank()
    n = repro.ranks()

    # --- shared scalar (paper §III-A): lives on rank 0, visible to all
    s = repro.SharedVar(np.int64, init=0)
    if me == 0:
        s.value = 42
    repro.barrier()
    assert s.value == 42

    # --- shared array: block-cyclic distribution, one-sided access
    sa = repro.SharedArray(np.int64, size=4 * n, block=2)
    for i in range(len(sa)):
        if sa.where(i) == me:       # write my elements
            sa[i] = i * i
    repro.barrier()
    if me == 0:
        print("shared array:", [int(sa[i]) for i in range(len(sa))])

    # --- global pointers and dynamic *remote* allocation (§III-C):
    # rank 0 builds a buffer in rank 1's memory and fills it.
    if me == 0 and n > 1:
        buf = repro.allocate(1, 8, np.float64)   # memory on rank 1!
        buf.put(np.linspace(0, 1, 8))
        print(f"remote buffer on rank {buf.where()}:", buf.get(8))
        repro.deallocate(buf)

    # --- bulk one-sided copy with completion events (§III-D)
    src = repro.allocate(me, 1024, np.uint8)
    dst = repro.allocate((me + 1) % n, 1024, np.uint8)
    done = repro.Event()
    repro.async_copy(src, dst, 1024, event=done)
    done.wait()

    # --- async remote function invocation + finish (§III-G)
    if me == 0:
        with repro.finish():
            futures = [repro.async_(r)(square, r) for r in range(n)]
        print("squares via asyncs:", [f.get() for f in futures])

    repro.barrier()
    return me


if __name__ == "__main__":
    results = repro.spmd(main, ranks=4)
    print("per-rank results:", results)
