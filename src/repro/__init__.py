"""PyPGAS — a Python reproduction of *UPC++: A PGAS Extension for C++*
(Zheng, Kamil, Driscoll, Shan, Yelick — IPDPS 2014).

The public API mirrors the paper's ``upcxx`` namespace:

.. code-block:: python

    import numpy as np
    import repro

    def main():
        sa = repro.SharedArray(np.int64, size=100)   # shared_array<int64>
        if repro.myrank() == 0:
            sa[0] = 1                                # one-sided put
        repro.barrier()
        with repro.finish():
            repro.async_(1)(print, "hello from an async on rank 1")
        return sa[0]                                 # one-sided get

    repro.spmd(main, ranks=4)

Sub-packages: :mod:`repro.core` (the UPC++ model), :mod:`repro.arrays`
(Titanium-style multidimensional arrays), :mod:`repro.containers`
(distributed data structures), :mod:`repro.gasnet` (the
communication substrate), :mod:`repro.compat` (UPC and MPI veneers),
:mod:`repro.sim` (machine performance models), :mod:`repro.bench` (the
paper's five case studies).
"""

from repro.core import (
    CopyHandle,
    Directory,
    DistWorkQueue,
    Event,
    Future,
    GlobalLock,
    GlobalPtr,
    MYTHREAD,
    SharedArray,
    SharedVar,
    THREADS,
    Team,
    advance,
    allocate,
    async_,
    async_after,
    async_copy,
    async_copy_fence,
    async_wait,
    barrier,
    collectives,
    copy,
    current_world,
    dead_ranks,
    deallocate,
    die,
    escalate,
    fence,
    finish,
    myrank,
    null_ptr,
    ranks,
    spmd,
)
from repro.containers import DistHashMap, DistQueue
from repro.errors import (
    BadPointer,
    CommTimeout,
    DomainError,
    NotInSpmdRegion,
    PeerFailure,
    PgasError,
    RankDead,
    SegmentOutOfMemory,
    SerializationError,
    TransientCommError,
)

__version__ = "0.1.0"

__all__ = [
    "spmd", "myrank", "ranks", "MYTHREAD", "THREADS",
    "barrier", "fence", "advance", "current_world",
    "dead_ranks",
    "GlobalPtr", "null_ptr", "allocate", "deallocate", "escalate",
    "SharedVar", "SharedArray", "Directory",
    "copy", "async_copy", "async_copy_fence", "CopyHandle",
    "Event", "Future", "async_", "async_after", "async_wait", "finish",
    "Team", "GlobalLock", "collectives", "DistWorkQueue",
    "DistHashMap", "DistQueue",
    "PgasError", "NotInSpmdRegion", "PeerFailure", "SegmentOutOfMemory",
    "BadPointer", "CommTimeout", "SerializationError", "DomainError",
    "TransientCommError", "RankDead", "die",
    "__version__",
]
