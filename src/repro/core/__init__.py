"""The UPC++ programming model — the paper's primary contribution.

Public names are re-exported at the top level (:mod:`repro`); this
package holds the implementation, organized as in DESIGN.md §3.
"""

from repro.core.world import (
    World, RankState, spmd, current, try_current, die,
)
from repro.core.api import (
    myrank,
    ranks,
    MYTHREAD,
    THREADS,
    barrier,
    fence,
    advance,
    current_world,
    dead_ranks,
)
from repro.core.global_ptr import GlobalPtr, null_ptr
from repro.core.allocator import allocate, deallocate, escalate
from repro.core.shared_var import SharedVar
from repro.core.shared_array import SharedArray
from repro.core.copy import copy, async_copy, async_copy_fence, CopyHandle
from repro.core.event import Event
from repro.core.future import Future
from repro.core.async_task import async_, async_after, async_wait
from repro.core.finish import finish
from repro.core.team import Team
from repro.core.lock import GlobalLock
from repro.core import collectives
from repro.core.directory import Directory
from repro.core.workqueue import DistWorkQueue

__all__ = [
    "World", "RankState", "spmd", "current", "try_current", "die",
    "myrank", "ranks", "MYTHREAD", "THREADS",
    "barrier", "fence", "advance", "current_world",
    "dead_ranks",
    "GlobalPtr", "null_ptr", "allocate", "deallocate", "escalate",
    "SharedVar", "SharedArray",
    "copy", "async_copy", "async_copy_fence", "CopyHandle",
    "Event", "Future", "async_", "async_after", "async_wait",
    "finish", "Team", "GlobalLock", "collectives", "Directory",
    "DistWorkQueue",
]
