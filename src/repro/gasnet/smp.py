"""The SMP conduit: ranks are threads, the "wire" is shared memory.

One-sided RMA is a direct, locked access to the peer's segment buffer
(:class:`~repro.gasnet.conduit.Conduit`'s own ``rma_*`` ops) — a
faithful model of RDMA (the target CPU executes nothing).  Active
messages are appended to the target's inbox deque and its doorbell is
rung (``Conduit.wake``) so a parked waiter wakes up.

Optional fault injection (:attr:`Conduit.fail_next_am`) lets tests
exercise the failure-propagation paths without contriving real crashes.
"""

from __future__ import annotations

from repro.gasnet.am import ActiveMessage
from repro.gasnet.conduit import Conduit


class SmpConduit(Conduit):
    """Threads-as-ranks conduit (the default real executor)."""

    def deliver_encoded(self, src: int, dst: int,
                        am: ActiveMessage) -> None:
        self.world.ranks[dst].deliver(am)
