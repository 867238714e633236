"""A latency/reordering conduit for concurrency hardening.

The SMP conduit delivers active messages instantly, which hides whole
classes of distributed-runtime bugs (replies racing requests, events
firing while dependents register, collectives overlapping asyncs).
:class:`DelayConduit` injects a randomized delivery delay per message —
messages from *different* sources interleave arbitrarily — while
preserving exactly the ordering guarantee GASNet gives and the runtime
is allowed to rely on: **FIFO between a fixed (source, destination)
pair**.

One-sided RMA stays immediate (RDMA semantics: it completes from the
initiator's perspective; the relaxed memory model already permits any
interleaving that synchronization doesn't forbid).

Tests run the full construct stack (asyncs, finish, events, locks,
collectives, sample sort) over this conduit; anything that silently
depended on instant delivery fails loudly here.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
import warnings

import numpy as np

from repro.gasnet.am import ActiveMessage
from repro.gasnet.smp import SmpConduit


class DelayConduit(SmpConduit):
    """The SMP conduit with a randomized, FIFO-preserving delivery delay.

    Only :meth:`deliver_encoded` differs: the send decision and its
    charge stay :meth:`~repro.gasnet.conduit.Conduit.send_am`'s, the
    delay is applied on the *sender* side, so per-(src, dst) FIFO holds,
    and expiry hands the already-encoded message to
    :meth:`SmpConduit.deliver_encoded`.  RMA is the SMP conduit's
    (RDMA semantics: immediate completion).
    """

    def __init__(self, base_delay: float = 0.0005,
                 jitter: float = 0.002, seed: int = 0):
        self.base_delay = base_delay
        self.jitter = jitter
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        self._heap: list = []
        self._seq = itertools.count()
        self._last_due: dict[tuple[int, int], float] = {}
        self._cv = threading.Condition(self._lock)
        self._stop = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_main, name="pgas-delay-dispatch",
            daemon=True,
        )
        self._dispatcher.start()

    # -- conduit surface ---------------------------------------------------
    def deliver_encoded(self, src: int, dst: int,
                        am: ActiveMessage) -> None:
        """Queue one already-charged AM for delayed delivery."""
        delay = self.base_delay + float(self._rng.random()) * self.jitter
        with self._lock:
            due = time.monotonic() + delay
            # per-(src,dst) FIFO: never due before a prior message
            key = (src, dst)
            due = max(due, self._last_due.get(key, 0.0))
            self._last_due[key] = due
            heapq.heappush(self._heap, (due, next(self._seq), dst, am))
            self._cv.notify()

    # -- dispatcher ---------------------------------------------------------
    def _dispatch_main(self) -> None:
        while True:
            with self._lock:
                while not self._stop and (
                        not self._heap or self._heap[0][0] > time.monotonic()):
                    self._cv.wait(max(0.0, self._heap[0][0] - time.monotonic())
                                  if self._heap else 0.05)
                if self._stop:
                    return
                due, _seq, dst, am = heapq.heappop(self._heap)
            try:
                super().deliver_encoded(am.src_rank, dst, am)
            except Exception:  # world torn down mid-flight
                return

    def close(self) -> None:
        """Stop the dispatcher and drain undelivered messages.

        The dispatcher thread is joined and **must** die; if it does not
        within the grace period we warn loudly instead of silently
        leaking a live thread.  Messages still queued (their delay had
        not elapsed) are not dropped: they are delivered immediately, in
        due order, so no send is silently lost at shutdown.
        """
        with self._lock:
            self._stop = True
            self._cv.notify_all()
        self._dispatcher.join(timeout=5.0)
        if self._dispatcher.is_alive():  # pragma: no cover - pathological
            warnings.warn(
                "DelayConduit dispatcher thread did not stop within 5s; "
                "a live dispatcher may still deliver into a dead world",
                RuntimeWarning,
                stacklevel=2,
            )
            self._dispatcher.join(timeout=5.0)
        with self._lock:
            stragglers = sorted(self._heap)
            self._heap.clear()
        for _due, _seq, dst, am in stragglers:
            try:
                super().deliver_encoded(am.src_rank, dst, am)
            except Exception:  # world already torn down
                break

    @property
    def pending_messages(self) -> int:
        """Messages queued but not yet delivered (test/diagnostic hook)."""
        with self._lock:
            return len(self._heap)
