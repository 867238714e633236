"""A partitioning conduit for crash-stop fault tests.

:class:`DelayConduit` scrambles message *timing*; :class:`ChaosConduit`
can cut one rank off mid-run (:meth:`ChaosConduit.kill_rank`): every AM
to or from it is dropped and every RMA touching it raises
:class:`~repro.errors.TransientCommError`, while the rank's thread keeps
running.  That is a zombie — alive, but silent to its peers — so the
survivors must find it through the world's failure detector (its
probes go unanswered) rather than through the in-process dead flag
:func:`repro.die` sets.  The fencing tests need exactly that.

The fault model is crash-stop: a rank either works or dies.  Nothing
here drops, duplicates or reorders a message between two live ranks,
so no delivery protocol is stacked on top.  Each kill is logged (see
:meth:`ChaosConduit.fault_schedule`) and reported to an active
:class:`~repro.gasnet.trace.Trace` as a ``chaos_kill`` control event.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.errors import PgasError, TransientCommError
from repro.gasnet.am import ActiveMessage
from repro.gasnet.conduit import Conduit, ConduitLayer
from repro.gasnet.trace import CommEvent


class ChaosConduit(ConduitLayer):
    """Conduit wrapper that can partition a rank.

    Wraps any in-process backend (default: a fresh
    :class:`~repro.gasnet.smp.SmpConduit`) and hands the AMs of live
    ranks to the inner conduit's
    :meth:`~repro.gasnet.conduit.Conduit.deliver_encoded` unchanged.
    Requires ``inner.caps.in_process_hooks``: a partition needs one
    process-wide view of the wire (a cross-process backend would let
    each rank keep its own divergent set of killed ranks).
    """

    def __init__(self, inner: Conduit | None = None):
        if inner is None:
            from repro.gasnet.smp import SmpConduit

            inner = SmpConduit()
        if not inner.caps.in_process_hooks:
            raise PgasError(
                f"ChaosConduit needs an in-process backend "
                f"(inner {type(inner).__name__} has "
                f"in_process_hooks=False)"
            )
        super().__init__(inner)
        self._chaos_lock = threading.Lock()
        #: Bounded trace of every injected fault, ``(t_rel, kind, src,
        #: dst, detail)`` with ``t_rel`` seconds since construction —
        #: the run's *fault schedule* (what was injected, when, to
        #: whom), exportable via :meth:`fault_schedule` for post-mortem
        #: diagnosis.
        self.fault_log: deque[tuple[float, str, int, int, str]] = (
            deque(maxlen=4096)
        )
        self._t0 = time.monotonic()
        # perf_counter epoch taken at the same instant as _t0, so the
        # monotonic-relative fault log can be rebased onto the flight
        # recorder's perf_counter timeline (see fault_events()).
        self._t0_perf = time.perf_counter()
        self._killed: set[int] = set()

    # -- failure control ---------------------------------------------------
    def kill_rank(self, rank: int) -> None:
        """Sever ``rank``'s connectivity: every AM and RMA to or from it
        is dropped/raises from now on (the rank's thread keeps running —
        it is partitioned, not stopped)."""
        with self._chaos_lock:
            self._killed.add(rank)
        self._log_fault("chaos_kill", rank, rank, "partitioned")
        self._emit_control("chaos_kill", rank, rank, detail="partitioned")

    def is_killed(self, rank: int) -> bool:
        with self._chaos_lock:
            return rank in self._killed

    # -- fault log ---------------------------------------------------------
    def _log_fault(self, kind: str, src: int, dst: int,
                   detail: str = "") -> None:
        self.fault_log.append(
            (time.monotonic() - self._t0, kind, src, dst, detail)
        )

    def fault_schedule(self) -> dict:
        """The run's injected-fault trace: ``{"faults"}``, a list of
        ``(t_rel, kind, src, dst, detail)`` records (bounded to the most
        recent 4096)."""
        return {"faults": list(self.fault_log)}

    def fault_events(self) -> list:
        """The fault schedule as events (``chaos_*`` instants on the
        perf_counter timeline), ready to splice into a merged flight
        dump — injected faults then appear inline between the runtime
        events they caused."""
        return [
            CommEvent(t=self._t0_perf + t_rel,
                      rank=src if src >= 0 else dst,
                      kind=kind, src=src, dst=dst, detail=detail)
            for (t_rel, kind, src, dst, detail) in self.fault_log
        ]

    def _cut(self, src: int, dst: int) -> int | None:
        """The partitioned end of ``src -> dst``, or None."""
        with self._chaos_lock:
            if dst in self._killed:
                return dst
            if src in self._killed:
                return src
        return None

    # -- active messages ---------------------------------------------------
    send_am = Conduit.send_am

    def deliver_encoded(self, src: int, dst: int,
                        am: ActiveMessage) -> None:
        """Drop an already-charged AM to or from a partitioned rank;
        pass everything else down."""
        if src != dst and self._cut(src, dst) is not None:
            return
        self._inner.deliver_encoded(src, dst, am)

    # -- one-sided RMA -----------------------------------------------------
    def _rma(self, kind: str, fn, src: int, dst: int, *args):
        bad = self._cut(src, dst)
        if bad is not None:
            raise TransientCommError(
                f"chaos: rank {bad} unreachable ({kind} {src}->{dst})"
            )
        return fn(src, dst, *args)
