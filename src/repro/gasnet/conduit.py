"""Conduit interface — what a network must provide to the UPC++ runtime.

A conduit moves bytes and active messages between ranks.  Its contracts:

* ``rma_put``/``rma_get``/``rma_atomic`` are **one-sided**: they complete
  without the target executing any code (RDMA semantics).  Each is
  atomic on its *target* segment; the initiator's side is not locked —
  ``rma_put`` reads ``data`` and ``rma_get(out=)`` fills ``out`` as plain
  memory, which is what lets both be owner-side segment views.
* ``send_am`` is **asynchronous**: delivery enqueues the message at the
  target; execution happens at the target's next progress call.
* **Progress is the target's**: an AM arrives when its target polls
  (``poll`` / ``wake``, GASNet's ``AMPoll``, by the park contract in
  :mod:`repro.core.progress`), and no backend receives on a rank's
  behalf — so where the transport is bounded (proc) a rank that
  computes without calling the runtime throttles its senders instead of
  growing an inbox (**back-pressure**; ``thread_mode="concurrent"`` is
  the remedy), and **a blocked sender polls** (GASNet's rule), or two
  ranks flooding each other would deadlock.
* Point-to-point AM ordering between a fixed (src, dst) pair is FIFO —
  the guarantee GASNet provides and the runtime relies on.
* ``rma_put_indexed``/``rma_get_indexed``/``rma_atomic_batch`` are the
  **indexed bulk** primitives behind the batched RMA engine: one call
  moves/updates a whole vector of same-rank elements.

**The fault model is crash-stop.**  Between two live ranks every AM is
delivered exactly once, in pair order, and every RMA completes — as
GASNet gives UPC++ (paper §IV), so the runtime adds no retransmission
layer of its own.  What can fail is a rank: it dies (:func:`repro.die`,
a killed process) or hangs (it stops polling, so its peers' probes go
unanswered), the world's one failure detector declares it dead, and
every request to it fails with :class:`~repro.errors.RankDead` — at the
call once the death is known, else when it is declared.  A send a transport cannot
complete (proc's stalled receiver, a closed socket) raises
:class:`~repro.errors.TransientCommError` at the caller.

Its executable form is ``tests/gasnet/test_contract_model.py``: a state
machine over bare endpoints, then generated SPMD programs per backend.

**Each op is written once, here.**  Every backend maps every rank's
segment into the calling process (threads over one heap, or processes
over ``multiprocessing.shared_memory``), so the six ``rma_*`` ops are
direct segment accesses in :class:`Conduit` itself, and a backend
writes only its transport: ``deliver_encoded``, ``poll``, ``wake``,
``attach`` and ``close``.  Each op is charged to the initiator's
:class:`~repro.gasnet.stats.CommStats` and observed at the same site:
while the initiator has sinks (``RankState.sinks``: its flight ring, an
open :class:`~repro.gasnet.trace.Trace`) the op's
:class:`~repro.gasnet.trace.CommEvent`, built once, goes to each of them
when it returns or raises; liveness probes (:data:`~repro.gasnet.am.PROBES`)
stay out.  With no sinks the cost is one test of an empty tuple.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import PgasError
from repro.gasnet.am import PROBES, ActiveMessage
from repro.gasnet.trace import context, new_event
from repro.gasnet.wire import encode_am

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.world import World


@dataclass(frozen=True)
class ConduitCaps:
    """Capability flags a conduit advertises to the runtime and to tests.

    The backend factory (:mod:`repro.gasnet.backends`) and the runtime
    consult these instead of isinstance checks, so new backends compose
    with the existing stack by declaring what they can do.
    """

    #: Ranks live in separate OS processes: objects cannot be shared by
    #: reference across the conduit, and per-process state (handler
    #: interning, telemetry rings) is not globally visible.
    cross_process: bool = False
    #: spmd() must go through the process launcher: the conduit cannot
    #: be instantiated standalone in the calling process.
    needs_launcher: bool = False


class Conduit(abc.ABC):
    """Abstract network conduit."""

    world: "World | None" = None
    #: Default capability set (in-process, full-featured); backends
    #: override the class attribute.
    caps: ConduitCaps = ConduitCaps()
    #: Test hook: when set, the next :meth:`send_am` raises it.
    fail_next_am: Exception | None = None

    def attach(self, world: "World") -> None:
        """Bind the conduit to a world (called by the world constructor)."""
        self.world = world

    def close(self) -> None:
        """Release conduit resources (threads, buffers) at world teardown.

        Called by :func:`repro.spmd` after all ranks joined; the default
        is a no-op so simple conduits need not define it.
        """

    # -- shared helpers ------------------------------------------------------
    def _out_of_range(self, r: int):
        """Raise the error for rank ``r``: each op tests ``0 <= dst <
        n_ranks`` inline and calls this only when it fails."""
        raise PgasError(f"rank {r} out of range [0, {self.world.n_ranks})")

    def _observe(self, t0: float, kind: str, src: int, dst: int,
                 nbytes: int, detail: str = "") -> None:
        """Hand one RMA op's event, tagged with the thread's trace, to
        the initiator's sinks, and its duration since ``t0`` (``"full"``
        only) to its latency histogram; as :meth:`send_am` does inline."""
        rank = self.world.ranks[src]
        t = perf_counter()
        if t0:
            rank.telemetry.record_op(kind, t - t0)
        ev = new_event((t, src, kind, src, dst, nbytes, detail,
                        context.ids[0]))
        for sink in rank.sinks:
            sink(ev)

    # -- active messages ------------------------------------------------
    def send_am(self, src: int, dst: int, am: ActiveMessage) -> None:
        """Deliver ``am`` into rank ``dst``'s inbox.

        The send decision, made once per AM: the :attr:`fail_next_am`
        hook, the ``dst`` range check, the encode unless the AM has its
        frame already (so the frame exists before delivery), one charge
        to the sender's stats, then :meth:`deliver_encoded`; however it
        ends, the AM's event goes to the sender's sinks, probes aside.
        ``src`` is the caller's own rank."""
        world = self.world
        rank = world.ranks[src]
        sinks = rank.sinks
        t0 = perf_counter() if sinks and rank.telemetry.full else 0.0
        nbytes = 0
        try:
            if self.fail_next_am is not None:
                exc, self.fail_next_am = self.fail_next_am, None
                raise exc
            if not 0 <= dst < world.n_ranks:
                self._out_of_range(dst)
            frame = am._frame
            if frame is None:
                frame = encode_am(am, rank.telemetry)
            nbytes = frame.nbytes
            rank.stats.record_am_wire(
                nbytes, frame.used_pickle, frame.has_refs, am.is_reply)
            self.deliver_encoded(src, dst, am)
        finally:
            if sinks and am.handler not in PROBES:
                kind = "reply" if am.is_reply else "am"
                t = perf_counter()
                if t0:
                    rank.telemetry.record_op(kind, t - t0)
                ev = new_event((t, src, kind, src, dst, nbytes, am.handler,
                                am.trace_id))
                for sink in sinks:
                    sink(ev)

    @abc.abstractmethod
    def deliver_encoded(self, src: int, dst: int,
                        am: ActiveMessage) -> None:
        """Transport an AM that :meth:`send_am` already encoded and
        charged to ``dst``: the one op a backend must write."""

    def poll(self, rank: int, timeout: float = 0.0) -> bool:
        """Move what has arrived for ``rank`` into its inbox, parking up to
        ``timeout`` for the first byte; returns whether the inbox holds
        anything.  Only threads that dispatch for ``rank`` call it, so a
        backend may dispatch a reply here when nothing is queued before
        it.  This default, for conduits whose ``send_am`` appends to the
        inbox, parks on the rank's doorbell (:mod:`repro.core.progress`)."""
        rk = self.world.ranks[rank]
        if timeout > 0.0:
            bell = rk._bell
            bell.acquire(False)
            if rk._poked:
                rk._poked = False
            elif not rk._inbox:
                bell.acquire(True, timeout)
        return bool(rk._inbox)

    def wake(self, rank: int) -> None:
        """Ring ``rank``'s doorbell (release it): a thread parked in
        :meth:`poll` comes back; a ring already pending stays one ring."""
        bell = self.world.ranks[rank]._bell
        if bell.locked():
            try:
                bell.release()
            except RuntimeError:
                pass  # a racing wake rang it first

    # -- one-sided RMA ---------------------------------------------------
    #
    # Direct segment access: one conduit call and one target-lock
    # acquisition per (batched) op, the "wire" carrying a whole index
    # vector as a NIC's gather/scatter does.  A batched op counts once
    # as a conduit operation but per element as remote accesses, so
    # access-locality metrics (GUPS remote_fraction) stay comparable
    # across batched and scalar paths.  ``src`` is the caller's own
    # rank.

    def rma_put(self, src: int, dst: int, offset: int,
                data: np.ndarray) -> None:
        """Write ``data`` into ``dst``'s segment at ``offset``.

        ``data`` is consumed before the call returns (one copy under
        the target's lock; nothing defers or retains it), so callers may
        pass a live view of their own segment."""
        world = self.world
        sinks = world.ranks[src].sinks
        t0 = perf_counter() if sinks and world.telemetry.full else 0.0
        try:
            if not 0 <= dst < world.n_ranks:
                self._out_of_range(dst)
            ranks = world.ranks
            nbytes = ranks[dst].segment.typed_write(offset, data)
            ranks[src].stats.record_put(nbytes)
        finally:
            if sinks:
                self._observe(t0, "put", src, dst, data.nbytes)

    def rma_get(self, src: int, dst: int, offset: int,
                dtype: np.dtype, count: int,
                out: np.ndarray | None = None) -> np.ndarray:
        """Read ``count`` elements of ``dtype`` from ``dst``'s segment.

        Returns a fresh array, or — when ``out`` (writable, C-contiguous,
        the same byte length) is given — reads straight into ``out`` and
        returns it.  Idempotent either way, so it may be retried whole."""
        world = self.world
        sinks = world.ranks[src].sinks
        t0 = perf_counter() if sinks and world.telemetry.full else 0.0
        try:
            if not 0 <= dst < world.n_ranks:
                self._out_of_range(dst)
            ranks = world.ranks
            out = ranks[dst].segment.typed_read(offset, dtype, count, out)
            ranks[src].stats.record_get(out.nbytes)
            return out
        finally:
            if sinks:
                self._observe(t0, "get", src, dst,
                              np.dtype(dtype).itemsize * count)

    def rma_atomic(self, src: int, dst: int, offset: int,
                   dtype: np.dtype, op, operand):
        """Atomically read-modify-write one element; returns old value."""
        world = self.world
        sinks = world.ranks[src].sinks
        t0 = perf_counter() if sinks and world.telemetry.full else 0.0
        try:
            if not 0 <= dst < world.n_ranks:
                self._out_of_range(dst)
            ranks = world.ranks
            ranks[src].stats.record_atomic()
            return ranks[dst].segment.atomic_update(offset, dtype, op,
                                                    operand)
        finally:
            if sinks:
                self._observe(t0, "atomic", src, dst,
                              np.dtype(dtype).itemsize)

    # -- indexed bulk RMA (batched engine) -------------------------------
    #
    # ``elem_offsets`` is an int64 array of *element* offsets relative to
    # byte offset ``base`` in ``dst``'s segment: element k lives at byte
    # ``base + elem_offsets[k] * dtype.itemsize``.

    def rma_put_indexed(self, src: int, dst: int, base: int,
                        elem_offsets: np.ndarray, data: np.ndarray) -> None:
        """Scatter ``data[k]`` to element offset ``elem_offsets[k]``."""
        world = self.world
        sinks = world.ranks[src].sinks
        t0 = perf_counter() if sinks and world.telemetry.full else 0.0
        count = elem_offsets.size
        try:
            if not 0 <= dst < world.n_ranks:
                self._out_of_range(dst)
            ranks = world.ranks
            ranks[src].stats.record_put_indexed(data.nbytes, count)
            ranks[dst].segment.typed_write_indexed(base, elem_offsets, data)
        finally:
            if sinks:
                self._observe(t0, "put_indexed", src, dst, data.nbytes,
                              f"{count} elems")

    def rma_get_indexed(self, src: int, dst: int, base: int,
                        dtype: np.dtype, elem_offsets: np.ndarray
                        ) -> np.ndarray:
        """Gather the elements at ``elem_offsets`` into a new array."""
        world = self.world
        sinks = world.ranks[src].sinks
        t0 = perf_counter() if sinks and world.telemetry.full else 0.0
        count = elem_offsets.size
        try:
            if not 0 <= dst < world.n_ranks:
                self._out_of_range(dst)
            ranks = world.ranks
            out = ranks[dst].segment.typed_read_indexed(base, dtype,
                                                        elem_offsets)
            ranks[src].stats.record_get_indexed(out.nbytes, count)
            return out
        finally:
            if sinks:
                self._observe(t0, "get_indexed", src, dst,
                              np.dtype(dtype).itemsize * count,
                              f"{count} elems")

    def rma_atomic_batch(self, src: int, dst: int, base: int,
                         dtype: np.dtype, elem_offsets: np.ndarray,
                         op, operands, return_old: bool = False):
        """Read-modify-write every element of ``elem_offsets``.

        ``op`` is an op name (``"xor"``, ``"add"``, ...) or a scalar
        callable; ``operands`` broadcasts against ``elem_offsets``.
        Elements are updated atomically; the batch as a whole need not
        be.  Returns the old values when ``return_old`` is true.
        """
        world = self.world
        sinks = world.ranks[src].sinks
        t0 = perf_counter() if sinks and world.telemetry.full else 0.0
        count = elem_offsets.size
        try:
            if not 0 <= dst < world.n_ranks:
                self._out_of_range(dst)
            ranks = world.ranks
            ranks[src].stats.record_atomic_batch(count)
            return ranks[dst].segment.atomic_batch_update(
                base, dtype, elem_offsets, op, operands, return_old)
        finally:
            if sinks:
                self._observe(t0, "atomic_batch", src, dst,
                              np.dtype(dtype).itemsize * count,
                              f"{count} elems")
