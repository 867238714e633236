"""Conduit interface — what a network must provide to the UPC++ runtime.

A conduit moves bytes and active messages between ranks.  Its contracts:

* ``rma_put``/``rma_get``/``rma_atomic`` are **one-sided**: they complete
  without the target executing any code (RDMA semantics).  Each is
  atomic on its *target* segment; the initiator's side is not locked —
  ``rma_put`` reads ``data`` and ``rma_get(out=)`` fills ``out`` as plain
  memory, which is what lets both be owner-side segment views.
* ``send_am`` is **asynchronous**: delivery enqueues the message at the
  target; execution happens at the target's next progress call.
* **Progress is the target's**: an AM arrives when its target polls.
  ``poll(rank, timeout)`` (GASNet's ``AMPoll``) moves whatever has
  arrived for ``rank`` into its inbox, parking up to ``timeout`` for the
  first byte (proc dispatches a reply it parsed right there when nothing
  is queued before it); ``wake(rank)`` brings a thread parked there back.
  ``advance()`` is ``poll(rank)`` + drain, blocking calls park in
  ``poll``, and no backend receives on a rank's behalf — so where the
  transport is bounded (proc) a rank that computes without calling the
  runtime throttles its senders instead of growing an inbox
  (**back-pressure**; ``thread_mode="concurrent"`` is the remedy), and
  **a blocked sender polls** (GASNet's rule), or two ranks flooding each
  other would deadlock.
* Point-to-point AM ordering between a fixed (src, dst) pair is FIFO —
  the guarantee GASNet provides and the runtime relies on.
* ``rma_put_indexed``/``rma_get_indexed``/``rma_atomic_batch`` are the
  **indexed bulk** primitives behind the batched RMA engine: one call
  moves/updates a whole vector of same-rank elements.  The base class
  supplies a generic per-element fallback, so every conduit supports
  them; conduits able to do better (the SMP conduit's fancy-indexed
  single-lock implementation) override them.

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

The wrappers — the timing layer :class:`~repro.gasnet.delay.DelayConduit`
and the observing one, :class:`~repro.gasnet.trace.TelemetryConduit` —
are :class:`ConduitLayer` subclasses: the contract is written out twice in
this file (abstract in :class:`Conduit`, forwarding in
:class:`ConduitLayer`) and nowhere else outside the backends.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import PgasError
from repro.gasnet.am import ActiveMessage
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
    #: override the class attribute, wrappers forward the inner one.
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

    # -- shared send-path helpers ----------------------------------------
    def _rank(self, r: int):
        if self.world is None:
            raise PgasError("conduit not attached to a world")
        if not 0 <= r < self.world.n_ranks:
            raise PgasError(
                f"rank {r} out of range [0, {self.world.n_ranks})"
            )
        return self.world.ranks[r]

    # -- active messages ------------------------------------------------
    def send_am(self, src: int, dst: int, am: ActiveMessage) -> None:
        """Deliver ``am`` into rank ``dst``'s inbox.

        The send decision, made once per AM: the :attr:`fail_next_am`
        hook, the ``dst`` range check, the encode (so the frame exists
        before delivery), one charge to the sender's stats, then
        :meth:`deliver_encoded`.  ``src`` is the caller's own rank."""
        if self.fail_next_am is not None:
            exc, self.fail_next_am = self.fail_next_am, None
            raise exc
        world = self.world
        if world is None or not 0 <= dst < world.n_ranks:
            self._rank(dst)  # raises the canonical error
        rank = world.ranks[src]
        frame = encode_am(am, rank.telemetry)
        rank.stats.record_am_wire(
            frame.nbytes, frame.used_pickle, frame.has_refs, am.is_reply)
        self.deliver_encoded(src, dst, am)

    @abc.abstractmethod
    def deliver_encoded(self, src: int, dst: int,
                        am: ActiveMessage) -> None:
        """Transport an AM that :meth:`send_am` already encoded and
        charged: a backend moves it to ``dst``; a layer that holds it
        back (a delay) hands it on to its inner conduit's
        ``deliver_encoded``."""

    def poll(self, rank: int, timeout: float = 0.0) -> bool:
        """Move whatever has arrived for ``rank`` into its inbox, parking
        up to ``timeout`` seconds for the first byte; returns whether the
        inbox has anything in it.  Only threads that dispatch for
        ``rank`` call it, so a backend may dispatch a reply here when
        nothing is queued before it.  The default serves conduits whose
        ``send_am`` appends to the inbox directly: nothing to move, so
        parking is a wait on the rank's doorbell, a lock held while no
        ring is pending.  A ring left by an earlier :meth:`wake` is
        spent first: a delivery's ring is covered by the inbox check, so
        it cannot end this park with an empty inbox.  A poke (a state
        change that is no message, :meth:`World.poke_all`) raises the
        rank's ``_poked`` flag before it rings, and a park that finds
        the flag up lowers it and returns at once, so a poke that lands
        before the park is not lost.  A zero ``timeout`` leaves bell and
        flag alone.  One ring ends one park: a second thread parked for
        the same rank (the progress thread, in ``concurrent`` mode)
        comes back at its timeout.  ``wait_until`` parks for
        :data:`~repro.core.world.PARK_S` clipped to its deadline, longer
        than a kernel tick so that the timer costs no clock reprogram:
        a park ends by a ring, and the timeout is a safety net."""
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
        """Bring a thread parked in :meth:`poll` for ``rank`` back:
        something changed in this process.  Rings the doorbell (releases
        it); a ring already pending stays one ring."""
        bell = self.world.ranks[rank]._bell
        if bell.locked():
            try:
                bell.release()
            except RuntimeError:
                pass  # a racing wake rang it first

    # -- one-sided RMA ---------------------------------------------------
    @abc.abstractmethod
    def rma_put(self, src: int, dst: int, offset: int,
                data: np.ndarray) -> None:
        """Write ``data`` into ``dst``'s segment at ``offset``.

        ``data`` must be consumed before the call returns (every backend
        and wrapper does: none defers or retains it), so callers may pass
        a live view of their own segment."""

    @abc.abstractmethod
    def rma_get(self, src: int, dst: int, offset: int,
                dtype: np.dtype, count: int,
                out: np.ndarray | None = None) -> np.ndarray:
        """Read ``count`` elements of ``dtype`` from ``dst``'s segment.

        Returns a fresh array, or — when ``out`` (writable, C-contiguous,
        the same byte length) is given — reads straight into ``out`` and
        returns it.  Idempotent either way, so it may be retried whole."""

    @abc.abstractmethod
    def rma_atomic(self, src: int, dst: int, offset: int,
                   dtype: np.dtype, op, operand):
        """Atomically read-modify-write one element; returns old value."""

    # -- indexed bulk RMA (batched engine) -------------------------------
    #
    # ``elem_offsets`` is an int64 array of *element* offsets relative to
    # byte offset ``base`` in ``dst``'s segment: element k lives at byte
    # ``base + elem_offsets[k] * dtype.itemsize``.  The defaults below
    # loop over the scalar primitives so any conduit works unmodified.

    def rma_put_indexed(self, src: int, dst: int, base: int,
                        elem_offsets: np.ndarray, data: np.ndarray) -> None:
        """Scatter ``data[k]`` to element offset ``elem_offsets[k]``."""
        data = np.ascontiguousarray(data)
        itemsize = data.dtype.itemsize
        for off, val in zip(np.asarray(elem_offsets, dtype=np.int64), data):
            self.rma_put(src, dst, base + int(off) * itemsize,
                         np.asarray([val], dtype=data.dtype))

    def rma_get_indexed(self, src: int, dst: int, base: int,
                        dtype: np.dtype, elem_offsets: np.ndarray
                        ) -> np.ndarray:
        """Gather the elements at ``elem_offsets`` into a new array."""
        dtype = np.dtype(dtype)
        idx = np.asarray(elem_offsets, dtype=np.int64)
        out = np.empty(idx.size, dtype=dtype)
        for k, off in enumerate(idx):
            out[k] = self.rma_get(
                src, dst, base + int(off) * dtype.itemsize, dtype, 1
            )[0]
        return out

    def rma_atomic_batch(self, src: int, dst: int, base: int,
                         dtype: np.dtype, elem_offsets: np.ndarray,
                         op, operands, return_old: bool = False):
        """Read-modify-write every element of ``elem_offsets``.

        ``op`` is an op name (``"xor"``, ``"add"``, ...) or a scalar
        callable; ``operands`` broadcasts against ``elem_offsets``.
        Elements are updated atomically; the batch as a whole need not
        be.  Returns the old values when ``return_old`` is true.
        """
        from repro.gasnet.atomics import resolve_scalar

        fn = resolve_scalar(op)
        dtype = np.dtype(dtype)
        idx = np.asarray(elem_offsets, dtype=np.int64)
        ops = np.broadcast_to(np.asarray(operands, dtype=dtype), idx.shape)
        old = np.empty(idx.size, dtype=dtype)
        for k, off in enumerate(idx):
            old[k] = self.rma_atomic(
                src, dst, base + int(off) * dtype.itemsize, dtype, fn, ops[k]
            )
        return old if return_old else None


def rma_extent(kind: str, args: tuple) -> tuple[int, int | None]:
    """``(nbytes, elems)`` moved by one RMA op, from the arguments that
    follow ``src, dst`` in its signature (what :meth:`ConduitLayer._rma`
    receives as ``*args``).  ``elems`` is the index-vector length of the
    indexed bulk ops and ``None`` for the scalar ones.  Only the
    observing layer pays for this."""
    if kind == "put":
        return np.asarray(args[1]).nbytes, None
    if kind == "get":
        return np.dtype(args[1]).itemsize * args[2], None
    if kind == "atomic":
        return np.dtype(args[1]).itemsize, None
    if kind == "put_indexed":
        return np.asarray(args[2]).nbytes, np.asarray(args[1]).size
    # get_indexed and atomic_batch: (base, dtype, elem_offsets, ...)
    n = np.asarray(args[2]).size
    return np.dtype(args[1]).itemsize * n, n


class ConduitLayer(Conduit):
    """A conduit that decorates another one, ``self._inner``.

    Everything a layer would otherwise repeat lives here, so a subclass
    overrides only what it changes and a contract change (a new RMA
    argument, say) touches this class and the backends — not each layer:

    * **forwarding** — ``world``/``caps``/``fail_next_am``/``attach``/
      ``close``/``send_am``/``deliver_encoded``/``poll``/``wake`` go to
      the inner conduit; nothing else crosses a layer.  A layer that
      makes the send decision itself takes :meth:`Conduit.send_am` back.
    * **RMA** — the six ``rma_*`` ops are declared once, each funnelling
      into the single around-hook :meth:`_rma`.

    Layers compose by wrapping (``Telemetry(Delay(smp))``);
    the ``_inner`` chain is the one composition mechanism, which
    :class:`~repro.gasnet.trace.Trace` splices at run time and foreign
    decorators may sit in — so nothing here assumes its neighbours are
    ``ConduitLayer`` instances.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.world = getattr(inner, "world", None)

    # -- forwarding --------------------------------------------------------
    @property
    def caps(self):
        return self._inner.caps

    @property
    def fail_next_am(self):
        # The send decision runs in the innermost conduit, so the hook
        # must be set there, whichever layer a test sets it on.
        return self._inner.fail_next_am

    @fail_next_am.setter
    def fail_next_am(self, exc) -> None:
        self._inner.fail_next_am = exc

    def attach(self, world) -> None:
        self.world = world
        self._inner.attach(world)

    def close(self) -> None:
        self._inner.close()

    # -- active messages ---------------------------------------------------
    def send_am(self, src: int, dst: int, am: ActiveMessage) -> None:
        self._inner.send_am(src, dst, am)

    def deliver_encoded(self, src: int, dst: int,
                        am: ActiveMessage) -> None:
        self._inner.deliver_encoded(src, dst, am)

    def poll(self, rank: int, timeout: float = 0.0) -> bool:
        return self._inner.poll(rank, timeout)

    def wake(self, rank: int) -> None:
        self._inner.wake(rank)

    # -- one-sided RMA: six signatures, one hook ---------------------------
    def _rma(self, kind: str, fn, src: int, dst: int, *args):
        """Around-hook for every RMA op: ``fn`` is the inner conduit's
        bound method for ``kind`` (``"put"``, ``"get"``, ``"atomic"``,
        ``"put_indexed"``, ``"get_indexed"``, ``"atomic_batch"``) and
        ``args`` what follows ``src, dst`` in its signature."""
        return fn(src, dst, *args)

    def rma_put(self, src: int, dst: int, offset: int,
                data: np.ndarray) -> None:
        return self._rma("put", self._inner.rma_put, src, dst, offset, data)

    def rma_get(self, src: int, dst: int, offset: int,
                dtype: np.dtype, count: int,
                out: np.ndarray | None = None) -> np.ndarray:
        return self._rma("get", self._inner.rma_get, src, dst, offset,
                         dtype, count, out)

    def rma_atomic(self, src: int, dst: int, offset: int,
                   dtype: np.dtype, op, operand):
        return self._rma("atomic", self._inner.rma_atomic, src, dst,
                         offset, dtype, op, operand)

    def rma_put_indexed(self, src: int, dst: int, base: int,
                        elem_offsets: np.ndarray, data: np.ndarray) -> None:
        return self._rma("put_indexed", self._inner.rma_put_indexed,
                         src, dst, base, elem_offsets, data)

    def rma_get_indexed(self, src: int, dst: int, base: int,
                        dtype: np.dtype, elem_offsets: np.ndarray
                        ) -> np.ndarray:
        return self._rma("get_indexed", self._inner.rma_get_indexed,
                         src, dst, base, dtype, elem_offsets)

    def rma_atomic_batch(self, src: int, dst: int, base: int,
                         dtype: np.dtype, elem_offsets: np.ndarray,
                         op, operands, return_old: bool = False):
        return self._rma("atomic_batch", self._inner.rma_atomic_batch,
                         src, dst, base, dtype, elem_offsets, op, operands,
                         return_old)
