"""Conduit interface — what a network must provide to the UPC++ runtime.

A conduit moves bytes and active messages between ranks.  Its contracts:

* ``rma_put``/``rma_get``/``rma_atomic`` are **one-sided**: they complete
  without the target executing any code (RDMA semantics).  Each is
  atomic on its *target* segment; the initiator's side is not locked —
  ``rma_put`` reads ``data`` and ``rma_get(out=)`` fills ``out`` as plain
  memory, which is what lets both be owner-side segment views.
* ``send_am`` is **asynchronous**: delivery enqueues the message at the
  target; execution happens at the target's next progress call.
* Point-to-point AM ordering between a fixed (src, dst) pair is FIFO —
  the guarantee GASNet provides and the runtime relies on.
* ``rma_put_indexed``/``rma_get_indexed``/``rma_atomic_batch`` are the
  **indexed bulk** primitives behind the batched RMA engine: one call
  moves/updates a whole vector of same-rank elements.  The base class
  supplies a generic per-element fallback, so every conduit supports
  them; conduits able to do better (the SMP conduit's fancy-indexed
  single-lock implementation) override them.

The FIFO and exactly-once guarantees are what the *runtime* relies on;
a conduit that cannot provide them natively (e.g.
:class:`~repro.gasnet.chaos.ChaosConduit`, which drops/duplicates/
reorders and raises :class:`~repro.errors.TransientCommError` from RMA)
must be wrapped in :class:`~repro.gasnet.reliability.ReliableConduit`,
which restores the contract with sequence numbers, acks/retransmit,
bounded RMA retry, and op-id-guarded exactly-once atomics.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.gasnet.am import ActiveMessage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.world import World


@dataclass(frozen=True)
class ConduitCaps:
    """Capability flags a conduit advertises to the runtime and to tests.

    The backend factory (:mod:`repro.gasnet.backends`) and the fault
    wrappers consult these instead of isinstance checks, so new backends
    compose with the existing stack by declaring what they can do.
    """

    #: Ranks live in separate OS processes: objects cannot be shared by
    #: reference across the conduit, and per-process state (handler
    #: interning, telemetry rings) is not globally visible.
    cross_process: bool = False
    #: :func:`repro.die` produces a detectable rank death on this
    #: backend (thread simulation or a real process exit).
    supports_kill_rank: bool = True
    #: Chaos/delay fault injection can hook delivery in-process.  False
    #: for cross-process transports, where the wrapper would only see
    #: one rank's side of the wire.
    in_process_hooks: bool = True
    #: RMA reads/writes the target segment with no serialization and no
    #: intermediate copy beyond the transfer itself.
    zero_copy_rma: bool = True
    #: spmd() must go through the process launcher: the conduit cannot
    #: be instantiated standalone in the calling process.
    needs_launcher: bool = False
    #: Active messages travel through shared-memory SPSC rings with
    #: sender-side aggregation (:mod:`repro.gasnet.ring`) instead of a
    #: kernel transport.
    shm_rings: bool = False


class Conduit(abc.ABC):
    """Abstract network conduit."""

    world: "World | None" = None
    #: Default capability set (in-process, full-featured); backends
    #: override the class attribute, wrappers forward the inner one.
    caps: ConduitCaps = ConduitCaps()

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
        from repro.errors import PgasError

        if self.world is None:
            raise PgasError("conduit not attached to a world")
        if not 0 <= r < self.world.n_ranks:
            raise PgasError(
                f"rank {r} out of range [0, {self.world.n_ranks})"
            )
        return self.world.ranks[r]

    def _encode_and_record(self, src: int, am: ActiveMessage):
        """Encode ``am`` into its wire frame and charge the sender's
        stats.  Every conduit send path (smp, proc, chaos, delay)
        funnels through here so the frame exists before delivery and the
        fixed-layout hit rate is observable."""
        from repro.gasnet.wire import encode_am

        rank = self._rank(src)
        frame = encode_am(am, rank.telemetry)
        rank.stats.record_am_wire(
            frame.nbytes, frame.used_pickle, frame.has_refs,
            am.is_reply)
        return frame

    def deliver_encoded(self, src: int, dst: int,
                        am: ActiveMessage) -> None:
        """Transport an AM whose frame was already encoded and whose
        stats were already recorded.

        This is the raw delivery primitive the fault wrappers
        (:class:`~repro.gasnet.chaos.ChaosConduit`,
        :class:`~repro.gasnet.delay.DelayConduit`) use: they do the
        encode/record once per *send decision* and then hand zero, one,
        or two copies of the message to the backend without re-charging
        the sender's counters.  The default simply re-enters
        :meth:`send_am`."""
        self.send_am(src, dst, am)

    # -- active messages ------------------------------------------------
    @abc.abstractmethod
    def send_am(self, src: int, dst: int, am: ActiveMessage) -> None:
        """Deliver ``am`` into rank ``dst``'s inbox."""

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
