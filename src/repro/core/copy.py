"""Bulk data transfer (paper §III-D).

``copy(src, dst, count)`` moves ``count`` contiguous elements between
global pointers; ``async_copy`` is its non-blocking form, completed by
``async_copy_fence()`` (wait for *all* outstanding copies — the paper's
"handle-less" model the LULESH port praises) or by an event registered
per operation.

The bytes move exactly once, under exactly one segment lock — the
*remote* end's.  The initiator's own end is its unlocked owner-side view
(the paper's local pointer, relaxed model of §III-F): a local source is
handed to the put as a live view, a local destination is what the get
reads into.  Only a third-party copy (both ends remote) stages the data,
as a get followed by a put.

On the shared-memory conduits the data movement itself is immediate, but
the completion bookkeeping — handles, events, the fence — is identical
to the real runtime, so programs written against the non-blocking API
have the same structure and the same stats profile the performance model
consumes.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.event import Event
from repro.core.global_ptr import GlobalPtr
from repro.core.world import current
from repro.errors import BadPointer
from repro.gasnet import rma


class CopyHandle:
    """Completion handle for one non-blocking copy (MPI_Request-like)."""

    __slots__ = ("_done", "_event", "nbytes")

    def __init__(self, nbytes: int, event: Optional[Event]):
        self._done = False
        self._event = event
        self.nbytes = nbytes

    def _complete(self) -> None:
        if not self._done:
            self._done = True
            if self._event is not None:
                self._event.decref()

    def done(self) -> bool:
        return self._done

    def wait(self, timeout: float | None = None) -> None:
        """Block until this specific copy completed.

        ``timeout`` defaults to the world's ``op_timeout``; on expiry a
        :class:`~repro.errors.CommTimeout` is raised (and a peer failure
        while waiting raises :class:`~repro.errors.PeerFailure`), like
        every other blocking runtime call.
        """
        ctx = current()
        tel = ctx.telemetry
        t0 = time.perf_counter() if tel.full else 0.0
        ctx.wait_until(
            lambda: self._done, what="async_copy", timeout=timeout
        )
        if tel.full:
            # Completion-wait latency: issue-to-done for this handle.
            tel.histogram("copy_wait").record_seconds(
                time.perf_counter() - t0
            )


def _transfer(src: GlobalPtr, dst: GlobalPtr, count: int) -> int:
    """Move ``count`` elements; returns bytes moved."""
    if src.is_null or dst.is_null:
        raise BadPointer("copy involving a null pointer")
    if src.dtype.itemsize != dst.dtype.itemsize:
        raise BadPointer(
            f"copy between dtypes of different sizes "
            f"({src.dtype} -> {dst.dtype})"
        )
    count = int(count)
    if count < 0:
        raise ValueError("negative copy count")
    if count == 0:
        return 0
    ctx = current()
    # Byte views: equal itemsize was checked above, so the reinterpreting
    # cast is free and no alignment is demanded of either offset.
    nbytes = count * src.dtype.itemsize
    if src.rank == ctx.rank:
        # local -> remote, or local -> local (the put then runs on our
        # own segment, overlap-safe like memmove)
        ctx.stats.add(local_accesses=1)
        rma.put(ctx, dst.rank, dst.offset,
                rma.local_view(ctx, src.offset, np.uint8, nbytes))
    elif dst.rank == ctx.rank:
        ctx.stats.add(local_accesses=1)
        rma.get(ctx, src.rank, src.offset, np.uint8, nbytes,
                out=rma.local_view(ctx, dst.offset, np.uint8, nbytes))
    else:
        rma.put(ctx, dst.rank, dst.offset,
                rma.get(ctx, src.rank, src.offset, np.uint8, nbytes))
    return nbytes


def copy(src: GlobalPtr, dst: GlobalPtr, count: int) -> None:
    """Blocking bulk copy of ``count`` elements, src → dst (paper's
    argument order)."""
    _transfer(src, dst, count)


def async_copy(src: GlobalPtr, dst: GlobalPtr, count: int,
               event: Optional[Event] = None) -> CopyHandle:
    """Non-blocking bulk copy.

    Completion is observed through ``async_copy_fence()``, the returned
    handle, or ``event`` (which is registered before the transfer starts,
    as the paper's event-driven model requires).
    """
    ctx = current()
    if event is not None:
        event.incref()
    handle = CopyHandle(0, event)
    # Prune already-completed handles (completed via .wait() or an
    # event) so programs that never call async_copy_fence() don't
    # accumulate handles without bound.  In-place so a concurrently
    # captured reference to the list (the fence) stays valid.
    pending = ctx.outstanding_copies
    if pending:
        pending[:] = [h for h in pending if not h.done()]
    pending.append(handle)
    try:
        handle.nbytes = _transfer(src, dst, count)
    except BaseException:
        # A rejected copy must not leave a never-done handle for the
        # next fence to sit out op_timeout on.
        pending.remove(handle)
        raise
    finally:
        handle._complete()      # also releases the event's reference
    return handle


def async_copy_fence() -> None:
    """Wait for completion of *all* previously issued async copies on
    this rank — the "handle-less" synchronization (paper §V-E)."""
    ctx = current()
    pending = ctx.outstanding_copies
    ctx.wait_until(
        lambda: all(h.done() for h in pending), what="async_copy_fence"
    )
    pending.clear()
