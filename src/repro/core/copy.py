"""Bulk data transfer (paper §III-D).

``copy(src, dst, count)`` moves ``count`` contiguous elements between
global pointers; ``async_copy`` is its non-blocking form, completed by
``async_copy_fence()`` (wait for *all* outstanding copies — the paper's
"handle-less" model the LULESH port praises), by its handle or by an
event.

The bytes move exactly once, under exactly one segment lock — the
*remote* end's.  The initiator's own end is its unlocked owner-side view
(the paper's local pointer, relaxed model of §III-F): a local source is
handed to the put as a live view, a local destination is what the get
reads into.  Only a third-party copy (both ends remote) stages the data,
as a get followed by a put.

On every conduit the data movement completes before ``async_copy``
returns: a handle is done when the caller gets it, and the fence has
nothing to wait for.  Programs written against the non-blocking API
keep the paper's structure and the stats profile the model consumes.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.event import Event
from repro.core.future import Future
from repro.core.global_ptr import GlobalPtr
from repro.core.world import current
from repro.errors import BadPointer
from repro.gasnet import rma


class CopyHandle(Future):
    """Completion handle for one non-blocking copy (MPI_Request-like): a
    future whose value is the number of bytes moved."""

    __slots__ = ()

    _what = "async_copy"

    @property
    def nbytes(self) -> int:
        return self._value


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
        ctx.stats.record_local()
        rma.put(ctx, dst.rank, dst.offset,
                rma.local_view(ctx, src.offset, np.uint8, nbytes))
    elif dst.rank == ctx.rank:
        ctx.stats.record_local()
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

    Every conduit's RMA completes before its call returns, so the copy
    is done when this returns: the handle is complete, and neither
    ``event`` (the paper's signature) nor ``async_copy_fence()`` is ever
    left with it outstanding.  A rejected copy raises before any byte
    moves.
    """
    ctx = current()
    tel = ctx.telemetry
    t0 = time.perf_counter() if tel.full else 0.0
    handle = CopyHandle(ctx)
    handle.set_result(_transfer(src, dst, count))
    if tel.full:
        # Issue-to-done latency (the handle is done when returned).
        tel.histogram("copy_wait").record_seconds(time.perf_counter() - t0)
    return handle


def async_copy_fence() -> None:
    """Wait for completion of *all* previously issued async copies on
    this rank — the "handle-less" synchronization (paper §V-E).

    Every conduit's RMA completes before :func:`async_copy` returns, so
    no copy is ever outstanding here and there is nothing to wait for;
    the call is kept for programs written against the paper's API.
    """
    current()  # still a rank-context call: raises outside spmd()
