"""Typed one-sided RMA entry points with the local/remote branch.

This is the runtime half of the paper's Fig. 3: every shared-object
access first checks whether the target memory is local; local accesses
become direct segment views, remote accesses go through the conduit.
"""

from __future__ import annotations

import numpy as np


def put(ctx, dst_rank: int, offset: int, data: np.ndarray) -> None:
    """Write ``data`` to (``dst_rank``, ``offset``).

    ``data`` is consumed before the call returns, so it may be a live
    :func:`local_view` of the caller's own segment (how ``copy()`` moves
    its bytes in one pass)."""
    if dst_rank == ctx.rank:
        ctx.stats.record_local()
        ctx.segment.typed_write(offset, data)
    else:
        ctx.world.conduit.rma_put(ctx.rank, dst_rank, offset, data)


def get(ctx, dst_rank: int, offset: int, dtype: np.dtype, count: int,
        out: np.ndarray | None = None) -> np.ndarray:
    """Read ``count`` elements of ``dtype`` from (``dst_rank``, ``offset``).

    Without ``out`` the result is an owned copy (even locally), so
    callers can mutate it without aliasing the segment.  With ``out`` —
    a writable C-contiguous array of the same byte length, typically a
    :func:`local_view` of the destination — the bytes land there
    directly and ``out`` is returned.
    """
    if dst_rank == ctx.rank:
        ctx.stats.record_local()
        return ctx.segment.typed_read(offset, dtype, count, out)
    return ctx.world.conduit.rma_get(
        ctx.rank, dst_rank, offset, dtype, count, out=out
    )


def atomic(ctx, dst_rank: int, offset: int, dtype: np.dtype, op, operand):
    """Atomic read-modify-write of one remote element; returns old value.

    ``op`` is ``(old, operand) -> new``; executed under the target's
    segment lock (models NIC-side atomics).
    """
    if dst_rank == ctx.rank:
        ctx.stats.record_local()
        return ctx.segment.atomic_update(offset, dtype, op, operand)
    return ctx.world.conduit.rma_atomic(
        ctx.rank, dst_rank, offset, dtype, op, operand
    )


def local_view(ctx, offset: int, dtype: np.dtype, count: int) -> np.ndarray:
    """Zero-copy typed view of the caller's own segment."""
    return ctx.segment.view(offset, dtype, count)


# ---------------------------------------------------------------------------
# indexed bulk RMA — the batched engine's entry points
# ---------------------------------------------------------------------------

def put_indexed(ctx, dst_rank: int, base: int, elem_offsets: np.ndarray,
                data: np.ndarray) -> None:
    """Scatter ``data[k]`` to element offset ``elem_offsets[k]`` (relative
    to byte offset ``base``) in ``dst_rank``'s segment, as one operation."""
    if dst_rank == ctx.rank:
        ctx.stats.record_local(elem_offsets.size)
        ctx.segment.typed_write_indexed(base, elem_offsets, data)
    else:
        ctx.world.conduit.rma_put_indexed(
            ctx.rank, dst_rank, base, elem_offsets, data
        )


def get_indexed(ctx, dst_rank: int, base: int, dtype: np.dtype,
                elem_offsets: np.ndarray) -> np.ndarray:
    """Gather the elements at ``elem_offsets`` from ``dst_rank``'s segment
    with one operation; returns an owned copy."""
    if dst_rank == ctx.rank:
        ctx.stats.record_local(elem_offsets.size)
        return ctx.segment.typed_read_indexed(base, dtype, elem_offsets)
    return ctx.world.conduit.rma_get_indexed(
        ctx.rank, dst_rank, base, dtype, elem_offsets
    )


def atomic_batch(ctx, dst_rank: int, base: int, dtype: np.dtype,
                 elem_offsets: np.ndarray, op, operands,
                 return_old: bool = False):
    """Batched read-modify-write: every element updated atomically, the
    whole batch under a single target-lock acquisition on capable
    conduits.  Returns old values when ``return_old`` is true."""
    if dst_rank == ctx.rank:
        ctx.stats.record_local(elem_offsets.size)
        return ctx.segment.atomic_batch_update(
            base, dtype, elem_offsets, op, operands, return_old
        )
    return ctx.world.conduit.rma_atomic_batch(
        ctx.rank, dst_rank, base, dtype, elem_offsets, op, operands,
        return_old,
    )
