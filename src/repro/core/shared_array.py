"""``shared_array<T, BS>`` — block-cyclically distributed 1-D arrays
(paper §III-A).

The layout matches UPC's: element ``i`` belongs to block ``i // BS``;
blocks are dealt to ranks round-robin; within a rank, a rank's blocks
are stored contiguously in arrival order.  ``BS = 1`` (the default, as
in UPC) gives a pure cyclic layout.

Construction is collective: every rank allocates its local slab and the
base addresses are allgathered into a directory, so any rank can compute
the global pointer of any element without communication — which is what
lets ``sa[i]`` be a single one-sided get/put (runtime Fig. 3).

Every access takes one route: its index is checked once, translated
to (owner, slab offset) — by one divmod by ``nranks`` for ``BS = 1``,
by a divmod pair for other block sizes (with ``block * nranks`` fixed
at ``init``) — and handed straight to :mod:`repro.gasnet.rma`: one call
per element, one indexed call per owning rank of a vector; the owner's
own elements use its slab view.
"""

from __future__ import annotations

import operator
import threading
from typing import Iterator

import numpy as np

from repro.core import collectives
from repro.core.global_ptr import GlobalPtr
from repro.core.world import current
from repro.errors import PgasError
from repro.gasnet import rma
from repro.gasnet.atomics import resolve_scalar


# ---------------------------------------------------------------------------
# pure layout math (unit-testable without a world)
#
# All three functions are expressed in ufunc arithmetic, so they accept
# either Python ints or NumPy index arrays.  They are the reference the
# array's own translation (SharedArray._locate) is tested against.
# ---------------------------------------------------------------------------

def owner_of(i, block: int, nranks: int):
    """Rank owning element ``i`` (scalar or ndarray) of a (block)-cyclic
    array."""
    return (i // block) % nranks


def local_offset_of(i, block: int, nranks: int):
    """Element offset of global index ``i`` (scalar or ndarray) within
    its owner's slab."""
    b = i // block
    return (b // nranks) * block + (i % block)


def global_index_of(rank, local_off, block: int, nranks: int):
    """Inverse of (owner_of, local_offset_of); scalar or ndarray."""
    lb, r = divmod(local_off, block)
    return (lb * nranks + rank) * block + r


def slab_elements(size: int, block: int, nranks: int) -> int:
    """Per-rank slab length: every rank reserves the same (maximal) number
    of blocks, exactly like UPC's static block-cyclic layout."""
    nblocks = -(-size // block)  # ceil
    blocks_per_rank = -(-nblocks // nranks)
    return blocks_per_rank * block


_INT64 = np.dtype(np.int64)
_UINT64 = np.dtype(np.uint64)


def _operands(values, dtype: np.dtype, shape) -> np.ndarray:
    """``values`` as ``dtype``, broadcast to an index vector's ``shape``
    only when its own shape differs."""
    vals = np.asarray(values, dtype=dtype)
    if vals.shape == shape:
        return vals
    return np.ascontiguousarray(
        np.broadcast_to(vals.reshape(-1) if vals.ndim else vals, shape))


class SharedArray:
    """A 1-D array distributed block-cyclically over all ranks."""

    def __init__(self, dtype=np.int64, size: int | None = None,
                 block: int = 1):
        if block < 1:
            raise PgasError("block size must be >= 1")
        self.dtype = np.dtype(dtype)
        self.block = int(block)
        self.size = 0
        self._itemsize = self.dtype.itemsize
        self._span = 0  # block * nranks: elements per round of blocks
        self._edges = None  # 0..nranks: rank runs of a sorted owner vector
        self._slab_len = 0
        self._bases: list[int] = []
        self._my_base = -1
        self._local = None
        self._ctx = None
        self._rebind_lock = threading.Lock()
        if size is not None:
            self.init(size)

    # -- collective allocation ------------------------------------------
    def init(self, size: int) -> "SharedArray":
        """Collectively allocate storage for ``size`` elements (the
        paper's ``sa.init(THREADS)`` dynamic form)."""
        if self.size:
            raise PgasError("shared_array is already initialized")
        if size <= 0:
            raise PgasError("shared_array size must be positive")
        ctx = current()
        nranks = ctx.world.n_ranks
        self.size = int(size)
        self._span = self.block * nranks
        self._edges = np.arange(nranks + 1)
        self._slab_len = slab_elements(self.size, self.block, nranks)
        nbytes = self._slab_len * self._itemsize
        align = max(8, self._itemsize)
        self._my_base = ctx.segment.alloc(nbytes, align=align)
        self._bases = collectives.allgather(self._my_base)
        # Owner-side fast path (runtime Fig. 3's "local access" branch):
        # a cached zero-copy view over this rank's slab, so local element
        # access skips pointer construction and conduit dispatch.
        self._local = ctx.segment.view(
            self._my_base, self.dtype, self._slab_len
        )
        self._ctx = ctx
        return self

    def _require_init(self) -> None:
        if not self.size:
            raise PgasError("shared_array used before init(size)")

    # -- the route: index -> (owner, slab offset) ------------------------
    def _locate(self, i):
        """Translate ``i`` — one index in [0, size) or an int64 vector
        of them — to (owner rank, element offset in the owner's slab);
        the same pair as :func:`owner_of` / :func:`local_offset_of`."""
        q, rem = divmod(i, self._span)
        if self.block == 1:  # cyclic: the remainder is the owner
            return rem, q
        rank, within = divmod(rem, self.block)
        return rank, q * self.block + within

    def _element(self, i):
        """Check one (Python or NumPy) integer index, negatives from
        the end, and translate it: (owner, slab offset).  A bool is not
        an index here, as it is not in a batch."""
        self._require_init()
        try:
            k = operator.index(i)
        except TypeError:
            k = None
        if k is None or isinstance(i, (bool, np.bool_)):
            raise IndexError(
                f"shared_array indices must be integers, got "
                f"{type(i).__name__}"
            )
        if k < 0:
            k += self.size
        if not 0 <= k < self.size:
            raise IndexError(
                f"index {i} out of range for shared_array of {self.size}"
            )
        return self._locate(k)

    def _indices(self, indices) -> np.ndarray:
        """Check an index vector; return it flat, as int64 in [0, size).

        An in-range int64 or uint64 vector is proved so by one C
        reduction over its ``uint64`` view (where a negative index reads
        as 2**63 or more) and returned as it is.  Others take ``min()``
        and ``max()`` before the cast, so an unsigned index past 2**63
        cannot wrap; negatives are wrapped only when there are any.  The
        :class:`IndexError` names the first bad index as written."""
        if not self.size:
            raise PgasError("shared_array used before init(size)")
        idx = np.asarray(indices)
        if idx.ndim != 1:
            idx = idx.reshape(-1)
        dt = idx.dtype
        if ((dt is _INT64 or dt is _UINT64) and idx.size
                and np.maximum.reduce(idx.view(_UINT64)) < self.size):
            return idx if dt is _INT64 else idx.view(_INT64)
        if not idx.size:
            return idx.astype(np.int64)
        if idx.dtype.kind not in "iu":
            raise IndexError(
                f"shared_array indices must be integers, got dtype "
                f"{idx.dtype}"
            )
        lo, hi = int(idx.min()), int(idx.max())
        if lo < -self.size or hi >= self.size:
            bad = (idx < -self.size) | (idx >= self.size)
            raise IndexError(
                f"index {idx[bad.argmax()]} out of range for shared_array "
                f"of {self.size}"
            )
        idx = idx.astype(np.int64, copy=False)
        if lo < 0:
            idx = np.where(idx < 0, idx + self.size, idx)
        return idx

    def _by_owner(self, idx: np.ndarray) -> list:
        """One ``(rank, slab offsets, selection)`` per rank owning an
        element of the checked vector ``idx``: a stable partition, so
        ``selection``, that rank's positions in ``idx``, keeps their
        order (and duplicates their issue order)."""
        owners, offs = self._locate(idx)
        order = owners.argsort(kind="stable")
        cuts = owners[order].searchsorted(self._edges).tolist()
        return [(r, offs[order[lo:hi]], order[lo:hi])
                for r, (lo, hi) in enumerate(zip(cuts, cuts[1:])) if lo < hi]

    def gptr(self, i: int) -> GlobalPtr:
        """Global pointer to element ``i`` (no communication)."""
        rank, off = self._element(i)
        return GlobalPtr(rank=rank,
                         offset=self._bases[rank] + off * self._itemsize,
                         dtype=self.dtype)

    def where(self, i: int) -> int:
        """Affinity of element ``i``."""
        return self._element(i)[0]

    # -- element access (the overloaded [] of the paper) ----------------
    def _local_slab(self, ctx):
        """The owner-side cached view, or None when unavailable.

        After unpickle the view is rebuilt lazily here on the first
        owner-side access (handles travel without views).  The cache is
        write-once per instance: when it is already bound to a *different*
        rank context (one object shared by several rank threads via the
        in-process payload fallback), we return None and the caller takes
        the conduit path — rebinding back and forth would race.
        """
        if self._ctx is ctx:
            return self._local
        with self._rebind_lock:
            if self._ctx is None and self.size:
                self._my_base = self._bases[ctx.rank]
                self._local = ctx.segment.view(
                    self._my_base, self.dtype, self._slab_len
                )
                self._ctx = ctx
            return self._local if self._ctx is ctx else None

    def __getitem__(self, i: int):
        """Read element ``i``: one translation, then the owner's slab
        view or one one-sided get."""
        rank, off = self._element(i)
        ctx = current()
        if rank == ctx.rank:
            slab = self._local_slab(ctx)
            if slab is not None:
                ctx.stats.record_local()
                return slab[off]
        return rma.get(ctx, rank, self._bases[rank] + off * self._itemsize,
                       self.dtype, 1)[0]

    def __setitem__(self, i: int, value) -> None:
        """Write element ``i``: one translation, then the owner's slab
        view or one one-sided put."""
        rank, off = self._element(i)
        ctx = current()
        if rank == ctx.rank:
            slab = self._local_slab(ctx)
            if slab is not None:
                ctx.stats.record_local()
                slab[off] = value
                return
        rma.put(ctx, rank, self._bases[rank] + off * self._itemsize,
                np.asarray(value, dtype=self.dtype))

    def __getstate__(self):
        """Shared arrays travel as handles: the cached owner-side view
        and rank binding are rebuilt lazily by the receiving rank."""
        state = self.__dict__.copy()
        state["_local"] = None
        state["_ctx"] = None
        del state["_rebind_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._rebind_lock = threading.Lock()

    def atomic(self, i: int, op, operand):
        """Atomic read-modify-write of element ``i`` (GUPS xor path):
        one translation, then one conduit atomic; returns the old value.
        ``op`` is an op name (see :meth:`atomic_batch`) or a callable."""
        rank, off = self._element(i)
        return rma.atomic(current(), rank,
                          self._bases[rank] + off * self._itemsize,
                          self.dtype, resolve_scalar(op), operand)

    def __len__(self) -> int:
        return self.size

    # -- batched access (one conduit op per owning rank) -----------------
    def gather(self, indices) -> np.ndarray:
        """Read ``a[indices]`` with **one** indexed get per owning rank
        (instead of one conduit op per element)."""
        idx = self._indices(indices)
        out = np.empty(idx.size, dtype=self.dtype)
        ctx = current()
        for r, offs, sel in self._by_owner(idx):
            out[sel] = rma.get_indexed(ctx, r, self._bases[r], self.dtype,
                                       offs)
        return out

    def scatter(self, indices, values) -> None:
        """Write ``a[indices] = values`` with one indexed put per owning
        rank.  ``values`` broadcasts against ``indices``; with duplicate
        indices the surviving value is unspecified (use
        :meth:`atomic_batch` for accumulation)."""
        idx = self._indices(indices)
        if not idx.size:
            return
        vals = _operands(values, self.dtype, idx.shape)
        ctx = current()
        for r, offs, sel in self._by_owner(idx):
            rma.put_indexed(ctx, r, self._bases[r], offs, vals[sel])

    def atomic_batch(self, indices, op, operands,
                     return_old: bool = False):
        """Batched atomic read-modify-write: one conduit op (and one
        target-lock acquisition) per owning rank.

        ``op`` is an op name (``"xor" | "add" | "and" | "or" | "swap" |
        "min" | "max"``) or a scalar callable; ``operands`` broadcasts
        against ``indices``.  Each element updates atomically (duplicate
        indices included); the batch as a whole is not one atomic unit.
        Returns the per-element old values when ``return_old`` is true.
        """
        idx = self._indices(indices)
        out = np.empty(idx.size, dtype=self.dtype) if return_old else None
        if not idx.size:
            return out
        ops = _operands(operands, self.dtype, idx.shape)
        ctx = current()
        for r, offs, sel in self._by_owner(idx):
            old = rma.atomic_batch(
                ctx, r, self._bases[r], self.dtype, offs, op, ops[sel],
                return_old,
            )
            if return_old:
                out[sel] = old
        return out

    # -- owner-side bulk access ---------------------------------------------
    def local_view(self) -> np.ndarray:
        """Zero-copy view of the calling rank's slab (local blocks in
        storage order).  Includes layout padding past ``size``."""
        self._require_init()
        ctx = current()
        slab = self._local_slab(ctx)
        if slab is not None:
            return slab
        return rma.local_view(
            ctx, self._bases[ctx.rank], self.dtype, self._slab_len
        )

    def local_indices(self) -> np.ndarray:
        """Global indices owned by the caller, in slab storage order,
        clipped to the array size."""
        self._require_init()
        gidx = global_index_of(current().rank,
                               np.arange(self._slab_len, dtype=np.int64),
                               self.block, len(self._bases))
        return gidx[gidx < self.size]

    def fill_local(self, value) -> None:
        """Owner-side fill of the local slab (no communication)."""
        self.local_view()[:] = value

    def read_range(self, start: int, stop: int) -> np.ndarray:
        """Bulk read [start, stop) with **one** contiguous get per owning
        rank: an owner's elements of a range are one run of its slab (its
        global indices map to slab offsets in order, without gaps)."""
        self._require_init()
        if not 0 <= start <= stop <= self.size:
            raise IndexError("range out of bounds")
        out = np.empty(stop - start, dtype=self.dtype)
        if start == stop:
            return out
        ctx = current()
        for r, offs, sel in self._by_owner(np.arange(start, stop)):
            out[sel] = rma.get(
                ctx, r, self._bases[r] + int(offs[0]) * self._itemsize,
                self.dtype, offs.size,
            )
        return out

    def write_range(self, start: int, values: np.ndarray) -> None:
        """Bulk write starting at ``start`` with one contiguous put per
        owning rank (the converse of :meth:`read_range`)."""
        self._require_init()
        values = np.asarray(values, dtype=self.dtype).reshape(-1)
        stop = start + values.size
        if not 0 <= start <= stop <= self.size:
            raise IndexError("range out of bounds")
        if start == stop:
            return
        ctx = current()
        for r, offs, sel in self._by_owner(np.arange(start, stop)):
            rma.put(ctx, r, self._bases[r] + int(offs[0]) * self._itemsize,
                    values[sel])

    #: Elements fetched per chunk while iterating.
    _ITER_CHUNK = 1024

    def __iter__(self) -> Iterator:
        """Element iteration, streamed via chunked :meth:`read_range`
        (at most ``nranks`` conduit ops per chunk instead of one get per
        element)."""
        self._require_init()
        for lo in range(0, self.size, self._ITER_CHUNK):
            hi = min(lo + self._ITER_CHUNK, self.size)
            yield from self.read_range(lo, hi)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SharedArray(dtype={self.dtype}, size={self.size}, "
            f"block={self.block})"
        )
