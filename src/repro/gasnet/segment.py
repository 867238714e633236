"""Per-rank registered memory segments.

A :class:`Segment` is the PGAS "shared heap" of one rank: a contiguous
NumPy byte buffer plus a first-fit free-list allocator.  Global pointers
(:class:`repro.core.global_ptr.GlobalPtr`) are (rank, byte-offset) pairs
into these segments, exactly like GASNet segment-fast addressing.

The copying accessors (:meth:`Segment.read`/:meth:`Segment.write`, their
typed and indexed forms, the atomics) take :attr:`Segment.lock`, so each
conduit op is atomic on its *target* segment — stronger than the aligned
word a real RDMA NIC guarantees, hence safe for the relaxed memory model
of paper §III-F.  :meth:`Segment.view` is the exception: the owner's
zero-copy view is unsynchronised, exactly like a local pointer in the
paper, and ordering it against peers' RMA is the program's job
(barriers, events, fences).
"""

from __future__ import annotations

import bisect
import threading
from typing import Iterator

import numpy as np

from repro.errors import BadPointer, SegmentOutOfMemory
from repro.gasnet.atomics import ATOMIC_UFUNCS, resolve_scalar

_ALIGN_DEFAULT = 8


def _align_up(x: int, align: int) -> int:
    return (x + align - 1) & ~(align - 1)


_INT64 = np.dtype(np.int64)
_UINT64 = np.dtype(np.uint64)


class Segment:
    """A byte-addressable shared-memory segment with its own allocator.

    Parameters
    ----------
    size:
        Segment capacity in bytes.
    rank:
        Owning rank (used only for error messages).
    buf:
        Optional externally owned storage (a writable ``uint8`` array of
        exactly ``size`` bytes).  The process conduit passes a NumPy view
        over a ``multiprocessing.shared_memory`` block here, so every
        process maps the *same* physical segment and RMA stays zero-copy
        across processes.  The caller guarantees initial contents
        (shared-memory blocks are zero-filled, matching the private
        ``np.zeros`` default).
    lock:
        Optional externally owned lock guarding raw access.  Must support
        the context-manager protocol and reentrancy; the process conduit
        passes the semaphore of a ``multiprocessing.RLock`` so atomics
        serialize across processes, not just across threads.
    """

    def __init__(self, size: int, rank: int = -1, buf: np.ndarray | None = None,
                 lock=None):
        if size <= 0:
            raise ValueError("segment size must be positive")
        self.size = int(size)
        self.rank = rank
        if buf is None:
            buf = np.zeros(self.size, dtype=np.uint8)
        else:
            buf = buf.view(np.uint8).reshape(-1)
            if buf.nbytes != self.size:
                raise ValueError(
                    f"external segment buffer is {buf.nbytes} bytes, "
                    f"expected {self.size}"
                )
        self.buf = buf
        self.lock = lock if lock is not None else threading.RLock()
        # Free list: sorted list of (offset, length) of free holes.
        self._free: list[tuple[int, int]] = [(0, self.size)]
        # Live allocations: offset -> length (as returned to caller).
        self._live: dict[int, int] = {}
        self._bytes_in_use = 0
        self._peak_in_use = 0

    # ------------------------------------------------------------------
    # allocator
    # ------------------------------------------------------------------
    def alloc(self, nbytes: int, align: int = _ALIGN_DEFAULT) -> int:
        """Allocate ``nbytes`` (first fit), returning the byte offset.

        Raises :class:`SegmentOutOfMemory` when no hole is large enough.
        Zero-byte allocations are legal and return a unique aligned offset
        backed by a 1-byte reservation (so ``free`` stays symmetrical).
        """
        if nbytes < 0:
            raise ValueError("negative allocation")
        if align <= 0 or (align & (align - 1)) != 0:
            raise ValueError("alignment must be a positive power of two")
        request = max(int(nbytes), 1)
        with self.lock:
            for i, (off, length) in enumerate(self._free):
                start = _align_up(off, align)
                pad = start - off
                if pad + request > length:
                    continue
                # Split the hole: [off, off+pad) stays free (if non-empty),
                # [start, start+request) is allocated, remainder stays free.
                tail_off = start + request
                tail_len = length - pad - request
                repl: list[tuple[int, int]] = []
                if pad:
                    repl.append((off, pad))
                if tail_len:
                    repl.append((tail_off, tail_len))
                self._free[i : i + 1] = repl
                self._live[start] = request
                self._bytes_in_use += request
                self._peak_in_use = max(self._peak_in_use, self._bytes_in_use)
                return start
        raise SegmentOutOfMemory(
            f"rank {self.rank}: cannot allocate {nbytes} bytes "
            f"({self._bytes_in_use}/{self.size} in use)"
        )

    def free(self, offset: int) -> None:
        """Release an allocation previously returned by :meth:`alloc`."""
        with self.lock:
            length = self._live.pop(offset, None)
            if length is None:
                raise BadPointer(
                    f"rank {self.rank}: free of unallocated offset {offset}"
                )
            self._bytes_in_use -= length
            self._insert_hole(offset, length)

    def _insert_hole(self, offset: int, length: int) -> None:
        """Insert a hole into the sorted free list, coalescing neighbours."""
        lo = bisect.bisect_left(self._free, (offset,))
        self._free.insert(lo, (offset, length))
        # Coalesce with successor then predecessor.
        if lo + 1 < len(self._free):
            noff, nlen = self._free[lo + 1]
            if offset + length == noff:
                self._free[lo : lo + 2] = [(offset, length + nlen)]
        if lo > 0:
            poff, plen = self._free[lo - 1]
            off, ln = self._free[lo]
            if poff + plen == off:
                self._free[lo - 1 : lo + 1] = [(poff, plen + ln)]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def bytes_in_use(self) -> int:
        return self._bytes_in_use

    @property
    def peak_bytes_in_use(self) -> int:
        return self._peak_in_use

    @property
    def n_live_allocations(self) -> int:
        return len(self._live)

    def holes(self) -> Iterator[tuple[int, int]]:
        """Yield the current free holes (for allocator tests)."""
        with self.lock:
            yield from list(self._free)

    def allocation_size(self, offset: int) -> int:
        with self.lock:
            if offset not in self._live:
                raise BadPointer(f"offset {offset} is not a live allocation")
            return self._live[offset]

    # ------------------------------------------------------------------
    # raw access (used by the conduit / RMA layer)
    # ------------------------------------------------------------------
    def _check_range(self, offset: int, nbytes: int) -> None:
        if offset < 0 or offset + nbytes > self.size:
            raise BadPointer(
                f"rank {self.rank}: access [{offset}, {offset + nbytes}) "
                f"outside segment of {self.size} bytes"
            )

    def read(self, offset: int, nbytes: int) -> np.ndarray:
        """Copy ``nbytes`` out of the segment (uint8 array)."""
        return self.typed_read(offset, np.uint8, nbytes)

    def write(self, offset: int, data: np.ndarray) -> int:
        """Copy an array's bytes into the segment — one pass over the
        data, under the lock — and return how many were written.
        ``data`` is consumed before returning, so it may be a live view,
        of this very segment too (an overlapping source is handled with
        memmove semantics)."""
        raw = np.ascontiguousarray(data).reshape(-1).view(np.uint8)
        self._check_range(offset, raw.size)
        with self.lock:
            self.buf[offset : offset + raw.size] = raw
        return raw.size

    typed_write = write

    def typed_read(self, offset: int, dtype: np.dtype, count: int,
                   out: np.ndarray | None = None) -> np.ndarray:
        """Copy ``count`` elements of ``dtype`` out of the segment, into
        a fresh array or — one ``np.copyto`` under the lock, nothing
        allocated — into ``out``, a writable C-contiguous array of the
        same byte length (its dtype need not match), which is returned.
        """
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * count
        self._check_range(offset, nbytes)
        src = self.buf[offset : offset + nbytes]
        if out is None:
            with self.lock:
                return src.copy().view(dtype)
        if not out.flags.c_contiguous or out.nbytes != nbytes:
            raise ValueError(
                f"out= must be C-contiguous and {nbytes} bytes long"
            )
        with self.lock:
            np.copyto(out.reshape(-1).view(np.uint8), src)
        return out

    def view(self, offset: int, dtype: np.dtype, count: int) -> np.ndarray:
        """A zero-copy typed view — owner-side access only.

        The caller must be the owning rank (PGAS semantics: casting a
        global pointer to a local pointer is only valid on the owner).
        Alignment of ``offset`` to ``dtype.itemsize`` is required because
        NumPy views cannot be misaligned.
        """
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * count
        self._check_range(offset, nbytes)
        if dtype.itemsize and offset % dtype.itemsize:
            raise BadPointer(
                f"offset {offset} misaligned for dtype {dtype} view"
            )
        return self.buf[offset : offset + nbytes].view(dtype)

    # ------------------------------------------------------------------
    # indexed (batched) access — the substrate of the batched RMA engine
    # ------------------------------------------------------------------
    def _indexed_view(self, base: int, dtype: np.dtype,
                      elem_offsets) -> tuple[np.ndarray, np.ndarray]:
        """A typed view covering all elements named by ``elem_offsets``
        (element indices relative to byte offset ``base``), plus the
        flat int64 index array (``elem_offsets`` itself when it is one).
        Caller must hold :attr:`lock` while the view is alive.

        Bounds are one ``np.maximum.reduce`` over the offsets viewed as
        ``uint64``, where a negative offset reads as 2**63 or more;
        ``min()`` runs only to name it."""
        if not isinstance(dtype, np.dtype):
            dtype = np.dtype(dtype)
        idx = elem_offsets
        if (idx.__class__ is not np.ndarray or idx.dtype is not _INT64
                or idx.ndim != 1):
            idx = np.asarray(idx, dtype=_INT64).reshape(-1)
        if idx.size == 0:
            return np.empty(0, dtype=dtype), idx
        hi = int(np.maximum.reduce(idx.view(_UINT64)))
        if hi >> 63:
            raise BadPointer(
                f"rank {self.rank}: negative element offset "
                f"{int(idx.min())} in batch"
            )
        extent = (hi + 1) * dtype.itemsize
        if base < 0 or base + extent > self.size:
            self._check_range(base, extent)  # raises, naming the access
        if dtype.itemsize and base % dtype.itemsize:
            raise BadPointer(
                f"offset {base} misaligned for dtype {dtype} batch access"
            )
        return self.buf[base : base + extent].view(dtype), idx

    def typed_read_indexed(self, base: int, dtype: np.dtype,
                           elem_offsets) -> np.ndarray:
        """Gather the elements at ``base + elem_offsets[k] * itemsize``
        with one lock acquisition (returns an owned copy)."""
        with self.lock:
            view, idx = self._indexed_view(base, dtype, elem_offsets)
            return view[idx]  # fancy indexing copies

    def typed_write_indexed(self, base: int, elem_offsets,
                            data: np.ndarray) -> None:
        """Scatter ``data`` to ``base + elem_offsets[k] * itemsize`` with
        one lock acquisition.  With duplicate offsets the surviving value
        is unspecified (as for NumPy fancy assignment)."""
        data = np.asarray(data)
        with self.lock:
            view, idx = self._indexed_view(base, data.dtype, elem_offsets)
            view[idx] = data if data.ndim == 1 else data.reshape(-1)

    def atomic_batch_update(self, base: int, dtype: np.dtype, elem_offsets,
                            op, operands, return_old: bool = False):
        """Apply one read-modify-write per element of ``elem_offsets``
        under a *single* segment-lock acquisition.

        ``op`` is an op name (see :mod:`repro.gasnet.atomics`) or a scalar
        callable.  Named commutative ops are applied vectorized with
        ``ufunc.at`` (duplicate-index safe); callables, ``"swap"`` with
        duplicates, and old-value requests over duplicates fall back to a
        sequential in-lock loop, preserving issue-order semantics.
        Returns the array of old values when ``return_old`` is true.
        """
        with self.lock:
            view, idx = self._indexed_view(base, dtype, elem_offsets)
            dtype = view.dtype
            if idx.size == 0:
                return np.empty(0, dtype=dtype) if return_old else None
            ops = operands
            if ops.__class__ is not np.ndarray or ops.dtype is not dtype:
                ops = np.asarray(ops, dtype=dtype)
            if ops.shape != idx.shape:
                ops = np.broadcast_to(ops, idx.shape)
            ufunc = ATOMIC_UFUNCS.get(op) if isinstance(op, str) else None
            # Vectorized: a ufunc.at that need not return old values
            # (duplicates are safe), or any named op on unique indices.
            if (ufunc is not None and not return_old) or (
                    (ufunc is not None or op == "swap")
                    and np.unique(idx).size == idx.size):
                old = view[idx] if return_old else None  # a copy
                if ufunc is None:
                    view[idx] = ops
                elif dtype.kind not in "fc":  # integers wrap silently
                    ufunc.at(view, idx, ops)
                else:
                    with np.errstate(over="ignore"):
                        ufunc.at(view, idx, ops)
                return old
            fn = resolve_scalar(op)
            old = np.empty(idx.shape, dtype=dtype)
            # NumPy scalar arithmetic warns on integer overflow too
            with np.errstate(over="ignore"):
                for k in range(idx.size):
                    cur = view[idx[k]].copy()
                    old[k] = cur
                    view[idx[k]] = fn(cur, ops[k])
            return old if return_old else None

    def atomic_update(self, offset: int, dtype: np.dtype, op, operand):
        """Read-modify-write one element under the segment lock.

        ``op`` is a callable ``(old, operand) -> new``.  Returns the old
        value.  This is the substrate for remote atomics (GUPS xor).
        """
        dtype = np.dtype(dtype)
        self._check_range(offset, dtype.itemsize)
        with self.lock:
            cell = self.buf[offset : offset + dtype.itemsize].view(dtype)
            old = cell[0].copy()
            with np.errstate(over="ignore"):  # wraparound, as in batches
                cell[0] = op(old, operand)
        return old
