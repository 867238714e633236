"""Titanium-style multidimensional arrays over rectangular domains
(paper §III-E).

An :class:`NdArray` couples a :class:`~repro.arrays.rectdomain.RectDomain`
(the logical index space) with storage allocated in *one* rank's segment
("the elements of an array must be located on a single thread, which may
be in a remote memory location").  The object itself is a lightweight,
picklable descriptor — it can be published in a
:class:`~repro.core.directory.Directory` or shipped inside an async,
which is exactly how the paper composes ``shared_array<ndarray<...>>``.

Views (``constrict``, ``slice``, ``translate``, ``permute``) share
storage and only rewrite the affine index map.  ``A.copy(B)`` is the
paper's one-sided copy: intersect domains, then move the intersection
with RMA alone — a bulk ``copy()`` when both sides store it packed,
otherwise an indexed get and/or put over the affine map.  Neither
owner's CPU runs anything.  (The paper packs and unpacks in active
messages; indexed RMA models NIC gather/scatter instead.)

The ``unstrided`` specialization of the paper (matching logical and
physical stride) corresponds here to the *affine fast path*: for
unit-stride views the index map needs no per-dimension division and
local access compiles to plain NumPy views.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.arrays.point import Point
from repro.arrays.rectdomain import RectDomain
from repro.core.copy import copy as bulk_copy
from repro.core.global_ptr import GlobalPtr
from repro.core.world import current
from repro.errors import BadPointer, DomainError
from repro.gasnet import rma


class NdArray:
    """A (possibly remote) N-d array over a rectangular domain.

    Do not call the constructor directly — use :func:`ndarray` to
    allocate, or view methods to derive.  All fields are plain data; the
    object is picklable and rank-agnostic.
    """

    __slots__ = (
        "rank", "base_offset", "dtype_str", "domain",
        "elem_base", "elem_strides", "alloc_elems",
    )

    def __init__(self, rank: int, base_offset: int, dtype, domain: RectDomain,
                 elem_base: int, elem_strides: tuple[int, ...],
                 alloc_elems: int):
        self.rank = rank
        self.base_offset = base_offset          # byte offset of allocation
        self.dtype_str = np.dtype(dtype).str    # picklable dtype spec
        self.domain = domain
        self.elem_base = elem_base              # element index of domain.lb
        self.elem_strides = tuple(elem_strides)  # elems per +stride step/dim
        self.alloc_elems = alloc_elems          # total allocation length

    # -- basic properties --------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self.dtype_str)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.domain.shape

    @property
    def size(self) -> int:
        return self.domain.size

    @property
    def ndim(self) -> int:
        return self.domain.dim

    def where(self) -> int:
        """The rank holding the storage (affinity)."""
        return self.rank

    def is_local(self) -> bool:
        return current().rank == self.rank

    @property
    def unstrided(self) -> bool:
        """True when the logical and physical strides match: a unit-stride
        domain laid out contiguously in row-major order (the paper's
        template specialization that skips stride arithmetic)."""
        return self._packed and all(s == 1 for s in self.domain.stride)

    @property
    def _packed(self) -> bool:
        """The view's elements are one contiguous row-major run of the
        allocation, starting at ``elem_base``."""
        return self.elem_strides == _row_major(self.shape)

    def _ptr(self) -> GlobalPtr:
        """Global pointer to the view's first element."""
        return GlobalPtr(
            self.rank,
            self.base_offset + self.elem_base * self.dtype.itemsize,
            self.dtype,
        )

    # -- index mapping -----------------------------------------------------
    def _elem_index(self, pt: Point) -> int:
        """Element index (into the allocation) of logical point ``pt``."""
        if pt not in self.domain:
            raise IndexError(f"{pt} not in {self.domain}")
        idx = self.elem_base
        for c, l, s, es in zip(pt, self.domain.lb, self.domain.stride,
                               self.elem_strides):
            idx += ((c - l) // s) * es
        return idx

    def _byte_offset(self, pt: Point) -> int:
        return self.base_offset + self._elem_index(pt) * self.dtype.itemsize

    # -- element access (overloaded indexing; remote if needed) ------------
    def _as_point(self, index) -> Point:
        if isinstance(index, Point):
            return index
        if isinstance(index, tuple):
            return Point(*index)
        if isinstance(index, int) and self.ndim == 1:
            return Point(index)
        raise IndexError(
            f"index {index!r} cannot address a {self.ndim}-d array; "
            "use a point/tuple, or .slice() for partial indexing"
        )

    def __getitem__(self, index):
        pt = self._as_point(index)
        ctx = current()
        return rma.get(
            ctx, self.rank, self._byte_offset(pt), self.dtype, 1
        )[0]

    def __setitem__(self, index, value) -> None:
        pt = self._as_point(index)
        ctx = current()
        rma.put(
            ctx, self.rank, self._byte_offset(pt),
            np.asarray(value, dtype=self.dtype),
        )

    # -- views ------------------------------------------------------------
    def constrict(self, dom: RectDomain) -> "NdArray":
        """Restrict the view to ``domain ∩ dom`` (paper's ``constrict``)."""
        inter = self.domain.intersect(dom)
        if inter.is_empty:
            return NdArray(
                self.rank, self.base_offset, self.dtype, inter,
                self.elem_base, self.elem_strides, self.alloc_elems,
            )
        new_strides = tuple(
            es * (ns // os)
            for es, ns, os in zip(
                self.elem_strides, inter.stride, self.domain.stride
            )
        )
        base = self.elem_base
        for c, l, s, es in zip(inter.lb, self.domain.lb, self.domain.stride,
                               self.elem_strides):
            base += ((c - l) // s) * es
        return NdArray(
            self.rank, self.base_offset, self.dtype, inter,
            base, new_strides, self.alloc_elems,
        )

    def slice(self, axis: int, coord: int) -> "NdArray":
        """Fix one coordinate: an (N-1)-d view (paper's array slicing)."""
        if self.ndim == 1:
            raise DomainError("cannot slice a 1-d array to 0-d")
        newdom = self.domain.slice(axis, coord)
        base = self.elem_base + (
            (coord - self.domain.lb[axis]) // self.domain.stride[axis]
        ) * self.elem_strides[axis]
        strides = (
            self.elem_strides[:axis] + self.elem_strides[axis + 1:]
        )
        return NdArray(
            self.rank, self.base_offset, self.dtype, newdom,
            base, strides, self.alloc_elems,
        )

    def translate(self, pt) -> "NdArray":
        """Shift the logical domain; storage untouched."""
        pt = pt if isinstance(pt, Point) else Point(pt)
        return NdArray(
            self.rank, self.base_offset, self.dtype,
            self.domain.translate(pt), self.elem_base,
            self.elem_strides, self.alloc_elems,
        )

    def permute(self, perm) -> "NdArray":
        """Reorder dimensions (generalized transpose)."""
        perm = tuple(perm)
        newdom = self.domain.permute(perm)
        strides = tuple(self.elem_strides[p] for p in perm)
        return NdArray(
            self.rank, self.base_offset, self.dtype, newdom,
            self.elem_base, strides, self.alloc_elems,
        )

    def transpose(self) -> "NdArray":
        return self.permute(tuple(reversed(range(self.ndim))))

    def inject(self, factor) -> "NdArray":
        """View with coordinates scaled up: ``A.inject(k)[p*k] == A[p]``
        (Titanium's inject — embed a coarse array in a fine index
        space).  Storage untouched."""
        from repro.arrays.point import Point as _P

        f = factor if isinstance(factor, _P) else \
            _P.all(int(factor), self.ndim)
        return NdArray(
            self.rank, self.base_offset, self.dtype,
            self.domain.inject(f), self.elem_base, self.elem_strides,
            self.alloc_elems,
        )

    def project(self, factor) -> "NdArray":
        """View with coordinates scaled down (inverse of :meth:`inject`;
        the lattice must be divisible by ``factor``)."""
        from repro.arrays.point import Point as _P

        f = factor if isinstance(factor, _P) else \
            _P.all(int(factor), self.ndim)
        return NdArray(
            self.rank, self.base_offset, self.dtype,
            self.domain.project(f), self.elem_base, self.elem_strides,
            self.alloc_elems,
        )

    # -- owner-side bulk access ------------------------------------------
    def local_view(self) -> np.ndarray:
        """Zero-copy writable NumPy view shaped like the domain.

        Owner-only (the local-pointer cast rule).  Works for any view —
        the affine map becomes NumPy strides.
        """
        ctx = current()
        if ctx.rank != self.rank:
            raise BadPointer(
                f"rank {ctx.rank} cannot take a local view of an array on "
                f"rank {self.rank}"
            )
        flat = rma.local_view(
            ctx, self.base_offset, self.dtype, self.alloc_elems
        )
        itemsize = self.dtype.itemsize
        return np.lib.stride_tricks.as_strided(
            flat[self.elem_base:],
            shape=self.shape,
            strides=tuple(es * itemsize for es in self.elem_strides),
            writeable=True,
        )

    def set(self, value) -> None:
        """Fill the (local or remote) array with ``value``."""
        if self.is_local():
            self.local_view()[:] = value
        else:
            _write(self, np.full(self.shape, value, dtype=self.dtype))

    def to_numpy(self) -> np.ndarray:
        """A private copy of the full contents (works remotely)."""
        if self.is_local():
            return self.local_view().copy()
        return _read(self)

    def from_numpy(self, arr: np.ndarray) -> None:
        """Overwrite contents from a NumPy array of matching shape."""
        arr = np.asarray(arr, dtype=self.dtype)
        if arr.shape != self.shape:
            raise DomainError(
                f"shape mismatch: array {self.shape} vs data {arr.shape}"
            )
        if self.is_local():
            self.local_view()[:] = arr
        else:
            _write(self, arr)

    # -- the one-sided copy (paper's A.copy(B)) -----------------------------
    def copy(self, src: "NdArray", event=None) -> None:
        """Copy from ``src`` into ``self`` over the domain intersection.

        Fully one-sided: RMA only, so neither owner's CPU executes
        anything and no active message is sent.  Where both arrays store
        the intersection packed it moves as one bulk ``copy()`` (one
        memcpy, one segment lock); strided, sliced or permuted sides are
        gathered / scattered with one indexed RMA op each, the bytes
        reinterpreted if the dtypes differ — the single-statement ghost
        update of the paper:

        ``A.constrict(ghost_domain).copy(B)``

        The copy is done when this returns, so ``event`` (the paper's
        signature) is never left with it outstanding.
        """
        if np.dtype(src.dtype).itemsize != self.dtype.itemsize:
            raise DomainError("copy between incompatible dtypes")
        inter = self.domain.intersect(src.domain)
        if inter.is_empty:
            return
        s, d = src.constrict(inter), self.constrict(inter)
        if s._packed and d._packed:
            bulk_copy(s._ptr(), d._ptr(), inter.size)
        else:
            _write(d, _read(s).view(self.dtype))

    async_copy = copy  # data movement is eager in the SMP conduit

    # -- misc ----------------------------------------------------------------
    def free(self) -> None:
        """Release the underlying allocation (owner's segment)."""
        from repro.core.allocator import deallocate
        from repro.core.global_ptr import GlobalPtr

        deallocate(GlobalPtr(self.rank, self.base_offset, self.dtype))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"NdArray(rank={self.rank}, dtype={self.dtype_str}, "
            f"domain={self.domain})"
        )


# ---------------------------------------------------------------------------
# allocation
# ---------------------------------------------------------------------------

def _row_major(shape: tuple[int, ...]) -> tuple[int, ...]:
    strides = [1] * len(shape)
    for d in range(len(shape) - 2, -1, -1):
        strides[d] = strides[d + 1] * shape[d + 1]
    return tuple(strides)


def ndarray(dtype, domain: RectDomain, rank: Optional[int] = None) -> NdArray:
    """Allocate an array over ``domain`` on ``rank`` (default: caller).

    The paper's ``ARRAY(int, ((1,2),(9,9),(1,3)))`` macro — storage is
    zero-initialized, laid out row-major over the domain's points.
    """
    from repro.core.allocator import allocate

    ctx = current()
    if rank is None:
        rank = ctx.rank
    dt = np.dtype(dtype)
    n = max(domain.size, 1)
    ptr = allocate(rank, n, dt)
    return NdArray(
        rank=rank,
        base_offset=ptr.offset,
        dtype=dt,
        domain=domain,
        elem_base=0,
        elem_strides=_row_major(domain.shape),
        alloc_elems=n,
    )


def ARRAY(dtype, domain_spec) -> NdArray:
    """Paper Table II shorthand: ``ARRAY(int, ((1,2),(9,9),(1,3)))``."""
    if isinstance(domain_spec, RectDomain):
        dom = domain_spec
    else:
        dom = RectDomain(*domain_spec)
    return ndarray(dtype, dom)


# ---------------------------------------------------------------------------
# one-sided gather / scatter of a whole view over the affine map
# ---------------------------------------------------------------------------

def _flat_indices(arr: NdArray) -> np.ndarray:
    """Element indices (into the allocation) of ``arr``'s points in
    row-major order — computed with broadcasting, no Python point loop."""
    idx = np.full(arr.shape, arr.elem_base, dtype=np.int64)
    for d, (n, es) in enumerate(zip(arr.shape, arr.elem_strides)):
        shape = [1] * arr.ndim
        shape[d] = n
        idx += (np.arange(n, dtype=np.int64) * es).reshape(shape)
    return idx.reshape(-1)


def _read(arr: NdArray) -> np.ndarray:
    """The contents of ``arr`` (wherever it lives) as a private block of
    ``arr.shape``: one get if the view is packed, else one indexed get."""
    if arr._packed:
        flat = arr._ptr().get(arr.size)
    else:
        flat = rma.get_indexed(current(), arr.rank, arr.base_offset,
                               arr.dtype, _flat_indices(arr))
    return flat.reshape(arr.shape)


def _write(arr: NdArray, block: np.ndarray) -> None:
    """Overwrite ``arr`` (wherever it lives) with ``block``: one put if
    the view is packed, else one indexed put."""
    if arr._packed:
        arr._ptr().put(block)
    else:
        rma.put_indexed(current(), arr.rank, arr.base_offset,
                        _flat_indices(arr), block)
