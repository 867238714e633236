"""SPSC shared-memory message rings for the proc conduit.

One :class:`Ring` region per *directed* rank pair carries the byte
stream of AM wire messages (the exact bytes the socketpair fallback
would write) through shared memory instead of the kernel: GASNet's smp
conduit move, applied to the PR-6 frame format.

Layout of one region (all offsets relative to the region base)::

    +0    tail         u64, producer-owned   slots published
    +64   head         u64, consumer-owned   slots consumed
    +128  spill_alloc  u64, producer-owned   spill bytes allocated
    +192  spill_free   u64, consumer-owned   spill bytes released
    +256  slots        nslots * slot_bytes
    +...  spill        spill_bytes           OOB overflow region

Each fixed-size slot is ``<u32 inline_len, u32 spill_len, u64
spill_off>`` followed by ``inline_len`` payload bytes; when a slot's
logical chunk is larger than the inline capacity the remainder lives at
``spill_off`` in the spill region.  The consumer reassembles the per-pair
byte stream as ``inline bytes + spill bytes`` per slot, in slot order,
so a message larger than one slot simply spans several slots — no size
limit, and FIFO is structural.

The cursors are monotonically increasing 64-bit counters at 64-byte
strides (their own cache lines), each with exactly one writer (SPSC).
They are read and written as items of one ``memoryview.cast("Q")`` view
of the control block: a plain 8-byte store, so the other side may
observe a stale value but never an in-between one.  They must *not* go
through ``struct.pack_into``, which zero-fills its destination before
packing: a concurrent reader then sees the cursor pass through 0 and
re-consumes stale slots or runs ``head`` past the real tail.  A slot is
published payload first, then its header, then ``tail``.  The spill region
is a bump allocator over the same discipline: the producer only ever
allocates contiguous tail room (a chunk shrinks rather than wraps), and
the consumer releases bytes in allocation order because slot consumption
is FIFO.

The classes operate on any writable buffer (a ``memoryview`` of a
``multiprocessing.shared_memory`` block in production, a plain
``bytearray`` in unit tests).
"""

from __future__ import annotations

import struct

SLOT_HDR = struct.Struct("<IIQ")  # inline_len, spill_len, spill_off

#: Control-cursor indices into a region's control block viewed as native
#: u64 items (64-byte strides: one cache line per single-writer counter).
_TAIL = 0
_HEAD = 8
_ALLOC = 16
_FREE = 24
CTRL_BYTES = 256


class RingSpec:
    """Geometry of one ring region (shared by producer and consumer)."""

    __slots__ = ("slots", "slot_bytes", "spill_bytes", "inline_cap",
                 "region_bytes")

    def __init__(self, slots: int = 64, slot_bytes: int = 4096,
                 spill_bytes: int = 1 << 20):
        if slots < 2:
            raise ValueError("ring needs at least 2 slots")
        if slot_bytes <= SLOT_HDR.size:
            raise ValueError(
                f"slot_bytes must exceed the {SLOT_HDR.size}-byte slot "
                f"header"
            )
        self.slots = slots
        self.slot_bytes = slot_bytes
        self.spill_bytes = spill_bytes
        self.inline_cap = slot_bytes - SLOT_HDR.size
        self.region_bytes = CTRL_BYTES + slots * slot_bytes + spill_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RingSpec(slots={self.slots}, slot_bytes={self.slot_bytes},"
                f" spill_bytes={self.spill_bytes})")


class RingProducer:
    """The sending side of one directed ring (single producer).

    The conduit serializes callers with its per-peer send lock; within
    that discipline the producer owns ``tail`` and ``spill_alloc`` and
    only *reads* the consumer's cursors.
    """

    __slots__ = ("_mv", "_ctrl", "_spec", "_slot0", "_spill0",
                 "_tail", "_alloc", "last_spill")

    def __init__(self, buf, spec: RingSpec, base: int = 0):
        self._mv = memoryview(buf)
        self._ctrl = self._mv[base:base + CTRL_BYTES].cast("Q")
        self._spec = spec
        self._slot0 = base + CTRL_BYTES
        self._spill0 = base + CTRL_BYTES + spec.slots * spec.slot_bytes
        # The region is zero-initialized at creation; cache our own
        # cursors locally (we are their only writer).
        self._tail = self._ctrl[_TAIL]
        self._alloc = self._ctrl[_ALLOC]
        #: Spill bytes placed by the most recent successful try_emit
        #: (telemetry reads this; 0 for a purely inline slot).
        self.last_spill = 0

    # -- introspection (tests, backpressure probes) ----------------------
    def free_slots(self) -> int:
        return self._spec.slots - (self._tail - self._ctrl[_HEAD])

    def spill_in_use(self) -> int:
        return self._alloc - self._ctrl[_FREE]

    def try_emit(self, data, off: int) -> int:
        """Publish one slot carrying bytes of ``data`` starting at
        ``off``; returns how many bytes were consumed (0 when the ring
        is full — the caller backs off and retries).

        As much of the chunk as fits goes inline; the remainder takes
        whatever contiguous spill tail room is currently free.  A
        non-full ring always makes progress (at least the inline bytes),
        so a stream of any length drains through a bounded region.
        """
        spec = self._spec
        mv = self._mv
        ctrl = self._ctrl
        if self._tail - ctrl[_HEAD] >= spec.slots:
            return 0
        remaining = len(data) - off
        inline = remaining if remaining < spec.inline_cap else spec.inline_cap
        spill_need = remaining - inline
        spill_len = 0
        spill_off = 0
        if spill_need > 0 and spec.spill_bytes:
            free = spec.spill_bytes - (self._alloc - ctrl[_FREE])
            pos = self._alloc % spec.spill_bytes
            contig = spec.spill_bytes - pos
            spill_len = min(spill_need, free, contig)
            if spill_len > 0:
                spill_off = pos
                dst0 = self._spill0 + pos
                src0 = off + inline
                mv[dst0:dst0 + spill_len] = data[src0:src0 + spill_len]
                self._alloc += spill_len
                ctrl[_ALLOC] = self._alloc
        slot = self._slot0 + (self._tail % spec.slots) * spec.slot_bytes
        body = slot + SLOT_HDR.size
        mv[body:body + inline] = data[off:off + inline]
        SLOT_HDR.pack_into(mv, slot, inline, spill_len, spill_off)
        self._tail += 1
        ctrl[_TAIL] = self._tail
        self.last_spill = spill_len
        return inline + spill_len


class RingConsumer:
    """The receiving side of one directed ring (single consumer)."""

    __slots__ = ("_mv", "_ctrl", "_spec", "_slot0", "_spill0",
                 "_head", "_freed")

    def __init__(self, buf, spec: RingSpec, base: int = 0):
        self._mv = memoryview(buf)
        self._ctrl = self._mv[base:base + CTRL_BYTES].cast("Q")
        self._spec = spec
        self._slot0 = base + CTRL_BYTES
        self._spill0 = base + CTRL_BYTES + spec.slots * spec.slot_bytes
        self._head = self._ctrl[_HEAD]
        self._freed = self._ctrl[_FREE]

    def pending(self) -> bool:
        """Whether at least one unconsumed slot is published."""
        return self._ctrl[_TAIL] != self._head

    def try_recv(self):
        """Consume one slot; returns its chunk as a ``bytearray`` (the
        next piece of the pair's byte stream) or ``None`` when empty."""
        spec = self._spec
        mv = self._mv
        ctrl = self._ctrl
        if ctrl[_TAIL] == self._head:
            return None
        slot = self._slot0 + (self._head % spec.slots) * spec.slot_bytes
        inline, spill_len, spill_off = SLOT_HDR.unpack_from(mv, slot)
        out = bytearray(inline + spill_len)
        body = slot + SLOT_HDR.size
        out[:inline] = mv[body:body + inline]
        if spill_len:
            s0 = self._spill0 + spill_off
            out[inline:] = mv[s0:s0 + spill_len]
        # Copy-out complete: release the slot, then the spill bytes
        # (allocation order == consumption order, so a running total is
        # an exact free cursor).
        self._head += 1
        ctrl[_HEAD] = self._head
        if spill_len:
            self._freed += spill_len
            ctrl[_FREE] = self._freed
        return out
