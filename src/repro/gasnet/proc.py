"""The process conduit: ranks are OS processes, segments live in
``multiprocessing.shared_memory``, AMs cross Unix-domain socket pairs
or shared-memory rings whose doorbell is that same socket pair.

This is the GASNet-style "different conduit, same runtime" split: the
whole UPC++-layer stack (collectives, failure detection, telemetry, tracing,
distributed containers) runs unmodified because :class:`ProcConduit`
implements the full abstract :class:`~repro.gasnet.conduit.Conduit`
contract.

Design
------
* **RMA is zero-copy.**  Every rank's segment is one shared-memory
  block, created by the launcher before the fork and mapped in every
  rank process.  A rank's :class:`~repro.gasnet.segment.Segment` is
  built over a NumPy view of the mapping with a cross-process
  ``multiprocessing.RLock``, so :class:`~repro.gasnet.conduit.Conduit`'s
  own ``rma_*`` ops — the code the SMP conduit runs, including the
  indexed gather/scatter and batched-atomic fast paths — work across
  processes with no serialization and no intermediate copy.

* **AMs ship as the PR-6 wire frames, not pickles.**  A send writes the
  frame's struct-packed control bytes followed by its pickle-5
  out-of-band buffers as length-prefixed raw byte spans; nothing is
  re-encoded at the boundary.  Only the (rare) by-reference table is
  pickled — and a by-reference payload that cannot be pickled raises a
  clear :class:`~repro.errors.SerializationError` at the sender instead
  of delivering a dangling reference.

* **Two AM transports, one message stream, no receive thread.**  Both
  carry the same per-directed-pair byte stream of frames (below) and
  both wake the receiver through the pair's mesh socket.
  ``proc+socket`` — which plain ``proc`` names — writes the message
  bytes to that socket (one ``sendmsg`` per message; one buffered read
  per readable peer, parsed in one pass).  ``proc+ring`` is the same
  transport with the bytes in shared memory: a send publishes the
  message as slots of the pair's directed :mod:`repro.gasnet.ring`
  SPSC region (all regions live in one ``multiprocessing.shared_memory``
  block the launcher creates before the fork) and then sends **one bell
  byte** on the socket; whoever reads the bell drains that peer's ring
  until it is empty.  A bell per send does everything a ``sendmsg``
  does plus a slot copy, so the ring does not beat the socket on small
  frames (ROADMAP item 1 has the numbers).

* **The waiting rank is the receiver** (paper §IV; GASNet's
  ``AMPoll``): :meth:`ProcConduit.poll` — one ``select.poll`` over the
  peer sockets and the self-pipe (a wake), one read per readable peer —
  is where ``wait_until`` parks (:mod:`repro.core.progress`), so a reply
  wakes the thread that wants it and completes its future right there
  when nothing is queued before it.  **A blocked sender polls**
  (:meth:`ProcConduit._blocked`; sends are ``MSG_DONTWAIT``), or two
  ranks flooding each other would deadlock.

* **Locks, and why each stays.**  Per-peer *send locks*: the rank
  thread, the progress thread and the failure detector (its
  ``__ping__`` / ``__pong__`` probes) all send, and messages must not
  interleave on a stream.  ``_recv_lock``: one receiver at a time
  (parser state is not re-entrant, the rings are single-consumer); a
  second caller — the progress thread, a handler-nested wait, a
  blocked sender — tries it, or waits for it at most its own timeout,
  and never spins.  The rank's doorbell (``RankState._bell``) is the
  parking place on smp and unused here: a delivery from another thread of the
  process (the launcher's ``proc-control`` thread) is a bare deque
  append, which :meth:`ProcConduit.wake` follows with a byte on the
  self-pipe only when somebody is parked in ``poll``.  (The core's
  endpoint lock, ``_handler_lock`` and stats lock are in DESIGN.md's
  AM-path census.)

* **A frame names its handler.**  Handlers registered after the fork,
  or in a different order on each rank, need no agreement: the wire
  carries the name (:mod:`repro.gasnet.wire.frame`), so a frame means
  the same thing in every process and the stream is frames only.

The conduit only ever *sends from* its own rank; peer
:class:`~repro.core.world.RankState` objects in a rank process are
directory stubs whose shared-memory segments are real but whose inboxes
are never used (remote delivery happens in the remote process).
"""

from __future__ import annotations

import errno
import itertools
import os
import pickle
import select
import socket
import struct
import threading
import time

import numpy as np
from multiprocessing import get_context, shared_memory

from repro.errors import PgasError, SerializationError, TransientCommError
from repro.gasnet.am import ActiveMessage, am_handler
from repro.gasnet.conduit import Conduit, ConduitCaps
from repro.gasnet.ring import RingConsumer, RingProducer, RingSpec
from repro.gasnet.segment import Segment
from repro.gasnet.wire.frame import (F_HAS_REFS, F_IS_REPLY, F_USED_PICKLE,
                                     new_frame)

#: One capability set for both AM transports; which one a backend name
#: pins is in ``Backend.options["transport"]``.
PROC_CAPS = ConduitCaps(
    cross_process=True,
    needs_launcher=True,
)

# -- ring transport constants ------------------------------------------------
#
# Geometry of one directed ring.  Constants, not options: no two callers
# need different values.  A sweep (ROADMAP item 1 (d)) patches them here.

RING_SLOTS = 64              # slots per directed ring
RING_SLOT_BYTES = 4096       # per slot: 16-byte header + inline room
RING_SPILL_BYTES = 1 << 20   # per-ring OOB spill region (oversized frames)

# -- message framing ---------------------------------------------------------
#
# Both transports carry one per-directed-pair byte stream of wire
# frames.  Each is <III> (ctrl_len, nbufs, refs_len) + nbufs u64 buffer
# lengths, then the raw control bytes, the raw buffer spans, and the
# pickled by-reference table.  One pass per frame each way: a send lays
# the frame out for one sendmsg (ProcConduit.deliver_encoded), and a
# receive parses every frame a chunk completes in one loop
# (ProcConduit._feed), queuing the Frame itself; the endpoint thaws it.

_FRAME_HDR = struct.Struct("<III")

_RECV_CHUNK = 1 << 18     # receive-loop read size (message or bell bytes)
_IOV_BATCH = 128          # spans per sendmsg (stay far under IOV_MAX)

_fabric_ids = itertools.count(1)


class _StreamParser:
    """One peer's stream bytes not yet parsed: ``buf[off:]`` is the
    start of a frame the next chunk completes.  :meth:`ProcConduit._feed`
    is the parse."""

    __slots__ = ("buf", "off")

    def __init__(self):
        self.buf = bytearray()
        self.off = 0


class ProcFabric:
    """Everything the launcher builds *before* forking the ranks.

    Shared-memory segment blocks, cross-process segment locks, the AM
    ring block (ring transport), the full-mesh AM socket pairs (the
    message stream on the socket transport, the doorbell on the ring
    transport), and one bootstrap socket pair per rank.  File
    descriptors, mappings, and lock handles reach the rank processes by
    fork inheritance; :meth:`child_setup` closes the ends a rank does
    not own so peer-exit EOFs propagate and no fd leaks outlive the
    world.
    """

    def __init__(self, n_ranks: int, segment_size: int,
                 transport: str | None = None):
        self.n_ranks = n_ranks
        self.segment_size = segment_size
        self.uid = f"{os.getpid()}_{next(_fabric_ids)}"
        self.ctx = get_context("fork")
        self.locks = [self.ctx.RLock() for _ in range(n_ranks)]
        self.shms: list[shared_memory.SharedMemory] = []
        self.transport = transport or "socket"
        if self.transport not in ("ring", "socket"):
            raise PgasError(
                f"proc fabric: unknown AM transport {self.transport!r} "
                f"(expected 'ring' or 'socket')"
            )
        self.ring_spec: RingSpec | None = None
        self.ring_shm: shared_memory.SharedMemory | None = None
        try:
            for r in range(n_ranks):
                self.shms.append(shared_memory.SharedMemory(
                    name=f"repro_{self.uid}_r{r}", create=True,
                    size=segment_size,
                ))
            if self.transport == "ring":
                self.ring_spec = RingSpec(RING_SLOTS, RING_SLOT_BYTES,
                                          RING_SPILL_BYTES)
                pairs = n_ranks * (n_ranks - 1)
                self.ring_shm = shared_memory.SharedMemory(
                    name=f"repro_{self.uid}_ring", create=True,
                    size=max(pairs * self.ring_spec.region_bytes, 1),
                )
        except BaseException:
            self.destroy()
            raise
        #: mesh[(i, j)] for i < j: (rank i's end, rank j's end).
        self.mesh: dict[tuple[int, int],
                        tuple[socket.socket, socket.socket]] = {}
        for i in range(n_ranks):
            for j in range(i + 1, n_ranks):
                self.mesh[(i, j)] = socket.socketpair()
        #: boot[r]: (parent end, rank r's end) — ready/go handshake,
        #: death/failure broadcasts, and the rank's final result.
        self.boot = [socket.socketpair() for _ in range(n_ranks)]

    # -- ring layout -----------------------------------------------------
    def ring_region(self, src: int, dst: int) -> int:
        """Base offset of the directed ``src -> dst`` ring region."""
        idx = src * (self.n_ranks - 1) + (dst if dst < src else dst - 1)
        return idx * self.ring_spec.region_bytes

    # -- fd hygiene ------------------------------------------------------
    def child_setup(self, rank: int) -> None:
        """Called first thing in a rank process: keep only this rank's
        socket ends."""
        for (i, j), (a, b) in self.mesh.items():
            if i == rank:
                b.close()
            elif j == rank:
                a.close()
            else:
                a.close()
                b.close()
        for r, (parent_end, child_end) in enumerate(self.boot):
            parent_end.close()
            if r != rank:
                child_end.close()

    def parent_setup(self) -> None:
        """Called in the launcher after the forks: close the rank ends."""
        for a, b in self.mesh.values():
            a.close()
            b.close()
        for _parent_end, child_end in self.boot:
            child_end.close()

    def mesh_for(self, rank: int) -> dict[int, socket.socket]:
        socks = {}
        for (i, j), (a, b) in self.mesh.items():
            if i == rank:
                socks[j] = a
            elif j == rank:
                socks[i] = b
        return socks

    def boot_child(self, rank: int) -> socket.socket:
        return self.boot[rank][1]

    def boot_parent(self, rank: int) -> socket.socket:
        return self.boot[rank][0]

    # -- segments --------------------------------------------------------
    def make_segment(self, rank: int, size: int) -> Segment:
        """Segment factory handed to :class:`~repro.core.world.World`:
        every rank's segment is a view of its shared-memory block, so
        RMA against *any* rank is a direct mapped access."""
        if size != self.segment_size:
            raise PgasError(
                f"proc fabric built for segment_size={self.segment_size}, "
                f"world asked for {size}"
            )
        buf = np.frombuffer(self.shms[rank].buf, dtype=np.uint8)
        lock = self.locks[rank]._semlock  # the RLock's own C semaphore
        return Segment(size, rank=rank, buf=buf, lock=lock)

    def destroy(self) -> None:
        """Launcher-side teardown: close every fd, unlink the blocks."""
        for pair in list(getattr(self, "mesh", {}).values()):
            for s in pair:
                try:
                    s.close()
                except OSError:
                    pass
        for pair in getattr(self, "boot", []):
            for s in pair:
                try:
                    s.close()
                except OSError:
                    pass
        for shm in self.shms:
            try:
                shm.close()
            except (OSError, BufferError):
                pass
            try:
                shm.unlink()
            except (OSError, FileNotFoundError):
                pass
        self.shms = []
        if self.ring_shm is not None:
            try:
                self.ring_shm.close()
            except (OSError, BufferError):
                pass
            try:
                self.ring_shm.unlink()
            except (OSError, FileNotFoundError):
                pass
            self.ring_shm = None


class ProcConduit(Conduit):
    """Processes-as-ranks conduit over a pre-forked :class:`ProcFabric`.

    Exists only inside a rank process (``caps.needs_launcher``); the
    launcher (:mod:`repro.core.proclaunch`) builds one per rank.
    """

    caps = PROC_CAPS

    def __init__(self, fabric: ProcFabric, rank: int):
        self.world = None
        self.fabric = fabric
        self.local_rank = rank
        self.transport = fabric.transport
        peers = [r for r in range(fabric.n_ranks) if r != rank]
        self._socks = fabric.mesh_for(rank)
        self._send_locks = {p: threading.Lock() for p in peers}
        self._parsers = {p: _StreamParser() for p in peers}
        self._closing = False
        # The receive side: built by attach(), run under _recv_lock by
        # whoever calls poll().  _fds maps a registered fd to its
        # (socket, peer); the self-pipe's peer is None.
        self._poller = None
        self._fds: dict[int, tuple] = {}
        self._me = None
        self._recv_lock = threading.Lock()
        # One reusable receive buffer (``recv(n)`` would allocate n
        # bytes per read); the parser copies what it keeps.
        self._recv_view = memoryview(bytearray(_RECV_CHUNK))
        # Self-pipe: wake() brings a parked poll() back — and costs
        # nothing unless one may be there (_parked is raised before
        # poll() re-checks the inbox).
        self._wake_r, self._wake_w = socket.socketpair()
        self._parked = False
        #: Wire-level counters (the conformance suite's no-pickle /
        #: no-frame assertions read these).
        self.frames_sent = 0
        self.frames_received = 0
        self._stats = None
        #: Ring transport only: this rank's producer / consumer per peer
        #: (no entry for a peer means its bytes travel on the socket).
        self._prod: dict[int, RingProducer] = {}
        self._cons: dict[int, RingConsumer] = {}
        if fabric.transport == "ring":
            spec = fabric.ring_spec
            mv = fabric.ring_shm.buf
            self._prod = {p: RingProducer(mv, spec,
                                          fabric.ring_region(rank, p))
                          for p in peers}
            self._cons = {p: RingConsumer(mv, spec,
                                          fabric.ring_region(p, rank))
                          for p in peers}
        self._stall_limit = 30.0

    # -- lifecycle -------------------------------------------------------
    def attach(self, world) -> None:
        super().attach(world)
        self._me = world.ranks[self.local_rank]
        self._stats = self._me.stats
        if world.op_timeout:
            self._stall_limit = float(world.op_timeout)
        self._fds = {s.fileno(): (s, p) for p, s in
                     [(None, self._wake_r), *self._socks.items()]}
        self._poller = select.poll()
        for fd in self._fds:
            self._poller.register(fd, select.POLLIN)

    def close(self) -> None:
        self._closing = True
        # Ring before taking the lock: a parked poll() holds it, and
        # would otherwise hold teardown for the rest of its park.
        try:
            self._wake_w.send(b"\0", socket.MSG_DONTWAIT)
        except OSError:
            pass  # closed already, or full of wake-ups
        with self._recv_lock:
            for s in (*self._socks.values(), self._wake_r, self._wake_w):
                try:
                    s.close()
                except OSError:
                    pass

    # -- active messages -------------------------------------------------
    def deliver_encoded(self, src: int, dst: int,
                        am: ActiveMessage) -> None:
        """Send ``am``'s frame to ``dst``: the one send path.  Lay it out
        as the stream carries it — the ``<III>`` header, a u64 length
        per out-of-band buffer and the control bytes as one part, then
        the buffers and the pickled by-reference table — and hand the
        parts to one ``sendmsg``; only a write that was partial or
        blocked goes on in :meth:`_sendmsg_all`.  On the ring transport
        the same parts become slots.  A by-reference payload that does
        not pickle raises :class:`~repro.errors.SerializationError`
        here, at the sender; a send to this rank is a loopback."""
        if dst == self.local_rank:
            self._me.deliver(am)
            return
        sock = self._socks.get(dst)
        if sock is None:
            raise PgasError(
                f"proc conduit: no wire to rank {dst} "
                f"(local rank {self.local_rank})"
            )
        frame = am._frame
        ctrl = frame.ctrl
        refs_blob = b""
        if frame.refs:
            try:
                refs_blob = pickle.dumps(frame.refs, protocol=5)
            except Exception as exc:
                raise SerializationError(
                    f"active message carries {len(frame.refs)} "
                    f"by-reference payload(s) that cannot cross a "
                    f"process boundary on the proc conduit "
                    f"(pickling failed: {exc}); pass by-value-"
                    f"encodable data instead"
                ) from None
        bufs = frame.buffers
        if bufs:
            spans = [memoryview(b) for b in bufs]  # e.g. a PickleBuffer
            lens = [mv.nbytes for mv in spans]
            head = (_FRAME_HDR.pack(len(ctrl), len(spans), len(refs_blob))
                    + struct.pack(f"<{len(lens)}Q", *lens) + ctrl)
            parts = [head, *spans]
            total = len(head) + sum(lens)
        else:
            head = _FRAME_HDR.pack(len(ctrl), 0, len(refs_blob)) + ctrl
            parts = [head]
            total = len(head)
        if refs_blob:
            parts.append(refs_blob)
            total += len(refs_blob)
        prod = self._prod.get(dst)
        try:
            with self._send_locks[dst]:
                if prod is not None:
                    self._ring_send(dst, prod, sock, parts)
                else:
                    try:
                        sent = sock.sendmsg(parts[:_IOV_BATCH], (),
                                            socket.MSG_DONTWAIT)
                    except BlockingIOError:
                        sent = 0
                    if sent < total:
                        self._sendmsg_all(dst, sock, parts, sent)
        except OSError as exc:
            self._send_error(dst, exc)
            return
        self.frames_sent += 1

    def _sendmsg_all(self, dst: int, sock: socket.socket, parts,
                     sent: int) -> None:
        """Go on with a write of ``parts`` whose first ``sendmsg`` took
        only ``sent`` bytes: scatter-gather ``sendmsg`` again, looping on
        partial writes and never blocking in the kernel — a full socket
        buffer is a :meth:`_blocked` turn.  A part becomes a byte view
        only when a write splits it."""
        i = 0
        stall_t = None
        while True:
            while i < len(parts):
                n = memoryview(parts[i]).nbytes
                if sent < n:
                    if sent:
                        parts[i] = memoryview(parts[i]).cast("B")[sent:]
                    break
                sent -= n
                i += 1
            else:
                return
            try:
                sent = sock.sendmsg(parts[i:i + _IOV_BATCH], (),
                                    socket.MSG_DONTWAIT)
            except BlockingIOError:
                if stall_t is None:
                    stall_t = time.monotonic()
                if not self._blocked(dst, stall_t, sock):
                    return
                sent = 0
                continue
            stall_t = None

    def _blocked(self, dst: int, since: float, sock=None) -> bool:
        """One turn of a sender that cannot move bytes toward ``dst``
        (full socket buffer, full ring) and has not since ``since``:
        receive inbound — GASNet's rule; the caller may hold ``dst``'s
        send lock and may be any thread that sends (the failure
        detector's probes among them), so this receive only fills the
        inbox and dispatches nothing — then wait for ``sock`` to take
        bytes again.  False means drop the message (shutdown, dead
        peer); raises after ``_stall_limit``."""
        if self._closing:
            return False
        world = self.world
        if world is not None and dst in world.dead_ranks:
            return False
        if time.monotonic() - since > self._stall_limit:
            raise TransientCommError(
                f"proc conduit: send {self.local_rank}->{dst} blocked "
                f"for {self._stall_limit:.1f}s (receiver stalled)"
            )
        self._receive_all(0.0, None)
        if sock is not None:
            writable = select.poll()
            writable.register(sock, select.POLLOUT)
            writable.poll(1)
        return True

    def _send_error(self, dst: int, exc: OSError) -> None:
        """A send hit a closed socket: benign during shutdown or when
        the peer already finished; a comm error otherwise."""
        if self._closing:
            return
        world = self.world
        if world is not None and 0 <= dst < world.n_ranks:
            rk = world.ranks[dst]
            if rk.done or rk.body_done or dst in world.dead_ranks:
                return  # trailing chatter to a finished/dead peer
        if exc.errno in (errno.EPIPE, errno.ECONNRESET, errno.ESHUTDOWN,
                         errno.ENOTCONN):
            # On a socketpair these mean exactly one thing: the peer
            # process is gone.  Drop the frame and let the launcher's
            # peer_dead broadcast surface the death as RankDead — a
            # racing send must not mask it as a comm error.
            return
        raise TransientCommError(
            f"proc conduit: send {self.local_rank}->{dst} failed: {exc}"
        ) from exc

    # -- ring transport ---------------------------------------------------
    def _ring_send(self, dst: int, prod: RingProducer, sock, parts) -> None:
        """Publish one message as slots of the ``-> dst`` ring, then
        ring the bell (caller holds the peer's send lock)."""
        data = parts[0] if len(parts) == 1 else b"".join(parts)
        stats = self._stats
        mv = memoryview(data)
        total = len(data)
        off = 0
        slots = 0
        bells = 0
        unrung = False
        spilled = False
        stall_t = None
        spins = 0
        while off < total:
            n = prod.try_emit(mv, off)
            if n > 0:
                off += n
                slots += 1
                unrung = True
                if prod.last_spill:
                    spilled = True
                stall_t = None
                spins = 0
                continue
            # Ring full: the receiver is behind (or gone).  Ring the
            # bell for what is already published *before* waiting: the
            # receiver drains only when told to, so a message larger
            # than the ring would wait for a drain that never comes.
            # Then take blocked-sender turns, escalating spin -> yield
            # -> sleep between them.
            if unrung:
                bells += self._bell(sock)
                unrung = False
            if stats is not None:
                stats.add(wire_ring_full_backoffs=1)
            if stall_t is None:
                stall_t = time.monotonic()
            world = self.world
            if world is not None and world.ranks[dst].done:
                return  # trailing chatter to a finished peer
            if not self._blocked(dst, stall_t):
                return
            spins += 1
            if spins <= 16:
                continue
            if spins <= 256:
                os.sched_yield()  # hand the core to the slow receiver
            else:
                time.sleep(0.0002)
        bells += self._bell(sock)
        if stats is not None:
            stats.add(wire_ring_slots=slots, wire_ring_frames=1,
                      wire_ring_spills=spilled, wire_ring_doorbells=bells)

    @staticmethod
    def _bell(sock) -> int:
        """Wake the peer's receive loop: one byte on the pair's mesh
        socket.  Returns how many bell bytes went out (0 or 1)."""
        try:
            return sock.send(b"\1", socket.MSG_DONTWAIT)
        except BlockingIOError:
            # Full socket buffer: unread bells are queued, and the wake-
            # up they cause drains everything published before now.
            return 0

    # -- receive side ----------------------------------------------------
    def _feed(self, peer: int, chunk, taken: list | None) -> None:
        """Parse ``chunk``, the next bytes of ``peer``'s stream, in one
        pass: every frame it completes becomes a :class:`Frame` on the
        rank's inbox, in stream order, thawed later by
        :meth:`~repro.core.endpoint.Endpoint.receive`.  But the first
        reply met with the inbox empty goes to ``taken``, for
        :meth:`poll` to dispatch, under the rank's handler lock — got
        without waiting and held until then, so no other drainer runs
        anything around it.  ``taken`` is None for a blocked sender.
        What ends in a partial frame waits in the peer's
        :class:`_StreamParser` for the next chunk."""
        parser = self._parsers[peer]
        buf = parser.buf
        buf += chunk
        off = parser.off
        end = len(buf)
        hdr = _FRAME_HDR.size
        me = self._me
        inbox = me._inbox
        while end - off >= hdr:
            ctrl_len, nbufs, refs_len = _FRAME_HDR.unpack_from(buf, off)
            p = off + hdr
            size = ctrl_len + refs_len
            lens = ()
            if nbufs:
                if end - p < 8 * nbufs:
                    break
                lens = struct.unpack_from(f"<{nbufs}Q", buf, p)
                p += 8 * nbufs
                size += sum(lens)
            if end - p < size:
                break
            # Writable bytearrays: the ndarray codec's zero-copy decode
            # (np.frombuffer) yields writable arrays over them, matching
            # the SMP conduit's by-value delivery semantics.
            ctrl = buf[p:p + ctrl_len]
            p += ctrl_len
            buffers = []
            for n in lens:
                buffers.append(buf[p:p + n])
                p += n
            refs = pickle.loads(buf[p:p + refs_len]) if refs_len else []
            off = p + refs_len
            flags = ctrl[1]
            frame = new_frame((ctrl, buffers, refs, size - refs_len,
                               bool(flags & F_USED_PICKLE),
                               bool(flags & F_HAS_REFS)))
            self.frames_received += 1
            if (flags & F_IS_REPLY and taken is not None and not taken
                    and not inbox and me._handler_lock.acquire(False)):
                taken.append(frame)
            else:
                inbox.append(frame)
        if off == end:
            buf.clear()
            off = 0
        elif off > (1 << 16):
            del buf[:off]
            off = 0
        parser.off = off

    def _drain(self, peer: int, cons: RingConsumer,
               taken: list | None) -> None:
        """Feed the parser every slot ``peer`` has published.  Called
        only under ``_recv_lock``: the ring is single-consumer."""
        chunk = cons.try_recv()
        if chunk is None:
            return  # a bell for slots an earlier wake-up already took
        while chunk is not None:
            self._feed(peer, chunk, taken)
            chunk = cons.try_recv()
        if self._stats is not None:
            self._stats.add(wire_ring_wakeups=1)

    def poll(self, rank: int, timeout: float = 0.0) -> bool:
        """Receive, then hand the reply frame :meth:`_feed` took to
        :meth:`~repro.core.endpoint.Endpoint.receive`, so that it
        completes its future in the poll that read it (counted in the
        rank's ``_poll_handled``, which ``advance()`` reports); every
        other frame waits on the inbox.  Only threads that dispatch for
        the rank (its own, its progress thread) call this; the dispatch
        runs after the receive lock is released, as a completion
        callback may send or wait, and both receive."""
        taken: list = []
        me = self._me
        try:
            self._receive_all(timeout, taken)
            if taken:  # not after a broken stream: that error stands
                me.endpoint.receive(taken[0])
                me._poll_handled += 1
        finally:
            if taken:
                me._handler_lock.release()
        return bool(me._inbox)

    def _receive_all(self, timeout: float, taken: list | None) -> None:
        """One ``select.poll`` over the peer sockets and the self-pipe,
        parked up to ``timeout``, then one read per readable peer —
        message bytes (socket) or bell bytes saying that peer's ring has
        slots (ring).  A peer's bytes or a :meth:`wake` ends the park.  A
        second caller waits for the lock at most ``timeout`` and otherwise
        leaves the receiving to the first.  It only parses and queues, so what it raises is
        a broken stream; a handler's error is raised by :meth:`poll`'s
        dispatch."""
        lock = self._recv_lock
        if not (lock.acquire(False)
                or (timeout > 0.0 and lock.acquire(timeout=timeout))):
            return
        try:
            if self._closing:
                return
            if timeout > 0.0:
                self._parked = True
                me = self._me
                # poked, or delivered to before wake() saw the flag
                if me._poked or me._inbox:
                    me._poked = False
                    timeout = 0.0
            try:
                events = self._poller.poll(timeout * 1000.0)
            finally:
                self._parked = False
            fds, view = self._fds, self._recv_view
            for fd, _ in events:
                sock, peer = fds[fd]
                try:
                    n = sock.recv_into(view, 0, socket.MSG_DONTWAIT)
                except BlockingIOError:
                    continue
                except OSError:
                    if self._closing:
                        continue
                    n = 0
                if peer is None:
                    continue  # wake-up bytes: being back is the message
                if not n:
                    self._poller.unregister(sock)  # peer exited
                    continue
                try:
                    cons = self._cons.get(peer)
                    if cons is None:
                        self._feed(peer, view[:n], taken)
                    else:
                        self._drain(peer, cons, taken)
                except Exception as exc:
                    if self._closing:
                        continue
                    # the stream is unparseable now
                    self._poller.unregister(sock)
                    self.world.fail(self.local_rank, exc)
                    raise
        finally:
            lock.release()

    def wake(self, rank: int) -> None:
        if self._parked:
            try:
                self._wake_w.send(b"\0", socket.MSG_DONTWAIT)
            except OSError:
                pass  # closed, or full of wake-ups already


@am_handler("__proc_done__")
def _proc_done_handler(ctx, am: ActiveMessage) -> None:
    """Survivable-death finalize across processes: a rank whose SPMD
    body returned broadcasts this so peers' directory stubs show it
    done-not-dead (the thread backend reads the flag from shared state;
    here it must cross the wire)."""
    world = ctx.world
    if 0 <= am.src_rank < world.n_ranks:
        peer = world.ranks[am.src_rank]
        peer.body_done = True
        peer.done = True
    world.poke_all()
