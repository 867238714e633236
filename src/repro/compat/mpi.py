"""A two-sided message-passing layer with an mpi4py-like surface.

Built entirely on the active-message conduit, it provides what the
LULESH port needs: tagged point-to-point sends/receives (blocking and
non-blocking, with wildcard source/tag), ``sendrecv``, request
completion, and the collectives (delegated to
:mod:`repro.core.collectives`).

Following the mpi4py idiom the guides recommend, lowercase methods move
pickled Python objects; uppercase-named fast paths move NumPy arrays
by buffer (``Send``/``Recv``) — both over the same transport.

Semantics notes (documented divergences from full MPI):

* sends are *eager/buffered*: ``send`` never blocks waiting for a
  matching receive (like MPI's buffered mode; fine for proxy apps);
* message order between a fixed (source, dest) pair is preserved,
  matching MPI's non-overtaking rule.
"""

from __future__ import annotations

import pickle
from collections import deque
from typing import Any, Optional

import numpy as np

from repro.core import collectives
from repro.core.future import Future
from repro.core.world import RankState, current
from repro.errors import PgasError
from repro.gasnet.am import am_handler

ANY_SOURCE = -1
ANY_TAG = -1


def _state(ctx: RankState) -> dict:
    st = ctx.scratch.get("mpi")
    if st is None:
        st = {"unexpected": deque(), "posted": []}
        ctx.scratch["mpi"] = st
    return st


class Request(Future):
    """Completion handle for a non-blocking operation: a future whose
    value is ``(data, source, tag)``."""

    __slots__ = ("_decode",)

    _what = "mpi request"

    def __init__(self, done: bool = False, data: Any = None,
                 source: int = -1, tag: int = -1, decode=None):
        super().__init__(current(), 0 if done else 1)
        self._value = (data, source, tag)
        self._decode = decode

    def test(self) -> bool:
        self._ctx.advance()
        return self.done()

    def wait(self, timeout: float | None = None) -> Any:
        """Block until complete; returns the received object (recv
        requests) or None (send requests)."""
        data = self.get(timeout=timeout)[0]
        if self._decode is not None:
            return self._decode(data)
        return data

    @property
    def source(self) -> int:
        return self._value[1]

    @property
    def tag(self) -> int:
        return self._value[2]


def waitall(requests: list[Request]) -> list:
    """Complete every request; returns their values in order."""
    return [r.wait() for r in requests]


@am_handler("mpi_msg")
def _mpi_msg_handler(ctx: RankState, am) -> None:
    tag = am.args[0]
    st = _state(ctx)
    for i, (src_want, tag_want, req) in enumerate(st["posted"]):
        if (src_want in (ANY_SOURCE, am.src_rank)
                and tag_want in (ANY_TAG, tag)):
            del st["posted"][i]
            req.set_result((am.payload, am.src_rank, tag))
            return
    st["unexpected"].append((am.src_rank, tag, am.payload))


def _match_unexpected(ctx: RankState, source: int, tag: int):
    st = _state(ctx)
    q = st["unexpected"]
    for i, (src, t, payload) in enumerate(q):
        if source in (ANY_SOURCE, src) and tag in (ANY_TAG, t):
            del q[i]
            return (src, t, payload)
    return None


def _post_recv(source: int, tag: int, decode) -> Request:
    ctx = current()
    hit = _match_unexpected(ctx, source, tag)
    if hit is not None:
        src, t, payload = hit
        return Request(done=True, data=payload, source=src, tag=t,
                       decode=decode)
    req = Request(decode=decode)
    _state(ctx)["posted"].append((source, tag, req))
    return req


# ---------------------------------------------------------------------------
# object (pickle) interface — lowercase, mpi4py style
# ---------------------------------------------------------------------------

def send(obj: Any, dest: int, tag: int = 0) -> None:
    """Eager object send."""
    ctx = current()
    ctx.send_am(dest, "mpi_msg", args=(tag,),
                payload=pickle.dumps(obj, protocol=-1))


def isend(obj: Any, dest: int, tag: int = 0) -> Request:
    """Non-blocking object send (eager: completes immediately)."""
    send(obj, dest, tag)
    return Request(done=True)


def irecv(source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
    """Non-blocking object receive; ``req.wait()`` returns the object."""
    return _post_recv(source, tag, decode=_decode_obj)


def recv(source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
    """Blocking object receive."""
    return irecv(source, tag).wait()


def sendrecv(obj: Any, dest: int, source: int = ANY_SOURCE,
             sendtag: int = 0, recvtag: int = ANY_TAG) -> Any:
    """Combined send+receive (deadlock-free shift pattern)."""
    req = irecv(source, recvtag)
    send(obj, dest, sendtag)
    return req.wait()


def iprobe(source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
    """Non-blocking probe: is a matching message already here?

    Drives progress once (so freshly delivered AMs are visible) and
    checks the unexpected queue without consuming anything."""
    ctx = current()
    ctx.advance()
    st = _state(ctx)
    return any(
        source in (ANY_SOURCE, src) and tag in (ANY_TAG, t)
        for src, t, _payload in st["unexpected"]
    )


def probe(source: int = ANY_SOURCE, tag: int = ANY_TAG,
          timeout: float | None = None) -> None:
    """Blocking probe: wait until a matching message is available."""
    ctx = current()
    ctx.wait_until(
        lambda: any(
            source in (ANY_SOURCE, src) and tag in (ANY_TAG, t)
            for src, t, _p in _state(ctx)["unexpected"]
        ),
        what="mpi probe", timeout=timeout,
    )


def _decode_obj(payload) -> Any:
    return pickle.loads(payload)


# ---------------------------------------------------------------------------
# buffer (NumPy) interface — uppercase, mpi4py style
# ---------------------------------------------------------------------------

def Send(array: np.ndarray, dest: int, tag: int = 0) -> None:
    """Buffer send of a contiguous NumPy array."""
    ctx = current()
    arr = np.ascontiguousarray(array)
    ctx.send_am(dest, "mpi_msg", args=(tag,), payload=arr.copy())


def Isend(array: np.ndarray, dest: int, tag: int = 0) -> Request:
    Send(array, dest, tag)
    return Request(done=True)


def Irecv(buf: np.ndarray, source: int = ANY_SOURCE,
          tag: int = ANY_TAG) -> Request:
    """Non-blocking buffer receive into ``buf`` (completed at wait)."""
    buf = np.asarray(buf)

    def decode(payload):
        data = np.asarray(payload)
        flat = buf.reshape(-1)
        flat[: data.size] = data.view(buf.dtype).reshape(-1)
        return buf

    return _post_recv(source, tag, decode=decode)


def Recv(buf: np.ndarray, source: int = ANY_SOURCE,
         tag: int = ANY_TAG) -> np.ndarray:
    return Irecv(buf, source, tag).wait()


# ---------------------------------------------------------------------------
# communicator facade
# ---------------------------------------------------------------------------

class Comm:
    """An MPI_COMM_WORLD facade — handy for porting mpi4py-shaped code."""

    def Get_rank(self) -> int:
        return current().rank

    def Get_size(self) -> int:
        return current().world.n_ranks

    # object layer
    send = staticmethod(send)
    recv = staticmethod(recv)
    isend = staticmethod(isend)
    irecv = staticmethod(irecv)
    sendrecv = staticmethod(sendrecv)
    # buffer layer
    Send = staticmethod(Send)
    Recv = staticmethod(Recv)
    Isend = staticmethod(Isend)
    Irecv = staticmethod(Irecv)

    # collectives (delegated)
    @staticmethod
    def barrier() -> None:
        collectives.barrier()

    Barrier = barrier

    @staticmethod
    def bcast(obj: Any = None, root: int = 0) -> Any:
        return collectives.bcast(obj, root=root)

    @staticmethod
    def reduce(value: Any, op="sum", root: int = 0) -> Any:
        return collectives.reduce(value, op=op, root=root)

    @staticmethod
    def allreduce(value: Any, op="sum") -> Any:
        return collectives.allreduce(value, op=op)

    @staticmethod
    def gather(value: Any, root: int = 0):
        return collectives.gather(value, root=root)

    @staticmethod
    def allgather(value: Any):
        return collectives.allgather(value)

    @staticmethod
    def scatter(values=None, root: int = 0):
        return collectives.scatter(values, root=root)

    @staticmethod
    def alltoall(values):
        return collectives.alltoall(values)


#: The world communicator (mpi4py spelling).
COMM_WORLD = Comm()
