"""proc's message stream, world-free: what the send path writes, cut
anywhere, comes out of the receive parse frame for frame.

A :class:`~repro.gasnet.proc.ProcConduit` is built with no fabric,
process or world, only the attributes its send
(:meth:`~repro.gasnet.proc.ProcConduit.deliver_encoded`) and its parse
(:meth:`~repro.gasnet.proc.ProcConduit._feed`) read; its peer's socket
records what ``sendmsg`` is handed, taking as few bytes per call as the
test says, so a write split anywhere goes on where it stopped.  Any cut
of the byte stream can then be fed: a header split in two, a chunk that
ends exactly where a frame does, a buffer spread over many chunks.
"""

import fractions
import threading
from collections import deque
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gasnet.am import ActiveMessage
from repro.gasnet.proc import ProcConduit, _StreamParser
from repro.gasnet.wire import Frame, encode_am

PEER = 1

arg_values = st.one_of(
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
    st.text(max_size=24),
    st.binary(max_size=200),  # over 64 bytes travels out of band
)

payloads = st.one_of(
    st.none(),
    st.binary(max_size=300),
    # an out-of-band buffer; the large ones push the parser past the
    # 64 KiB at which it compacts mid-buffer
    st.builds(lambda n, dt: np.arange(n, dtype=dt),
              st.integers(0, 300) | st.integers(8_200, 12_000),
              st.sampled_from(["<i8", "<f8"])),
    st.just(fractions.Fraction(1, 3)),  # through the pickle fallback
)


@st.composite
def messages(draw):
    kind = draw(st.sampled_from(["request", "one_way", "reply"]))
    am = ActiveMessage(
        "__reply__" if kind == "reply" else "kv_put",
        src_rank=draw(st.integers(0, 7)),
        args=tuple(draw(st.lists(arg_values, max_size=3))),
        payload=draw(payloads),
        token=(None if kind == "one_way"
               else draw(st.integers(1, (1 << 63) - 1))),
        is_reply=kind == "reply",
    )
    if draw(st.booleans()):  # the trace trailer
        am.trace_id = draw(st.integers(1, (1 << 64) - 1))
        am.span_id = draw(st.integers(1, (1 << 64) - 1))
    return am


class _Wire:
    """A peer's socket: keeps what each ``sendmsg`` writes, which is at
    most the next of ``takes`` bytes (then all it is handed)."""

    def __init__(self, takes=()):
        self.bytes = bytearray()
        self._takes = iter(takes)

    def sendmsg(self, parts, ancdata, flags):
        data = b"".join(parts)
        n = min(len(data), next(self._takes, len(data)))
        self.bytes += data[:n]
        return n


def _conduit(wire=None) -> ProcConduit:
    """Rank 0's end of a pair with rank ``PEER``: what the send path and
    the parse read of their conduit, the peer's socket ``wire``, and
    the rank's inbox and handler lock."""
    c = ProcConduit.__new__(ProcConduit)
    c.local_rank, c._socks, c._prod = 0, {PEER: wire or _Wire()}, {}
    c._send_locks = {PEER: threading.Lock()}
    c._parsers = {PEER: _StreamParser()}
    c._me = SimpleNamespace(_inbox=deque(), _handler_lock=threading.RLock())
    c.frames_sent = c.frames_received = 0
    return c


def _sent(*ams, takes=()) -> bytes:
    """The stream bytes that sending ``ams`` to ``PEER`` writes."""
    wire = _Wire(takes)
    tx = _conduit(wire)
    for am in ams:
        encode_am(am)
        tx.deliver_encoded(0, PEER, am)
    assert tx.frames_sent == len(ams)
    return bytes(wire.bytes)


def _same_message(got: ActiveMessage, want: ActiveMessage) -> None:
    for name in ("handler", "src_rank", "args", "token", "is_reply",
                 "trace_id", "span_id"):
        assert getattr(got, name) == getattr(want, name), name
    if isinstance(want.payload, np.ndarray):
        assert got.payload.dtype == want.payload.dtype
        np.testing.assert_array_equal(got.payload, want.payload)
        assert got.payload.flags.writeable  # by-value: the target's own
    else:
        assert got.payload == want.payload
        assert type(got.payload) is type(want.payload)


@settings(max_examples=150, deadline=None)
@given(st.lists(messages(), min_size=1, max_size=8), st.data())
def test_every_cut_of_the_stream_parses_back_to_its_frames(ams, data):
    takes = data.draw(st.lists(st.integers(1, 300), max_size=6),
                      label="partial writes")
    stream = _sent(*ams, takes=takes)
    frames = [am._frame for am in ams]
    cuts = sorted(set(data.draw(st.lists(
        st.integers(1, len(stream) - 1), max_size=12), label="cuts")))
    # A poll takes the first reply that meets an empty inbox and
    # dispatches it before anything the next chunk brings; a blocked
    # sender's receive (taken None) only queues.
    polled = data.draw(st.booleans(), label="polled")
    rx = _conduit()
    inbox, lock = rx._me._inbox, rx._me._handler_lock
    out = []
    for a, b in zip([0, *cuts], [*cuts, len(stream)]):
        taken = [] if polled else None
        rx._feed(PEER, memoryview(stream)[a:b], taken)
        if taken:
            out += taken
            lock.release()
        out += inbox
        inbox.clear()

    assert len(out) == len(frames) == rx.frames_received
    for got, frame, am in zip(out, frames, ams):
        assert got.__class__ is Frame
        assert bytes(got.ctrl) == bytes(frame.ctrl)
        assert (got.nbytes, got.used_pickle) == (frame.nbytes,
                                                 frame.used_pickle)
        _same_message(got.thaw(), am)
    parser = rx._parsers[PEER]
    assert (len(parser.buf), parser.off) == (0, 0)  # nothing left over


def test_a_poll_takes_only_a_reply_that_meets_an_empty_inbox():
    request = ActiveMessage("kv_put", 1, args=(1,), token=5)
    reply = ActiveMessage("__reply__", 1, token=9, is_reply=True)
    rx = _conduit()
    taken = []
    rx._feed(PEER, _sent(request, reply), taken)
    assert taken == []  # behind the request: FIFO keeps it queued
    assert [f.thaw().is_reply for f in rx._me._inbox] == [False, True]

    rx = _conduit()
    rx._feed(PEER, _sent(reply, reply), taken)
    assert len(taken) == 1 and len(rx._me._inbox) == 1  # only the first
    rx._me._handler_lock.release()
