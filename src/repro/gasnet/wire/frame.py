"""Struct-packed active-message frames.

Every AM that crosses the conduit is encoded into a :class:`Frame`:

* a 42-byte struct header (``HEADER``) — version, flags, payload codec
  id, the handler name's byte length, source rank, token, a reserved
  ``aux`` word (always 0), total out-of-band bytes, and the lengths of
  the two control-stream regions that follow;
* the handler's UTF-8 name — none on a reply, whose ``F_IS_REPLY``
  flag already says ``__reply__``;
* the *args region*: the positional args tuple, stream-encoded;
* the *meta region*: the payload, as the header's codec byte says —
  ``CODEC_NONE`` (no payload) or ``CODEC_OBJ`` (one stream value, a
  pre-encoded fan-out payload among them);
* out-of-band buffer and by-reference tables, carried alongside the
  control bytes rather than copied into them.

The envelope never touches pickle, and a frame means the same thing in
every process: it names its handler rather than numbering it, so no two
ranks have to agree on a table.  Each frame encodes into a fresh
``bytearray`` — the allocator is faster than any recycling scheme that
has to lock.
"""

from __future__ import annotations

import functools
import struct
import time
from typing import NamedTuple

from repro.gasnet.am import ActiveMessage
from repro.gasnet.wire import codecs as _c

# ver, flags, codec, pad, name_len, src_rank, token, aux,
# oob_nbytes, args_len, meta_len
HEADER = struct.Struct("<BBBxHiqqqII")
WIRE_VERSION = 2

F_IS_REPLY = 1
F_HAS_TOKEN = 2
F_USED_PICKLE = 4
F_HAS_REFS = 8
F_HAS_TRACE = 16

# Trace-context trailer: (trace_id, span_id), appended after the meta
# region only when the AM carries a non-zero trace id.  Untraced
# messages (telemetry off) pay zero wire bytes for it, and the header
# layout is unchanged — receivers locate the trailer at
# ``HEADER.size + name_len + args_len + meta_len`` when ``F_HAS_TRACE``
# is set.
TRACE_TRAILER = struct.Struct("<QQ")

CODEC_NONE = 0
CODEC_OBJ = 1


class Frame(NamedTuple):
    """One encoded AM: control bytes + buffer/ref tables."""

    ctrl: bytearray
    buffers: list
    refs: list
    nbytes: int
    used_pickle: bool
    has_refs: bool

    def thaw(self) -> ActiveMessage:
        """Decode into a fresh :class:`ActiveMessage`: the target's own
        objects, whatever the sender still holds (by-value delivery)."""
        ctrl = self.ctrl
        (_ver, flags, codec_id, name_len, src, tok, aux, _nbuf, args_len,
         meta_len) = HEADER.unpack_from(ctrl, 0)
        pos = HEADER.size + name_len
        if flags & F_IS_REPLY:
            handler = "__reply__"
        else:
            handler = ctrl[HEADER.size:pos].decode()
        trace_id = span_id = 0
        if flags & F_HAS_TRACE:
            trace_id, span_id = TRACE_TRAILER.unpack_from(
                ctrl, pos + args_len + meta_len)
        if not args_len and codec_id == CODEC_NONE:
            # Trivial frame (bare signal / ping / ack): nothing to
            # decode — skip the memoryview and decoder setup.
            am = ActiveMessage(
                handler, src, (), None,
                tok if flags & F_HAS_TOKEN else None,
                bool(flags & F_IS_REPLY), aux, trace_id, span_id)
            am._wire_bytes = self.nbytes
            return am
        # one cursor over both regions: the meta region starts where
        # the args region ends
        mv = memoryview(ctrl)
        try:
            dec = _c.Decoder(mv, pos, self.buffers, self.refs)
            args = _c._decode(dec) if args_len else ()
            payload = (None if codec_id == CODEC_NONE
                       else _c._decode(dec))
        finally:
            mv.release()
        am = ActiveMessage(
            handler, src, args, payload,
            tok if flags & F_HAS_TOKEN else None,
            bool(flags & F_IS_REPLY), aux, trace_id, span_id)
        am._wire_bytes = self.nbytes
        return am


#: ``new_frame(fields)``: the :class:`Frame` of a tuple of its six fields.
new_frame = functools.partial(tuple.__new__, Frame)


def encode_am(am: ActiveMessage, tel=None, strict: bool = False) -> Frame:
    """Encode an AM into its wire frame (memoized on the message).
    ``strict=True`` raises :class:`~repro.gasnet.wire.UnencodableError`
    where a value would otherwise ship by reference."""
    frame = am._frame
    if frame is not None:
        return frame
    name = b"" if am.is_reply else am.handler.encode()
    if not am.args and am.payload is None:
        # Trivial AM (bare signal / ping / ack): one fixed header, the
        # name and the trailer if traced — no encoder, no codec dispatch.
        # This is the hot shape for request/reply latency paths.
        tok = am.token
        if tok is None:
            tok = 0
            flags = F_IS_REPLY if am.is_reply else 0
        else:
            flags = (F_HAS_TOKEN | F_IS_REPLY if am.is_reply
                     else F_HAS_TOKEN)
        if am.trace_id:
            flags |= F_HAS_TRACE
        ctrl = bytearray(HEADER.size)
        HEADER.pack_into(ctrl, 0, WIRE_VERSION, flags, CODEC_NONE,
                         len(name), am.src_rank, tok, am.aux, 0, 0, 0)
        ctrl += name
        if am.trace_id:
            ctrl += TRACE_TRAILER.pack(am.trace_id, am.span_id)
        frame = new_frame((ctrl, [], [], len(ctrl), False, False))
        am._frame = frame
        am._wire_bytes = frame.nbytes
        return frame
    t0 = time.perf_counter() if tel is not None and tel.full else None
    out = bytearray(HEADER.size)
    out += name
    start = len(out)
    enc = _c.Encoder(out, strict)
    args = am.args
    if args:
        _c._encode(enc, args)
    args_len = len(out) - start
    payload = am.payload
    codec_id = CODEC_NONE
    if payload is not None:
        codec_id = CODEC_OBJ
        _c._encode(enc, payload)
    meta_len = len(out) - start - args_len
    flags = 0
    if am.trace_id:
        # trailer sits after the meta region; args_len/meta_len are
        # unaffected so untraced decode paths never see it
        flags |= F_HAS_TRACE
        out += TRACE_TRAILER.pack(am.trace_id, am.span_id)
    if am.is_reply:
        flags |= F_IS_REPLY
    tok = am.token
    if tok is None:
        tok = 0
    else:
        flags |= F_HAS_TOKEN
    if enc.used_pickle:
        flags |= F_USED_PICKLE
    if enc.refs:
        flags |= F_HAS_REFS
    nbuf = 0
    for b in enc.buffers:
        nbuf += _c.buf_nbytes(b)
    HEADER.pack_into(out, 0, WIRE_VERSION, flags, codec_id,
                     len(name), am.src_rank, tok,
                     am.aux, nbuf, args_len, meta_len)
    frame = new_frame((out, enc.buffers, enc.refs, len(out) + nbuf,
                       enc.used_pickle, bool(enc.refs)))
    am._frame = frame
    am._wire_bytes = frame.nbytes
    if t0 is not None:
        tel.histogram("ser").record_seconds(time.perf_counter() - t0)
    return frame
