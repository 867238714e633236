"""Tag-based stream codec: the byte-level vocabulary of the wire layer.

Every value that crosses a rank boundary is encoded into a *control
stream* (one bytearray of tag-prefixed fields) plus a list of
*out-of-band buffers* (bulk bytes that are referenced by index from the
control stream and never copied into it).  Scalars, strings, small
byte strings and homogeneous int/float/str sequences get fixed struct
layouts; tuples, lists and dicts tag each element in turn; ``ndarray``
payloads ship as one dtype/shape record plus one out-of-band buffer;
everything genuinely dynamic (sets, dict subclasses, custom classes,
heterogeneous bulk sequences) falls back to pickle protocol 5 with
``buffer_callback`` so arrays nested inside containers still travel
out-of-band.

A module-level function is one word in the paper (a code pointer: SPMD
ranks share an image) and a *name* here: ``T_FUNC`` carries
``module:qualname`` and the receiver looks it up, as pickle would, with
no pickle stream around it.  Both ends resolve the name on every
message — the sender to check that the name still means this function
(otherwise it takes the generic path below), the receiver because a
rebound module attribute must be honoured — so no function object is
remembered at either end.  What is remembered is the *parse*: each end
keeps a bounded string memo (``_func_name`` on the sender,
``_func_parse`` on the receiver) so that the ``getattr`` walk, not the
splitting and formatting of ``module:qualname``, is what a message
pays.  The empty dict (an async's usual ``kwargs``) is one byte.

Strings travel as UTF-8 with ``surrogatepass``: a lone surrogate (what
``os.fsdecode`` makes of a non-UTF-8 file name) round-trips.

Snapshot-at-send rule: mutable buffers (``bytearray``, writable
``ndarray``, writable pickle-5 buffers) are copied **once** at encode
time, so the sender may mutate its objects immediately after ``send``
returns and delayed deliveries still see the original
value.  ``bytes`` and read-only memoryviews ship zero-copy.

Objects that cannot be pickled at all (lambdas, closures, live handles)
ship *by reference* — a ``T_REF`` index into the frame's ``refs`` list,
which in the shared-memory conduit means the receiver sees the sender's
object.
``strict=True`` encodes refuse this and raise :class:`UnencodableError`
instead, which is how eager serialization checks are implemented.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import struct
import sys
import types

import numpy as np

from repro.errors import SerializationError


class UnencodableError(SerializationError):
    """A strict encode hit a value that would have to ship by reference."""


# -- wire scalars ------------------------------------------------------------
_I = struct.Struct("<I")
_q = struct.Struct("<q")
_d = struct.Struct("<d")
_dd = struct.Struct("<dd")
_3I = struct.Struct("<3I")
_5I = struct.Struct("<5I")

# Inline-vs-out-of-band threshold for byte strings.  Below this the
# bytes are memcpy'd into the control stream (cheaper than carrying a
# buffer-table entry); above it they ride out-of-band.
_INLINE_BYTES = 64
# Heterogeneous sequences longer than this are handed to pickle whole
# (C-speed) instead of per-item tagging (Python-speed).
_SEQ_PICKLE_MIN = 16

# -- stream tags -------------------------------------------------------------
T_NONE = 0
T_TRUE = 1
T_FALSE = 2
T_INT8 = 3
T_INT64 = 4
T_BIGINT = 5
T_FLOAT = 6
T_COMPLEX = 7
T_STR8 = 8
T_STR32 = 9
T_BYTES8 = 10        # small bytes, inline
T_BARR8 = 11         # small bytearray, inline
T_BUF_BYTES = 12     # bytes, out-of-band (zero-copy both ends)
T_BUF_BARR = 13      # bytearray, out-of-band (snapshot; decode copies)
T_BUF_MVIEW = 14     # read-only memoryview, out-of-band (decodes as bytes)
T_TUPLE = 15
T_LIST = 16
T_INTTUPLE = 17      # homogeneous int64 fast path: one struct.pack
T_INTLIST = 18
T_FLOATTUPLE = 19
T_FLOATLIST = 20
T_STRTUPLE = 21      # homogeneous str: packed lengths + utf-8 blob
T_STRLIST = 22
T_NDARRAY = 23       # dtype/shape header + out-of-band data buffer
T_NPSCALAR = 24      # dtype header + raw item bytes
T_PICKLE = 25        # pickle-5 stream + out-of-band buffer span
T_REF = 26           # by-reference: index into the frame's refs list
T_ENCODED = 27       # spliced pre-encoded payload (fan-out reuse)
T_FUNC = 28          # module-level function, by "module:qualname"
T_EMPTYDICT = 29     # {}
T_DICT = 30          # u32 n + n key/value pairs (exact dict only)

# -- function names ----------------------------------------------------------
# Parse memos for ``T_FUNC`` names (see the module docstring): strings
# only, never a function object, so a rebound name still resolves anew.
FUNC_MEMO_MAX = 1024


@functools.lru_cache(maxsize=FUNC_MEMO_MAX)
def _func_name(module, qualname):
    """Sender: ``(module, qualname)`` -> (qualname parts, wire bytes)."""
    return tuple(qualname.split(".")), f"{module}:{qualname}".encode("utf-8")


@functools.lru_cache(maxsize=FUNC_MEMO_MAX)
def _func_parse(raw):
    """Receiver: wire bytes -> (module, qualname parts)."""
    module, _, qualname = raw.decode("utf-8").partition(":")
    return module, tuple(qualname.split("."))


# -- encoder -----------------------------------------------------------------
class Encoder:
    """Accumulates one control stream + buffer/ref tables."""

    __slots__ = ("out", "buffers", "refs", "used_pickle", "strict")

    def __init__(self, out: bytearray | None = None, strict: bool = False):
        self.out = bytearray() if out is None else out
        self.buffers: list = []
        self.refs: list = []
        self.used_pickle = False
        self.strict = strict

    def encode(self, obj) -> None:
        _encode(self, obj)


def buf_nbytes(b) -> int:
    t = type(b)
    if t is bytes or t is bytearray:
        return len(b)
    mv = memoryview(b)
    n = mv.nbytes
    mv.release()
    return n


def _enc_none(enc, obj):
    enc.out.append(T_NONE)


def _enc_bool(enc, obj):
    enc.out.append(T_TRUE if obj else T_FALSE)


def _enc_int(enc, obj):
    out = enc.out
    if -128 <= obj <= 127:
        out.append(T_INT8)
        out.append(obj & 0xFF)
        return
    try:
        packed = _q.pack(obj)
    except (OverflowError, struct.error):
        raw = obj.to_bytes((obj.bit_length() + 8) // 8, "little",
                           signed=True)
        out.append(T_BIGINT)
        out += _I.pack(len(raw))
        out += raw
        return
    out.append(T_INT64)
    out += packed


def _enc_float(enc, obj):
    enc.out.append(T_FLOAT)
    enc.out += _d.pack(obj)


def _enc_complex(enc, obj):
    enc.out.append(T_COMPLEX)
    enc.out += _dd.pack(obj.real, obj.imag)


def _enc_str(enc, obj):
    raw = obj.encode("utf-8", "surrogatepass")
    out = enc.out
    n = len(raw)
    if n < 256:
        out.append(T_STR8)
        out.append(n)
    else:
        out.append(T_STR32)
        out += _I.pack(n)
    out += raw


def _enc_bytes(enc, obj):
    out = enc.out
    n = len(obj)
    if n <= _INLINE_BYTES:
        out.append(T_BYTES8)
        out.append(n)
        out += obj
    else:
        out.append(T_BUF_BYTES)
        out += _I.pack(len(enc.buffers))
        enc.buffers.append(obj)


def _enc_bytearray(enc, obj):
    out = enc.out
    n = len(obj)
    if n <= _INLINE_BYTES:
        out.append(T_BARR8)
        out.append(n)
        out += obj
    else:
        out.append(T_BUF_BARR)
        out += _I.pack(len(enc.buffers))
        enc.buffers.append(bytes(obj))  # snapshot: sender may mutate


def _enc_memoryview(enc, obj):
    if obj.readonly and obj.contiguous and obj.nbytes > _INLINE_BYTES:
        enc.out.append(T_BUF_MVIEW)
        enc.out += _I.pack(len(enc.buffers))
        enc.buffers.append(obj)
    else:
        _enc_bytes(enc, obj.tobytes())


def _enc_seq(enc, obj, t_generic, t_int, t_float, t_str):
    out = enc.out
    n = len(obj)
    if n == 0:
        out.append(t_generic)
        out += _I.pack(0)
        return
    kinds = set(map(type, obj))
    if kinds == _ONLY_INT:
        try:
            packed = struct.pack(f"<{n}q", *obj)
        except (OverflowError, struct.error):
            packed = None
        if packed is not None:
            out.append(t_int)
            out += _I.pack(n)
            out += packed
            return
    elif kinds == _ONLY_FLOAT:
        out.append(t_float)
        out += _I.pack(n)
        out += struct.pack(f"<{n}d", *obj)
        return
    elif kinds == _ONLY_STR:
        parts = [s.encode("utf-8", "surrogatepass") for s in obj]
        out.append(t_str)
        out += _I.pack(n)
        out += struct.pack(f"<{n}I", *map(len, parts))
        out += b"".join(parts)
        return
    if n > _SEQ_PICKLE_MIN and not kinds <= _FRIENDLY:
        # bulk heterogeneous data: C pickle beats a Python tag loop
        _enc_pickle(enc, obj)
        return
    out.append(t_generic)
    out += _I.pack(n)
    for x in obj:
        _encode(enc, x)


def _enc_tuple(enc, obj):
    _enc_seq(enc, obj, T_TUPLE, T_INTTUPLE, T_FLOATTUPLE, T_STRTUPLE)


def _enc_list(enc, obj):
    _enc_seq(enc, obj, T_LIST, T_INTLIST, T_FLOATLIST, T_STRLIST)


def _enc_ndarray(enc, arr):
    dt = arr.dtype
    if dt.hasobject or dt.names is not None:
        _enc_pickle(enc, arr)
        return
    # one snapshot into a fresh writable buffer; the receiver decodes a
    # writable array over it without a second copy
    buf = bytearray(arr.nbytes)
    if arr.nbytes:
        np.frombuffer(buf, dtype=dt).reshape(arr.shape)[...] = arr
    ds = dt.str.encode("ascii")
    out = enc.out
    out.append(T_NDARRAY)
    out.append(len(ds))
    out += ds
    out.append(arr.ndim)
    out += struct.pack(f"<{arr.ndim}q", *arr.shape)
    out += _I.pack(len(enc.buffers))
    enc.buffers.append(buf)


def _enc_npscalar(enc, v):
    dt = v.dtype
    if dt.hasobject or not dt.itemsize:
        # np.str_(""), np.bytes_(b""), np.void(b""): numpy cannot build
        # a zero-itemsize scalar back from raw bytes
        _enc_pickle(enc, v)
        return
    ds = dt.str.encode("ascii")
    out = enc.out
    out.append(T_NPSCALAR)
    out.append(len(ds))
    out += ds
    out += v.tobytes()


def _enc_func(enc, fn):
    mod = fn.__module__
    parts, raw = _func_name(mod, fn.__qualname__)
    obj = sys.modules.get(mod)
    for part in parts:
        obj = getattr(obj, part, None)
    if obj is not fn or len(raw) > 255:
        # a lambda, a closure, a decorated-over or rebound name: the
        # name would run something else over there
        _enc_pickle(enc, fn)
        return
    out = enc.out
    out.append(T_FUNC)
    out.append(len(raw))
    out += raw


def _enc_dict(enc, obj):
    out = enc.out
    if not obj:
        out.append(T_EMPTYDICT)
        return
    out.append(T_DICT)
    out += _I.pack(len(obj))
    for k, v in obj.items():
        _encode(enc, k)
        _encode(enc, v)


def _enc_pickle(enc, obj):
    bufs = enc.buffers
    mark = len(bufs)
    try:
        data = pickle.dumps(obj, protocol=5, buffer_callback=bufs.append)
    except Exception:
        del bufs[mark:]
        _enc_ref(enc, obj)
        return
    for i in range(mark, len(bufs)):
        mv = memoryview(bufs[i])
        if not mv.readonly:  # snapshot writable out-of-band views
            try:
                bufs[i] = bytearray(mv)
            except (BufferError, TypeError, ValueError):
                bufs[i] = bytearray(mv.tobytes())
        mv.release()
    enc.used_pickle = True
    out = enc.out
    out.append(T_PICKLE)
    out += _3I.pack(len(data), mark, len(bufs) - mark)
    out += data


def _enc_ref(enc, obj):
    if enc.strict:
        raise UnencodableError(
            f"cannot serialize {type(obj).__name__} by value: "
            f"{obj!r:.80}")
    enc.out.append(T_REF)
    enc.out += _I.pack(len(enc.refs))
    enc.refs.append(obj)


def _enc_encoded(enc, ep):
    """Splice a pre-encoded payload's control stream and adopt its
    buffer/ref tables (written indices are relative to the splice)."""
    out = enc.out
    out.append(T_ENCODED)
    out += _5I.pack(len(ep.ctrl), len(enc.buffers), len(ep.buffers),
                    len(enc.refs), len(ep.refs))
    out += ep.ctrl
    enc.buffers += ep.buffers
    enc.refs += ep.refs
    if ep.used_pickle:
        enc.used_pickle = True


# -- pre-encoded payloads ----------------------------------------------------
class EncodedPayload:
    """An encode-once, decode-per-target payload.

    Fan-out paths (collective data frames, directory blobs, team
    asyncs) pay serialization once and splice the result into each
    outgoing frame; every receiver decodes a fresh copy.
    """

    __slots__ = ("ctrl", "buffers", "refs", "nbytes", "used_pickle")

    def __init__(self, ctrl, buffers, refs, nbytes, used_pickle):
        self.ctrl = ctrl
        self.buffers = buffers
        self.refs = refs
        self.nbytes = nbytes
        self.used_pickle = used_pickle

    def decode(self):
        """Materialize a fresh copy of the encoded value."""
        mv = memoryview(self.ctrl)
        try:
            return _decode(Decoder(mv, 0, self.buffers, self.refs,
                                   copy=True))
        finally:
            mv.release()

    def __repr__(self):  # pragma: no cover - diagnostics
        return (f"EncodedPayload(nbytes={self.nbytes}, "
                f"buffers={len(self.buffers)}, refs={len(self.refs)})")


def preencode(obj, strict: bool = False) -> EncodedPayload:
    """Encode ``obj`` once for reuse across many frames.

    With ``strict=True`` raise :class:`UnencodableError` instead of
    falling back to by-reference shipping.
    """
    enc = Encoder(strict=strict)
    enc.encode(obj)
    nbuf = 0
    for b in enc.buffers:
        nbuf += buf_nbytes(b)
    return EncodedPayload(bytes(enc.out), enc.buffers, enc.refs,
                          len(enc.out) + nbuf, enc.used_pickle)


_ONLY_INT = {int}
_ONLY_FLOAT = {float}
_ONLY_STR = {str}
_FRIENDLY = {type(None), bool, int, float, str, bytes, bytearray,
             memoryview, np.ndarray}

_EXACT = {
    type(None): _enc_none,
    bool: _enc_bool,
    int: _enc_int,
    float: _enc_float,
    complex: _enc_complex,
    str: _enc_str,
    bytes: _enc_bytes,
    bytearray: _enc_bytearray,
    memoryview: _enc_memoryview,
    tuple: _enc_tuple,
    list: _enc_list,
    dict: _enc_dict,
    types.FunctionType: _enc_func,
    set: _enc_pickle,
    frozenset: _enc_pickle,
    np.ndarray: _enc_ndarray,
    EncodedPayload: _enc_encoded,
}


def _encode(enc, obj):
    f = _EXACT.get(type(obj))
    if f is not None:
        f(enc, obj)
    elif isinstance(obj, np.generic):
        _enc_npscalar(enc, obj)
    elif isinstance(obj, BaseException):
        # exceptions always ship by reference: reconstructing arbitrary
        # exception classes from pickle is not reliable (custom
        # __init__ signatures), and error replies were always
        # by-reference in the shared-memory conduit
        _enc_ref(enc, obj)
    else:
        _enc_pickle(enc, obj)


# -- decoder -----------------------------------------------------------------
class Decoder:
    """Cursor over one control stream + its buffer/ref tables.

    ``copy=True`` forces mutable decodes (arrays, pickle-5 buffers) to
    copy, so several receivers decoding the *same* spliced payload never
    alias one buffer.
    """

    __slots__ = ("mv", "pos", "buffers", "refs", "copy")

    def __init__(self, mv, pos, buffers, refs, copy: bool = False):
        self.mv = mv
        self.pos = pos
        self.buffers = buffers
        self.refs = refs
        self.copy = copy

    def decode(self):
        return _decode(self)


def _decode(dec):
    tag = dec.mv[dec.pos]
    dec.pos += 1
    return _DECODERS[tag](dec)


def _read_I(dec) -> int:
    v = _I.unpack_from(dec.mv, dec.pos)[0]
    dec.pos += 4
    return v


def _dec_none(dec):
    return None


def _dec_true(dec):
    return True


def _dec_false(dec):
    return False


def _dec_int8(dec):
    b = dec.mv[dec.pos]
    dec.pos += 1
    return b - 256 if b >= 128 else b


def _dec_int64(dec):
    v = _q.unpack_from(dec.mv, dec.pos)[0]
    dec.pos += 8
    return v


def _dec_bigint(dec):
    n = _read_I(dec)
    raw = bytes(dec.mv[dec.pos:dec.pos + n])
    dec.pos += n
    return int.from_bytes(raw, "little", signed=True)


def _dec_float(dec):
    v = _d.unpack_from(dec.mv, dec.pos)[0]
    dec.pos += 8
    return v


def _dec_complex(dec):
    re, im = _dd.unpack_from(dec.mv, dec.pos)
    dec.pos += 16
    return complex(re, im)


def _dec_str8(dec):
    n = dec.mv[dec.pos]
    dec.pos += 1
    s = str(dec.mv[dec.pos:dec.pos + n], "utf-8", "surrogatepass")
    dec.pos += n
    return s


def _dec_str32(dec):
    n = _read_I(dec)
    s = str(dec.mv[dec.pos:dec.pos + n], "utf-8", "surrogatepass")
    dec.pos += n
    return s


def _dec_bytes8(dec):
    n = dec.mv[dec.pos]
    dec.pos += 1
    b = bytes(dec.mv[dec.pos:dec.pos + n])
    dec.pos += n
    return b


def _dec_barr8(dec):
    n = dec.mv[dec.pos]
    dec.pos += 1
    b = bytearray(dec.mv[dec.pos:dec.pos + n])
    dec.pos += n
    return b


def _dec_buf_bytes(dec):
    b = dec.buffers[_read_I(dec)]
    return b if type(b) is bytes else bytes(b)


def _dec_buf_barr(dec):
    return bytearray(dec.buffers[_read_I(dec)])


def _dec_buf_mview(dec):
    return bytes(dec.buffers[_read_I(dec)])


def _dec_tuple(dec):
    n = _read_I(dec)
    return tuple([_decode(dec) for _ in range(n)])


def _dec_list(dec):
    n = _read_I(dec)
    return [_decode(dec) for _ in range(n)]


def _dec_inttuple(dec):
    n = _read_I(dec)
    v = struct.unpack_from(f"<{n}q", dec.mv, dec.pos)
    dec.pos += 8 * n
    return v


def _dec_intlist(dec):
    return list(_dec_inttuple(dec))


def _dec_floattuple(dec):
    n = _read_I(dec)
    v = struct.unpack_from(f"<{n}d", dec.mv, dec.pos)
    dec.pos += 8 * n
    return v


def _dec_floatlist(dec):
    return list(_dec_floattuple(dec))


def _dec_strs(dec):
    n = _read_I(dec)
    mv = dec.mv
    pos = dec.pos
    lens = struct.unpack_from(f"<{n}I", mv, pos)
    pos += 4 * n
    out = []
    for ln in lens:
        out.append(str(mv[pos:pos + ln], "utf-8", "surrogatepass"))
        pos += ln
    dec.pos = pos
    return out


def _dec_strtuple(dec):
    return tuple(_dec_strs(dec))


def _dec_ndarray(dec):
    mv = dec.mv
    pos = dec.pos
    dn = mv[pos]
    pos += 1
    dt = np.dtype(str(mv[pos:pos + dn], "ascii"))
    pos += dn
    ndim = mv[pos]
    pos += 1
    shape = struct.unpack_from(f"<{ndim}q", mv, pos)
    pos += 8 * ndim
    idx = _I.unpack_from(mv, pos)[0]
    dec.pos = pos + 4
    arr = np.frombuffer(dec.buffers[idx], dtype=dt).reshape(shape)
    if dec.copy:
        arr = arr.copy()
    return arr


def _dec_npscalar(dec):
    mv = dec.mv
    pos = dec.pos
    dn = mv[pos]
    pos += 1
    dt = np.dtype(str(mv[pos:pos + dn], "ascii"))
    pos += dn
    raw = bytes(mv[pos:pos + dt.itemsize])
    dec.pos = pos + dt.itemsize
    return np.frombuffer(raw, dtype=dt)[0]


def _dec_pickle(dec):
    plen, bstart, bcount = _3I.unpack_from(dec.mv, dec.pos)
    dec.pos += 12
    pbufs = dec.buffers[bstart:bstart + bcount]
    if dec.copy:
        pbufs = [bytearray(b) if type(b) is bytearray else b
                 for b in pbufs]
    obj = pickle.loads(dec.mv[dec.pos:dec.pos + plen], buffers=pbufs)
    dec.pos += plen
    return obj


def _dec_ref(dec):
    return dec.refs[_read_I(dec)]


def _dec_encoded(dec):
    clen, bstart, bcount, rstart, rcount = _5I.unpack_from(dec.mv,
                                                           dec.pos)
    dec.pos += 20
    sub = Decoder(dec.mv, dec.pos,
                  dec.buffers[bstart:bstart + bcount],
                  dec.refs[rstart:rstart + rcount], copy=True)
    obj = _decode(sub)
    dec.pos += clen
    return obj


def _dec_func(dec):
    mv = dec.mv
    pos = dec.pos + 1
    end = pos + mv[dec.pos]
    dec.pos = end
    mod, parts = _func_parse(bytes(mv[pos:end]))
    obj = sys.modules.get(mod)
    if obj is None:  # the sender imported it after launch
        obj = importlib.import_module(mod)
    for part in parts:
        obj = getattr(obj, part)
    return obj


def _dec_emptydict(dec):
    return {}


def _dec_dict(dec):
    out = {}
    for _ in range(_read_I(dec)):
        k = _decode(dec)
        out[k] = _decode(dec)
    return out


_DECODERS = [None] * 32
_DECODERS[T_NONE] = _dec_none
_DECODERS[T_TRUE] = _dec_true
_DECODERS[T_FALSE] = _dec_false
_DECODERS[T_INT8] = _dec_int8
_DECODERS[T_INT64] = _dec_int64
_DECODERS[T_BIGINT] = _dec_bigint
_DECODERS[T_FLOAT] = _dec_float
_DECODERS[T_COMPLEX] = _dec_complex
_DECODERS[T_STR8] = _dec_str8
_DECODERS[T_STR32] = _dec_str32
_DECODERS[T_BYTES8] = _dec_bytes8
_DECODERS[T_BARR8] = _dec_barr8
_DECODERS[T_BUF_BYTES] = _dec_buf_bytes
_DECODERS[T_BUF_BARR] = _dec_buf_barr
_DECODERS[T_BUF_MVIEW] = _dec_buf_mview
_DECODERS[T_TUPLE] = _dec_tuple
_DECODERS[T_LIST] = _dec_list
_DECODERS[T_INTTUPLE] = _dec_inttuple
_DECODERS[T_INTLIST] = _dec_intlist
_DECODERS[T_FLOATTUPLE] = _dec_floattuple
_DECODERS[T_FLOATLIST] = _dec_floatlist
_DECODERS[T_STRTUPLE] = _dec_strtuple
_DECODERS[T_STRLIST] = _dec_strs
_DECODERS[T_NDARRAY] = _dec_ndarray
_DECODERS[T_NPSCALAR] = _dec_npscalar
_DECODERS[T_PICKLE] = _dec_pickle
_DECODERS[T_REF] = _dec_ref
_DECODERS[T_ENCODED] = _dec_encoded
_DECODERS[T_FUNC] = _dec_func
_DECODERS[T_EMPTYDICT] = _dec_emptydict
_DECODERS[T_DICT] = _dec_dict
