"""Active-message plumbing tests (registry, wire accounting, replies)."""

import numpy as np
import pytest

from repro.errors import PgasError
from repro.gasnet.am import (
    ActiveMessage,
    am_handler,
    handler_registry,
    make_reply,
)


def test_handler_registration_and_duplicate_detection():
    @am_handler("test_unique_handler_xyz")
    def h(ctx, am):
        pass

    assert handler_registry["test_unique_handler_xyz"] is h
    # re-registering the same function is idempotent
    am_handler("test_unique_handler_xyz")(h)

    with pytest.raises(PgasError):
        @am_handler("test_unique_handler_xyz")
        def other(ctx, am):
            pass


def test_wire_bytes_includes_args_and_payload():
    from repro.gasnet.wire import HEADER

    small = ActiveMessage(handler="h", src_rank=0)
    assert small.wire_bytes == HEADER.size + len("h")  # header + name
    with_args = ActiveMessage(handler="h", src_rank=0, args=(1, "abc"))
    assert with_args.wire_bytes > small.wire_bytes
    payload = np.zeros(100, dtype=np.float64)
    with_payload = ActiveMessage(handler="h", src_rank=0, payload=payload)
    assert with_payload.wire_bytes >= HEADER.size + 800


def test_wire_bytes_cached():
    am = ActiveMessage(handler="h", src_rank=0, args=(1,))
    first = am.wire_bytes
    assert am.wire_bytes == first


def test_make_reply_carries_token():
    req = ActiveMessage(handler="h", src_rank=3, token=77)
    rep = make_reply(req, src_rank=5, args=("ok",))
    assert rep.is_reply and rep.token == 77 and rep.src_rank == 5


def test_make_reply_requires_token():
    req = ActiveMessage(handler="h", src_rank=3)
    with pytest.raises(PgasError):
        make_reply(req, src_rank=0)


class _CountingPickle:
    """Stand-in for the codec module's pickle that counts dumps calls."""

    def __init__(self, real):
        self._real = real
        self.dumps_calls = 0

    def dumps(self, *a, **kw):
        self.dumps_calls += 1
        return self._real.dumps(*a, **kw)

    def __getattr__(self, name):
        return getattr(self._real, name)


def test_wire_bytes_pickles_at_most_once(monkeypatch):
    """Sizing an AM with a genuinely dynamic payload (a set) costs at
    most one pickle.dumps, and the encoded frame is memoized — a second
    wire_bytes read re-pickles nothing."""
    from repro.gasnet.wire import codecs as codecs_mod

    counter = _CountingPickle(codecs_mod.pickle)
    monkeypatch.setattr(codecs_mod, "pickle", counter)

    am = ActiveMessage(handler="h", src_rank=0,
                       args=(1, "two"), payload={"k", 3, 4})
    _ = am.wire_bytes
    assert counter.dumps_calls == 1, counter.dumps_calls
    _ = am.wire_bytes          # memoized frame: no further pickling
    assert counter.dumps_calls == 1


def test_wire_bytes_fixed_layout_never_pickles(monkeypatch):
    """ndarray/bytes payloads and scalar/str args travel as tagged
    struct fields + out-of-band buffers; no pickle at all."""
    from repro.gasnet.wire import HEADER
    from repro.gasnet.wire import codecs as codecs_mod

    counter = _CountingPickle(codecs_mod.pickle)
    monkeypatch.setattr(codecs_mod, "pickle", counter)

    blob = np.zeros(1 << 16, dtype=np.uint8)
    am = ActiveMessage(handler="h", src_rank=0, args=("hdr",),
                       payload=blob)
    size = am.wire_bytes
    assert size >= blob.nbytes
    assert counter.dumps_calls == 0

    bare = ActiveMessage(handler="h", src_rank=0, payload=b"1234")
    # bytes <= the inline threshold ride in the control stream: header
    # + name + tag byte + u8 length + the 4 payload bytes.
    assert bare.wire_bytes == HEADER.size + len("h") + 1 + 1 + 4
    assert counter.dumps_calls == 0


def test_frame_roundtrips_args_and_payload():
    """encode_am -> thaw reproduces the message by value."""
    from repro.gasnet.wire import encode_am

    payload = np.arange(100, dtype=np.float64)
    am = ActiveMessage(handler="__reply__", src_rank=3,
                       args=(1, "abc", None), payload=payload, token=42,
                       is_reply=True, aux=7)
    frame = encode_am(am)
    out = frame.thaw()
    assert out.handler == "__reply__" and out.src_rank == 3
    assert out.args == (1, "abc", None)
    assert out.token == 42 and out.is_reply and out.aux == 7
    np.testing.assert_array_equal(out.payload, payload)
    assert out.wire_bytes == am.wire_bytes
