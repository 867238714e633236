"""Wire codec: round-trip properties, buffer semantics, zero-pickle paths.

The encoder's contract is *by-value delivery*: ``decode(encode(x))``
compares equal to ``x``, preserves the exact type for every supported
builtin, and never aliases a mutable buffer the sender could touch
afterwards.  Fixed-layout paths (registered message codecs, tagged
scalars/sequences, ndarray/bytes payloads) must not invoke pickle at
all — asserted here with a counting stub threaded under the codec
module.
"""

import inspect
import json
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.containers.queue
import repro.containers.shard
import repro.core.workqueue
from repro.gasnet.wire import (
    EncodedPayload,
    Tagged,
    UnencodableError,
    preencode,
    tagged,
)
from repro.gasnet.wire import codecs as codecs_mod
from tests.conftest import run_spmd


def roundtrip(obj):
    return preencode(obj).decode()


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

# Scalars whose round trip must preserve equality AND exact type.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(1 << 200), max_value=1 << 200),
    st.floats(allow_nan=False),
    st.complex_numbers(allow_nan=False),
    st.text(max_size=64),
    st.binary(max_size=200),
)



def echo(x):
    return x


class Holder:
    @staticmethod
    def held(x):
        return x


# Module-level functions travel by name and decode to the same object;
# the empty dict has a tag of its own (``dictionaries`` below draws it
# at every depth, and as the whole payload).
functions = st.sampled_from([echo, Holder.held, json.dumps, roundtrip])

values = st.recursive(
    st.one_of(scalars, functions, st.just({})),
    lambda children: st.one_of(
        st.lists(children, max_size=8),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=150, deadline=None)
@given(values)
def test_roundtrip_preserves_value_and_type(obj):
    out = roundtrip(obj)
    assert out == obj
    assert type(out) is type(obj)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-(1 << 62), max_value=1 << 62),
                min_size=0, max_size=64))
def test_int_sequence_fast_path(xs):
    for seq in (xs, tuple(xs)):
        out = roundtrip(seq)
        assert out == seq and type(out) is type(seq)
        assert all(type(v) is int for v in out)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=False), max_size=64))
def test_float_sequence_fast_path(xs):
    out = roundtrip(xs)
    assert out == xs and all(type(v) is float for v in out)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(max_size=32), max_size=32))
def test_str_sequence_fast_path(xs):
    assert roundtrip(xs) == xs


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.booleans(),
                          st.integers(min_value=-10, max_value=10)),
                min_size=1, max_size=20))
def test_bool_int_mixtures_keep_exact_types(xs):
    # struct.pack would happily coerce True -> 1; the classifier must
    # route any bool-containing "int" sequence off the packed path.
    out = roundtrip(xs)
    assert out == xs
    assert [type(v) for v in out] == [type(v) for v in xs]


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from([np.int8, np.int32, np.int64, np.float32, np.float64,
                     np.complex128, np.uint16]),
    st.integers(min_value=0, max_value=50),
)
def test_ndarray_roundtrip(dtype, n):
    arr = np.arange(n).astype(dtype)
    out = roundtrip(arr)
    assert out.dtype == arr.dtype and out.shape == arr.shape
    np.testing.assert_array_equal(out, arr)


# ---------------------------------------------------------------------------
# ndarray / buffer edge cases
# ---------------------------------------------------------------------------

def test_ndarray_noncontiguous():
    base = np.arange(100, dtype=np.int64).reshape(10, 10)
    for view in (base[::2, ::3], base.T, base[:, 4]):
        out = roundtrip(view)
        np.testing.assert_array_equal(out, view)
        assert out.shape == view.shape


def test_ndarray_zero_length_and_0d():
    for arr in (np.empty(0, dtype=np.float64),
                np.zeros((0, 4), dtype=np.int32),
                np.array(7.5)):
        out = roundtrip(arr)
        assert out.shape == arr.shape and out.dtype == arr.dtype
        np.testing.assert_array_equal(out, arr)


def test_ndarray_big_endian_dtype():
    arr = np.arange(9, dtype=">i4")
    out = roundtrip(arr)
    assert out.dtype == arr.dtype
    np.testing.assert_array_equal(out, arr)


def test_ndarray_object_dtype_falls_back_to_pickle():
    arr = np.array([{"a": 1}, None, "x"], dtype=object)
    out = roundtrip(arr)
    assert out.dtype == object
    assert list(out) == list(arr)


def test_decoded_ndarray_is_writable_and_private():
    src = np.arange(64, dtype=np.float64)
    ep = preencode(src)
    src[:] = -1.0            # sender mutates after encode
    out = ep.decode()
    np.testing.assert_array_equal(out, np.arange(64, dtype=np.float64))
    out[:] = 5.0             # decoded copy is writable
    assert ep.decode()[0] == 0.0  # ...and private per decode


def test_large_bytes_are_zero_copy_out_of_band():
    blob = bytes(range(256)) * 64          # 16 KiB, > inline threshold
    ep = preencode(blob)
    assert ep.nbytes >= len(blob)
    assert len(ep.ctrl) < 256              # control stream stays tiny
    assert ep.decode() == blob


def test_bytearray_snapshot_semantics():
    buf = bytearray(b"x" * 1000)
    ep = preencode(buf)
    buf[:] = b"y" * 1000                   # mutate after encode
    out = ep.decode()
    assert out == bytearray(b"x" * 1000)   # snapshot, not alias
    assert isinstance(out, bytearray)


def test_memoryview_payload_decodes_as_bytes():
    data = bytes(range(200)) * 2
    out = roundtrip(memoryview(data))
    assert out == data and isinstance(out, bytes)
    # writable memoryviews are snapshotted, never aliased
    src = bytearray(b"live" * 100)
    ep = preencode(memoryview(src))
    src[:4] = b"dead"
    assert ep.decode()[:4] == b"live"


def test_dict_and_set_via_pickle5_roundtrip():
    obj = {"k": {1, 2, 3}, "f": frozenset({"a"}), "n": [np.arange(4)]}
    out = roundtrip(obj)
    assert out["k"] == {1, 2, 3} and out["f"] == frozenset({"a"})
    np.testing.assert_array_equal(out["n"][0], np.arange(4))


def test_np_scalar_roundtrip():
    for v in (np.int32(-7), np.float64(2.5), np.complex128(1 + 2j),
              np.uint8(255)):
        out = roundtrip(v)
        assert out == v and out.dtype == v.dtype


# ---------------------------------------------------------------------------
# functions by name, the empty dict
# ---------------------------------------------------------------------------

def test_stream_tags_are_pinned():
    """Tags are wire format: a new one takes the next number, an
    existing one never moves."""
    tags = {k: v for k, v in vars(codecs_mod).items()
            if k.startswith("T_") and isinstance(v, int)}
    assert tags == {
        "T_NONE": 0, "T_TRUE": 1, "T_FALSE": 2, "T_INT8": 3, "T_INT64": 4,
        "T_BIGINT": 5, "T_FLOAT": 6, "T_COMPLEX": 7, "T_STR8": 8,
        "T_STR32": 9, "T_BYTES8": 10, "T_BARR8": 11, "T_BUF_BYTES": 12,
        "T_BUF_BARR": 13, "T_BUF_MVIEW": 14, "T_TUPLE": 15, "T_LIST": 16,
        "T_INTTUPLE": 17, "T_INTLIST": 18, "T_FLOATTUPLE": 19,
        "T_FLOATLIST": 20, "T_STRTUPLE": 21, "T_STRLIST": 22,
        "T_NDARRAY": 23, "T_NPSCALAR": 24, "T_PICKLE": 25, "T_REF": 26,
        "T_ENCODED": 27, "T_FUNC": 28, "T_EMPTYDICT": 29,
    }
    for tag in tags.values():
        assert codecs_mod._DECODERS[tag] is not None


def test_async_shape_is_a_name_and_a_tuple(pickle_counter):
    """The ``exec_task`` payload as ``_pack_task`` and the bench ladder
    build it: no pickle stream, nothing by reference, the function as
    its name and ``{}`` as one byte."""
    ep = preencode((echo, (7,), {}), strict=True)
    assert pickle_counter.dumps_calls == 0
    assert ep.used_pickle is False and ep.refs == [] and ep.buffers == []
    name = f"{__name__}:echo".encode()
    assert bytes((codecs_mod.T_FUNC, len(name))) + name in ep.ctrl
    assert ep.ctrl[-1] == codecs_mod.T_EMPTYDICT
    fn, args, kwargs = ep.decode()
    assert fn is echo and args == (7,)
    assert kwargs == {} and type(kwargs) is dict
    assert ep.decode()[2] is not kwargs     # a fresh dict per decode


def test_empty_dict_as_a_whole_payload_is_one_byte():
    ep = preencode({})
    assert ep.ctrl == bytes((codecs_mod.T_EMPTYDICT,))
    assert ep.decode() == {} and not ep.used_pickle
    assert preencode({"a": 1}).used_pickle  # non-empty: as before


@pytest.mark.parametrize("fn", [echo, Holder.held, json.dumps])
def test_function_roundtrips_by_name_inside_containers(fn):
    ep = preencode([fn, (fn, {}), {"k": fn}], strict=True)
    a, (b, empty), d = ep.decode()
    assert a is fn and b is fn and d["k"] is fn and empty == {}


def test_function_name_is_resolved_at_each_end_each_time(monkeypatch):
    """No memo may stand in for the lookup: a name rebound between two
    messages decodes to the new object, and a function its name no
    longer reaches stops travelling by name."""
    first = preencode(echo, strict=True)
    assert first.decode() is echo

    def echo2(x):
        return ("new", x)

    echo2.__qualname__ = "echo"
    monkeypatch.setattr(sys.modules[__name__], "echo", echo2)
    assert first.decode() is echo2          # receiver: looked up again
    assert preencode(echo2, strict=True).ctrl == first.ctrl
    with pytest.raises(UnencodableError):   # sender: ``is`` check failed
        preencode(_ORIGINAL_ECHO, strict=True)
    ep = preencode(_ORIGINAL_ECHO)
    assert ep.refs == [_ORIGINAL_ECHO] and ep.decode() is _ORIGINAL_ECHO


_ORIGINAL_ECHO = echo


def test_functions_without_a_module_level_name_keep_the_old_path():
    def nested(x):
        return x

    for fn in (lambda x: x, nested):
        with pytest.raises(UnencodableError):
            preencode(fn, strict=True)
        ep = preencode(fn)
        assert ep.refs == [fn] and ep.decode() is fn
    # builtins and partials are not FunctionType: pickle, as before
    import functools
    assert preencode(len).used_pickle and roundtrip(len) is len
    part = roundtrip(functools.partial(echo, 3))
    assert part() == 3


def test_pack_task_names_the_unserializable_argument():
    from repro.core.async_task import _pack_task
    from repro.errors import SerializationError

    with pytest.raises(SerializationError, match="arguments of async task"):
        _pack_task(echo, (lambda: None,), {})
    with pytest.raises(SerializationError, match="arguments of async task"):
        _pack_task(echo, (), {"k": lambda: None})
    ep = _pack_task(lambda x: x, (1,), {})  # the function itself may
    assert len(ep.refs) == 1 and not ep.used_pickle


# ---------------------------------------------------------------------------
# fallback + strict behaviour
# ---------------------------------------------------------------------------

def test_unpicklable_falls_back_to_reference():
    fn = lambda x: x + 1          # noqa: E731 - deliberately unpicklable
    ep = preencode(("call", fn))
    tag, out = ep.decode()
    assert tag == "call" and out is fn   # identity: shipped by reference


def test_strict_mode_raises_on_unencodable():
    with pytest.raises(UnencodableError):
        preencode(lambda: None, strict=True)


def test_exceptions_ship_by_reference():
    class Weird(Exception):
        def __init__(self, a, b):      # breaks naive pickle re-raise
            super().__init__(a)

    exc = Weird(1, 2)
    assert roundtrip(exc) is exc


def test_namedtuple_preserves_subclass_via_pickle():
    import collections
    Pt = collections.namedtuple("Pt", "x y")
    out = roundtrip(Pt(1, 2))
    assert out == Pt(1, 2) and type(out).__name__ == "Pt"


def test_encoded_payload_decodes_fresh_each_time():
    ep = preencode([1, [2, 3]])
    a, b = ep.decode(), ep.decode()
    assert a == b and a is not b and a[1] is not b[1]


# ---------------------------------------------------------------------------
# registered message codecs
# ---------------------------------------------------------------------------

def _codec_roundtrip(name, obj):
    codec = codecs_mod._codecs_by_name[name]
    enc = codecs_mod.Encoder()
    codec.encode(enc, obj)
    dec = codecs_mod.Decoder(memoryview(bytes(enc.out)), 0,
                             enc.buffers, enc.refs, copy=True)
    return codec.decode(dec), enc


@pytest.mark.parametrize("items", [
    {}, {"k": 1}, {b"a": b"v" * 500, 3: [1, 2], "s": "t"},
])
def test_kv_items_codec(items):
    out, _ = _codec_roundtrip("kv_items", items)
    assert out == items


@pytest.mark.parametrize("found", [
    [], [(True, 42)], [(True, b"x" * 300), (False, None), (True, "v")],
])
def test_kv_found_codec(found):
    out, _ = _codec_roundtrip("kv_found", found)
    assert out == found


def test_wq_loot_codec_int_fast_path():
    loot = list(range(100))
    out, enc = _codec_roundtrip("wq_loot", loot)
    assert out == loot
    assert not enc.used_pickle


def test_frame_codec_ids_and_bindings_are_pinned():
    """Codec ids are wire format: they follow registration order, which
    is import order — ``repro.core.workqueue``, then
    ``repro.containers.shard``, then ``repro.containers.queue``, each
    registering next to the state or handler its layouts spell out; the
    wire package itself names no message family.  Pin the whole table so
    a moved or reordered registration cannot shift an id."""
    assert {c.name: c.code for c in codecs_mod._codecs_by_name.values()} == {
        "wq_loot": 16, "kv_items": 17, "kv_keys": 18, "kv_found": 19,
        "kv_repl": 20, "kv_state": 21, "dq_items": 22,
    }
    assert {h: c.name for h, c in codecs_mod._handler_codecs.items()} == {
        "kv_put": "kv_items", "kv_get": "kv_keys", "kv_del": "kv_keys",
        "dq_push": "dq_items", "kv_repl": "kv_repl",
        "kv_install": "kv_state",
    }
    for name in ("kv_items", "kv_found", "kv_repl", "kv_state"):
        owner = codecs_mod._codecs_by_name[name].encode.__module__
        assert owner == "repro.containers.shard"
    # The three list codecs share the wire package's generic body, so
    # their owner is the module whose source registers the name.
    for name, owner in (("kv_keys", repro.containers.shard),
                        ("wq_loot", repro.core.workqueue),
                        ("dq_items", repro.containers.queue)):
        assert codecs_mod._codecs_by_name[name].encode \
            is codecs_mod._enc_obj_list
        assert f'register_message_codec("{name}"' in inspect.getsource(owner)
    assert not re.search(r"\b(kv|wq|dq)_", inspect.getsource(codecs_mod))


def test_register_message_codec_duplicate_rejected():
    with pytest.raises(Exception):
        codecs_mod.register_message_codec(
            "kv_items", lambda e, o: None, lambda d: None
        )


def test_tagged_wrapper():
    t = tagged("wq_loot", [1, 2])
    assert isinstance(t, Tagged)
    assert t.codec.name == "wq_loot" and t.obj == [1, 2]


# ---------------------------------------------------------------------------
# zero-pickle integration: fixed-layout paths across a real world
# ---------------------------------------------------------------------------

class _CountingPickle:
    def __init__(self, real):
        self._real = real
        self.dumps_calls = 0

    def dumps(self, *a, **kw):
        self.dumps_calls += 1
        return self._real.dumps(*a, **kw)

    def __getattr__(self, name):
        return getattr(self._real, name)


@pytest.fixture
def pickle_counter(monkeypatch):
    counter = _CountingPickle(codecs_mod.pickle)
    monkeypatch.setattr(codecs_mod, "pickle", counter)
    return counter


def test_kv_fixed_layout_path_never_pickles(pickle_counter):
    """kv put/get/delete/multi with str-or-int keys and bytes/int values
    stay entirely on the struct/buffer codecs."""
    from repro.containers import DistHashMap

    def body():
        me = repro.myrank()
        m = DistHashMap(cache=False)
        m.put(me, b"blob" * 100)
        m.put(f"k{me}", me * 10)
        repro.barrier()
        for r in range(repro.ranks()):
            assert m.get(r) == b"blob" * 100
            assert m.get(f"k{r}") == r * 10
        m.multi_put({(f"mk{me}:{i}"): i for i in range(16)})
        repro.barrier()
        vals = m.multi_get([f"mk{r}:{i}"
                            for r in range(repro.ranks())
                            for i in range(16)])
        assert vals
        assert m.delete(me) is True
        repro.barrier()
        from repro.core.world import current
        return current().stats.snapshot()

    snaps = run_spmd(body, ranks=3)
    assert pickle_counter.dumps_calls == 0
    assert sum(s["wire_frames"] for s in snaps) > 0
    assert sum(s["pickle_fallbacks"] for s in snaps) == 0


def test_workqueue_steal_loot_never_pickles(pickle_counter):
    from repro.core.workqueue import DistWorkQueue

    def body():
        wq = DistWorkQueue(seed=7)
        if repro.myrank() == 0:
            wq.add_local(list(range(200)))
        repro.barrier()
        got = []
        while (item := wq.get()) is not None:
            got.append(item)
            wq.task_done()
        return len(got)

    counts = run_spmd(body, ranks=3)
    assert sum(counts) == 200
    assert pickle_counter.dumps_calls == 0


def test_collective_data_frames_never_pickle_scalars_or_arrays(
        pickle_counter):
    from repro.core import collectives

    # Scalar/ndarray/float-list collective data frames are fixed-layout
    # (gather is excluded: it ships {rank: value} dicts, which use the
    # pickle-5 fallback by design).
    def body():
        me = repro.myrank()
        s = collectives.allreduce(me + 1, op="sum")
        arr = collectives.allreduce(np.full(8, me, dtype=np.int64),
                                    op="sum")
        b = collectives.bcast([1.5, 2.5] if me == 0 else None, root=0)
        return s, arr, b

    n = 3
    out = run_spmd(body, ranks=n)
    assert all(s == n * (n + 1) // 2 for s, *_ in out)
    np.testing.assert_array_equal(out[0][1], np.full(8, sum(range(n))))
    assert out[0][2] == [1.5, 2.5]
    assert pickle_counter.dumps_calls == 0


def test_wire_fixed_rate_observable():
    def body():
        from repro.core.world import current
        ctx = current()
        if repro.myrank() == 0:
            fut = ctx.send_am(1, "wq_steal", args=(999,),
                              expect_reply=True)
            fut.get()
        repro.barrier()
        return ctx.stats.wire_fixed_rate, ctx.stats.snapshot()

    rates = run_spmd(body, ranks=2)
    rate0, snap0 = rates[0]
    assert snap0["wire_frames"] > 0
    assert rate0 == 1.0
