"""Wire codec: round-trip properties, buffer semantics, zero-pickle paths.

The encoder's contract is *by-value delivery*: ``decode(encode(x))``
compares equal to ``x``, preserves the exact type for every supported
builtin, and never aliases a mutable buffer the sender could touch
afterwards.  The tagged stream (scalars, sequences, dicts, ndarray/bytes
payloads) must not invoke pickle at all — asserted here with a counting
stub threaded under the codec module, and with each rank's
``pickle_fallbacks`` counter, which also holds under
``REPRO_CONDUIT=proc``.
"""

import collections
import json
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.gasnet.am import ActiveMessage, make_reply
from repro.gasnet.wire import HEADER, UnencodableError, encode_am, preencode
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
    # every category, lone surrogates included (os.fsdecode makes them)
    st.text(st.characters(exclude_categories=())
            | st.characters(categories=["Cs"]), max_size=64),
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

# Dict keys: every hashable shape a kv map or a kwargs dict uses.
keys = st.one_of(
    st.text(max_size=8),
    st.integers(),
    st.binary(max_size=8),
    st.tuples(st.integers(), st.text(max_size=4)),
    st.frozensets(st.integers(-5, 5), max_size=3),
)

values = st.recursive(
    st.one_of(scalars, functions, st.just({})),
    lambda children: st.one_of(
        st.lists(children, max_size=8),
        st.tuples(children, children),
        st.dictionaries(keys, children, max_size=4),
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
              np.uint8(255), np.str_("ab"), np.datetime64("2020-01-02"),
              # zero itemsize: an empty element of a str/bytes array
              np.str_(""), np.bytes_(b""), np.void(b"")):
        out = roundtrip(v)
        assert out == v and out.dtype == v.dtype
    # the stream stays aligned after one of them
    assert roundtrip([np.str_(""), 7]) == ["", 7]


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
        "T_ENCODED": 27, "T_FUNC": 28, "T_EMPTYDICT": 29, "T_DICT": 30,
    }
    for tag in tags.values():
        assert codecs_mod._DECODERS[tag] is not None


def test_async_shape_is_a_name_and_a_tuple(pickle_counter):
    """The ``exec_task`` payload stream, which ``async_`` writes into its
    frame and the bench ladder pre-encodes: no pickle stream, nothing by
    reference, the function as its name and ``{}`` as one byte."""
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
    assert not preencode({"a": 1}).used_pickle  # non-empty: T_DICT


def test_dict_goes_by_value_and_its_subclasses_keep_their_type():
    d = {"k": [1, 2], (1, "t"): {b"n": None}}
    ep = preencode(d)
    d["k"].append(3)                        # sender mutates after encode
    d["new"] = 0
    assert ep.decode() == {"k": [1, 2], (1, "t"): {b"n": None}}
    for sub in (collections.OrderedDict(b=1, a=2),
                collections.defaultdict(list, a=[1])):
        out = roundtrip(sub)
        assert out == sub and type(out) is type(sub)


def test_unpicklable_value_inside_a_dict_goes_by_reference():
    fn = lambda x: x                        # noqa: E731
    ep = preencode({"f": fn, "n": 1})
    assert ep.refs == [fn] and ep.decode() == {"f": fn, "n": 1}
    with pytest.raises(UnencodableError):
        preencode({"f": fn}, strict=True)


def test_lone_surrogates_round_trip():
    for v in ("\ud800", ["a", "\udc80"], {"k": "\ud800"},
              "x" * 300 + "\udfff"):
        assert roundtrip(v) == v
        assert not preencode(v).used_pickle


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
    from repro.core.async_task import _encode_task
    from repro.errors import SerializationError

    def task_am(fn, args, kwargs):
        return ActiveMessage("exec_task", 0, payload=(fn, args, kwargs),
                             token=1)

    with pytest.raises(SerializationError, match="arguments of async task"):
        _encode_task(task_am(echo, (lambda: None,), {}))
    with pytest.raises(SerializationError, match="arguments of async task"):
        _encode_task(task_am(echo, (), {"k": lambda: None}))
    am = task_am(lambda x: x, (1,), {})     # the function itself may
    _encode_task(am)
    assert len(am._frame.refs) == 1 and not am._frame.used_pickle


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
# kv payloads: one stream value in a CODEC_OBJ frame
# ---------------------------------------------------------------------------

def _frame_roundtrip(handler, payload):
    frame = encode_am(ActiveMessage(handler, 0, args=(1, 2),
                                    payload=payload, token=1))
    return frame.thaw().payload, frame


# Handler names: any text UTF-8 encodes (a lone surrogate does not).
handler_names = st.text(st.characters(exclude_categories=["Cs"]),
                        min_size=1, max_size=24)


@settings(max_examples=100, deadline=None)
@given(handler_names, st.one_of(st.none(), values))
@example("rücksendung→✓", None)
def test_frame_names_its_handler(name, payload):
    """The handler's UTF-8 name follows the header, its byte length in
    the header's name field."""
    raw = name.encode()
    am = ActiveMessage(name, 0, args=(1, "a"), payload=payload, token=7)
    frame = encode_am(am)
    assert HEADER.unpack_from(frame.ctrl, 0)[3] == len(raw)
    assert frame.ctrl[HEADER.size:HEADER.size + len(raw)] == raw
    out = frame.thaw()
    assert (out.handler, out.args, out.token) == (name, (1, "a"), 7)
    assert out.payload == payload


@pytest.mark.parametrize("args,payload", [
    ((), None), ((1, "x"), None), ((), b"v" * 300),
])
def test_a_reply_carries_no_name(args, payload):
    """``F_IS_REPLY`` already says ``__reply__``: zero name bytes."""
    req = ActiveMessage("a_long_request_handler_name", 2, token=9)
    frame = encode_am(make_reply(req, 1, args=args, payload=payload))
    assert HEADER.unpack_from(frame.ctrl, 0)[3] == 0
    out = frame.thaw()
    assert out.is_reply and out.handler == "__reply__"
    assert out.args == args and out.payload == payload
    if not args and payload is None:
        assert len(frame.ctrl) == HEADER.size


@pytest.mark.parametrize("items", [
    {}, {"k": 1}, {b"a": b"v" * 500, 3: [1, 2], "s": "t"},
])
def test_kv_items_codec(items):
    """A put batch is a stream dict; its frame never pickles."""
    out, frame = _frame_roundtrip("kv_put", items)
    assert out == items and type(out) is dict
    assert not frame.used_pickle


@pytest.mark.parametrize("found", [
    [], [(True, 42)], [(True, b"x" * 300), (False, None), (True, "v")],
    [(i % 3 > 0, i if i % 3 else None) for i in range(40)],
])
def test_kv_found_codec(found):
    """A get reply is (hit flag bytes, values): it stays in the stream
    past the 16 entries where a list of (hit, value) tuples pickles."""
    reply = (bytes(hit for hit, _v in found), [v for _h, v in found])
    (hits, vals), frame = _frame_roundtrip("__reply__", reply)
    assert [(bool(h), v) for h, v in zip(hits, vals)] == found
    assert not frame.used_pickle


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


def test_kv_stream_path_never_pickles(pickle_counter):
    """kv put/get/delete/multi with str-or-int keys and bytes/int values
    stay in the tagged stream, with more than 16 keys asked of one
    remote owner (where a list of tuples would go to pickle)."""
    from repro.containers import DistHashMap

    def body():
        me = repro.myrank()
        n = repro.ranks()
        m = DistHashMap(cache=False)
        m.put(me, b"blob" * 100)
        m.put(f"k{me}", me * 10)
        repro.barrier()
        for r in range(n):
            assert m.get(r) == b"blob" * 100
            assert m.get(f"k{r}") == r * 10
        m.multi_put({f"mk{me}:{i}": i for i in range(24)})
        repro.barrier()
        keys = [f"mk{r}:{i}" for r in range(n) for i in range(24)]
        asked = collections.Counter(m.owner_of(k) for k in keys)
        del asked[me]
        assert max(asked.values()) > 16
        assert m.multi_get(keys + ["absent"], default=-1) == \
            [i for _r in range(n) for i in range(24)] + [-1]
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


def scaled(x, k=1):
    return x * k


def test_collective_data_frames_never_pickle_scalars_or_arrays(
        pickle_counter):
    """Collective data frames — gather's and allgather's {rank: value}
    dicts among them — and an async with keyword arguments stay in the
    tagged stream."""
    from repro.core import collectives
    from repro.core.world import current

    def body():
        me = repro.myrank()
        n = repro.ranks()
        out = (
            collectives.allreduce(me + 1, op="sum"),
            collectives.allreduce(np.full(8, me, dtype=np.int64), op="sum"),
            collectives.bcast([1.5, 2.5] if me == 0 else None, root=0),
            collectives.gather(me * 10, root=0),
            collectives.allgather(f"r{me}"),
            collectives.scatter(list(range(100, 100 + n)) if me == 0
                                else None, root=0),
            repro.async_((me + 1) % n)(scaled, me, k=3).get(),
        )
        repro.barrier()
        return out, current().stats.snapshot()["pickle_fallbacks"]

    n = 3
    res = run_spmd(body, ranks=n)
    for me, ((s, arr, b, g, ag, sc, a), fallbacks) in enumerate(res):
        assert s == n * (n + 1) // 2
        np.testing.assert_array_equal(arr, np.full(8, sum(range(n))))
        assert b == [1.5, 2.5]
        assert g == ([0, 10, 20] if me == 0 else None)
        assert ag == ["r0", "r1", "r2"]
        assert sc == 100 + me
        assert a == 3 * me
        assert fallbacks == 0
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
