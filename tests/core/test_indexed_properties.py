"""Property tests: the indexed ops against a flat NumPy reference.

``SharedArray.gather`` / ``scatter`` / ``atomic_batch`` on both
backends, and the segment's indexed primitives beneath them, over index
vectors of every integer dtype (``int8``-``int64``, ``uint8``-
``uint64``), flat, 2-D and strided (non-contiguous), with negatives down
to ``-size``, duplicates, and out-of-range indices on both sides.  A
valid op must leave the table (and return) what the same op does on a
flat NumPy array; an invalid one must raise today's exact message and
change nothing.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.errors import BadPointer
from repro.gasnet.segment import Segment
from tests.conftest import run_spmd

SIZE = 100  # table elements: int8 indices reach past both ends
WORDS = 1 << 64
INDEX_DTYPES = ("int8", "int16", "int32", "int64",
                "uint8", "uint16", "uint32", "uint64")


@st.composite
def index_arrays(draw, lo: int, hi: int):
    """An index array of a drawn integer dtype and layout whose values
    lie in ``[lo, hi)``, or, for a drawn share of examples, also at the
    dtype's extremes and just past either end of that interval."""
    dt = np.dtype(draw(st.sampled_from(INDEX_DTYPES)))
    info = np.iinfo(dt)
    inside = st.integers(max(lo, info.min), min(hi - 1, info.max))
    if draw(st.booleans()):
        outside = [v for v in (lo - 1, lo - 3, hi, hi + 2, info.min,
                               info.max) if info.min <= v <= info.max]
        elems = st.one_of(inside, inside, inside, st.sampled_from(outside))
    else:
        elems = inside
    n = draw(st.integers(1, 64))  # past 16, where an unstable sort shows
    arr = np.array(draw(st.lists(elems, min_size=n, max_size=n)), dtype=dt)
    layout = draw(st.sampled_from(("flat", "2d", "strided", "2d-strided")))
    if layout == "2d":
        arr = arr.reshape(2, -1) if arr.size % 2 == 0 else arr.reshape(-1, 1)
    elif layout == "strided":
        arr = np.repeat(arr, 2)[::2]
    elif layout == "2d-strided":
        arr = np.repeat(arr, 2).reshape(-1, 2)[:, :1]
    return arr


def _flat(a) -> list[int]:
    return [int(v) for v in np.asarray(a).reshape(-1)]


# -- SharedArray on both backends --------------------------------------------

_sa_cases = st.tuples(
    st.sampled_from(("gather", "scatter", "xor", "add")),
    index_arrays(-SIZE, SIZE),
    st.booleans(),                                # operands: one scalar?
    st.lists(st.integers(0, WORDS - 1), min_size=64, max_size=64),
    st.booleans(),                                # return_old
    st.sampled_from((1, 3)),                      # block size
)


def _check_case(arrays, case) -> None:
    kind, idx, scalar, pool, return_old, block = case
    sa = arrays[block]
    start = np.arange(SIZE, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    sa.write_range(0, start)
    ref = _flat(start)
    flat = _flat(idx)
    vals = pool[0] if scalar else np.array(
        pool[:idx.size], dtype=np.uint64).reshape(idx.shape)
    each = [pool[0]] * len(flat) if scalar else pool[:len(flat)]
    call = {
        "gather": lambda: sa.gather(idx),
        "scatter": lambda: sa.scatter(idx, vals),
        "xor": lambda: sa.atomic_batch(idx, "xor", vals, return_old),
        "add": lambda: sa.atomic_batch(idx, "add", vals, return_old),
    }[kind]
    bad = [v for v in flat if not -SIZE <= v < SIZE]
    if bad:
        with pytest.raises(IndexError) as err:
            call()
        assert str(err.value) == (
            f"index {bad[0]} out of range for shared_array of {SIZE}")
        assert _flat(sa.read_range(0, SIZE)) == ref
        return
    pos = [v % SIZE for v in flat]
    got = call()
    table = _flat(sa.read_range(0, SIZE))
    if kind == "gather":
        assert _flat(got) == [ref[p] for p in pos]
        assert table == ref
    elif kind == "scatter":
        # duplicates: some one of the values written there survives
        written: dict[int, set] = {}
        for p, v in zip(pos, each):
            written.setdefault(p, set()).add(v)
        assert all(table[j] in written.get(j, {ref[j]})
                   for j in range(SIZE))
    else:
        old = []
        for p, v in zip(pos, each):  # issue order, duplicates included
            old.append(ref[p])
            ref[p] = ref[p] ^ v if kind == "xor" else (ref[p] + v) % WORDS
        assert table == ref
        assert (_flat(got) == old) if return_old else got is None


def _shared_array_properties(examples: int) -> bool:
    arrays = {b: repro.SharedArray(np.uint64, SIZE, block=b)
              for b in (1, 3)}
    repro.barrier()
    if repro.myrank() == 0:  # one-sided: rank 1 only waits
        @settings(max_examples=examples, deadline=None, database=None,
                  suppress_health_check=list(HealthCheck))
        @given(case=_sa_cases)
        def check(case):
            _check_case(arrays, case)

        check()
    repro.barrier()
    return True


@pytest.mark.parametrize("conduit", ("smp", "proc+socket"))
def test_indexed_ops_match_numpy(conduit):
    assert all(run_spmd(_shared_array_properties, ranks=2, conduit=conduit,
                        args=(120,), timeout=120.0))


# -- the segment's indexed primitives -----------------------------------------

_SEG = 256
_seg_cases = st.tuples(
    st.sampled_from(("read", "write", "add")),
    index_arrays(-4, 40),
    st.sampled_from((0, 0, 0, 1, 4)),  # misalignment of the base
)


@settings(max_examples=200, deadline=None, database=None)
@given(case=_seg_cases)
def test_segment_indexed_ops_match_numpy(case):
    kind, offs, skew = case
    seg = Segment(_SEG)
    base = seg.alloc(_SEG - 8, align=8)
    n = (_SEG - base) // 8
    seg.view(base, np.int64, n)[:] = np.arange(n) * 3
    ref = np.arange(n, dtype=np.int64) * 3
    vals = np.arange(offs.size, dtype=np.int64).reshape(offs.shape) + 1000
    call = {
        "read": lambda: seg.typed_read_indexed(base + skew, np.int64, offs),
        "write": lambda: seg.typed_write_indexed(base + skew, offs, vals),
        "add": lambda: seg.atomic_batch_update(base + skew, np.int64, offs,
                                               "add", vals.reshape(-1)),
    }[kind]
    # offsets reach the segment as int64: a uint64 past 2**63 wraps
    flat = _flat(np.asarray(offs).astype(np.int64))
    extent = (max(flat) + 1) * 8
    if min(flat) < 0:
        msg = f"rank -1: negative element offset {min(flat)} in batch"
    elif base + skew + extent > _SEG:
        msg = (f"rank -1: access [{base + skew}, {base + skew + extent}) "
               f"outside segment of {_SEG} bytes")
    elif skew:
        msg = f"offset {base + skew} misaligned for dtype int64 batch access"
    else:
        msg = None
    if msg is not None:
        with pytest.raises(BadPointer) as err:
            call()
        assert str(err.value) == msg
        assert np.array_equal(seg.view(base, np.int64, n), ref)
        return
    got = call()
    if kind == "read":
        assert _flat(got) == _flat(ref[flat])
    elif kind == "write":
        written: dict[int, set] = {}
        for p, v in zip(flat, _flat(vals)):
            written.setdefault(p, set()).add(v)
        table = _flat(seg.view(base, np.int64, n))
        assert all(table[j] in written.get(j, {int(ref[j])})
                   for j in range(n))
        return
    else:
        np.add.at(ref, flat, vals.reshape(-1))
    assert np.array_equal(seg.view(base, np.int64, n), ref)
