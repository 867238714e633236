"""Batched RMA engine: vectorized layout math, gather/scatter,
atomic_batch, and the coalescing guarantees of the bulk paths."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.shared_array import (
    SharedArray,
    global_index_of,
    local_offset_of,
    owner_of,
)
from tests.conftest import run_spmd


# -- vectorized layout math vs. the scalar reference --------------------

@settings(max_examples=100, deadline=None)
@given(
    size=st.integers(1, 5000),
    block=st.integers(1, 17),
    nranks=st.integers(1, 9),
    seed=st.integers(0, 2**31 - 1),
)
def test_vectorized_layout_matches_scalar(size, block, nranks, seed):
    """Property: array-input owner_of/local_offset_of/global_index_of
    agree elementwise with the scalar reference."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, size, size=64, dtype=np.int64)
    owners = owner_of(idx, block, nranks)
    offs = local_offset_of(idx, block, nranks)
    back = global_index_of(owners, offs, block, nranks)
    for k in range(idx.size):
        i = int(idx[k])
        assert owners[k] == owner_of(i, block, nranks)
        assert offs[k] == local_offset_of(i, block, nranks)
        assert back[k] == i


@settings(max_examples=50, deadline=None)
@given(
    block=st.integers(1, 9),
    nranks=st.integers(1, 6),
)
def test_vectorized_roundtrip_is_bijection(block, nranks):
    idx = np.arange(0, 2000, dtype=np.int64)
    owners = owner_of(idx, block, nranks)
    offs = local_offset_of(idx, block, nranks)
    assert np.all((0 <= owners) & (owners < nranks))
    assert np.array_equal(
        global_index_of(owners, offs, block, nranks), idx
    )


# -- gather / scatter ----------------------------------------------------

def test_gather_scatter_roundtrip():
    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=61, block=4)
        repro.barrier()
        if me == 0:
            idx = np.array([0, 60, 13, 7, 7, 59, -1, 20])
            sa.scatter(idx[:4], [10, 20, 30, 40])
            got = sa.gather([0, 60, 13, 7])
            assert list(got) == [10, 20, 30, 40]
            # negative indices resolve like scalar access
            assert sa.gather([-1])[0] == sa[60]
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=4))


def test_gather_matches_elementwise_random():
    def body():
        sa = repro.SharedArray(np.int64, size=97, block=3)
        mine = sa.local_indices()
        sa.local_view()[: len(mine)] = mine * 7
        repro.barrier()
        rng = np.random.default_rng(repro.myrank())
        idx = rng.integers(0, 97, size=50)
        got = sa.gather(idx)
        assert all(got[k] == sa[int(i)] for k, i in enumerate(idx))
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3))


def test_scatter_broadcasts_scalar():
    def body():
        sa = repro.SharedArray(np.int64, size=20)
        repro.barrier()
        if repro.myrank() == 0:
            sa.scatter(np.arange(20), -5)
            assert np.all(sa.read_range(0, 20) == -5)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_gather_bounds_checked():
    def body():
        sa = repro.SharedArray(np.int64, size=10)
        with pytest.raises(IndexError):
            sa.gather([0, 10])
        with pytest.raises(IndexError):
            sa.scatter([-11], [1])
        with pytest.raises(IndexError):
            sa.gather([1.5])  # no silent float truncation
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_unsigned_index_past_int64_is_out_of_range():
    """A uint64 index >= 2**63 must not wrap to a negative one and then
    address element ``size - k``."""
    def body():
        sa = repro.SharedArray(np.int64, size=10)
        if repro.myrank() == 0:
            sa.scatter(np.arange(10), np.arange(10) * 10)
        repro.barrier()
        before = sa.read_range(0, 10)
        for bad in (2**64 - 1, 2**64 - 2, 2**63):
            idx = np.array([1, bad], dtype=np.uint64)
            with pytest.raises(IndexError, match=rf"index {bad} out"):
                sa.gather(idx)
            with pytest.raises(IndexError, match=rf"index {bad} out"):
                sa.scatter(idx, 5)
            with pytest.raises(IndexError, match=rf"index {bad} out"):
                sa.atomic_batch(idx, "add", 100)
        assert np.array_equal(sa.read_range(0, 10), before)
        # in-range unsigned indices stay accepted
        assert list(sa.gather(np.array([9, 0], np.uint64))) == [90, 0]
        with pytest.raises(IndexError, match=r"index -11 out"):
            sa.gather([3, -11, 12])
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_empty_batches_are_noops():
    def body():
        sa = repro.SharedArray(np.int64, size=8)
        assert sa.gather([]).size == 0
        sa.scatter([], [])
        assert sa.atomic_batch([], "add", []) is None
        assert sa.atomic_batch([], "add", [], return_old=True).size == 0
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


# -- atomic_batch vs sequential atomics ---------------------------------

@pytest.mark.parametrize("op", ["xor", "add", "and", "or", "min", "max"])
def test_atomic_batch_equals_sequential(op):
    def body(op=op):
        me = repro.myrank()
        a = repro.SharedArray(np.uint64, size=32)
        b = repro.SharedArray(np.uint64, size=32)
        init = (np.arange(32, dtype=np.uint64) * 977) ^ np.uint64(0x5A5A)
        mine = a.local_indices()
        a.local_view()[: len(mine)] = init[mine]
        b.local_view()[: len(mine)] = init[mine]
        repro.barrier()
        rng = np.random.default_rng(100 + me)
        idx = rng.integers(0, 32, size=40, dtype=np.int64)  # duplicates!
        vals = rng.integers(0, 2**63, size=40, dtype=np.uint64)
        a.atomic_batch(idx, op, vals)
        for i, v in zip(idx, vals):
            b.atomic(int(i), op, v)
        repro.barrier()
        ga = a.read_range(0, 32)
        gb = b.read_range(0, 32)
        assert np.array_equal(ga, gb), (op, ga, gb)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=4))


def test_atomic_batch_return_old_sequential_semantics():
    def body():
        sa = repro.SharedArray(np.int64, size=4)
        repro.barrier()
        if repro.myrank() == 0:
            sa.scatter([0, 1, 2, 3], [100, 200, 300, 400])
            # duplicate index: old values must reflect issue order
            old = sa.atomic_batch([1, 1, 2], "add", [5, 5, 5],
                                  return_old=True)
            assert list(old) == [200, 205, 300]
            assert sa[1] == 210 and sa[2] == 305
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_atomic_batch_callable_op():
    def body():
        sa = repro.SharedArray(np.int64, size=6)
        repro.barrier()
        if repro.myrank() == 0:
            sa.scatter(np.arange(6), np.arange(6))
            sa.atomic_batch(np.arange(6), lambda old, v: old * v, 3)
            assert list(sa.read_range(0, 6)) == [0, 3, 6, 9, 12, 15]
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3))


# -- one route: the array's own translation and ops vs. a model ----------

#: NumPy model of each named op, applied one element at a time in issue
#: order (what ``ufunc.at`` and the in-lock loop must both agree with).
_MODEL_OPS = {
    "xor": np.bitwise_xor, "add": np.add, "and": np.bitwise_and,
    "or": np.bitwise_or, "min": np.minimum, "max": np.maximum,
    "swap": lambda old, v: v,
}


def _reflect(old, v):
    # not commutative: duplicates must apply in issue order
    return 2 * v - old


_BATCH_KINDS = ("atomic_batches", "gets_indexed", "puts_indexed")


def _assert_counts(s0, s1, kind, owners):
    """One ``kind`` op per remote owner, none of the other batched kinds,
    and every element counted once as batched/remote or as local."""
    remote = owners != 0
    for k in _BATCH_KINDS:
        want = len(set(owners[remote].tolist())) if k == kind else 0
        assert s1[k] - s0[k] == want, (k, s1[k] - s0[k], want)
    n_remote = int(remote.sum())
    assert s1["batched_elements"] - s0["batched_elements"] == n_remote
    assert s1["remote_accesses"] - s0["remote_accesses"] == n_remote
    assert (s1["local_accesses"] - s0["local_accesses"]
            == owners.size - n_remote)


@settings(max_examples=40, deadline=None)
@given(
    block=st.sampled_from([1, 2, 3, 7]),
    nranks=st.integers(2, 4),
    rounds=st.integers(0, 4),
    rem=st.integers(0, 100),
    op=st.sampled_from([*_MODEL_OPS, "callable"]),
    return_old=st.booleans(),
    scalar=st.booleans(),
    one_rank=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_route_matches_reference_and_model(block, nranks, rounds, rem,
                                               op, return_old, scalar,
                                               one_rank, seed):
    """Rank 0 drives gather / atomic_batch / scatter over windows with
    negatives and duplicates, some landing on one rank only; the array
    must place, translate, compute and count like the module-level
    reference math and a NumPy model."""
    span = block * nranks
    size = span * rounds + 1 + rem % (span - 1)  # never a multiple of span
    everyone = owner_of(np.arange(size), block, nranks)
    rng = np.random.default_rng(seed)
    init = rng.integers(-1000, 1000, size)
    pool = np.arange(size)
    if one_rank:
        pool = pool[everyone == everyone[rng.integers(size)]]
    norm = rng.choice(pool, 24)                     # duplicates likely
    idx = np.where(rng.random(24) < 0.3, norm - size, norm)
    vals = int(rng.integers(-50, 50)) if scalar else rng.integers(-50, 50, 24)
    uniq = rng.permutation(np.unique(norm))
    uidx = np.where(rng.random(uniq.size) < 0.3, uniq - size, uniq)
    new = vals if scalar else rng.integers(-50, 50, uniq.size)
    fn = _reflect if op == "callable" else op
    step = _reflect if op == "callable" else _MODEL_OPS[op]

    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=size, block=block)
        # placement through the reference math only
        mine = np.flatnonzero(everyone == me)
        sa.local_view()[local_offset_of(mine, block, nranks)] = init[mine]
        repro.barrier()
        if me == 0:
            stats = repro.current_world().ranks[0].stats
            owners = owner_of(norm, block, nranks)
            for i, k in zip(idx.tolist(), norm.tolist()):
                p, r = sa.gptr(i), owner_of(k, block, nranks)
                assert p.rank == sa.where(i) == r
                assert (p.offset - sa.gptr(r * block).offset
                        == local_offset_of(k, block, nranks) * 8)

            s0 = stats.snapshot()
            got = sa.gather(idx)
            _assert_counts(s0, stats.snapshot(), "gets_indexed", owners)
            assert np.array_equal(got, init[norm])

            model = init.copy()
            old = np.empty(norm.size, dtype=np.int64)
            for k, (i, v) in enumerate(
                    zip(norm, np.broadcast_to(vals, norm.shape))):
                old[k] = model[i]
                model[i] = step(model[i], v)
            s0 = stats.snapshot()
            res = sa.atomic_batch(idx, fn, vals, return_old=return_old)
            _assert_counts(s0, stats.snapshot(), "atomic_batches", owners)
            if return_old:
                assert np.array_equal(res, old)
            else:
                assert res is None
            assert np.array_equal(sa.read_range(0, size), model)

            model[uniq] = new
            s0 = stats.snapshot()
            sa.scatter(uidx, new)
            _assert_counts(s0, stats.snapshot(), "puts_indexed",
                           owner_of(uniq, block, nranks))
            assert np.array_equal(sa.read_range(0, size), model)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=nranks))


# -- coalescing guarantees ----------------------------------------------

def _conduit_ops(snap):
    return (snap["puts"] + snap["gets"] + snap["atomics"]
            + snap["puts_indexed"] + snap["gets_indexed"]
            + snap["atomic_batches"])


def test_gather_one_conduit_op_per_owner():
    def body():
        me = repro.myrank()
        n = repro.ranks()
        sa = repro.SharedArray(np.int64, size=256, block=1)
        repro.barrier()
        stats = repro.current_world().ranks[me].stats
        s0 = stats.snapshot()
        sa.gather(np.arange(256))  # touches every rank
        s1 = stats.snapshot()
        assert _conduit_ops(s1) - _conduit_ops(s0) == n - 1
        # per-element remote accounting is preserved
        assert (s1["remote_accesses"] - s0["remote_accesses"]
                == 256 - 256 // n)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=4))


@pytest.mark.parametrize("block", [1, 3, 8, 64])
def test_read_write_range_at_most_nranks_rmas(block):
    def body(block=block):
        me = repro.myrank()
        n = repro.ranks()
        sa = repro.SharedArray(np.int64, size=120, block=block)
        repro.barrier()
        stats = repro.current_world().ranks[me].stats
        s0 = stats.snapshot()
        sa.read_range(1, 118)
        s1 = stats.snapshot()
        assert _conduit_ops(s1) - _conduit_ops(s0) <= n
        sa.write_range(1, np.arange(117))
        s2 = stats.snapshot()
        assert _conduit_ops(s2) - _conduit_ops(s1) <= n
        repro.barrier()
        assert np.array_equal(sa.read_range(1, 118), np.arange(117))
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=4))


def test_gups_batched_coalesces_vs_element_baseline():
    """Acceptance: the batched GUPS loop issues >= 3x fewer conduit ops
    than the per-element baseline at 4 ranks x 512 updates."""
    from repro.bench import gups

    batched = gups.run(ranks=4, log2_table_size=10, updates_per_rank=512,
                       variant="upcxx", verify=True)
    element = gups.run(ranks=4, log2_table_size=10, updates_per_rank=512,
                       variant="upcxx-element", verify=True)
    assert batched.verified and element.verified
    assert batched.conduit_ops * 3 <= element.conduit_ops
    assert batched.updates == element.updates == 4 * 512


def _window_counts():
    """Rank 0 of 2 sends one seeded 256-update xor window to a cyclic
    table; returns its counter deltas and the window's indices."""
    idx = np.random.default_rng(38).integers(0, 1 << 16, 256)
    vals = np.random.default_rng(39).integers(1, 1 << 63, 256,
                                              dtype=np.uint64)
    sa = repro.SharedArray(np.uint64, 1 << 16, block=1)
    repro.barrier()
    delta = None
    if repro.myrank() == 0:
        stats = repro.current_world().ranks[0].stats
        s0 = stats.snapshot()
        sa.atomic_batch(idx, "xor", vals)
        s1 = stats.snapshot()
        delta = {k: s1[k] - s0[k] for k in s1}
    repro.barrier()
    return delta, idx


@pytest.mark.parametrize("conduit", ["smp", "proc"])
def test_gups_window_counter_parity(conduit):
    """One GUPS window charges exactly the counters it always has: one
    batched atomic for rank 1's (odd) half, one remote access per odd
    index and one local access per even one — and no other conduit op."""
    (delta, idx), _ = run_spmd(_window_counts, ranks=2, conduit=conduit)
    odd = int(np.count_nonzero(idx % 2))
    assert 0 < odd < idx.size
    assert delta["atomic_batches"] == 1
    assert delta["batched_elements"] == delta["remote_accesses"] == odd
    assert delta["local_accesses"] == idx.size - odd
    assert _conduit_ops(delta) + delta["ams_sent"] == 1


@pytest.mark.parametrize("conduit", ["smp", "proc"])
def test_gups_remote_fraction_and_conduit_ops_are_pinned(conduit):
    """gups.run's locality and coalescing figures follow from the update
    stream alone: the odd share of rank 0's indices, and one batched
    atomic per window plus the one AM rank 0 sends in the barrier that
    closes its timed loop."""
    from repro.bench import gups
    from repro.util.rng import splitmix64_array

    res = gups.run(ranks=2, log2_table_size=10, updates_per_rank=1024,
                   conduit=conduit)
    stream = gups.hpcc_stream(gups.hpcc_starts(0), 1024)
    idx = (splitmix64_array(stream) & np.uint64(1023)).astype(np.int64)
    owners = owner_of(idx, 1, 2).reshape(-1, gups.BATCH_WINDOW)
    assert res.verified
    assert res.remote_fraction == np.count_nonzero(owners) / idx.size
    assert res.conduit_ops == int(owners.any(axis=1).sum()) + 1


def test_batched_and_element_gups_index_identically():
    from repro.bench.gups import _index_of
    from repro.util.rng import splitmix64_array

    stream = np.arange(1, 200, dtype=np.uint64) * np.uint64(0x9E3779B9)
    mask = 1023
    vec = splitmix64_array(stream) & np.uint64(mask)
    for k, ran in enumerate(stream):
        assert int(vec[k]) == _index_of(int(ran), mask)


# -- owner-side cache after unpickle (satellite fix) --------------------

def test_unpickled_array_rebuilds_owner_fast_path():
    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=16, block=1)
        mine = sa.local_indices()
        sa.local_view()[: len(mine)] = mine + 1000
        repro.barrier()
        clone = pickle.loads(pickle.dumps(sa))
        stats = repro.current_world().ranks[me].stats
        s0 = stats.snapshot()
        own = int(mine[0])
        assert clone[own] == own + 1000      # owner-side read
        clone[own] = own + 2000              # owner-side write
        s1 = stats.snapshot()
        # both accesses took the local fast path, no conduit ops
        assert s1["local_accesses"] - s0["local_accesses"] == 2
        assert _conduit_ops(s1) == _conduit_ops(s0)
        # the write landed in the original's (shared) storage
        assert sa[own] == own + 2000
        # owner-side bulk view is rebound to *this* rank's slab
        assert np.array_equal(clone.local_view(), sa.local_view())
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=4))


def test_shared_instance_across_ranks_stays_correct():
    """One instance touched by a foreign rank context must not steal the
    owner's cached view: the foreign rank falls back to the conduit."""
    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=8, block=1)
        repro.barrier()
        if me == 0:
            repro.current_world().ranks[0].scratch["sa"] = sa
        repro.barrier()
        shared = repro.current_world().ranks[0].scratch["sa"]
        # every rank reads its own element through rank 0's instance
        shared[me] = me * 3
        repro.barrier()
        assert shared[me] == me * 3
        assert sa[me] == me * 3
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=4))
