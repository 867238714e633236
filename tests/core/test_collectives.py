"""Collective operations: correctness, by-value semantics, mismatch
detection, and team-scoped variants."""

import numpy as np
import pytest

import repro
from repro.core import collectives as coll
from repro.errors import PgasError
from tests.conftest import run_spmd


def test_barrier_orders_all_ranks():
    """No rank exits the barrier before every rank has entered it."""
    def body():
        n = repro.ranks()
        entered = repro.SharedArray(np.int64, n, block=1)  # collective
        entered[repro.myrank()] = 1
        repro.barrier()
        count = int(entered.gather(np.arange(n)).sum())
        assert count == n
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=4))


def test_bcast_scalar_and_array(nranks):
    def body():
        me = repro.myrank()
        v = coll.bcast(123 if me == 0 else None, root=0)
        arr = coll.bcast(
            np.arange(5) if me == nranks - 1 else None, root=nranks - 1
        )
        return (v, arr.sum())

    assert run_spmd(body, ranks=nranks) == [(123, 10)] * nranks


def test_bcast_is_by_value():
    """Mutating the received buffer must not affect other ranks."""
    def body():
        me = repro.myrank()
        arr = coll.bcast(np.zeros(4) if me == 0 else None, root=0)
        arr += me  # private copy
        repro.barrier()
        arr2 = coll.allgather(arr.sum())
        return tuple(arr2)

    res = run_spmd(body, ranks=3)
    assert res[0] == (0.0, 4.0, 8.0)


def test_reduce_to_root_only():
    def body():
        me = repro.myrank()
        total = coll.reduce(me + 1, op="sum", root=1)
        return total

    res = run_spmd(body, ranks=4)
    assert res[1] == 10
    assert res[0] is None and res[2] is None and res[3] is None


@pytest.mark.parametrize("op,expected", [
    ("sum", 6), ("prod", 0), ("min", 0), ("max", 3),
    ("xor", 0 ^ 1 ^ 2 ^ 3), ("or", 3), ("and", 0),
])
def test_allreduce_named_ops(op, expected):
    res = run_spmd(lambda: coll.allreduce(repro.myrank(), op=op), ranks=4)
    assert res == [expected] * 4


def test_allreduce_matches_local_reduce_on_arrays():
    """Property: allreduce(v) == functools.reduce(op, all v)."""
    def body():
        me = repro.myrank()
        v = np.arange(4) * (me + 1)
        got = coll.allreduce(v, op="sum")
        contributions = coll.allgather(v)
        expect = sum(contributions[1:], contributions[0])
        return bool(np.array_equal(got, expect))

    assert all(run_spmd(body, ranks=4))


def test_allreduce_custom_callable():
    res = run_spmd(
        lambda: coll.allreduce(repro.myrank() + 1, op=lambda a, b: a * b),
        ranks=4,
    )
    assert res == [24] * 4


def test_unknown_reduction_rejected():
    def body():
        with pytest.raises(PgasError):
            coll.allreduce(1, op="frobnicate")
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_gather_and_allgather_rank_order():
    def body():
        me = repro.myrank()
        g = coll.gather(f"r{me}", root=0)
        ag = coll.allgather(me * 2)
        return (g, ag)

    res = run_spmd(body, ranks=3)
    assert res[0][0] == ["r0", "r1", "r2"]
    assert res[1][0] is None
    assert all(r[1] == [0, 2, 4] for r in res)


def test_gatherv_concatenates_variable_lengths():
    def body():
        me = repro.myrank()
        part = np.full(me + 1, me, dtype=np.int64)
        return coll.gatherv(part, root=0)

    res = run_spmd(body, ranks=3)
    assert np.array_equal(res[0], np.array([0, 1, 1, 2, 2, 2]))
    assert res[1] is None


def test_gatherv_rejects_2d():
    def body():
        with pytest.raises(PgasError):
            coll.gatherv(np.zeros((2, 2)))
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2))


def test_scatter():
    def body():
        me = repro.myrank()
        values = [10, 20, 30, 40] if me == 0 else None
        return coll.scatter(values, root=0)

    assert run_spmd(body, ranks=4) == [10, 20, 30, 40]


def test_scatter_validates_length():
    def body():
        me = repro.myrank()
        coll.scatter([1] if me == 0 else None, root=0)  # needs 2 values

    with pytest.raises(PgasError):
        run_spmd(body, ranks=2, timeout=10)


def test_alltoall_transpose_semantics():
    def body():
        me = repro.myrank()
        n = repro.ranks()
        outgoing = [f"{me}->{dst}" for dst in range(n)]
        incoming = coll.alltoall(outgoing)
        return incoming

    res = run_spmd(body, ranks=3)
    for dst in range(3):
        assert res[dst] == [f"{src}->{dst}" for src in range(3)]


def test_alltoallv_arrays():
    def body():
        me = repro.myrank()
        n = repro.ranks()
        outgoing = [np.full(src_len, me, dtype=np.int32)
                    for src_len in range(1, n + 1)]
        incoming = coll.alltoallv(outgoing)
        return [a.tolist() for a in incoming]

    res = run_spmd(body, ranks=3)
    # rank 1 receives arrays of length 2 from every source
    assert res[1] == [[0, 0], [1, 1], [2, 2]]


def test_alltoall_wrong_length_rejected():
    def body():
        with pytest.raises(PgasError):
            coll.alltoall([1, 2])  # needs exactly `ranks` entries
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3))


def test_collective_mismatch_detected_not_deadlocked():
    def body():
        if repro.myrank() == 0:
            coll.bcast(1, root=0)
        else:
            coll.allreduce(1)

    with pytest.raises(PgasError):
        run_spmd(body, ranks=2, timeout=10)


def test_team_barrier_and_bcast():
    def body():
        me = repro.myrank()
        evens = repro.Team([0, 2])
        odds = repro.Team([1, 3])
        team = evens if me % 2 == 0 else odds
        v = team.bcast(me * 100, root=0)  # team-index 0 is the root
        team.barrier()
        return v

    res = run_spmd(body, ranks=4)
    assert res == [0, 100, 0, 100]


def test_team_split():
    def body():
        me = repro.myrank()
        world = repro.Team.world()
        sub = world.split(color=me % 2, key=-me)
        return tuple(sub.members)

    res = run_spmd(body, ranks=4)
    assert res[0] == (2, 0)  # key=-rank reverses the order
    assert res[1] == (3, 1)
    assert res[2] == (2, 0)


def test_scan_inclusive():
    def body():
        me = repro.myrank()
        return coll.scan(me + 1)

    # values 1,2,3,4 -> prefix sums 1,3,6,10
    assert run_spmd(body, ranks=4) == [1, 3, 6, 10]


def test_exscan_exclusive():
    def body():
        me = repro.myrank()
        return coll.exscan(me + 1)

    assert run_spmd(body, ranks=4) == [0, 1, 3, 6]


def test_exscan_custom_initial_and_op():
    def body():
        me = repro.myrank()
        return coll.exscan(me + 2, op="prod", initial=1)

    # values 2,3,4 -> exclusive products 1, 2, 6
    assert run_spmd(body, ranks=3) == [1, 2, 6]


def test_scan_arrays():
    def body():
        me = repro.myrank()
        v = np.full(3, me + 1)
        out = coll.scan(v)
        expect = np.full(3, sum(range(1, me + 2)))
        return bool(np.array_equal(out, expect))

    assert all(run_spmd(body, ranks=3))


def test_scan_offsets_idiom():
    """The partitioning idiom: exscan of local counts = landing offset."""
    def body():
        me = repro.myrank()
        count = (me + 1) * 5
        offset = coll.exscan(count)
        total = coll.allreduce(count)
        offsets = coll.allgather(offset)
        assert offsets == sorted(offsets)
        assert offsets[0] == 0
        assert offsets[-1] + (repro.ranks()) * 5 == total
        return True

    assert all(run_spmd(body, ranks=4))


# -- team-scoped collectives ------------------------------------------------

def _noop():
    # module-level: an async's function crosses processes by name
    return None


def test_subset_team_collectives_ignore_outsiders():
    """A strict-subset team runs its full collective surface while the
    left-out rank does unrelated communication — no cross-talk."""
    def body():
        me = repro.myrank()
        sub = repro.Team([0, 1, 3])   # rank 2 excluded
        if me == 2:
            # outsider: unrelated traffic while the team collects
            with repro.finish():
                repro.async_(0)(_noop)
            return "outsider"
        idx = sub.index_of(me)
        assert sub.allgather(idx) == [0, 1, 2]
        assert sub.allreduce(idx + 1) == 6
        r = sub.reduce(idx, op="max", root=1)
        assert r == (2 if idx == 1 else None)
        assert sub.bcast("hi" if idx == 0 else None, root=0) == "hi"
        sub.barrier()
        return "member"

    res = run_spmd(body, ranks=4)
    assert res == ["member", "member", "outsider", "member"]


def test_overlapping_teams_interleave_safely():
    """A rank in two teams interleaves collectives on both; each team
    keeps its own sequence stream so nothing cross-matches."""
    def body():
        me = repro.myrank()
        left = repro.Team([0, 1, 2])
        right = repro.Team([2, 3])     # rank 2 is in both
        out = {}
        if me in left:
            out["left"] = left.allgather(f"L{me}")
        if me in right:
            out["right"] = right.allreduce(me)
        if me in left:
            left.barrier()
        if me in right:
            out["right2"] = right.bcast(me * 10 if me == 2 else None,
                                        root=0)
        return out

    res = run_spmd(body, ranks=4)
    assert res[2]["left"] == ["L0", "L1", "L2"]
    assert res[2]["right"] == res[3]["right"] == 5
    assert res[2]["right2"] == res[3]["right2"] == 20


def test_team_reduce_root_is_team_index():
    def body():
        me = repro.myrank()
        team = repro.Team([3, 1])      # team index 0 is world rank 3
        if me in team:
            got = team.reduce(me, op="sum", root=0)
            return got if me == 3 else ("off-root", got)
        return None

    res = run_spmd(body, ranks=4)
    assert res[3] == 4
    assert res[1] == ("off-root", None)


# -- value-copy semantics ---------------------------------------------------

def test_copy_value_numpy_scalar_fast_path():
    """NumPy scalars are immutable: copy_value must return them as-is
    (no pickle round-trip), preserving dtype."""
    from repro.core.coll_engine import copy_value

    s = np.float32(1.5)
    assert copy_value(s) is s
    i = np.uint64(1 << 60)
    assert copy_value(i) is i
    # ndarrays still get defensively copied
    a = np.arange(4)
    c = copy_value(a)
    assert c is not a and np.array_equal(c, a)
    # arbitrary objects round-trip by value
    d = {"k": [1, 2]}
    c2 = copy_value(d)
    assert c2 == d and c2 is not d


def test_bcast_numpy_scalar_keeps_dtype():
    def body():
        v = np.float32(2.5) if repro.myrank() == 0 else None
        got = coll.bcast(v, root=0)
        return type(got).__name__, float(got)

    res = run_spmd(body, ranks=3)
    assert all(r == ("float32", 2.5) for r in res)


# -- op counts --------------------------------------------------------------

@pytest.mark.parametrize("ranks", [2, 3, 4])
def test_collective_am_counts_per_rank(ranks):
    """Dissemination barrier and Bruck allgather send exactly
    ceil(log2 P) AMs per rank, pairwise alltoallv exactly P - 1."""
    reps = 3
    log2p = (ranks - 1).bit_length()

    def body():
        stats = repro.current_world().ranks[repro.myrank()].stats
        blob = np.zeros(64, dtype=np.uint8)
        blocks = [blob] * ranks

        def ams_per_op(fn):
            before = stats.snapshot()["coll_msgs"]
            for _ in range(reps):
                fn()
            return (stats.snapshot()["coll_msgs"] - before) / reps

        return (ams_per_op(repro.barrier),
                ams_per_op(lambda: coll.allgather(blob)),
                ams_per_op(lambda: coll.alltoallv(blocks)))

    expected = (log2p, log2p, ranks - 1)
    assert run_spmd(body, ranks=ranks) == [expected] * ranks
