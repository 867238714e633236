"""copy(): one pass over the bytes for every placement of source and
destination, on threads and on processes.

Rank 0 initiates; "local" means rank 0's segment, "remote" rank 1's
(source) or rank 2's (destination), so remote -> remote is a third-party
copy between two different peers.
"""

import tracemalloc

import numpy as np
import pytest

import repro
from tests.conftest import run_spmd

CONDUITS = ("smp", "proc+socket")
N4M = (4 << 20) // 8


@pytest.fixture(params=CONDUITS)
def conduit(request):
    return request.param


def _pattern(count: int) -> np.ndarray:
    return np.random.default_rng(count).integers(
        -(1 << 62), 1 << 62, count, dtype=np.int64)


def _stats():
    return repro.current_world().ranks[repro.myrank()].stats.snapshot()


@pytest.mark.parametrize("count", [0, 1, 1023, N4M])
@pytest.mark.parametrize("src_rank,dst_rank",
                         [(0, 0), (0, 2), (1, 0), (1, 2)],
                         ids=["local-local", "local-remote",
                              "remote-local", "remote-remote"])
def test_placement_matrix(conduit, src_rank, dst_rank, count):
    """Exact bytes (reinterpreted int64 -> uint64), untouched guard
    elements either side, and the stats of one transfer."""
    def body():
        if repro.myrank() == 0:
            src = repro.allocate(src_rank, count + 2, np.int64)
            dst = repro.allocate(dst_rank, count + 2, np.uint64)
            data = _pattern(count)
            if count:
                (src + 1).put(data)
            dst.put(np.full(count + 2, 7, dtype=np.uint64))
            before = _stats()
            repro.copy(src + 1, dst + 1, count)
            after = _stats()
            got = dst.get(count + 2)
            assert got[0] == 7 and got[-1] == 7
            assert np.array_equal(got[1:-1], data.view(np.uint64))
            delta = {k: after[k] - before[k]
                     for k in ("puts", "put_bytes", "gets", "get_bytes",
                               "local_accesses", "ams_sent")}
            nbytes = 8 * count
            remote_src, remote_dst = src_rank != 0, dst_rank != 0
            assert delta == ({k: 0 for k in delta} if count == 0 else {
                "puts": int(remote_dst),
                "put_bytes": nbytes * remote_dst,
                "gets": int(remote_src),
                "get_bytes": nbytes * remote_src,
                "local_accesses": (not remote_src) + (not remote_dst),
                "ams_sent": 0,
            })
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=3, conduit=conduit))


def test_unaligned_byte_offsets(conduit):
    """Offsets need no alignment to the element size: the transfer is a
    byte copy, also where one end is the initiator's own view."""
    def body():
        if repro.myrank() == 0:
            data = _pattern(5)
            for src_rank, dst_rank in [(0, 1), (1, 0), (0, 0)]:
                raw_src = repro.allocate(src_rank, 64, np.uint8)
                raw_dst = repro.allocate(dst_rank, 64, np.uint8)
                (raw_src + 3).put(data.view(np.uint8))
                repro.copy((raw_src + 3).cast(np.int64),
                           (raw_dst + 5).cast(np.int64), 5)
                assert np.array_equal(
                    (raw_dst + 5).get(40).view(np.int64), data)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2, conduit=conduit))


@pytest.mark.parametrize("shift", [-3, 3])
def test_overlapping_local_ranges_are_memmove(conduit, shift):
    def body():
        buf = repro.allocate(repro.myrank(), 32, np.int64)
        view = buf.local(32)
        view[:] = np.arange(32)
        repro.copy(buf + 8, buf + 8 + shift, 16)
        want = np.arange(32)
        want[8 + shift: 24 + shift] = np.arange(8, 24)
        assert np.array_equal(view, want)
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2, conduit=conduit))


@pytest.mark.parametrize("direction", ["local-remote", "remote-local"])
def test_no_intermediate_copy(conduit, direction):
    """Zero-copy RMA, asserted: a 4 MiB copy() allocates
    next to nothing (a staging buffer would show as 4 MiB)."""
    def body():
        me = repro.myrank()
        mine = repro.allocate(me, N4M, np.int64)
        mine.local(N4M)[:] = me + 1
        theirs = repro.collectives.allgather(mine)[1]
        peak = 0
        if me == 0:
            src, dst = ((mine, theirs) if direction == "local-remote"
                        else (theirs, mine))
            repro.copy(src, dst, N4M)      # warm any lazy set-up
            tracemalloc.start()
            try:
                repro.copy(src, dst, N4M)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 << 10, peak
        repro.barrier()
        # both buffers now hold the source's fill: rank 0's 1s or rank 1's 2s
        assert np.all(mine.local(N4M) == (
            1 if direction == "local-remote" else 2))
        return True

    assert all(run_spmd(body, ranks=2, conduit=conduit))
