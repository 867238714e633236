"""Non-blocking collectives: futures driven by advance(), overlap with
local compute, and several collectives in flight at once."""

import numpy as np
import pytest

import repro
from repro.core import collectives as coll
from tests.conftest import run_spmd


def test_async_future_completes_via_advance():
    """An async allreduce future must complete through explicit
    advance() calls alone — no hidden blocking wait."""
    def body():
        fut = coll.allreduce_async(repro.myrank() + 1)
        spins = 0
        while not fut.done():
            repro.advance()
            spins += 1
            assert spins < 200_000, "future never completed via advance"
        n = repro.ranks()
        assert fut.get() == n * (n + 1) // 2
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=4))


def test_async_overlaps_local_compute():
    """Work done between initiation and wait happens while the
    collective progresses; the result is unaffected."""
    def body():
        me = repro.myrank()
        fut = coll.allgather_async(me * me)
        # local compute the collective overlaps with
        acc = np.arange(50_000, dtype=np.int64).sum()
        assert acc == 49_999 * 50_000 // 2
        assert fut.get() == [r * r for r in range(repro.ranks())]
        return True

    assert all(run_spmd(body, ranks=4))


def test_multiple_collectives_in_flight():
    """Three different collectives initiated back-to-back, waited in
    reverse order: per-team sequencing keeps them independent."""
    def body():
        me = repro.myrank()
        f1 = coll.barrier_async()
        f2 = coll.allreduce_async(me, op="max")
        f3 = coll.allgather_async(chr(ord("a") + me))
        n = repro.ranks()
        assert f3.get() == [chr(ord("a") + r) for r in range(n)]
        assert f2.get() == n - 1
        assert f1.get() is None
        return True

    assert all(run_spmd(body, ranks=4))


def test_async_pipeline_of_dependent_collectives():
    """A chain where each collective's input depends on the previous
    one's output — the classic exscan/allreduce offsets pipeline,
    async end to end."""
    def body():
        me = repro.myrank()
        count = (me + 1) * 3
        off_f = coll.exscan_async(count)
        tot_f = coll.allreduce_async(count)
        offset, total = off_f.get(), tot_f.get()
        offs = coll.allgather(offset)
        assert offs == sorted(offs) and offs[0] == 0
        assert offs[-1] + repro.ranks() * 3 == total
        return True

    assert all(run_spmd(body, ranks=4))


def test_team_async_variants():
    def body():
        me = repro.myrank()
        evens = repro.Team([0, 2])
        odds = repro.Team([1, 3])
        team = evens if me % 2 == 0 else odds
        fg = team.allgather_async(me)
        fr = team.allreduce_async(1)
        fb = team.barrier_async()
        assert fg.get() == sorted(team.members)
        assert fr.get() == 2
        fb.get()
        return True

    assert all(run_spmd(body, ranks=4))


def test_async_root_only_results():
    """gather/reduce async futures resolve to None off-root, the real
    aggregate at the root — same contract as the blocking forms."""
    def body():
        me = repro.myrank()
        gf = coll.gather_async(me * 2, root=1)
        rf = coll.reduce_async(me, op="sum", root=1)
        g, r = gf.get(), rf.get()
        if me == 1:
            n = repro.ranks()
            assert g == [x * 2 for x in range(n)]
            assert r == n * (n - 1) // 2
        else:
            assert g is None and r is None
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=4))


def test_async_gatherv_and_alltoallv():
    def body():
        me, n = repro.myrank(), repro.ranks()
        vf = coll.gatherv_async(np.full(me + 1, me, dtype=np.int32),
                                root=0)
        af = coll.alltoallv_async(
            [np.full(2, me * 10 + d, dtype=np.int64) for d in range(n)])
        got = af.get()
        for src in range(n):
            assert np.array_equal(got[src],
                                  np.full(2, src * 10 + me))
        v = vf.get()
        if me == 0:
            expect = np.concatenate(
                [np.full(r + 1, r, dtype=np.int32) for r in range(n)])
            assert np.array_equal(v, expect)
        else:
            assert v is None
        return True

    assert all(run_spmd(body, ranks=3))


def _cat(a, b):
    # not commutative: a fold out of team order shows in the result
    return a + b


def _scatter(me, n, f):
    return f([f"to{r}" for r in range(n)] if me == 1 else None, root=1)


def _alltoall(me, n, f):
    return f([me * 10 + d for d in range(n)])


def _scan(me, n, f):
    return f(chr(ord("a") + me) * (me + 1), op=_cat)


ASYNC_FORMS = {
    "scatter": (_scatter, coll.scatter_async, coll.scatter,
                lambda me, n: f"to{me}"),
    "alltoall": (_alltoall, coll.alltoall_async, coll.alltoall,
                 lambda me, n: [src * 10 + me for src in range(n)]),
    "scan": (_scan, coll.scan_async, coll.scan,
             lambda me, n: "abbccc"[:(me + 1) * (me + 2) // 2]),
}


@pytest.mark.parametrize("name", list(ASYNC_FORMS))
def test_async_form_matches_its_blocking_form(name):
    """At 3 ranks — a team size that is not a power of two — the future
    resolves to what the blocking call returns."""
    call, async_form, blocking, expect = ASYNC_FORMS[name]

    def body():
        me, n = repro.myrank(), repro.ranks()
        got = call(me, n, async_form).get()
        assert got == call(me, n, blocking) == expect(me, n)
        return True

    assert all(run_spmd(body, ranks=3))
