"""What a near read records: a ``get`` served by a hosted primary or by
the client's cache sends nothing, so under ``flight`` it adds nothing to
the flight ring and binds no trace; under ``full`` the ``kv_get``
histogram still times every get, near or over the wire."""

from __future__ import annotations

import pytest

import repro
from repro.containers import DistHashMap
from repro.telemetry import tracing
from tests.conftest import run_spmd

CONDUITS = ("smp", "proc+socket")
N = 1000


def _keys(m: DistHashMap) -> tuple[str, str]:
    """A key rank 0 hosts, and one rank 1 serves."""
    keys = [f"k{i}" for i in range(64)]
    return (next(k for k in keys if m.owner_of(k) == 0),
            next(k for k in keys if m.owner_of(k) == 1))


def _appended(tel) -> int:
    """Events ever appended to this rank's flight ring (the ring is
    bounded, so its length alone could stand still)."""
    return len(tel.flight) + tel.flight.dropped


@pytest.mark.parametrize("conduit", CONDUITS)
def test_near_gets_record_nothing_under_flight(conduit):
    def body():
        m = DistHashMap(cache=True)
        hosted, remote = _keys(m)
        if repro.myrank() == 0:
            m.put(hosted, b"here")
            m.put(remote, b"there")     # write-through: now cached
        repro.barrier()
        out = None
        if repro.myrank() == 0:
            tel = repro.current_world().ranks[0].telemetry
            stats = repro.current_world().ranks[0].stats
            before = _appended(tel), stats.snapshot()
            for _ in range(N):
                assert m.get(remote) == b"there"
                assert m.get(hosted) == b"here"
                assert tracing.current_ids() == (0, 0)
            after = stats.snapshot()
            out = (_appended(tel) - before[0],
                   {k: after[k] - before[1][k] for k in
                    ("kv_gets", "kv_cache_hits", "local_accesses",
                     "kv_cache_misses", "ams_sent")})
        repro.barrier()
        return out

    added, counted = run_spmd(body, ranks=2, conduit=conduit,
                              telemetry="flight")[0]
    assert added == 0
    assert counted == {"kv_gets": 2 * N, "kv_cache_hits": N,
                       "local_accesses": N, "kv_cache_misses": 0,
                       "ams_sent": 0}


@pytest.mark.parametrize("conduit", CONDUITS)
def test_full_times_every_get_near_or_wire(conduit):
    def body():
        m = DistHashMap(cache=True)
        hosted, remote = _keys(m)
        if repro.myrank() == 0:
            m.put(hosted, 1)
            m.put(remote, 2)
        repro.barrier()
        grown = None
        if repro.myrank() == 0:
            hist = repro.current_world().ranks[0].telemetry.histogram(
                "kv_get")
            before = hist.count
            for i in range(100):
                m.get(hosted)               # hosted
                m.get(remote)               # cached
                if i % 10 == 0:
                    m.invalidate_cache()
                    m.get(remote)           # over the wire
            grown = hist.count - before
        repro.barrier()
        return grown

    assert run_spmd(body, ranks=2, conduit=conduit,
                    telemetry="full")[0] == 210
