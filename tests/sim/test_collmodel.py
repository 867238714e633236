"""Closed-form LogGP costs of the tree collectives: logarithmic growth
and monotonicity."""

import pytest

from repro.sim import (
    allgather_time,
    allreduce_time,
    alltoall_time,
    barrier_time,
    bcast_time,
    reduce_time,
)
from repro.sim.collmodel import ceil_log2
from repro.sim.loggp import LogGP


NET = LogGP(L=1e-6, o=0.5e-6, g=0.2e-6, G=1e-9)


def test_ceil_log2():
    assert [ceil_log2(p) for p in (1, 2, 3, 4, 5, 8, 9)] == \
        [0, 1, 2, 2, 3, 3, 4]


def test_barrier_grows_logarithmically():
    """Doubling P adds exactly one round — not double the time."""
    t4, t8, t16 = (barrier_time(NET, p) for p in (4, 8, 16))
    assert t8 - t4 == pytest.approx(t16 - t8)
    assert t8 < 2 * t4
    assert barrier_time(NET, 1) == 0.0


def test_costs_monotone_in_payload_and_ranks():
    for fn in (bcast_time, reduce_time, allgather_time):
        assert fn(NET, 8, 4096) > fn(NET, 8, 64)
        assert fn(NET, 32, 64) > fn(NET, 8, 64)
    assert alltoall_time(NET, 8, 4096) > alltoall_time(NET, 8, 64)
    assert alltoall_time(NET, 32, 64) > alltoall_time(NET, 8, 64)


def test_allreduce_is_reduce_plus_bcast():
    assert allreduce_time(NET, 8, 256) == pytest.approx(
        reduce_time(NET, 8, 256) + bcast_time(NET, 8, 256))


def test_reduce_gamma_adds_combine_cost():
    assert reduce_time(NET, 8, 1024, gamma=1e-9) > \
        reduce_time(NET, 8, 1024, gamma=0.0)


def test_allgather_total_traffic_is_p_minus_one_blocks():
    """Bruck rounds ship min(2^k, P-2^k) blocks; summed over rounds
    that is exactly P-1 blocks regardless of P."""
    for p in (2, 3, 5, 8, 13, 16):
        blocks = sum(min(1 << k, p - (1 << k))
                     for k in range(ceil_log2(p)))
        assert blocks == p - 1, p


def test_l_eff_override_raises_latency_bound_costs():
    assert barrier_time(NET, 8, L_eff=10e-6) > barrier_time(NET, 8)
    assert bcast_time(NET, 8, 64, L_eff=10e-6) > bcast_time(NET, 8, 64)
