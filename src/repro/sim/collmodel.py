"""LogGP cost models for the tree-based collectives engine.

Closed forms for the algorithms :mod:`repro.core.coll_engine` runs —
dissemination barrier, binomial bcast/reduce, Bruck allgather, pairwise
alltoall — so the machine models can price a collective without
running anything.  On a unit-latency network (``LogGP(L=1, o=0, g=1,
G=0)``) each form is the collective's round count, which
``tests/core/test_coll_model.py`` checks against the engine.

Conventions match :class:`~repro.sim.loggp.LogGP`: times in seconds,
``L_eff`` lets a topology fold hop latency in.  Rounds in a tree
collective are serialized on the critical path (each round waits for
the previous round's message), so costs are per-round sums; fan-out
within a round is injection-gap limited.
"""

from __future__ import annotations

from repro.core.coll_engine import ceil_log2
from repro.sim.loggp import LogGP


def barrier_time(net: LogGP, p: int, L_eff: float | None = None) -> float:
    """Dissemination barrier: ceil(log2 P) rounds, one small message
    sent and one received per rank per round."""
    L = net.L if L_eff is None else L_eff
    return ceil_log2(p) * (2.0 * net.o + L)


def bcast_time(net: LogGP, p: int, nbytes: int,
               L_eff: float | None = None) -> float:
    """Binomial-tree broadcast of an ``nbytes`` blob: the critical path
    is the deepest leaf, one full transfer per tree level."""
    L = net.L if L_eff is None else L_eff
    return ceil_log2(p) * (net.o + net.bulk(nbytes, L))


def reduce_time(net: LogGP, p: int, nbytes: int,
                L_eff: float | None = None,
                gamma: float = 0.0) -> float:
    """Binomial-tree reduction: mirror of bcast plus a per-byte combine
    cost ``gamma`` (s/byte) at every level."""
    L = net.L if L_eff is None else L_eff
    return ceil_log2(p) * (net.o + net.bulk(nbytes, L) + gamma * nbytes)


def allreduce_time(net: LogGP, p: int, nbytes: int,
                   L_eff: float | None = None,
                   gamma: float = 0.0) -> float:
    """Reduce to the tree root, then broadcast back down."""
    return (reduce_time(net, p, nbytes, L_eff, gamma)
            + bcast_time(net, p, nbytes, L_eff))


def allgather_time(net: LogGP, p: int, nbytes_block: int,
                   L_eff: float | None = None) -> float:
    """Bruck allgather: round k ships min(2^k, P - 2^k) coalesced
    blocks, so total traffic is (P-1) blocks in ceil(log2 P) rounds."""
    L = net.L if L_eff is None else L_eff
    total = 0.0
    for k in range(ceil_log2(p)):
        count = min(1 << k, p - (1 << k))
        total += net.o + net.bulk(count * nbytes_block, L)
    return total


def alltoall_time(net: LogGP, p: int, nbytes_per_pair: int,
                  L_eff: float | None = None) -> float:
    """Pairwise exchange: P-1 non-blocking sends injected back-to-back
    (gap-limited), the last arrival completes the collective."""
    return net.pipelined(p - 1, nbytes_per_pair, L_eff)
