"""Collective operations.

UPC++ inherits barriers from UPC and adds the collectives its case
studies need (the Embree port uses a gatherv and a sum-reduction; Sample
Sort needs allgather/alltoallv).  Each one starts a state machine of
:mod:`repro.core.coll_engine` on the calling rank's engine: binomial
trees for bcast/reduce/gather/scatter, a dissemination barrier, a Bruck
allgather, and pairwise exchange for alltoall — O(log N) rounds of
point-to-point active messages per rank, each one an ordinary AM that
the rank's stats, trace sinks and flight ring see.

Each collective has a **non-blocking variant** (``barrier_async``,
``reduce_async``, ...) returning a :class:`~repro.core.future.Future`
that completes via ``advance()`` progress, so communication can overlap
computation (the UPC++ v1.0 direction); the blocking form waits on it.
Every function is **team-aware** via the ``team=`` keyword (``None``
means the world team); for team-scoped calls ``root`` is a *team
index*.

Contributions cross the wire through the frame codec (NumPy ``copy``
for local fast paths) so the exchange has by-value semantics — the
same data-movement contract a real network gives you, and a guard
against aliasing bugs in user code.

All participants must invoke collectives in the same order; a mismatch
(rank 0 calls ``bcast`` while rank 1 calls ``reduce``) is detected via
the per-team sequence number carried in every AM header and raised as a
:class:`~repro.errors.PgasError` instead of deadlocking.  Reductions
fold children in team order but with tree bracketing: operators must be
associative (all named ones are).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core import coll_engine as _eng
from repro.core.future import Future
from repro.core.team import Team
from repro.core.world import current


def barrier_async(team: Team | None = None) -> Future:
    """Start a dissemination barrier; the future completes once every
    participant has entered it."""
    return current().coll.start(_eng.Barrier, team)


def barrier(team: Team | None = None) -> None:
    """Block until every participant has entered (paper's barrier())."""
    current().coll.start(_eng.Barrier, team).get()


def bcast_async(value: Any = None, root: int = 0,
                team: Team | None = None) -> Future:
    return current().coll.start(_eng.Bcast, team, value=value, root=root)


def bcast(value: Any = None, root: int = 0,
          team: Team | None = None) -> Any:
    """Broadcast ``value`` from ``root`` to all participants."""
    return current().coll.start(_eng.Bcast, team, value=value,
                                root=root).get()


def reduce_async(value: Any, op="sum", root: int = 0,
                 team: Team | None = None) -> Future:
    return current().coll.start(_eng.Reduce, team, value=value, op=op,
                                root=root)


def reduce(value: Any, op="sum", root: int = 0,
           team: Team | None = None) -> Any:
    """Reduce contributions to ``root``; other ranks receive ``None``."""
    return current().coll.start(_eng.Reduce, team, value=value, op=op,
                                root=root).get()


def allreduce_async(value: Any, op="sum",
                    team: Team | None = None) -> Future:
    return current().coll.start(_eng.Allreduce, team, value=value, op=op)


def allreduce(value: Any, op="sum", team: Team | None = None) -> Any:
    """Reduce contributions; every participant receives the result."""
    return current().coll.start(_eng.Allreduce, team, value=value,
                                op=op).get()


def gather_async(value: Any, root: int = 0,
                 team: Team | None = None) -> Future:
    return current().coll.start(_eng.Gather, team, value=value, root=root)


def gather(value: Any, root: int = 0,
           team: Team | None = None) -> list | None:
    """Gather one value per participant to ``root`` (team order)."""
    return current().coll.start(_eng.Gather, team, value=value,
                                root=root).get()


def allgather_async(value: Any, team: Team | None = None) -> Future:
    return current().coll.start(_eng.Allgather, team, value=value)


def allgather(value: Any, team: Team | None = None) -> list:
    """Gather one value per participant to every participant."""
    return current().coll.start(_eng.Allgather, team, value=value).get()


def gatherv_async(array: np.ndarray, root: int = 0,
                  team: Team | None = None) -> Future:
    return current().coll.start(_eng.Gatherv, team, value=array, root=root)


def gatherv(array: np.ndarray, root: int = 0,
            team: Team | None = None) -> np.ndarray | None:
    """Gather variable-length 1-D arrays; root gets the concatenation.

    This is the collective the paper's Embree port uses to combine image
    tiles ("a final gather operation combines the tiles").
    """
    return current().coll.start(_eng.Gatherv, team, value=array,
                                root=root).get()


def scatter_async(values: Sequence | None = None, root: int = 0,
                  team: Team | None = None) -> Future:
    return current().coll.start(_eng.Scatter, team, value=values, root=root)


def scatter(values: Sequence | None = None, root: int = 0,
            team: Team | None = None) -> Any:
    """Root provides one value per participant; each receives its own."""
    return current().coll.start(_eng.Scatter, team, value=values,
                                root=root).get()


def alltoall_async(values: Sequence, team: Team | None = None) -> Future:
    return current().coll.start(_eng.Alltoall, team, value=values)


def alltoall(values: Sequence, team: Team | None = None) -> list:
    """Each rank provides one value per destination; receives one per
    source (the key redistribution primitive of Sample Sort baselines)."""
    return current().coll.start(_eng.Alltoall, team, value=values).get()


def alltoallv_async(arrays: Sequence[np.ndarray],
                    team: Team | None = None) -> Future:
    return current().coll.start(_eng.Alltoallv, team, value=arrays)


def alltoallv(arrays: Sequence[np.ndarray],
              team: Team | None = None) -> list[np.ndarray]:
    """alltoall for variable-length NumPy arrays."""
    return current().coll.start(_eng.Alltoallv, team, value=arrays).get()


def scan_async(value: Any, op="sum", team: Team | None = None) -> Future:
    return current().coll.start(_eng.Scan, team, value=value, op=op)


def scan(value: Any, op="sum", team: Team | None = None) -> Any:
    """Inclusive prefix reduction: rank r receives op(v_0 ... v_r).

    The offset-computation primitive of distributed partitioning (e.g.
    where each rank's keys land in a globally sorted order).  The fold
    is performed locally over the allgathered contributions, strictly
    in team order — exact sequential-fold semantics.
    """
    return current().coll.start(_eng.Scan, team, value=value, op=op).get()


def exscan_async(value: Any, op="sum", initial: Any = 0,
                 team: Team | None = None) -> Future:
    return current().coll.start(_eng.Exscan, team, value=value, op=op,
                                initial=initial)


def exscan(value: Any, op="sum", initial: Any = 0,
           team: Team | None = None) -> Any:
    """Exclusive prefix reduction: rank r receives op(v_0 ... v_{r-1});
    rank 0 receives ``initial``."""
    return current().coll.start(_eng.Exscan, team, value=value, op=op,
                                initial=initial).get()
