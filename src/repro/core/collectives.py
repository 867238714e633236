"""Collective operations.

UPC++ inherits barriers from UPC and adds the collectives its case
studies need (the Embree port uses a gatherv and a sum-reduction; Sample
Sort needs allgather/alltoallv).  All collectives run on the tree-based
engine in :mod:`repro.core.coll_engine`: binomial trees for
bcast/reduce/gather/scatter, a dissemination barrier, a Bruck
allgather, and pairwise exchange for alltoall — O(log N) rounds of
point-to-point active messages per rank instead of the old O(N)
rendezvous under one world lock, and every message is visible to the
conduit stack (fault layers, telemetry).

Each collective has a **non-blocking variant** (``barrier_async``,
``reduce_async``, ...) returning a :class:`~repro.core.future.Future`
that completes via ``advance()`` progress, so communication can overlap
computation (the UPC++ v1.0 direction).  The blocking API is a thin
``initiate + wait`` wrapper.  Every function is **team-aware** via the
``team=`` keyword (``None`` means the world team); for team-scoped
calls ``root`` is a *team index*.

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

from typing import Any, Callable, Sequence

import numpy as np

from repro.core import coll_engine as _eng
from repro.core.future import Future
from repro.core.team import Team
from repro.core.world import current
from repro.errors import PgasError

_REDUCERS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "prod": lambda a, b: a * b,
    "min": lambda a, b: np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b),
    "max": lambda a, b: np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b),
    "xor": lambda a, b: a ^ b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
}


def _resolve_op(op) -> Callable[[Any, Any], Any]:
    if callable(op):
        return op
    try:
        return _REDUCERS[op]
    except KeyError:
        raise PgasError(
            f"unknown reduction {op!r}; known: {sorted(_REDUCERS)}"
        ) from None


# ---------------------------------------------------------------------------
# engine plumbing
# ---------------------------------------------------------------------------

def _participants(ctx, team: Team | None) -> tuple[tuple, tuple, int]:
    """(team_key, members, my_index) for a collective's participants."""
    if team is None:
        return (), tuple(range(ctx.world.n_ranks)), ctx.rank
    return team.members, team.members, team.index_of(ctx.rank)


def _check_root(root: int, nparties: int, what: str) -> None:
    if not 0 <= root < nparties:
        raise PgasError(f"{what} root {root} out of range")


def _wait(fut: Future, what: str) -> Any:
    """Block (making progress) on a collective's future."""
    current().wait_until(fut.done, what=f"collective {what}")
    return fut.get()


# ---------------------------------------------------------------------------
# collectives — non-blocking variants (initiate; future completes via
# advance() progress) and their blocking thin wrappers
# ---------------------------------------------------------------------------

def barrier_async(team: Team | None = None) -> Future:
    """Start a dissemination barrier; the future completes once every
    participant has entered it."""
    ctx = current()
    key, members, _ = _participants(ctx, team)
    return ctx.coll.initiate(_eng._Barrier, key, members)


def barrier(team: Team | None = None) -> None:
    """Block until every participant has entered (paper's barrier())."""
    ctx = current()
    _wait(barrier_async(team), "barrier")
    ctx.stats.add(barriers=1)


def bcast_async(value: Any = None, root: int = 0,
                team: Team | None = None) -> Future:
    ctx = current()
    key, members, _ = _participants(ctx, team)
    _check_root(root, len(members), "bcast")
    return ctx.coll.initiate(_eng._Bcast, key, members,
                             value=value, root=root)


def bcast(value: Any = None, root: int = 0,
          team: Team | None = None) -> Any:
    """Broadcast ``value`` from ``root`` to all participants."""
    return _wait(bcast_async(value, root=root, team=team), "bcast")


def reduce_async(value: Any, op="sum", root: int = 0,
                 team: Team | None = None) -> Future:
    ctx = current()
    fn = _resolve_op(op)
    key, members, _ = _participants(ctx, team)
    _check_root(root, len(members), "reduce")
    return ctx.coll.initiate(_eng._Reduce, key, members,
                             value=value, root=root, op=fn)


def reduce(value: Any, op="sum", root: int = 0,
           team: Team | None = None) -> Any:
    """Reduce contributions to ``root``; other ranks receive ``None``."""
    return _wait(reduce_async(value, op=op, root=root, team=team), "reduce")


def allreduce_async(value: Any, op="sum",
                    team: Team | None = None) -> Future:
    ctx = current()
    fn = _resolve_op(op)
    key, members, _ = _participants(ctx, team)
    return ctx.coll.initiate(_eng._Allreduce, key, members,
                             value=value, op=fn)


def allreduce(value: Any, op="sum", team: Team | None = None) -> Any:
    """Reduce contributions; every participant receives the result."""
    return _wait(allreduce_async(value, op=op, team=team), "allreduce")


def gather_async(value: Any, root: int = 0,
                 team: Team | None = None) -> Future:
    ctx = current()
    key, members, _ = _participants(ctx, team)
    _check_root(root, len(members), "gather")
    return ctx.coll.initiate(_eng._Gather, key, members,
                             value=value, root=root)


def gather(value: Any, root: int = 0,
           team: Team | None = None) -> list | None:
    """Gather one value per participant to ``root`` (team order)."""
    return _wait(gather_async(value, root=root, team=team), "gather")


def allgather_async(value: Any, team: Team | None = None) -> Future:
    ctx = current()
    key, members, _ = _participants(ctx, team)
    return ctx.coll.initiate(_eng._Allgather, key, members, value=value)


def allgather(value: Any, team: Team | None = None) -> list:
    """Gather one value per participant to every participant."""
    return _wait(allgather_async(value, team=team), "allgather")


def gatherv_async(array: np.ndarray, root: int = 0,
                  team: Team | None = None) -> Future:
    arr = np.ascontiguousarray(array)
    if arr.ndim != 1:
        raise PgasError("gatherv expects 1-D arrays; ravel first")
    ctx = current()
    key, members, _ = _participants(ctx, team)
    _check_root(root, len(members), "gatherv")
    return ctx.coll.initiate(_eng._Gatherv, key, members,
                             value=arr, root=root)


def gatherv(array: np.ndarray, root: int = 0,
            team: Team | None = None) -> np.ndarray | None:
    """Gather variable-length 1-D arrays; root gets the concatenation.

    This is the collective the paper's Embree port uses to combine image
    tiles ("a final gather operation combines the tiles").
    """
    return _wait(gatherv_async(array, root=root, team=team), "gatherv")


def scatter_async(values: Sequence | None = None, root: int = 0,
                  team: Team | None = None) -> Future:
    ctx = current()
    key, members, my_index = _participants(ctx, team)
    _check_root(root, len(members), "scatter")
    if my_index == root:
        if values is None or len(values) != len(members):
            raise PgasError(
                f"scatter root must supply {len(members)} values"
            )
        values = list(values)
    else:
        values = None
    return ctx.coll.initiate(_eng._Scatter, key, members,
                             value=values, root=root)


def scatter(values: Sequence | None = None, root: int = 0,
            team: Team | None = None) -> Any:
    """Root provides one value per participant; each receives its own."""
    return _wait(scatter_async(values, root=root, team=team), "scatter")


def alltoall_async(values: Sequence, team: Team | None = None) -> Future:
    ctx = current()
    key, members, _ = _participants(ctx, team)
    n = len(members)
    if len(values) != n:
        raise PgasError(f"alltoall needs exactly {n} values, one per rank")
    return ctx.coll.initiate(_eng._Alltoall, key, members,
                             value=list(values))


def alltoall(values: Sequence, team: Team | None = None) -> list:
    """Each rank provides one value per destination; receives one per
    source (the key redistribution primitive of Sample Sort baselines)."""
    return _wait(alltoall_async(values, team=team), "alltoall")


def alltoallv_async(arrays: Sequence[np.ndarray],
                    team: Team | None = None) -> Future:
    ctx = current()
    key, members, _ = _participants(ctx, team)
    n = len(members)
    if len(arrays) != n:
        raise PgasError(f"alltoall needs exactly {n} values, one per rank")
    return ctx.coll.initiate(
        _eng._Alltoallv, key, members,
        value=[np.ascontiguousarray(a) for a in arrays],
    )


def alltoallv(arrays: Sequence[np.ndarray],
              team: Team | None = None) -> list[np.ndarray]:
    """alltoall for variable-length NumPy arrays."""
    return _wait(alltoallv_async(arrays, team=team), "alltoallv")


def scan_async(value: Any, op="sum", team: Team | None = None) -> Future:
    ctx = current()
    fn = _resolve_op(op)
    key, members, _ = _participants(ctx, team)
    return ctx.coll.initiate(_eng._Scan, key, members, value=value, op=fn)


def scan(value: Any, op="sum", team: Team | None = None) -> Any:
    """Inclusive prefix reduction: rank r receives op(v_0 ... v_r).

    The offset-computation primitive of distributed partitioning (e.g.
    where each rank's keys land in a globally sorted order).  The fold
    is performed locally over the allgathered contributions, strictly
    in team order — exact sequential-fold semantics.
    """
    return _wait(scan_async(value, op=op, team=team), "scan")


def exscan_async(value: Any, op="sum", initial: Any = 0,
                 team: Team | None = None) -> Future:
    ctx = current()
    fn = _resolve_op(op)
    key, members, _ = _participants(ctx, team)
    return ctx.coll.initiate(_eng._Exscan, key, members, value=value,
                             op=fn, initial=initial)


def exscan(value: Any, op="sum", initial: Any = 0,
           team: Team | None = None) -> Any:
    """Exclusive prefix reduction: rank r receives op(v_0 ... v_{r-1});
    rank 0 receives ``initial``."""
    return _wait(exscan_async(value, op=op, initial=initial, team=team),
                 "exscan")


# ---------------------------------------------------------------------------
# team-scoped aliases (pre-engine API; kept for compatibility)
# ---------------------------------------------------------------------------

def team_barrier(team: Team) -> None:
    barrier(team=team)


def team_bcast(team: Team, value: Any, root: int = 0) -> Any:
    return bcast(value, root=root, team=team)


def _team_exchange(team: Team, value: Any) -> list:
    """Allgather within a team (team order) — used by Team.split."""
    return allgather(value, team=team)
