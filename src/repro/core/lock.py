"""Global locks (paper §III-F: "barriers, fences, and locks").

A :class:`GlobalLock` lives on an *owner* rank, which queues acquire
requests FIFO and grants them one at a time via reply messages — the
classic AM-based lock server.  Construction is collective so that all
ranks agree on the lock identity.

The owner services requests inside its ``advance()``; a rank blocked in
``acquire()`` is itself advancing, so self-acquisition works and lock
traffic makes progress as long as the owner reaches any blocking
runtime call (the usual polling-runtime contract).
"""

from __future__ import annotations

import time
from collections import deque

from repro.core import collectives
from repro.core.world import RankState, current
from repro.errors import CommTimeout, PgasError
from repro.gasnet.am import am_handler


def _table(ctx: RankState, lock_id: int) -> dict:
    return ctx.lock_table.setdefault(
        lock_id, {"held_by": None, "queue": deque()}
    )


@am_handler("lock_acquire")
def _lock_acquire_handler(ctx: RankState, am) -> None:
    (lock_id,) = am.args
    t = _table(ctx, lock_id)
    if t["held_by"] is None:
        t["held_by"] = am.src_rank
        ctx.reply(am, args=("granted",))
    else:
        t["queue"].append(am)  # granted by a reply when its turn comes


@am_handler("lock_try")
def _lock_try_handler(ctx: RankState, am) -> None:
    (lock_id,) = am.args
    t = _table(ctx, lock_id)
    if t["held_by"] is None:
        t["held_by"] = am.src_rank
        ctx.reply(am, args=("granted",))
    else:
        ctx.reply(am, args=("busy",))


@am_handler("lock_release")
def _lock_release_handler(ctx: RankState, am) -> None:
    (lock_id,) = am.args
    t = _table(ctx, lock_id)
    if t["held_by"] != am.src_rank:
        raise PgasError(
            f"rank {am.src_rank} released lock {lock_id} held by "
            f"{t['held_by']}"
        )
    if t["queue"]:
        waiting = t["queue"].popleft()
        t["held_by"] = waiting.src_rank
        ctx.reply(waiting, args=("granted",))
    else:
        t["held_by"] = None
    ctx.reply(am, args=("ok",))


class GlobalLock:
    """A mutual-exclusion lock in the global address space."""

    def __init__(self, owner: int = 0):
        ctx = current()
        if not 0 <= owner < ctx.world.n_ranks:
            raise PgasError(f"lock owner {owner} out of range")
        self.owner = owner
        # Collective id agreement: owner names the lock, everyone learns it.
        lock_id = None
        if ctx.rank == owner:
            lock_id = next(ctx.world._lock_ids)
        self.lock_id = collectives.bcast(lock_id, root=owner)

    def acquire(self, block: bool = True,
                timeout: float | None = None) -> bool:
        """Acquire the lock; with ``block=False`` behaves like
        ``upc_lock_attempt`` (returns False when busy).

        A blocking acquire waits at most ``timeout`` seconds (default:
        the world's ``op_timeout``) and then raises
        :class:`~repro.errors.CommTimeout` naming the lock — the holder
        may be wedged.  If the holder (or the owner rank) *dies* while we
        queue, the failure detector fails the world and the pending
        acquire raises :class:`~repro.errors.PeerFailure` instead of
        blocking forever.
        """
        ctx = current()
        tel = ctx.telemetry
        handler = "lock_acquire" if block else "lock_try"
        t0 = time.perf_counter()
        fut = ctx.send_am(
            self.owner, handler, args=(self.lock_id,), expect_reply=True
        )
        try:
            (status, *_rest), _payload = fut.get(timeout=timeout)
        except CommTimeout as exc:
            tel.flight_event(
                "lock_timeout", src=ctx.rank, dst=self.owner,
                detail=f"lock {self.lock_id}",
            )
            raise CommTimeout(
                f"rank {ctx.rank}: acquire of lock {self.lock_id} "
                f"(owner rank {self.owner}) timed out — holder wedged "
                f"or grant lost ({exc})"
            ) from exc
        if tel.full and block:
            # Lock-wait latency: request -> grant (queue time included).
            tel.histogram("lock_wait").record_seconds(
                time.perf_counter() - t0
            )
        return status == "granted"

    def release(self) -> None:
        ctx = current()
        fut = ctx.send_am(
            self.owner, "lock_release", args=(self.lock_id,),
            expect_reply=True,
        )
        fut.get()

    # -- pythonic sugar ----------------------------------------------------
    def __enter__(self) -> "GlobalLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover
        return f"GlobalLock(id={self.lock_id}, owner={self.owner})"
