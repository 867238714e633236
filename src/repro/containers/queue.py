"""A distributed FIFO/bag built on the work-stealing machinery.

:class:`DistQueue` layers producer/consumer semantics over
:class:`~repro.core.workqueue.DistWorkQueue`: items pushed locally land
in the caller's deque, items pushed to another rank travel by active
message, and consumers drain via the steal-half policy — so a queue fed
on one rank still keeps every rank busy.  Ordering is FIFO per
(producer, target) pair and unordered globally (it is a *bag* with FIFO
bias, which is what load-balanced consumption requires).

Remote push is exactly-once under ``ReliableConduit(ChaosConduit)``:
the push AM is sequenced/deduped by the reliability layer, and the
outstanding-items counter is bumped by the *producer* (an exactly-once
retried atomic) only **after** the target acks the push.  Bumping
before the send looks safer (the count can never dip while an item is
in flight) but silently over-counts when the target rank dies before
delivery — the items never land, yet quiesce waits for acks that can
never come.  Bump-after-ack keeps the counter equal to items that
*actually* landed; the push future is blocking, so the producer itself
cannot observe a window where its items exist without being counted,
and a dead target surfaces as :class:`~repro.errors.RankDead` naming
the queue and item count instead of a hung quiesce.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Optional

from repro.core.workqueue import DistWorkQueue, _table
from repro.core.world import RankState, current
from repro.errors import PeerFailure, RankDead
from repro.gasnet.am import am_handler
from repro.telemetry import tracing


@am_handler("dq_push")
def _dq_push_handler(ctx: RankState, am) -> None:
    """Target side of a remote push: append the shipped items."""
    (qid,) = am.args
    items = am.payload
    _table(ctx).setdefault(qid, deque()).extend(items)
    ctx.reply(am, args=(len(items),))


class DistQueue:
    """Distributed multi-producer/multi-consumer queue.  Collective ctor.

    >>> q = DistQueue()                    # on every rank
    >>> q.put(job)                         # local enqueue
    >>> q.put(job, to=2)                   # enqueue on rank 2
    >>> while (item := q.get()) is not None:
    ...     handle(item)                   # auto_ack marks it done

    ``auto_ack=True`` (default) counts an item as completed the moment
    ``get`` returns it.  Pass ``auto_ack=False`` to ack explicitly with
    :meth:`task_done` — then ``get`` returns ``None`` only once every
    claimed item was acked, the at-least-processed contract inherited
    from the work queue's quiesce counter.
    """

    def __init__(self, auto_ack: bool = True, seed: int = 0):
        self._wq = DistWorkQueue(seed=seed)
        self.qid = self._wq.qid
        self.auto_ack = bool(auto_ack)
        self.pushed_remote = 0

    # -- producing ---------------------------------------------------------
    def put(self, item: Any, to: Optional[int] = None) -> None:
        """Enqueue one item, locally or on rank ``to``."""
        self.put_many([item], to=to)

    def put_many(self, items: Iterable[Any], to: Optional[int] = None) -> int:
        """Enqueue many items on one rank; returns the count."""
        ctx = current()
        items = list(items)
        if not items:
            return 0
        if to is None or to == ctx.rank:
            return self._wq.add_local(items)
        with tracing.span(ctx.telemetry, "dq_push"):
            return self._put_remote(ctx, items, to)

    def _put_remote(self, ctx, items: list, to: int) -> int:
        fut = ctx.send_am(
            to, "dq_push", args=(self.qid,),
            payload=items, expect_reply=True,
        )
        try:
            (n, *_), _pl = fut.get()
        except (RankDead, PeerFailure) as exc:
            # The items never landed and were never counted, so quiesce
            # cannot undercount — surface a diagnostic naming the queue
            # and what was lost.
            raise RankDead(
                f"dq_push: target rank {to} died before acking "
                f"{len(items)} item(s) pushed to queue {self.qid}; "
                f"items were not enqueued ({exc})"
            ) from exc
        # Producer bumps the quiesce counter only after the target
        # acked: the counter (an exactly-once retried atomic) then
        # counts items that actually landed, so a push to a dead rank
        # can never leave quiesce waiting on phantom items.  The push
        # future blocks, so the producer observes count-then-consume
        # ordering just as before.
        self._wq._outstanding.atomic("add", n)
        self.pushed_remote += n
        if ctx.telemetry.active:
            ctx.telemetry.flight_event(
                "dq_push", src=ctx.rank, dst=to, detail=f"{n} items"
            )
        return n

    # -- consuming ---------------------------------------------------------
    def get(self, max_steal_rounds: int = 0) -> Optional[Any]:
        """Dequeue an item (stealing when local work runs out); ``None``
        once the queue has globally quiesced."""
        item = self._wq.get(max_steal_rounds=max_steal_rounds)
        if item is not None and self.auto_ack:
            self._wq.task_done()
        return item

    def task_done(self, n: int = 1) -> None:
        """Ack ``n`` claimed items (only with ``auto_ack=False``)."""
        self._wq.task_done(n)

    # -- introspection -----------------------------------------------------
    def local_size(self) -> int:
        return self._wq.local_size()

    def outstanding(self) -> int:
        """Globally enqueued-but-unacked items."""
        return self._wq.outstanding()

    def __repr__(self) -> str:  # pragma: no cover
        return (f"DistQueue(id={self.qid}, "
                f"auto_ack={'on' if self.auto_ack else 'off'})")
