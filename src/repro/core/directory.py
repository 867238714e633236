"""Per-rank object directories.

The paper composes ``shared_array< ndarray<int,3> > dir(THREADS)`` to
build a directory of per-rank multidimensional arrays (§III-E).  Our
segments hold raw bytes, not Python objects, so the idiom is provided
directly: a :class:`Directory` gives every rank one published slot whose
contents any rank can fetch.  Values are wire-encoded on publish (they
cross a rank boundary) — which is exactly what makes lightweight
*handles* (global pointers, ndarray descriptors) the natural thing to
publish.
"""

from __future__ import annotations

from typing import Any

from repro.core import collectives
from repro.core.world import RankState, current
from repro.errors import PgasError
from repro.gasnet.am import am_handler
from repro.gasnet.wire import EncodedPayload, preencode


@am_handler("dir_get")
def _dir_get_handler(ctx: RankState, am) -> None:
    (dir_id,) = am.args
    try:
        blob = ctx.dir_table[dir_id]
    except KeyError:
        raise PgasError(
            f"rank {ctx.rank} has not published into directory {dir_id}"
        ) from None
    ctx.reply(am, payload=blob)


class Directory:
    """One published slot per rank; collective constructor."""

    def __init__(self):
        ctx = current()
        dir_id = None
        if ctx.rank == 0:
            dir_id = next(ctx.world._dir_ids)
        self.dir_id = collectives.bcast(dir_id, root=0)
        self._cache: dict[int, Any] = {}

    def publish(self, obj: Any) -> None:
        """Store ``obj`` in the calling rank's slot (overwrites).

        The value is encoded once at publish time; every fetch (local
        or remote) decodes its own fresh copy, so by-value semantics
        hold even for the publishing rank's own lookups."""
        ctx = current()
        ctx.dir_table[self.dir_id] = preencode(obj)

    def lookup(self, rank: int, cached: bool = True) -> Any:
        """Fetch the object published by ``rank``.

        ``cached=True`` (default) memoizes — appropriate for immutable
        handles, which is the intended use.
        """
        ctx = current()
        if cached and rank in self._cache:
            return self._cache[rank]
        if rank == ctx.rank:
            try:
                blob = ctx.dir_table[self.dir_id]
            except KeyError:
                raise PgasError(
                    f"rank {rank} has not published into directory "
                    f"{self.dir_id}"
                ) from None
        else:
            fut = ctx.send_am(
                rank, "dir_get", args=(self.dir_id,), expect_reply=True
            )
            _args, blob = fut.get()
        # Local hits hold the stored EncodedPayload; remote replies
        # arrive already decoded by the wire layer.
        obj = blob.decode() if isinstance(blob, EncodedPayload) else blob
        if cached:
            self._cache[rank] = obj
        return obj

    def lookup_all(self, cached: bool = True) -> list:
        """Fetch every rank's slot, indexed by rank.

        All remote request AMs are issued up front and the reply futures
        gathered afterwards, so the round trips overlap — one
        longest-RTT wait instead of N sequential ones.  This is the
        constructor-rendezvous path for the distributed containers.
        """
        ctx = current()
        futs = {}
        for rank in range(ctx.world.n_ranks):
            if rank == ctx.rank or (cached and rank in self._cache):
                continue
            futs[rank] = ctx.send_am(
                rank, "dir_get", args=(self.dir_id,), expect_reply=True
            )
        out = []
        for rank in range(ctx.world.n_ranks):
            if rank in futs:
                _args, obj = futs[rank].get()
                if cached:
                    self._cache[rank] = obj
                out.append(obj)
            else:
                out.append(self.lookup(rank, cached=cached))
        return out

    def publish_and_sync(self, obj: Any) -> None:
        """Publish, then barrier — the common collective setup idiom."""
        self.publish(obj)
        collectives.barrier()

    def __repr__(self) -> str:  # pragma: no cover
        return f"Directory(id={self.dir_id})"
