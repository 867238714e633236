"""Teams — groups of ranks usable as async targets and for
team-scoped collectives (the paper's "place can be a single thread ID
or a group of threads").
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.world import current
from repro.errors import PgasError


class Team:
    """An ordered, duplicate-free group of ranks."""

    __slots__ = ("members",)

    def __init__(self, members: Iterable[int]):
        ordered = tuple(int(m) for m in members)
        if len(set(ordered)) != len(ordered):
            raise PgasError("team members must be unique")
        if not ordered:
            raise PgasError("team must have at least one member")
        self.members = ordered

    # -- structure ----------------------------------------------------------
    @staticmethod
    def world() -> "Team":
        ctx = current()
        return Team(range(ctx.world.n_ranks))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, rank: int) -> bool:
        return rank in self.members

    def __iter__(self):
        return iter(self.members)

    def __eq__(self, other) -> bool:
        return isinstance(other, Team) and self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def index_of(self, rank: int | None = None) -> int:
        """Position of ``rank`` (default: caller) within the team."""
        if rank is None:
            rank = current().rank
        try:
            return self.members.index(rank)
        except ValueError:
            raise PgasError(f"rank {rank} is not a member of {self}") from None

    def split(self, color: int, key: int) -> "Team":
        """MPI-style split: collective over the *team*; every member calls
        with its (color, key); members with equal color form new teams
        ordered by key."""
        ctx = current()
        me = ctx.rank
        if me not in self.members:
            raise PgasError("split called by non-member")
        from repro.core.collectives import allgather

        pairs = allgather((color, key), team=self)
        mine = [
            (k, r)
            for r, (c, k) in zip(self.members, pairs)
            if c == color
        ]
        mine.sort()
        return Team(r for _k, r in mine)

    # -- team collectives ------------------------------------------------
    # Every world collective has a team-scoped form (``root`` is a *team
    # index*); the ``*_async`` variants return futures completed by
    # ``advance()`` progress, like their world counterparts.
    def barrier(self) -> None:
        from repro.core import collectives

        collectives.barrier(team=self)

    def barrier_async(self):
        from repro.core import collectives

        return collectives.barrier_async(team=self)

    def bcast(self, value, root: int = 0):
        """Broadcast from the team member with *team index* ``root``."""
        from repro.core import collectives

        return collectives.bcast(value, root=root, team=self)

    def bcast_async(self, value, root: int = 0):
        from repro.core import collectives

        return collectives.bcast_async(value, root=root, team=self)

    def reduce(self, value, op="sum", root: int = 0):
        from repro.core import collectives

        return collectives.reduce(value, op=op, root=root, team=self)

    def allreduce(self, value, op="sum"):
        from repro.core import collectives

        return collectives.allreduce(value, op=op, team=self)

    def allreduce_async(self, value, op="sum"):
        from repro.core import collectives

        return collectives.allreduce_async(value, op=op, team=self)

    def gather(self, value, root: int = 0):
        from repro.core import collectives

        return collectives.gather(value, root=root, team=self)

    def allgather(self, value):
        from repro.core import collectives

        return collectives.allgather(value, team=self)

    def allgather_async(self, value):
        from repro.core import collectives

        return collectives.allgather_async(value, team=self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Team{self.members}"
