"""The failure detector's decisions for one process, world-free.

Every ``heartbeat_period`` each live rank of the process probes every
peer; a probe is answered by the peer's own drain, and the answer is
read by the prober's.  :class:`Liveness` decides who probes whom and
who is declared dead.  It watches one signal, probe silence: a rank
that calls ``die()`` is declared by its launcher, at once and on every
backend, and reaches the detector only as a declared rank.  It owns no
thread, world, conduit or clock: the caller passes in the time and the
ranks' state (``World`` does, from its housekeeping thread, or
``tests/core/test_liveness.py`` on a virtual clock).
"""

from __future__ import annotations


class Liveness:
    """Probe rounds and silence judgements over ``n_ranks`` ranks."""

    __slots__ = ("heartbeat_period", "peer_timeout", "_heard")

    def __init__(self, n_ranks: int, heartbeat_period: float,
                 peer_timeout: float, now: float):
        self.heartbeat_period = heartbeat_period
        self.peer_timeout = peer_timeout
        #: rank -> when it last answered one of this process's probes.
        self._heard = [now] * n_ranks

    def heard(self, rank: int, now: float) -> None:
        """A rank of this process drained ``rank``'s answer at ``now``."""
        self._heard[rank] = now

    def round(self, now: float, ranks, local, declared):
        """One round at ``now``: ``(probes, deaths)``.

        ``ranks`` are every rank's state as this process sees it
        (``rank``, ``done``, ``last_heartbeat``: its last drain),
        ``local`` the live ranks of this process and ``declared`` the
        ranks declared dead.  ``probes`` are the ``(prober, peer)``
        pairs to ping, ``deaths`` the ``(rank, reason)`` pairs to
        declare: each rank silent for ``peer_timeout``.
        """
        timeout, heard = self.peer_timeout, self._heard
        probes = [(p, r) for p in local for r in range(len(ranks))
                  if r != p and r not in declared]
        # A pong is read by the rank it answers, so a prober that has
        # not drained lately (hung, or computing) has heard no one
        # either: it judges no peer by silence.
        judges = [p for p in local
                  if now - ranks[p].last_heartbeat <= timeout / 2]
        deaths = []
        for rk in ranks:
            r = rk.rank
            if rk.done:
                heard[r] = now  # finished ≠ failed
            elif r in declared:
                continue
            elif any(p != r for p in judges) and now - heard[r] > timeout:
                # Silence means something only while someone asks and
                # listens: a rank no other attentive live rank here
                # probes is not judged by it (the last live rank on
                # smp, or this process's own rank on proc).
                deaths.append((r, f"rank {r} answered no liveness probe "
                                  f"for {now - heard[r]:.2f}s "
                                  f"(peer_timeout={timeout}s)"))
        return probes, deaths
