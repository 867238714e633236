"""Events — Phalanx-style completion objects (paper §III-G).

An event counts outstanding operations registered against it.  Async
invocations and async copies may *signal* an event on completion; other
asyncs may be launched *after* an event fires (``async_after``), which is
how the paper builds task-dependency graphs (Listing 1 / Fig. 1).
An event is a :class:`~repro.core.future.Future` under the paper's
names, owned by the rank that made it: reaching zero on a thread that
does not act as that rank pokes it.
"""

from __future__ import annotations

from repro.core.future import Future
from repro.core.world import current


class Event(Future):
    """A countdown event with dependent-task firing."""

    __slots__ = ()

    _what = "event"
    _overdone = "event signaled more times than registered"
    _pokes = True

    def __init__(self) -> None:
        super().__init__(current(), 0)

    def decref(self) -> None:
        """One registered operation completed (the *signal*)."""
        self._settle()

    signal = decref

    #: True when no registered operation is still outstanding.
    test = Future.done

    def wait(self, timeout: float | None = None) -> None:
        """Block (making progress on the calling rank) until all
        registered ops completed."""
        if self._count:
            current().wait_until(self.done, what=self._what, timeout=timeout)
