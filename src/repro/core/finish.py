"""The X10-style ``finish`` construct (paper §III-G).

In C++ the paper implements ``finish`` with a macro expanding to a
``for`` statement plus RAII; the Python equivalent of RAII is a context
manager:

.. code-block:: python

    with finish():
        async_(p1)(task1)
        async_(p2)(task2)
    # both tasks have completed here

As in the paper, ``finish`` waits only for asyncs spawned in the
*dynamic scope* of the block on this rank — not for tasks transitively
spawned by those tasks (distributed termination detection is expensive;
the paper makes the same trade-off).

A scope is a :class:`~repro.core.future.Future` that each async spawned
in the block counts up and its completion down; the exit raises the
first exception.
"""

from __future__ import annotations

import time

from repro.core.future import Future
from repro.core.world import current


class FinishScope(Future):
    """Counts the asyncs spawned inside the block still outstanding."""

    __slots__ = ("_t0",)

    _what = "finish scope"
    _overdone = "finish scope completed more times than registered"
    _pokes = True

    def __init__(self, ctx) -> None:
        super().__init__(ctx, 0)

    register = Future.incref

    def complete(self, exc: BaseException | None = None) -> None:
        self._settle(None, exc)

    outstanding = property(Future.pending)

    # -- context manager ----------------------------------------------------
    def __enter__(self) -> "FinishScope":
        self._t0 = time.perf_counter()
        self._ctx.finish_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = self._ctx.finish_stack.pop()
        assert popped is self, "finish scopes must nest properly"
        try:
            # Drained even when the block raised, so peers are not left
            # with dangling reply targets; the block's exception wins.
            self.wait()
        except Exception:
            if exc is None:
                raise
        finally:
            tel = self._ctx.telemetry
            if tel.full:
                dur = time.perf_counter() - self._t0
                tel.histogram("finish_block").record_seconds(dur)
                tel.record_span("finish", self._t0, dur)
        if exc is None and self._exc is not None:
            raise self._exc


def finish() -> FinishScope:
    """Open a finish scope: ``with finish(): async_(...)(...)``."""
    return FinishScope(current())
