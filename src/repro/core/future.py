"""The one completion type (paper §III-G).

Futures, events, ``finish`` scopes and async-copy handles are one class,
as UPC++ v1.0 later folded them onto futures and promises (Bachan et
al., IPDPS 2019): a count of outstanding dependencies (1 for a future, 0
for an event or a scope), a value or the first exception, and callbacks
run each time the count reaches zero.  Completions run in the owning
rank's ``advance()`` or on the progress thread, which pokes the rank
itself, so a future's completion wakes nobody; an event or a scope,
which a thread acting as no rank or as another rank may count down,
pokes its owner at zero.  ``get()`` polls progress while waiting, like
``future.get()`` in the paper.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional

from repro.errors import PgasError

#: ``ctx``: the rank state the calling thread acts as, if any: set by
#: :mod:`repro.core.world` on a rank's own thread, and on the progress
#: thread while it serves that rank.
_tls = threading.local()


class Future:
    """A countdown completion: ``count`` dependencies outstanding."""

    __slots__ = ("_ctx", "_lock", "_count", "_value", "_exc", "_callbacks")

    #: Its name in a timeout; what a completion past zero says; whether
    #: reaching zero pokes the owning rank.
    _what = "future"
    _overdone = "future completed twice"
    _pokes = False

    def __init__(self, ctx, count: int = 1):
        self._ctx = ctx
        self._lock = threading.Lock()
        self._count = count
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._callbacks: list[Callable[["Future"], None]] = []

    # -- completion (runtime side) --------------------------------------
    def incref(self, n: int = 1) -> None:
        """Register ``n`` more dependencies."""
        if n < 0:
            raise ValueError("incref amount must be non-negative")
        with self._lock:
            self._count += n

    def _settle(self, value: Any = None,
                exc: Optional[BaseException] = None) -> None:
        """Complete one dependency: with ``value`` (None keeps the value
        there: a MultiFuture's members), or failed with ``exc`` (the
        first exception is the one kept)."""
        with self._lock:
            if self._count <= 0:
                raise PgasError(self._overdone)
            if exc is not None:
                if self._exc is None:
                    self._exc = exc
            elif value is not None:
                self._value = value
            self._count -= 1
            if self._count:
                return
            callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)
        # The owner's own thread is not parked, and retests before it
        # parks; a poke from it would end its next park for nothing.
        if self._pokes and getattr(_tls, "ctx", None) is not self._ctx:
            self._ctx.poke()

    set_result = _settle

    def set_exception(self, exc: BaseException) -> None:
        self._settle(None, exc)

    def _depend_on(self, dep: "Future") -> None:
        """Count ``dep`` as one more dependency: its completion counts
        this one down, and its exception is offered as this one's."""
        self.incref()
        dep.add_callback(self._release)

    def _release(self, dep: "Future") -> None:
        self._settle(None, dep._exc)

    def add_callback(self, cb: Callable[["Future"], None]) -> None:
        """Run ``cb(self)`` when the count next reaches zero (at once if
        it is zero)."""
        with self._lock:
            if self._count:
                self._callbacks.append(cb)
                return
        cb(self)

    # -- consumption (user side) -----------------------------------------
    def done(self) -> bool:
        return self._count == 0

    def pending(self) -> int:
        return self._count

    def wait(self, timeout: float | None = None) -> "Future":
        if self._count:
            self._ctx.wait_until(self.done, self._what, timeout)
        return self

    def get(self, timeout: float | None = None) -> Any:
        """Block (making progress) until done; return value or raise."""
        if self._count:
            self._ctx.wait_until(self.done, self._what, timeout)
        if self._exc is not None:
            raise self._exc
        return self._value

    def result_raw(self) -> Any:
        """The raw (args, payload) reply — used by runtime internals."""
        return self._value

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} pending={self._count}>"


class TaskFuture(Future):
    """Future for an async *task*; unwraps the reply's return value
    (delivered by value, already decoded by the wire layer)."""

    __slots__ = ()

    def get(self, timeout: float | None = None) -> Any:
        if self._count:
            self._ctx.wait_until(self.done, self._what, timeout)
        if self._exc is not None:
            raise self._exc
        return self._value[1]


class MultiFuture(Future):
    """Aggregate future for asyncs targeted at a :class:`~repro.core.team.Team`:
    its value is the member futures, each of which counts it down;
    ``get()`` returns their results in team order."""

    __slots__ = ()

    def __init__(self, futures: list[Future]):
        super().__init__(futures[0]._ctx, 0)
        self._value = futures
        for f in futures:
            self._depend_on(f)

    def get(self, timeout: float | None = None) -> list:
        self.wait(timeout=timeout)
        return [f.get() for f in self._value]

    def __len__(self) -> int:
        return len(self._value)

    def __iter__(self):
        return iter(self._value)
