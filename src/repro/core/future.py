"""Futures for asynchronous remote operations (paper §III-G).

A future is created on the *initiating* rank and completed when the
corresponding reply AM is processed — which happens inside that rank's
own ``advance()`` (serialized mode) or on the progress thread
(concurrent mode).  ``get()`` therefore polls progress while waiting,
mirroring ``future.get()`` in the paper.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional

from repro.errors import PgasError


class Future:
    """Completion handle for one async operation."""

    __slots__ = ("_ctx", "_lock", "_done", "_value", "_exc", "_callbacks")

    def __init__(self, ctx):
        self._ctx = ctx
        self._lock = threading.Lock()
        self._done = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._callbacks: list[Callable[["Future"], None]] = []

    # -- completion (runtime side) --------------------------------------
    def set_result(self, value: Any) -> None:
        with self._lock:
            if self._done:
                raise PgasError("future completed twice")
            self._value = value
            self._done = True
            callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    def set_exception(self, exc: BaseException) -> None:
        with self._lock:
            if self._done:
                raise PgasError("future completed twice")
            self._exc = exc
            self._done = True
            callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    def add_callback(self, cb: Callable[["Future"], None]) -> None:
        """Run ``cb(self)`` on completion (immediately if already done)."""
        run_now = False
        with self._lock:
            if self._done:
                run_now = True
            else:
                self._callbacks.append(cb)
        if run_now:
            cb(self)

    # -- consumption (user side) -----------------------------------------
    def done(self) -> bool:
        return self._done

    def wait(self, timeout: float | None = None) -> "Future":
        if not self._done:
            self._ctx.wait_until(self.done, what="future", timeout=timeout)
        return self

    def get(self, timeout: float | None = None) -> Any:
        """Block (making progress) until done; return value or raise."""
        if not self._done:
            self._ctx.wait_until(self.done, what="future", timeout=timeout)
        if self._exc is not None:
            raise self._exc
        return self._value

    def result_raw(self) -> Any:
        """The raw (args, payload) reply — used by runtime internals."""
        return self._value

    def __repr__(self) -> str:  # pragma: no cover
        state = "done" if self._done else "pending"
        return f"<Future {state}>"


class TaskFuture(Future):
    """Future for an async *task*; unwraps the reply's return value
    (delivered by value, already decoded by the wire layer)."""

    __slots__ = ()

    def get(self, timeout: float | None = None) -> Any:
        _args, payload = super().get(timeout=timeout)
        return payload


class MultiFuture:
    """Aggregate future for asyncs targeted at a :class:`~repro.core.team.Team`.

    ``get()`` returns the list of per-member results in team order.
    """

    __slots__ = ("_futures",)

    def __init__(self, futures: list[Future]):
        self._futures = futures

    def done(self) -> bool:
        return all(f.done() for f in self._futures)

    def wait(self, timeout: float | None = None) -> "MultiFuture":
        for f in self._futures:
            f.wait(timeout=timeout)
        return self

    def get(self, timeout: float | None = None) -> list:
        return [f.get(timeout=timeout) for f in self._futures]

    def __len__(self) -> int:
        return len(self._futures)

    def __iter__(self):
        return iter(self._futures)
