"""Asynchronous remote function invocation (paper §III-G).

The paper's spelling is ``async(place)(function, args...)``; since
``async`` is a Python keyword, the library exports :func:`async_` (and
the paper's companion :func:`async_after`):

.. code-block:: python

    f = async_(2)(lambda n: n * n, 5)     # run on rank 2
    assert f.get() == 25

    e = Event()
    async_(1, signal=e)(work)             # signal e when work completes
    async_after(3, after=e)(next_stage)   # launch once e has fired

Implementation follows paper §IV: the function and its arguments are
packed into a contiguous buffer and shipped with an active message.
The paper packs a function *pointer* (SPMD ranks share a code image);
here a module-level function travels as its name, ``module:qualname``,
in the wire codec's tagged stream — no pickle — and an empty ``kwargs``
as one byte; arguments are stream-encoded by value (pickle-5 only for
genuinely dynamic objects, measured and charged to the communication
stats).  The target unpacks and enqueues the task; its ``advance()``
executes it and replies with the encoded return value, which completes
the initiator-side future; the enclosing finish scope and the event to
signal count that future as a dependency, so its completion releases
them.

Unlike X10, only the function and explicit arguments travel — never the
enclosing closure (the paper's deliberate design decision).  Functions
that have no name to travel by (lambdas, nested functions) are passed
by in-process reference, which is safe in the SMP conduit and keeps the
API pleasant; their argument tuple is still serialized.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional, Union

from repro.core.event import Event
from repro.core.future import MultiFuture, TaskFuture
from repro.core.team import Team
from repro.core.world import RankState, _Task, current
from repro.errors import SerializationError
from repro.gasnet.am import ActiveMessage, am_handler
from repro.gasnet.wire import UnencodableError, encode_am
from repro.gasnet.wire.codecs import Encoder

Place = Union[int, Team]


@am_handler("exec_task")
def _exec_task_handler(ctx: RankState, am) -> None:
    """Target side: the wire layer already decoded (fn, args, kwargs)."""
    fn, args, kwargs = am.payload
    ctx.task_queue.append(_Task(
        fn, args, kwargs, am,
        enqueued_at=time.perf_counter() if ctx.telemetry.full else 0.0,
    ))


def _encode_task(am: ActiveMessage, tel=None) -> None:
    """Encode an ``exec_task`` AM's ``(fn, args, kwargs)`` into its
    frame, strict mode first: an unencodable *function* (lambda/closure)
    is tolerated — it ships by in-process reference — but unencodable
    *arguments* must fail eagerly at the call site, honouring the
    paper's serialization contract."""
    try:
        encode_am(am, tel, strict=True)
    except UnencodableError:
        fn, args, kwargs = am.payload
        try:
            Encoder(strict=True).encode((args, kwargs))
        except UnencodableError as exc:
            raise SerializationError(
                f"arguments of async task {fn!r} are not serializable: {exc}"
            ) from exc
        encode_am(am, tel)


class _AsyncCall:
    """The object returned by ``async_(place)``; calling it launches."""

    __slots__ = ("_place", "_signal", "_after")

    def __init__(self, place: Place, signal: Optional[Event],
                 after: Optional[Event]):
        self._place = place
        self._signal = signal
        self._after = after

    def __call__(self, fn: Callable, *args: Any, **kwargs: Any):
        ctx = current()
        targets = (
            list(self._place.members)
            if isinstance(self._place, Team)
            else [int(self._place)]
        )
        for t in targets:
            if not 0 <= t < ctx.world.n_ranks:
                raise ValueError(f"async target rank {t} out of range")
        signal = self._signal
        scope = ctx.finish_stack[-1] if ctx.finish_stack else None
        futures = [TaskFuture(ctx) for _ in targets]

        # Register completions *before* anything can run.
        for holder in (scope, signal):
            if holder is not None:
                for fut in futures:
                    holder._depend_on(fut)

        def launch(after: Optional[Event] = None) -> None:
            sent = 0
            try:
                if ctx.telemetry.active:
                    name = getattr(fn, "__name__", None) or repr(fn)
                    for target in targets:
                        ctx.telemetry.flight_event(
                            "task_spawn", src=ctx.rank, dst=target,
                            detail=name
                        )
                for target, fut in zip(targets, futures):
                    am = ActiveMessage("exec_task", ctx.rank,
                                       payload=(fn, args, kwargs))
                    # by value, at the call
                    ctx.endpoint.send(target, am, fut, _encode_task)
                    sent += 1
            except BaseException as exc:
                # Failed at the call site: no reply will complete the
                # futures that did not go out (nor release their scope
                # and event), so complete them here.  Launched by the
                # event it waited on, the error is theirs alone.
                for fut in futures[sent:]:
                    fut.set_exception(exc)
                if after is None:
                    raise

        after = self._after
        if after is None or after.done():
            launch()
        else:
            after.add_callback(launch)
        if isinstance(self._place, Team):
            return MultiFuture(futures)
        return futures[0]


def async_(place: Place, signal: Optional[Event] = None) -> _AsyncCall:
    """``async_(place)(fn, *args)`` — launch ``fn`` on ``place``.

    ``place`` is a rank id or a :class:`~repro.core.team.Team`.  When
    ``signal`` is given, the event is signaled once per completed target
    (the paper's ``async(place, event *ack)`` form).  Returns a future
    (or a :class:`~repro.core.future.MultiFuture` for teams).
    """
    return _AsyncCall(place, signal, after=None)


def async_after(place: Place, after: Event,
                signal: Optional[Event] = None) -> _AsyncCall:
    """Launch once ``after`` has fired (the paper's ``async_after``)."""
    if after is None:
        raise ValueError("async_after requires an event to wait on")
    return _AsyncCall(place, signal, after=after)


def async_wait() -> None:
    """Drain this rank's progress until no queued work remains.

    A convenience for fire-and-forget patterns in tests and examples;
    prefer ``finish`` or events for synchronization.
    """
    ctx = current()
    while ctx.advance():
        pass
