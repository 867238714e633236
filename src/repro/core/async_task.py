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

import functools
import time
from typing import Any, Callable, Optional, Union

from repro.core.event import Event
from repro.core.future import MultiFuture, TaskFuture
from repro.core.team import Team
from repro.core.world import RankState, current
from repro.errors import SerializationError
from repro.gasnet.am import ActiveMessage, am_handler
from repro.gasnet.wire import UnencodableError, encode_am
from repro.gasnet.wire.codecs import Encoder

Place = Union[int, Team]


@am_handler("exec_task")
def _exec_task_handler(ctx: RankState, am) -> None:
    """Target side: the wire layer already decoded (fn, args, kwargs)
    into ``am.payload``; the request is the task."""
    ctx.task_queue.append(
        (am, time.perf_counter() if ctx.telemetry.full else 0.0))


def _encode_task(am: ActiveMessage, tel=None) -> None:
    """Encode an ``exec_task`` AM's ``(fn, args, kwargs)`` into its
    frame, strict mode first: an unencodable *function* (lambda/closure)
    is tolerated — it ships by in-process reference — but unencodable
    *arguments* must fail eagerly at the call site, honouring the
    paper's serialization contract."""
    try:
        encode_am(am, tel, True)
    except UnencodableError:
        fn, args, kwargs = am.payload
        try:
            Encoder(strict=True).encode((args, kwargs))
        except UnencodableError as exc:
            raise SerializationError(
                f"arguments of async task {fn!r} are not serializable: {exc}"
            ) from exc
        encode_am(am, tel)


def _launch(ctx: RankState, targets: tuple, futures: tuple, fn: Callable,
            args: tuple, kwargs: dict, after: Optional[Event] = None) -> None:
    """Send ``fn(*args, **kwargs)`` to each target, by value, at the
    call: one ``exec_task`` request per target, whose reply completes
    its future.  A send that fails at the call site leaves no reply to
    complete the futures that did not go out (nor to release their
    scope and event), so they complete here with its error, which is
    raised too, unless the event ``after`` launched this (it is then
    theirs alone)."""
    sent = 0
    try:
        tel, src = ctx.telemetry, ctx.rank
        if tel.active:
            name = getattr(fn, "__name__", None) or repr(fn)
            for target in targets:
                tel.flight_event("task_spawn", src=src, dst=target,
                                 detail=name)
        send, payload = ctx.endpoint.send, (fn, args, kwargs)
        for target in targets:
            send(target, ActiveMessage("exec_task", src, (), payload),
                 futures[sent], _encode_task)
            sent += 1
    except BaseException as exc:
        for fut in futures[sent:]:
            fut.set_exception(exc)
        if after is None:
            raise


class _AsyncCall:
    """The object returned by ``async_(place)``; calling it launches."""

    __slots__ = ("_targets", "_team", "_signal", "_after")

    def __init__(self, place: Place, signal: Optional[Event],
                 after: Optional[Event]):
        self._team = isinstance(place, Team)
        self._targets = place.members if self._team else (int(place),)
        self._signal = signal
        self._after = after

    def __call__(self, fn: Callable, *args: Any, **kwargs: Any):
        ctx = current()
        targets = self._targets
        n_ranks = ctx.world.n_ranks
        for t in targets:
            if not 0 <= t < n_ranks:
                raise ValueError(f"async target rank {t} out of range")
        futures = tuple(map(TaskFuture, (ctx,) * len(targets)))
        # Register completions *before* anything can run.
        stack = ctx.finish_stack
        for holder in (stack[-1] if stack else None, self._signal):
            if holder is not None:
                for fut in futures:
                    holder._depend_on(fut)
        after = self._after
        if after is None or after.done():
            _launch(ctx, targets, futures, fn, args, kwargs)
        else:
            after.add_callback(functools.partial(
                _launch, ctx, targets, futures, fn, args, kwargs))
        return MultiFuture(futures) if self._team else futures[0]


def async_(place: Place, signal: Optional[Event] = None) -> _AsyncCall:
    """``async_(place)(fn, *args)`` — launch ``fn`` on ``place``.

    ``place`` is a rank id or a :class:`~repro.core.team.Team`.  When
    ``signal`` is given, the event is signaled once per completed target
    (the paper's ``async(place, event *ack)`` form).  Returns a future
    (or a :class:`~repro.core.future.MultiFuture` for teams).
    """
    return _AsyncCall(place, signal, None)


def async_after(place: Place, after: Event,
                signal: Optional[Event] = None) -> _AsyncCall:
    """Launch once ``after`` has fired (the paper's ``async_after``)."""
    if after is None:
        raise ValueError("async_after requires an event to wait on")
    return _AsyncCall(place, signal, after)


def async_wait() -> None:
    """Drain this rank's progress until no queued work remains.

    A convenience for fire-and-forget patterns in tests and examples;
    prefer ``finish`` or events for synchronization.
    """
    ctx = current()
    while ctx.advance():
        pass
