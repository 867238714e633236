"""Active messages (von Eicken et al., ISCA'92) — the substrate for
UPC++ remote function invocation and one-sided array copies.

An :class:`ActiveMessage` names a *handler* registered in the global
:data:`handler_registry`, carries a small argument tuple plus an optional
bulk payload, and is delivered to the target rank's inbox.  The target
executes the handler during its next progress call (``advance()``), which
is exactly the paper's execution model (§IV: "enqueued async tasks are
processed when the advance() function ... is called").

Handlers may send a *reply* correlated by token; the initiator parks a
future on the token and completes it when the reply arrives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import PgasError

#: Global registry mapping handler names to callables ``fn(ctx, am)``.
#: ``ctx`` is the target rank's state (duck-typed; see repro.core.world).
handler_registry: dict[str, Callable] = {}


def am_handler(name: str) -> Callable[[Callable], Callable]:
    """Decorator registering an active-message handler under ``name``.

    Handler names must be globally unique.  Paper §IV assumes every rank
    loads the same handler table, so an index means the same thing
    everywhere; here a frame carries the handler's name instead, so
    ranks may register handlers in any order, before or after the fork.
    A name the target never registered fails at dispatch.
    """

    def register(fn: Callable) -> Callable:
        if name in handler_registry and handler_registry[name] is not fn:
            raise PgasError(f"duplicate AM handler name: {name!r}")
        handler_registry[name] = fn
        return fn

    return register


@dataclass(slots=True)
class ActiveMessage:
    """One active message.

    Attributes
    ----------
    handler:
        Name in :data:`handler_registry` (ignored for replies).
    src_rank:
        Issuing rank.
    args:
        Small positional arguments, stream-encoded into the wire frame
        (mirroring the paper's "pack the task function pointer and its
        arguments into a contiguous buffer").
    payload:
        Optional payload: one value of the tagged stream (NumPy array,
        ``bytes``, dict, ...); bulk bytes travel as out-of-band buffers,
        not pickled streams.
    token:
        Correlation token for request/reply pairs; ``None`` when no reply
        is expected.
    is_reply:
        True when this message completes the initiator's future for
        ``token`` instead of running a named handler.
    aux:
        One fixed-width header word, reserved: nothing sets it, so it
        travels as 0 (dropping it would change every frame size).
    trace_id / span_id:
        Causal trace context (repro.telemetry.tracing).  When non-zero
        the pair rides the wire frame as a 16-byte trailer so handler
        work on the target rank is linked to the originating client op;
        zero means untraced and costs no wire bytes.
    """

    handler: str
    src_rank: int
    args: tuple = ()
    payload: Optional[Any] = None
    token: Optional[int] = None
    is_reply: bool = False
    aux: int = 0
    trace_id: int = 0
    span_id: int = 0
    # Filled in at encode time: the message's wire frame and its exact
    # encoded size (header + control stream + out-of-band buffers).
    _wire_bytes: int = field(default=-1, repr=False)
    _frame: Optional[Any] = field(default=None, repr=False)

    @property
    def wire_bytes(self) -> int:
        """Exact serialized size: the length of the encoded wire frame.

        Encoding is memoized on the message — the conduit's send path
        reuses the same frame, so sizing a message never costs a second
        serialization pass.
        """
        if self._wire_bytes < 0:
            from repro.gasnet.wire import encode_am

            encode_am(self)
        return self._wire_bytes


def make_reply(request: ActiveMessage, src_rank: int,
               args: tuple = (), payload: Any = None) -> ActiveMessage:
    """Build the reply message for ``request`` (must carry a token)."""
    if request.token is None:
        raise PgasError(
            f"AM {request.handler!r} does not expect a reply (no token)"
        )
    return ActiveMessage(
        handler="__reply__",
        src_rank=src_rank,
        args=args,
        payload=payload,
        token=request.token,
        is_reply=True,
        trace_id=request.trace_id,
        span_id=request.span_id,
    )
