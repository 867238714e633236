"""Conduit backend selection — ``spmd(..., conduit="smp"|"proc")``.

GASNet builds one binary per *conduit* (smp, ibv, aries, ...); here the
equivalent choice is a runtime registry.  :func:`resolve` turns the
``conduit=`` argument of :func:`repro.spmd` into either a ready conduit
instance (in-process backends, or an instance the caller built) or a
:class:`Backend` descriptor whose capabilities say the world must go
through the process launcher (:mod:`repro.core.proclaunch`).

Selection precedence:

1. a :class:`~repro.gasnet.conduit.Conduit` instance — used as-is;
2. a backend name string (``"smp"``, ``"proc"``, ``"proc+ring"``,
   ``"proc+socket"``);
3. ``None`` — the ``REPRO_CONDUIT`` environment variable if set,
   otherwise ``"smp"``.

Every backend carries :class:`~repro.gasnet.conduit.ConduitCaps`; the
runtime and tests consult the flags instead of type checks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import PgasError
from repro.gasnet.conduit import Conduit, ConduitCaps

#: Environment variable overriding the default backend when ``spmd`` is
#: called without an explicit ``conduit=``.
ENV_VAR = "REPRO_CONDUIT"


@dataclass(frozen=True)
class Backend:
    """One registered conduit backend."""

    name: str
    #: Zero-arg conduit constructor; ``None`` for launcher-managed
    #: backends, whose conduits only exist inside the rank processes.
    factory: Optional[Callable[[], Conduit]]
    caps: ConduitCaps
    #: Backend-specific knobs forwarded to the launcher (e.g. the proc
    #: conduit's AM ``transport`` selection).
    options: Optional[dict] = None


_REGISTRY: dict[str, Backend] = {}


def register_backend(name: str, factory: Optional[Callable[[], Conduit]],
                     caps: ConduitCaps,
                     options: Optional[dict] = None) -> Backend:
    """Register (or replace) a named backend."""
    backend = Backend(name=name, factory=factory, caps=caps,
                      options=options)
    _REGISTRY[name] = backend
    return backend


def backend(name: str) -> Backend:
    """Look up a backend by name; raises with the known names listed."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise PgasError(
            f"unknown conduit backend {name!r}; known backends: "
            f"{sorted(_REGISTRY)}"
        ) from None


def backend_names() -> list[str]:
    return sorted(_REGISTRY)


def resolve(spec) -> tuple[Optional[Conduit], Optional[Backend]]:
    """Resolve ``spmd``'s ``conduit=`` argument.

    Returns ``(conduit, backend)``: exactly one of the two is non-None.
    A conduit instance means "run in-process over this"; a backend with
    ``caps.needs_launcher`` means "hand the world to the process
    launcher, which builds the per-rank conduits itself".
    """
    if isinstance(spec, Conduit):
        return spec, None
    if spec is None:
        spec = os.environ.get(ENV_VAR) or "smp"
    if not isinstance(spec, str):
        raise PgasError(
            f"conduit= must be a Conduit instance or a backend name "
            f"string, got {type(spec).__name__}"
        )
    b = backend(spec)
    if b.factory is not None:
        return b.factory(), None
    return None, b


def _register_builtins() -> None:
    from repro.gasnet.smp import SmpConduit

    register_backend("smp", SmpConduit, SmpConduit.caps)
    # The proc backend has no standalone factory: ProcConduit needs the
    # launcher-built fabric (shared-memory blocks + AM transport).
    # "proc" means the socket transport (the ring is the slower of the
    # two on every measured rung — ROADMAP item 1); the +ring/+socket
    # variants pin the transport, and it is the only thing they differ
    # in.
    from repro.gasnet.proc import PROC_CAPS

    register_backend("proc", None, PROC_CAPS)
    register_backend("proc+ring", None, PROC_CAPS,
                     options={"transport": "ring"})
    register_backend("proc+socket", None, PROC_CAPS,
                     options={"transport": "socket"})


_register_builtins()
