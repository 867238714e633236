"""Top-level SPMD API — the UPC++ names from the paper's Table I.

========================  =============================
UPC / UPC++ (paper)       PyPGAS
========================  =============================
``THREADS / ranks()``     :func:`ranks` (alias :func:`THREADS`)
``MYTHREAD / myrank()``   :func:`myrank` (alias :func:`MYTHREAD`)
``upc_barrier/barrier()`` :func:`barrier`
``upc_fence/fence()``     :func:`fence`
``advance()``             :func:`advance`
========================  =============================
"""

from __future__ import annotations

from repro.core.collectives import barrier  # noqa: F401 (re-export)
from repro.core.world import World, current


def myrank() -> int:
    """The calling rank's id (paper: ``myrank()`` / UPC ``MYTHREAD``)."""
    return current().rank


def ranks() -> int:
    """Total number of ranks (paper: ``ranks()`` / UPC ``THREADS``)."""
    return current().world.n_ranks


def MYTHREAD() -> int:
    """UPC-style alias for :func:`myrank`."""
    return myrank()


def THREADS() -> int:
    """UPC-style alias for :func:`ranks`."""
    return ranks()


def current_world() -> World:
    """The world of the calling rank."""
    return current().world


def dead_ranks() -> frozenset[int]:
    """Ranks the failure detector has declared dead (empty set unless
    running with ``survive_rank_death=True`` and a peer died)."""
    return frozenset(current().world.dead_ranks)


def fence() -> None:
    """Memory fence (paper §III-F).

    Orders the calling rank's outstanding remote operations: on return,
    all previously issued puts/gets and async copies by this rank are
    globally complete.  Every conduit's RMA, and so every async copy,
    completes before its call returns, so the fence reduces to one
    progress pass — but code written against the documented relaxed
    model stays correct on any conduit.
    """
    current().advance()


def advance(max_items: int | None = None) -> bool:
    """Explicitly poll the progress engine (paper §IV ``advance()``).

    Executes pending active messages and queued async tasks on the
    calling rank.  Returns True if anything was processed.
    """
    return current().advance(max_items=max_items)
