"""Exception hierarchy for the PyPGAS runtime.

Every error raised by :mod:`repro` derives from :class:`PgasError` so that
applications can catch runtime failures without masking unrelated bugs.
"""

from __future__ import annotations


class PgasError(Exception):
    """Base class for all PyPGAS errors."""


class NotInSpmdRegion(PgasError):
    """A PGAS operation was attempted outside of :func:`repro.spmd`.

    Almost every API in :mod:`repro.core` needs a *rank context* (the
    calling thread must be one of the SPMD ranks).  This error means the
    call happened from the launching thread or some unrelated thread.
    """


class PeerFailure(PgasError):
    """Another rank raised an exception; this rank was unblocked.

    When any rank of an SPMD world fails, blocking operations on all other
    ranks raise :class:`PeerFailure` instead of deadlocking.  The original
    exception is re-raised by :func:`repro.spmd` on the launching thread.
    """

    def __init__(self, failed_rank: int, original: BaseException):
        super().__init__(
            f"rank {failed_rank} failed with "
            f"{type(original).__name__}: {original}"
        )
        self.failed_rank = failed_rank
        self.original = original

    def __reduce__(self):
        # The default BaseException reduction replays args — which here
        # is the formatted message, not (rank, original) — so spell out
        # the constructor call (proc backend ships these cross-process).
        return (PeerFailure, (self.failed_rank, self.original))


class SegmentOutOfMemory(PgasError):
    """The per-rank global segment could not satisfy an allocation."""


class BadPointer(PgasError):
    """Invalid use of a global pointer (null deref, bad cast, double free,
    dereferencing remote memory through a local cast, ...)."""


class CommTimeout(PgasError):
    """A blocking communication operation exceeded its deadline."""


class TransientCommError(PgasError):
    """A conduit operation could not complete: proc's receiver stalled
    past the op timeout, or a socket closed under a send.  Nothing
    retries it; it surfaces to the caller."""


class RankDead(PgasError):
    """A rank was declared dead: by the failure detector (it answered
    no probe) or by its launcher (it died).  A request to it fails
    with this at the call once the death is known; peers blocked on it
    observe it as the ``original`` of a :class:`PeerFailure`."""


class SerializationError(PgasError):
    """Arguments of a remote task could not be serialized."""


class DomainError(PgasError):
    """Malformed point/domain arithmetic in the multidimensional array
    library (mismatched arity, non-positive stride, ...)."""
