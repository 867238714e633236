"""A from-scratch simulated GASNet communication substrate.

The paper implements UPC++ on top of GASNet (Fig. 2).  This package
provides the same three primitives GASNet gives the UPC++ runtime:

* **segments** — a registered, byte-addressable memory region per rank,
  out of which all shared objects are allocated
  (:class:`repro.gasnet.segment.Segment`);
* **one-sided RMA** — puts/gets/atomics against a remote rank's segment
  with no involvement of the target CPU (:mod:`repro.gasnet.rma`);
* **active messages** — small requests executed by a handler on the
  target, optionally carrying a payload and optionally generating a reply
  (:mod:`repro.gasnet.am`).

Two real conduits are implemented, selected via
:mod:`repro.gasnet.backends` (``spmd(..., conduit="smp"|"proc")``):

* the *SMP conduit* (:mod:`repro.gasnet.smp`): SPMD ranks are OS threads
  of one process and RMA is a direct, locked access to the peer segment
  — which models RDMA faithfully (the target CPU never runs code for a
  put/get);
* the *proc conduit* (:mod:`repro.gasnet.proc`): ranks are OS processes,
  segments live in ``multiprocessing.shared_memory`` (RMA stays
  zero-copy across processes) and active messages cross Unix-domain
  socket pairs as the struct-packed wire frames.

Both deliver reliably and in pair order, as GASNet does: the fault
model is crash-stop (see :mod:`repro.gasnet.conduit`).
"""

from repro.gasnet.segment import Segment
from repro.gasnet.am import ActiveMessage, am_handler, handler_registry
from repro.gasnet.conduit import Conduit, ConduitCaps
from repro.gasnet.smp import SmpConduit
from repro.gasnet.delay import DelayConduit
from repro.gasnet.proc import ProcConduit, ProcFabric
from repro.gasnet.stats import CommStats
from repro.gasnet.trace import CommEvent, Trace
from repro.gasnet import backends

__all__ = [
    "Segment",
    "ActiveMessage",
    "am_handler",
    "handler_registry",
    "Conduit",
    "ConduitCaps",
    "SmpConduit",
    "DelayConduit",
    "ProcConduit",
    "ProcFabric",
    "CommStats",
    "Trace",
    "CommEvent",
    "backends",
]
