"""``repro.containers`` — distributed data structures on the PGAS runtime.

The paper's §III-E directory idiom (a ``shared_array`` of per-rank
handles) is the seed of library-level containers in the DASH mold:
structures whose storage is partitioned across ranks and whose methods
compile down to the runtime's one-sided primitives and active messages.

* :class:`DistHashMap` — keys hash-sharded across ranks; owner-side
  storage served by AM handlers; ``put/get/delete/update`` plus batched
  ``multi_get``/``multi_put`` that coalesce into one AM per owning rank;
  optional per-rank read-through cache with epoch-based invalidation.

It composes with the rest of the stack: failover across a rank death
(``DistHashMap(replicas=1)``, ``update()``'s op-id dedup), ``kv_*``
counters in
:class:`~repro.gasnet.stats.CommStats`, and ``kv_get``/``kv_put``/
``kv_multi`` latency histograms plus flight-recorder events when
telemetry is enabled.
"""

from repro.containers.hashmap import (
    DistHashMap,
    KvOwnerDead,
    KvRedirect,
    KvStalePrimary,
    shard_of,
)

__all__ = ["DistHashMap", "shard_of",
           "KvOwnerDead", "KvRedirect", "KvStalePrimary"]
