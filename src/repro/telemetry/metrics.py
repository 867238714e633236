"""The cluster-wide metrics plane.

Counters are :class:`~repro.gasnet.stats.CommStats` fields and
distributions are :class:`~repro.telemetry.histogram.LogHistogram`\\ s;
this module adds what turns the per-rank ones into a cluster view:

* a **collective reduction** — :func:`metrics_reduce` folds every
  rank's metrics snapshot over the tree-collectives engine itself
  (``allreduce`` with :func:`merge_snapshots` as the operator).  The
  merge is pure integer bucket/count arithmetic, hence associative and
  commutative, so the tree's reduction order is irrelevant: the result
  is **bit-identical** to offline merging of the same per-rank
  snapshots (asserted in tests);
* a **sampler + straggler watchdog** (:class:`MetricsSampler`) — two
  periodic steps of the world's housekeeping thread: one samples
  runtime depths (task queue, pending reply futures, segment bytes,
  steal rate) into ``sampled_*`` histograms, the other flags in-flight
  AMs that exceed a percentile-derived deadline as ``slow_op``
  flight-recorder events *before* they escalate to ``CommTimeout``.
"""

from __future__ import annotations

import time

from repro.telemetry.histogram import LogHistogram


# -- mergeable snapshots -----------------------------------------------------
def _hist_state(h: LogHistogram) -> dict:
    """Raw mergeable state of one histogram: exact integers only, no
    derived floats — derivation happens once, after the final merge."""
    snap = h.snapshot()
    return {"unit": snap["unit"], "count": snap["count"],
            "sum": snap["sum"], "min": snap["min"], "max": snap["max"],
            "buckets": dict(snap["buckets"])}


def rank_snapshot(ctx) -> dict:
    """One rank's full metrics snapshot: histograms (raw state) and
    CommStats counters."""
    return {
        "ranks": [ctx.rank],
        "histograms": {
            name: _hist_state(h)
            for name, h in sorted(ctx.telemetry.histograms().items())},
        "counters": ctx.stats.snapshot(),
    }


def _merge_hist_state(a: dict, b: dict) -> dict:
    buckets = dict(a["buckets"])
    for bit, n in b["buckets"].items():
        buckets[bit] = buckets.get(bit, 0) + n
    lo = (a["min"] if b["min"] is None else
          b["min"] if a["min"] is None else min(a["min"], b["min"]))
    hi = (a["max"] if b["max"] is None else
          b["max"] if a["max"] is None else max(a["max"], b["max"]))
    return {"unit": a["unit"], "count": a["count"] + b["count"],
            "sum": a["sum"] + b["sum"], "min": lo, "max": hi,
            "buckets": buckets}


def merge_snapshots(a: dict, b: dict) -> dict:
    """Pure, associative, commutative merge of two metrics snapshots —
    the reduction operator for both the collective and offline paths
    (using the same function is what makes them bit-identical)."""
    hists = {}
    for name in set(a["histograms"]) | set(b["histograms"]):
        ha, hb = a["histograms"].get(name), b["histograms"].get(name)
        if ha is None:
            hists[name] = dict(hb, buckets=dict(hb["buckets"]))
        elif hb is None:
            hists[name] = dict(ha, buckets=dict(ha["buckets"]))
        else:
            hists[name] = _merge_hist_state(ha, hb)
    counters = dict(a["counters"])
    for name, v in b["counters"].items():
        counters[name] = counters.get(name, 0) + v
    return {"ranks": sorted(a["ranks"] + b["ranks"]),
            "histograms": hists, "counters": counters}


def hist_from_state(name: str, st: dict) -> LogHistogram:
    """Rebuild a live LogHistogram from merged raw state (so derived
    quantiles use the exact same interpolation everywhere)."""
    h = LogHistogram(name, st["unit"])
    for bit, n in st["buckets"].items():
        h.buckets[int(bit)] = n
    h.count = st["count"]
    h.total = st["sum"]
    h.min_value = st["min"]
    h.max_value = st["max"]
    return h


def finalize_snapshot(snap: dict) -> dict:
    """Attach derived stats (mean/p50/p90/p99) to every histogram of a
    merged snapshot.  Derivation is a pure function of the exact merged
    integers, so any two identically merged snapshots finalize
    identically."""
    out = dict(snap)
    hists = {}
    for name, st in snap["histograms"].items():
        h = hist_from_state(name, st)
        full = dict(st)
        full.update(mean=h.mean, p50=h.p50, p90=h.p90, p99=h.p99)
        hists[name] = full
    out["histograms"] = hists
    return out


def metrics_reduce(team=None, snapshot: dict | None = None) -> dict:
    """Collective: fold every participating rank's metrics snapshot into
    one cluster view, over the tree-collectives engine itself.

    Must be called from rank context (inside ``spmd``) by every member
    of ``team``.  ``snapshot`` overrides this rank's contribution (the
    bit-identical test passes the same snapshot it stashed for offline
    merging); by default the rank snapshots itself at call time.
    """
    from repro.core import collectives
    from repro.core.world import current

    ctx = current()
    if snapshot is None:
        snapshot = rank_snapshot(ctx)
    merged = collectives.allreduce(snapshot, op=merge_snapshots, team=team)
    return finalize_snapshot(merged)


# -- sampler + straggler watchdog ---------------------------------------------
#: An in-flight AM is flagged ``slow_op`` once older than this many
#: times its rank's p99 AM round trip (and ``slow_op_min_s``).
SLOW_OP_FACTOR = 8.0


class MetricsSampler:
    """Sample runtime depth metrics and flag slow in-flight ops, one
    step at a time; the caller runs the steps and passes in the ranks
    to look at (``World``: the live ranks of its process).

    :meth:`sample`, every ``sample_period``, records per rank its task
    queue depth, pending reply futures, segment bytes in use, and
    work-steal rate — each into a mergeable ``sampled_*`` histogram
    (count/sum/min/max/mean and quantiles), so ``metrics_reduce`` sees
    cluster-wide distributions.

    :meth:`watchdog` scans in-flight request metadata and emits a
    ``slow_op`` flight event for any op older than
    ``max(slow_op_min_s, SLOW_OP_FACTOR * p99(am_rtt))`` — the flight
    recorder shows the straggler while it is still alive, not after the
    15 s op timeout declares it dead.
    """

    def __init__(self, sample_period: float | None, slow_op_min_s: float):
        self.sample_period = sample_period
        self.slow_op_min_s = slow_op_min_s
        self._flagged: set[tuple[int, int]] = set()
        self._last_steals: dict[int, int] = {}

    # -- depth sampling ---------------------------------------------------
    def sample(self, ranks) -> None:
        for ctx in ranks:
            tel = ctx.telemetry
            steals = ctx.stats.wq_steals_ok
            prev = self._last_steals.get(ctx.rank, steals)
            self._last_steals[ctx.rank] = steals
            tel.record_value("sampled_task_queue_depth",
                             len(ctx.task_queue), "items")
            tel.record_value("sampled_pending_replies",
                             len(ctx.endpoint.in_flight()), "items")
            tel.record_value("sampled_segment_bytes",
                             ctx.segment._bytes_in_use, "bytes")
            tel.record_value("sampled_steal_rate",
                             int((steals - prev) / self.sample_period),
                             "per_s")

    # -- straggler watchdog -----------------------------------------------
    def _deadline_for(self, tel) -> float:
        h = tel.histograms().get("am_rtt")
        if h is not None and h.count >= 32:
            return max(self.slow_op_min_s,
                       SLOW_OP_FACTOR * h.p99 / 1e9)
        return self.slow_op_min_s

    def watchdog(self, ranks) -> None:
        now = time.monotonic()
        for ctx in ranks:
            tel = ctx.telemetry
            pending = ctx.endpoint.in_flight()
            if not pending:
                continue
            deadline = self._deadline_for(tel)
            live = set()
            for token, dst, meta in pending:
                if meta is None:
                    continue
                t0, handler, trace_id = meta
                key = (ctx.rank, token)
                live.add(key)
                age = now - t0
                if age > deadline and key not in self._flagged:
                    self._flagged.add(key)
                    tel.flight_event(
                        "slow_op", src=ctx.rank, dst=dst,
                        detail=(f"{handler} token={token} in flight "
                                f"{age * 1e3:.1f}ms > deadline "
                                f"{deadline * 1e3:.1f}ms"),
                        trace_id=trace_id)
                    ctx.stats.add(slow_ops_flagged=1)
            self._flagged = {k for k in self._flagged
                             if k[0] != ctx.rank or k in live}


__all__ = [
    "MetricsSampler",
    "rank_snapshot", "merge_snapshots", "finalize_snapshot",
    "hist_from_state", "metrics_reduce",
]
