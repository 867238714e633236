"""Pure arithmetic of the benchmark: the tail rule, self times, failure
accounting, quartiles and spreads.  Nothing here touches the
program under test, so all of it is unit-tested in ``bench/tests``.
"""

from __future__ import annotations

import statistics

#: A tail percentile is only reported when at least this many samples
#: lie beyond it.
TAIL_MIN_BEYOND = 10


def tail_percentile(samples):
    """The highest percentile that still has ``TAIL_MIN_BEYOND`` samples
    beyond it: ``(pct, value)``, or ``None`` with too few samples."""
    xs = sorted(samples)
    k = len(xs) - TAIL_MIN_BEYOND - 1
    if k < 0:
        return None
    return 100.0 * (k + 1) / len(xs), xs[k]


def rung_self(rung: float, *below: float, noise: float = 0.0):
    """Self time of a ladder rung: the rung minus the rungs below it.

    Returns ``(value, flagged)``; ``flagged`` is true when the result is
    negative by more than ``noise`` -- the rung below cannot really cost
    more than the rung that contains it, so the pair was measured under
    different conditions.
    """
    value = rung - sum(below)
    return value, value < -abs(noise)


def span_self_times(spans) -> dict[int, float]:
    """Self time per span: its duration minus the part of it that its
    direct children cover.

    ``spans`` are ``(name, start, end, parent, op)`` with ``parent`` an
    index into the same list or -1.  Children are clipped to the parent
    and overlapping children are counted once.
    """
    kids: dict[int, list[tuple[float, float]]] = {}
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            kids.setdefault(parent, []).append((start, end))
    out = {}
    for i, (_name, start, end, _parent, _op) in enumerate(spans):
        covered = 0.0
        cursor = start
        for ks, ke in sorted(kids.get(i, ())):
            ks, ke = max(ks, cursor), min(ke, end)
            if ke > ks:
                covered += ke - ks
                cursor = ke
        out[i] = (end - start) - covered
    return out


def account_episodes(episodes) -> dict:
    """Failure accounting over the episodes of one workload run.

    ``episodes`` is a list of ``(status, attempted, failed)``: status
    ``ok`` means the episode ran to its end and reports its own counts
    (``failed`` = ops that raised or returned a wrong answer); any other
    status (raised / crashed / hung) means its counts are unknown, and
    it is charged the median op count of the surviving episodes, all of
    them failed.  With no survivor the share is 1.0.
    """
    alive = [(a, f) for s, a, f in episodes if s == "ok"]
    dead = len(episodes) - len(alive)
    if not alive:
        return {"attempted": max(1, dead), "failed": max(1, dead),
                "failed_share": 1.0, "dead_episodes": dead}
    charge = int(statistics.median(a for a, _ in alive))
    attempted = sum(a for a, _ in alive) + dead * charge
    failed = sum(f for _, f in alive) + dead * charge
    return {"attempted": attempted, "failed": failed,
            "failed_share": failed / attempted if attempted else 1.0,
            "dead_episodes": dead}


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them
    (the driver's definition); a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better_quartile(values, better: str) -> float:
    """The quartile on the better side of the median: the third for a
    ``higher``-is-better metric, the first for a ``lower`` one.

    This is how a run's per-slice values become its value.  The box's
    noise only ever slows a slice down -- for seconds, sometimes for
    minutes -- so the slow side of the distribution says how noisy the
    minute was and the better side says what the program does when it
    is left alone.  Over ten runs of every workload the better quartile
    had about half the spread of the median (``gups_proc`` ``ops_per_s``
    5.5 % against 11.6 %), while quantiles further out pick up rare
    lucky modes (``rpc_smp`` best decile: 18 %).
    """
    q1, _, q3 = quartiles(values)
    return q3 if better == "higher" else q1


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")
