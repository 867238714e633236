"""What a proc round trip costs the interpreter, counted, not timed.

Python calls per ``async_(1)(echo, i).get()`` on ``proc+socket``, on each
rank's thread: a count repeats to well under one call between runs and
machines, where microseconds do not.  The counts are pinned at what the
code measures: 47 calls on the caller and 37 on the target, plus the
closing barrier's share (0.1–0.2 a round trip), so one more call per
round trip crosses the next whole number.  To re-pin: a change that
adds a call to the round trip raises the pin to its new count and says
so in CHANGES.md; one that removes a call lowers it.
"""

import os
import sys

import repro
from tests.conftest import run_spmd

ROUND_TRIPS = 500
CALLER_CALLS = 47
TARGET_CALLS = 37


def _echo(x):
    # module-level: an async's function crosses processes by name
    return x


def _calls_per_round_trip() -> float:
    """Calls of functions defined in the ``repro`` package on this
    rank's thread, from one barrier to the next, per round trip.  A
    name in ``<...>`` is skipped: comprehensions are inlined (no call)
    on Python 3.12 but not on 3.10."""
    root = os.path.dirname(repro.__file__) + os.sep
    me = repro.myrank()
    if me == 0:
        for i in range(100):
            repro.async_(1)(_echo, i).get()
    repro.barrier()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if (code.co_filename.startswith(root)
                    and not code.co_name.startswith("<")):
                calls += 1

    sys.setprofile(count)
    try:
        if me == 0:
            for i in range(ROUND_TRIPS):
                assert repro.async_(1)(_echo, i).get() == i
        repro.barrier()
    finally:
        sys.setprofile(None)
    return calls / ROUND_TRIPS


def test_a_proc_round_trip_costs_its_pinned_calls():
    caller, target = run_spmd(_calls_per_round_trip, ranks=2,
                              conduit="proc+socket")
    assert caller < CALLER_CALLS + 1, f"{caller:.2f} calls on the caller"
    assert target < TARGET_CALLS + 1, f"{target:.2f} calls on the target"
