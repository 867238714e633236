"""What a GUPS window costs the interpreter, counted, not timed.

The window is the ``gups_proc`` one: ``sa.atomic_batch(idx, "xor",
vals)`` with 256 ``int64`` indices into a ``uint64`` table of 2**16
elements, ``block=1``, on 2 ranks, so about half the window is the
caller's own slab and half is rank 1's.  Counted on the caller's thread
with ``sys.setprofile``, from the first window to the last:

* calls of functions defined in the ``repro`` package per window, at
  or below :data:`WINDOW_CALLS` on every backend.  The count is the
  same on each window and each run, where microseconds are not;
* frames entered in NumPy's ``_core/_methods.py`` (the Python bodies
  of ``ndarray.max()`` / ``min()``) or in ``contextlib`` (a
  ``nullcontext`` standing in for a guard): none.  The window's bounds
  are C reductions and integer atomics run under no context manager.

To re-pin: a change that adds a call to the window raises
:data:`WINDOW_CALLS` to its new count and says why in CHANGES.md; one
that removes a call lowers it.  A window that enters one of the two
wrapper modules again is a regression, not a re-pin.
"""

import os
import sys

import numpy as np
import pytest

import repro
from tests.conftest import run_spmd

WINDOWS = 200
WINDOW_CALLS = 15
WRAPPERS = (os.path.join("_core", "_methods.py"), "contextlib")


def _window_census():
    """Per window on rank 0: package calls, and the wrapper frames
    entered (by file and function name)."""
    root = os.path.dirname(repro.__file__) + os.sep
    sa = repro.SharedArray(np.uint64, 1 << 16, block=1)
    sa.fill_local(0)
    rng = np.random.default_rng(44)
    idx = rng.integers(0, 1 << 16, (8, 256), dtype=np.int64)
    vals = rng.integers(1, 1 << 63, (8, 256), dtype=np.uint64)
    client = repro.myrank() == 0
    repro.barrier()
    for k in range(8 if client else 0):
        sa.atomic_batch(idx[k], "xor", vals[k])
    calls = 0
    wrappers = set()

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(root):
                # <listcomp>/<genexpr>: inlined on 3.12, calls on 3.10
                if not code.co_name.startswith("<"):
                    calls += 1
            elif any(w in code.co_filename for w in WRAPPERS):
                wrappers.add(f"{code.co_filename}:{code.co_name}")

    if client:
        sys.setprofile(count)
        try:
            for k in range(WINDOWS):
                sa.atomic_batch(idx[k % 8], "xor", vals[k % 8])
        finally:
            sys.setprofile(None)
    repro.barrier()
    return calls / WINDOWS, sorted(wrappers)


@pytest.mark.parametrize("conduit", ("smp", "proc+socket"))
def test_a_gups_window_costs_its_pinned_calls(conduit):
    calls, wrappers = run_spmd(_window_census, ranks=2, conduit=conduit)[0]
    assert calls <= WINDOW_CALLS, f"{calls:.2f} calls per window"
    assert not wrappers, f"wrapper frames entered: {wrappers}"
