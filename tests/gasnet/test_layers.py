"""The conduit-layer contract: what every layer inherits from
:class:`~repro.gasnet.conduit.ConduitLayer` and must not break.

* the contract's ops — the seven data ops plus ``poll``/``wake`` —
  keep ``Conduit``'s signatures on every layer and backend (an
  argument added to the contract is added in one place);
* a layer that overrides nothing is transparent anywhere in the stack —
  ops, ``caps`` and the ``fail_next_am`` hook — and forwards nothing
  else;
* the send decision is ``Conduit.send_am``'s alone, and stacked fault
  layers charge the sender's counters once per AM.
"""

from __future__ import annotations

import ast
import copy
import inspect
import pathlib

import numpy as np
import pytest

import repro
from repro.gasnet import (
    Conduit,
    ConduitLayer,
    DelayConduit,
    ProcConduit,
    SmpConduit,
    TelemetryConduit,
)
from tests.conftest import run_spmd

OPS = ("send_am", "rma_put", "rma_get", "rma_atomic", "rma_put_indexed",
       "rma_get_indexed", "rma_atomic_batch", "poll", "wake")
LAYERS = (ConduitLayer, TelemetryConduit, DelayConduit)
BACKENDS = (SmpConduit, ProcConduit)


@pytest.mark.parametrize("cls", LAYERS + BACKENDS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("op", OPS)
def test_op_signatures_match_the_contract(cls, op):
    assert (inspect.signature(getattr(cls, op))
            == inspect.signature(getattr(Conduit, op)))


def test_progress_ops_are_written_out_in_three_classes_only():
    """``poll``/``wake``: declared in ``Conduit`` (the condition-variable
    default every in-process conduit uses), forwarded in
    ``ConduitLayer``, overridden by the one backend that has a wire to
    read — no layer re-implements them."""
    for op in ("poll", "wake"):
        owners = {cls.__name__ for cls in (Conduit,) + LAYERS + BACKENDS
                  if op in vars(cls)}
        assert owners == {"Conduit", "ConduitLayer", "ProcConduit"}


def test_the_send_decision_is_written_once():
    """The ``fail_next_am`` hook, the range check, the encode and the
    charge are ``Conduit.send_am``'s: backends and the delay layer write
    only ``deliver_encoded``, and the other layers forward — the hook
    too, so it is set where the send decision runs."""
    for cls in (SmpConduit, ProcConduit, DelayConduit):
        assert cls.send_am is Conduit.send_am
        assert "deliver_encoded" in vars(cls)
    owners = {cls.__name__ for cls in (Conduit,) + LAYERS + BACKENDS
              if "fail_next_am" in vars(cls)}
    assert owners == {"Conduit", "ConduitLayer"}


def test_layers_are_conduits():
    smp = SmpConduit()
    assert isinstance(TelemetryConduit(smp, sink=None), Conduit)


def test_copy_of_a_layer_does_not_recurse():
    """copy.copy builds the instance without __init__ and probes it for
    dunders before ``_inner`` exists."""
    smp = SmpConduit()
    for layer in (ConduitLayer(smp), TelemetryConduit(smp, sink=None)):
        dup = copy.copy(layer)
        assert type(dup) is type(layer)
        assert dup._inner is smp


def test_gasnet_imports_nothing_from_the_layers_above_it():
    """The substrate emits events and counts; telemetry and containers
    consume.  No module under ``repro/gasnet`` imports either package,
    at top level or inside a function."""
    root = pathlib.Path(repro.__file__).parent / "gasnet"
    offenders = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                if node.module == "repro":
                    names = [f"repro.{a.name}" for a in node.names]
            else:
                continue
            offenders += [
                (path.name, node.lineno, name) for name in names
                if name.split(".")[:2] in (["repro", "telemetry"],
                                           ["repro", "containers"])]
    assert offenders == []


# -- a do-nothing layer is transparent anywhere in the stack ----------------

class _Noop(ConduitLayer):
    """Overrides nothing: pure ConduitLayer forwarding."""


class _SpySmp(SmpConduit):
    """The smp backend, noting the progress ops that reach it (a layer
    that failed to forward them would run ``Conduit``'s default on
    itself, which works on smp and so would go unnoticed)."""

    def __init__(self):
        super().__init__()
        self.polled: list = []
        self.woken: list = []

    def poll(self, rank, timeout=0.0):
        self.polled.append((rank, timeout))
        return super().poll(rank, timeout)

    def wake(self, rank):
        self.woken.append(rank)
        super().wake(rank)


def _stack(position: str):
    """``Telemetry(Delay(smp))`` minus the telemetry layer (the world
    adds it), with a ``_Noop`` at ``position``; also returns the
    backend for identity checks."""
    smp = _SpySmp()
    delay = DelayConduit(_Noop(smp) if position == "under_delay" else smp,
                         base_delay=0.0, jitter=0.0)
    stack = _Noop(delay) if position == "under_telemetry" else delay
    return stack, smp


@pytest.mark.parametrize("position", ["under_delay", "under_telemetry",
                                      "outermost"])
def test_noop_layer_is_transparent(position):
    stack, smp = _stack(position)

    def body():
        me, n = repro.myrank(), repro.ranks()
        world = repro.current_world()
        sa = repro.SharedArray(np.int64, size=8 * n, block=8)
        repro.barrier()
        if position == "outermost" and me == 0:
            world.conduit = _Noop(world.conduit)
        repro.barrier()
        peer = (me + 1) % n
        lo = 8 * peer                          # peer's block
        assert repro.async_(peer)(abs, -7).get() == 7           # AM + reply
        sa[lo] = 10 + me                                        # put
        assert sa[lo] == 10 + me                                # get
        assert sa.atomic(lo, "add", 5) == 10 + me               # atomic
        idx = np.arange(lo + 1, lo + 5)
        sa.scatter(idx, idx * 2)                                # put_indexed
        assert list(sa.gather(idx)) == list(idx * 2)            # get_indexed
        old = sa.atomic_batch(idx, "add", 1, return_old=True)   # atomic_batch
        assert list(old) == list(idx * 2)
        assert list(sa.gather(idx)) == list(idx * 2 + 1)
        repro.barrier()
        # The backend's caps and hook, reached from the outermost layer.
        top = world.conduit
        assert isinstance(top, _Noop if position == "outermost"
                          else TelemetryConduit)
        assert top.caps == SmpConduit.caps
        assert top.fail_next_am is None
        # poll / wake reach the backend from the outermost layer
        before = len(smp.polled), len(smp.woken)
        assert isinstance(top.poll(me), bool)
        top.wake(me)
        assert (me, 0.0) in smp.polled[before[0]:]
        assert me in smp.woken[before[1]:]
        with pytest.raises(AttributeError):
            top.polled                    # the backend's own attribute
        repro.barrier()
        return True

    assert all(run_spmd(body, ranks=2, conduit=stack, telemetry="flight"))
    # every blocking call above parked in the backend's poll
    assert {(0, 0.001), (1, 0.001)} <= set(smp.polled)


# -- stacked fault layers charge each AM once --------------------------------

def _am_counts(conduit) -> list[tuple[int, int]]:
    def body():
        me, n = repro.myrank(), repro.ranks()
        for _ in range(5):
            with repro.finish():
                repro.async_((me + 1) % n)(abs, -1)
        repro.barrier()
        s = repro.current_world().ranks[me].stats.snapshot()
        return s["ams_sent"], s["wire_frames"]

    return run_spmd(body, ranks=2, conduit=conduit)


@pytest.mark.parametrize("make", [
    lambda: DelayConduit(base_delay=0.0, jitter=0.0005),
    lambda: DelayConduit(DelayConduit(base_delay=0.0, jitter=0.0005),
                         base_delay=0.0, jitter=0.0005),
], ids=["delay", "delay(delay)"])
def test_fault_layers_count_what_bare_smp_counts(make):
    """A delay layer charges the sender in ``send_am`` and only decides
    in ``deliver_encoded``; stacking two used to re-enter ``send_am`` and
    double every ``ams_sent``/``wire_frames``."""
    assert _am_counts(make()) == _am_counts(SmpConduit())
