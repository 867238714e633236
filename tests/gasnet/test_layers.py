"""The conduit contract, as the conduit classes write it.

* the contract's ops — the seven data ops plus ``poll``/``wake`` —
  keep ``Conduit``'s signatures on every backend and on the delay
  conduit (an argument added to the contract is added in one place);
* the send decision and the six RMA ops are ``Conduit``'s alone: a
  backend writes its transport, and the delay conduit only its
  ``deliver_encoded``, which charges the sender's counters once per AM;
* the substrate imports nothing from the packages above it.
"""

from __future__ import annotations

import ast
import inspect
import pathlib

import pytest

import repro
from repro.gasnet import Conduit, DelayConduit, ProcConduit, SmpConduit
from tests.conftest import run_spmd

OPS = ("send_am", "rma_put", "rma_get", "rma_atomic", "rma_put_indexed",
       "rma_get_indexed", "rma_atomic_batch", "poll", "wake")
RMA_OPS = OPS[1:7]
CLASSES = (SmpConduit, ProcConduit, DelayConduit)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("op", OPS)
def test_op_signatures_match_the_contract(cls, op):
    assert (inspect.signature(getattr(cls, op))
            == inspect.signature(getattr(Conduit, op)))


def test_progress_ops_are_written_out_in_two_classes_only():
    """``poll``/``wake``: declared in ``Conduit`` (the doorbell default
    every in-process conduit uses) and overridden by the one backend
    that has a wire to read."""
    for op in ("poll", "wake"):
        owners = {cls.__name__ for cls in (Conduit,) + CLASSES
                  if op in vars(cls)}
        assert owners == {"Conduit", "ProcConduit"}


def test_the_send_decision_is_written_once():
    """The ``fail_next_am`` hook, the range check, the encode, the
    charge and the event are ``Conduit.send_am``'s, and each RMA op is
    ``Conduit``'s: the backends and the delay conduit write only
    ``deliver_encoded`` (and their transport)."""
    for cls in CLASSES:
        assert cls.send_am is Conduit.send_am
        assert "deliver_encoded" in vars(cls)
        for op in RMA_OPS:
            assert getattr(cls, op) is getattr(Conduit, op), (cls, op)
    owners = {cls.__name__ for cls in (Conduit,) + CLASSES
              if "fail_next_am" in vars(cls)}
    assert owners == {"Conduit"}


def test_layers_are_conduits():
    """The delay conduit is the smp backend with a different
    ``deliver_encoded``: no layer wraps a backend."""
    assert DelayConduit.__bases__ == (SmpConduit,)
    assert SmpConduit.__bases__ == ProcConduit.__bases__ == (Conduit,)


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


# -- a delay charges each AM once ------------------------------------------

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
], ids=["delay"])
def test_fault_layers_count_what_bare_smp_counts(make):
    """The delay conduit charges the sender in ``send_am`` and only
    decides in ``deliver_encoded``, so it counts every ``ams_sent`` and
    ``wire_frames`` once, as bare smp does."""
    assert _am_counts(make()) == _am_counts(SmpConduit())
