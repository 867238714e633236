"""Machine performance models — the substitution for Edison and Vesta.

The paper's evaluation ran on two supercomputers (Cray XC30 "Edison",
IBM BG/Q "Vesta") at up to 32K cores.  Neither machine nor scale is
available here, so per DESIGN.md §2 the *figures* are reproduced by
replaying each benchmark's communication pattern through parametric
machine models:

* :mod:`repro.sim.loggp` — LogGP message/transfer costs;
* :mod:`repro.sim.topology` — hop-count models for the Aries dragonfly
  and the BG/Q 5-D torus (validated against explicit networkx graphs);
* :mod:`repro.sim.machine` — the Edison and Vesta parameter presets,
  including per-programming-model software overheads;
* :mod:`repro.sim.des` — a discrete-event simulator for communication
  phases, used to validate the closed-form models at small scale;
* :mod:`repro.sim.patterns` — per-benchmark communication patterns;
* :mod:`repro.sim.collmodel` — closed-form LogGP costs for the tree
  collectives engine;
* :mod:`repro.sim.perfmodel` — the per-figure/table series generators;
* :mod:`repro.sim.calibrate` — measures the real per-op software
  overheads of this library's code paths (UPC veneer vs UPC++ path) and
  maps their *ratio* onto the model's overhead parameters.

Absolute numbers are not claimed — shapes (who wins, by what factor,
where curves bend) are; EXPERIMENTS.md records paper-vs-model values.
"""

from repro.sim.loggp import LogGP
from repro.sim.topology import Dragonfly, Torus5D, balanced_factors
from repro.sim.machine import Machine, EDISON, VESTA
from repro.sim.des import DesEngine, Compute, Put, Send, Recv, Barrier
from repro.sim.collmodel import (
    allgather_time,
    allreduce_time,
    alltoall_time,
    barrier_time,
    bcast_time,
    reduce_time,
)

__all__ = [
    "LogGP", "Dragonfly", "Torus5D", "balanced_factors",
    "Machine", "EDISON", "VESTA",
    "DesEngine", "Compute", "Put", "Send", "Recv", "Barrier",
    "barrier_time", "bcast_time", "reduce_time", "allreduce_time",
    "allgather_time", "alltoall_time",
]
