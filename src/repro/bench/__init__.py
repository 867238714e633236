"""The paper's five case studies (§V), runnable for real on the SMP
conduit at small rank counts (with correctness verification), plus the
harness that also replays them through the machine models at the
paper's scales to regenerate every figure and table.

===========  ==========================  ================================
Benchmark    Computation                 Communication (paper Table III)
===========  ==========================  ================================
gups         bit-xor operations          global fine-grained random access
stencil      nearest-neighbour compute   bulk ghost zone copies
sample_sort  local quick sort            irregular one-sided communication
raytrace     Monte Carlo integration     single gatherv / sum reduction
lulesh       Lagrange leapfrog           nearest-neighbour (26) exchange
===========  ==========================  ================================
"""

from repro.bench import gups, stencil, sample_sort, raytrace, lulesh

__all__ = ["gups", "stencil", "sample_sort", "raytrace", "lulesh"]
