"""Multidimensional array library costs: view creation, element access,
pack/unpack (the machinery behind ghost copies), and the foreach-vs-
vectorized kernel gap the examples document.
"""

import numpy as np
import pytest

import repro
from repro.arrays import Point, RectDomain, foreach, ndarray


def _in_world(benchmark, body, rounds=3):
    def run():
        repro.spmd(body, ranks=1)

    benchmark.pedantic(run, rounds=rounds, iterations=1)


def test_view_creation_cost(benchmark):
    def body():
        A = ndarray(np.float64, RectDomain((0, 0, 0), (32, 32, 32)))
        inner = A.domain.shrink(1)
        for _ in range(500):
            A.constrict(inner).translate(Point(1, 1, 1)).transpose()

    _in_world(benchmark, body)


def test_element_access_point_indexing(benchmark):
    def body():
        A = ndarray(np.float64, RectDomain((0, 0), (64, 64)))
        for (i, j) in foreach(RectDomain((0, 0), (32, 32))):
            A[i, j] = 1.0

    _in_world(benchmark, body)


def test_local_view_bulk_assignment(benchmark):
    """The vectorized path the examples recommend — contrast with
    point indexing above."""
    def body():
        A = ndarray(np.float64, RectDomain((0, 0), (64, 64)))
        for _ in range(500):
            A.local_view()[:32, :32] = 1.0

    _in_world(benchmark, body)


@pytest.mark.parametrize("shape", ["face", "edge"])
def test_ghost_pack_unpack(benchmark, shape):
    """Gathering and scattering a boundary region (the strided half of
    a ghost copy)."""
    def body():
        A = ndarray(np.float64, RectDomain((0, 0, 0), (64, 64, 64)))
        dom = A.domain
        region = (dom.border(0, 1) if shape == "face"
                  else dom.border(0, 1).border(1, 1))
        view = A.constrict(region)
        for _ in range(100):
            block = view.to_numpy()
            view.from_numpy(block)

    _in_world(benchmark, body)


def test_remote_copy_roundtrip(benchmark):
    def run():
        def body():
            me = repro.myrank()
            d = repro.Directory()
            A = ndarray(np.float64, RectDomain((0, 0), (64, 64)))
            d.publish_and_sync(A)
            if me == 0:
                B = d.lookup(1)
                local = ndarray(np.float64, RectDomain((0, 0), (64, 64)))
                for _ in range(20):
                    local.copy(B)
            repro.barrier()

        repro.spmd(body, ranks=2)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_domain_intersection_cost(benchmark):
    a = RectDomain((0, 0, 0), (100, 100, 100), (2, 3, 1))
    b = RectDomain((3, 1, 50), (80, 120, 160), (3, 2, 5))

    def kernel():
        for _ in range(1000):
            a.intersect(b)

    benchmark(kernel)
