"""Sample Sort: sortedness, permutation conservation, variants."""

import numpy as np
import pytest

import repro
from repro.bench import sample_sort
from tests.conftest import run_spmd


@pytest.mark.parametrize("variant", ["upcxx", "upc"])
def test_sorts_and_conserves(variant):
    r = sample_sort.run(ranks=4, keys_per_rank=1024, variant=variant)
    assert r.verified
    assert r.total_keys == 4096


def test_single_rank():
    r = sample_sort.run(ranks=1, keys_per_rank=512)
    assert r.verified


@pytest.mark.parametrize("ranks", [2, 3, 5])
def test_odd_rank_counts(ranks):
    r = sample_sort.run(ranks=ranks, keys_per_rank=700)
    assert r.verified


def test_skew_is_bounded_with_oversampling():
    """Splitter sampling keeps the worst rank within a reasonable
    multiple of the average (the point of sample sort)."""
    r = sample_sort.run(ranks=4, keys_per_rank=4096)
    assert r.verified
    assert r.max_skew < 2.0


def test_tiny_inputs():
    r = sample_sort.run(ranks=4, keys_per_rank=8)
    assert r.verified


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        sample_sort.run(ranks=2, keys_per_rank=64, variant="bitonic")


def test_throughput_metric():
    r = sample_sort.run(ranks=2, keys_per_rank=2048)
    assert r.tb_per_min > 0


def test_splitter_phase_agrees_on_ranks_minus_one_splitters():
    """The sampling phase (fine-grained global reads, the paper's
    excerpt) gives every rank the same P-1 sorted splitters."""
    def body():
        keys = repro.SharedArray(np.uint64, size=4096, block=1024)
        keys.local_view()[:1024] = np.random.default_rng(
            repro.myrank()).integers(0, 1 << 63, 1024, dtype=np.uint64)
        repro.barrier()
        splitters = sample_sort._select_splitters(keys, oversample=32,
                                                  seed=1)
        repro.barrier()
        return splitters.tolist()

    got = run_spmd(body, ranks=4)
    assert len(got[0]) == 3
    assert got[0] == sorted(got[0])
    assert all(s == got[0] for s in got)
