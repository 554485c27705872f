import math

import numpy as np
import pytest

from pointsaga.errors import EnumerationTooLarge, InvalidBatchSize
from pointsaga.sampling import (
    SplitMix64,
    enumerate_k_subsets,
    sample_k_subset,
)


def test_full_batch_is_the_only_subset():
    rng = SplitMix64(99)
    for _ in range(20):
        assert sample_k_subset(rng, 5, 5) == (1, 2, 3, 4, 5)


def test_pair_frequencies_are_uniform():
    rng = SplitMix64(7)
    counts = {}
    draws = 300_000
    for _ in range(draws):
        s = sample_k_subset(rng, 3, 2)
        counts[s] = counts.get(s, 0) + 1
    assert set(counts) == {(1, 2), (1, 3), (2, 3)}
    for c in counts.values():
        assert abs(c / draws - 1 / 3) <= 0.005


def test_singleton_frequencies_are_uniform():
    rng = SplitMix64(8)
    counts = np.zeros(5, dtype=int)
    draws = 500_000
    for _ in range(draws):
        counts[sample_k_subset(rng, 5, 1)[0] - 1] += 1
    assert np.all(np.abs(counts / draws - 0.2) <= 0.003)


def test_inclusion_probability_band():
    # Per-index inclusion should be s/n within 3 binomial sigmas.
    n, s, draws = 10, 3, 100_000
    rng = SplitMix64(123)
    included = np.zeros(n, dtype=int)
    for _ in range(draws):
        for i in sample_k_subset(rng, n, s):
            included[i - 1] += 1
    p = s / n
    sigma = math.sqrt(p * (1 - p) / draws)
    assert np.all(np.abs(included / draws - p) <= 3 * sigma)


def test_stream_determinism():
    a = SplitMix64(42)
    b = SplitMix64(42)
    for _ in range(200):
        assert sample_k_subset(a, 17, 4) == sample_k_subset(b, 17, 4)


def test_known_stream_head():
    # First outputs of SplitMix64 from seed 0; frozen so any reimplementation
    # in another language can cross-check the constants.
    rng = SplitMix64(0)
    head = [rng.next_u64() for _ in range(3)]
    assert head == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


def test_invalid_batch_sizes():
    rng = SplitMix64(1)
    with pytest.raises(InvalidBatchSize):
        sample_k_subset(rng, 5, 0)
    with pytest.raises(InvalidBatchSize):
        sample_k_subset(rng, 5, 6)


def test_enumerate_pairs_of_three():
    subs = enumerate_k_subsets(3, 2)
    assert subs == [(1, 2), (1, 3), (2, 3)]


def test_enumerate_singletons():
    subs = enumerate_k_subsets(4, 1)
    assert subs == [(1,), (2,), (3,), (4,)]


def test_enumerate_six_choose_three():
    subs = enumerate_k_subsets(6, 3)
    assert len(subs) == math.comb(6, 3) == 20
    assert len(set(subs)) == 20
    assert subs == sorted(subs)


def test_enumeration_cap():
    with pytest.raises(EnumerationTooLarge):
        enumerate_k_subsets(30, 15)


def dense_sample_k_subset(rng, n, s):
    # The O(n) partial Fisher-Yates the sparse sampler replaced, kept here as
    # the reference for its stream.
    arr = list(range(1, n + 1))
    for i in range(s):
        j = i + rng.next_below(n - i)
        arr[i], arr[j] = arr[j], arr[i]
    return tuple(sorted(arr[:s]))


@pytest.mark.parametrize(
    "n,s,seed",
    [(1, 1, 0), (2, 1, 5), (2, 2, 6), (7, 1, 1), (7, 3, 2), (7, 7, 3),
     (64, 32, 4), (100, 99, 5), (1000, 10, 6), (20000, 1, 7), (20000, 50, 8)],
)
def test_sparse_sampler_matches_dense_stream(n, s, seed):
    sparse, dense = SplitMix64(seed), SplitMix64(seed)
    for _ in range(30):
        assert sample_k_subset(sparse, n, s) == dense_sample_k_subset(
            dense, n, s
        )
        assert sparse.state == dense.state
