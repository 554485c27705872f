import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointsaga.errors import EnumerationTooLarge, InvalidBatchSize
from pointsaga.sampling import (
    SplitMix64,
    enumerate_k_subsets,
    sample_k_subset,
    sample_subsets,
    subset_rows,
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
    # Non-integral sizes are typed errors too, not operator.index's TypeError.
    for draw in (lambda: sample_k_subset(SplitMix64(0), 5.0, 2),
                 lambda: enumerate_k_subsets(4, 2.0),
                 lambda: sample_subsets(SplitMix64(0), 4, 2.0, 1)):
        with pytest.raises(InvalidBatchSize, match="sizes must be integers"):
            draw()


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


@pytest.mark.parametrize("s", [0, 4])
def test_enumeration_rejects_s_out_of_range(s):
    with pytest.raises(InvalidBatchSize, match=f"need 1 <= s <= n <= 2\\^63, got s={s}, n=3"):
        enumerate_k_subsets(3, s)


def test_enumeration_cap():
    for enumerate_ in (enumerate_k_subsets, subset_rows):
        with pytest.raises(EnumerationTooLarge):
            enumerate_(30, 15)


def test_subset_rows_are_the_lexicographic_combinations():
    # itertools' combinations are the reference order; the array is built
    # column by column, and its forced tail (s near n) all at once.
    for n in range(1, 11):
        for s in range(1, n + 1):
            rows = subset_rows(n, s)
            assert rows.dtype == np.intp and rows.shape == (math.comb(n, s), s)
            assert rows.tolist() == [list(c) for c in itertools.combinations(range(n), s)]
            assert enumerate_k_subsets(n, s) == [tuple(r + 1 for r in row) for row in rows.tolist()]
    assert subset_rows(10**6, 1).ravel().tolist() == list(range(10**6))


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


def test_block_is_the_next_outputs():
    block, scalar = SplitMix64(0), SplitMix64(0)
    assert block.block(0).dtype == np.uint64 and block.state == 0
    for k in (1, 3, 50):
        assert block.block(k).tolist() == [scalar.next_u64() for _ in range(k)]
        assert block.state == scalar.state


def assert_block_matches_scalar(n, s, seed, k):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    rows = sample_subsets(block, n, s, k)
    assert rows.shape == (k, s)
    assert [tuple(v + 1 for v in row) for row in rows.tolist()] == [
        sample_k_subset(scalar, n, s) for _ in range(k)]
    assert block.state == scalar.state
    return rows


@pytest.mark.parametrize(  # test_sparse_sampler_matches_dense_stream's grid
    "n,s,seed",
    [(1, 1, 0), (2, 1, 5), (2, 2, 6), (7, 1, 1), (7, 3, 2), (7, 7, 3),
     (64, 32, 4), (100, 99, 5), (1000, 10, 6), (20000, 1, 7), (20000, 50, 8)],
)
def test_block_sampler_matches_scalar_stream(n, s, seed):
    rows = assert_block_matches_scalar(n, s, seed, 30)
    assert rows.dtype == np.int64


@settings(max_examples=200)
@given(st.integers(3, 400).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n - 1))),
       st.integers(0, 300), st.integers(0, 2**64 - 1))
def test_block_shuffle_matches_repeated_scalar_draws(n_s, k, seed):
    assert_block_matches_scalar(*n_s, seed, k)


def swap_targets(seed, n, s, k):
    """The slots sample_k_subset's next k calls from seed swap with."""
    rng = SplitMix64(seed)
    return [[i + rng.next_below(n - i) for i in range(s)] for _ in range(k)]


@pytest.mark.parametrize("n,s,blocks", [
    (1000, 100, (40, 40, 7)),  # run's blocks at s = 100: SUBSET_BLOCK // s rows
    (2**64 // 3 + 1, 5, (60,)),  # about a third of the slot-0 draws are rejected
    (2**63, 3, (60,)),
], ids=["n1000-s100", "rejected-draws", "n2^63"])
def test_block_shuffle_matches_scalar_stream_across_blocks(n, s, blocks):
    block, scalar = SplitMix64(21), SplitMix64(21)
    for k in blocks:
        rows = sample_subsets(block, n, s, k)
        assert [tuple(v + 1 for v in row) for row in rows.tolist()] == [
            sample_k_subset(scalar, n, s) for _ in range(k)]
        assert block.state == scalar.state
    if n == 1000:
        # Some draws swap two slots inside the first s, and some row draws one
        # slot past them twice, whose two swaps must share that slot's value.
        targets = swap_targets(21, n, s, sum(blocks))
        assert any(i < j < s for row in targets for i, j in enumerate(row))
        assert any(len({j for j in row if j >= s}) < sum(j >= s for j in row) for row in targets)


class CountingSplitMix64(SplitMix64):
    """Counts the draws made one at a time: the rewound iterations' draws."""

    def __init__(self, seed):
        super().__init__(seed)
        self.scalar_draws = 0

    def next_u64(self):
        self.scalar_draws += 1
        return super().next_u64()


@pytest.mark.parametrize("s", [1, 3])
def test_block_sampler_rewinds_past_rejected_draws(s):
    # At n = 2^64 // 3 + 1 about a third of the slot-0 draws are rejected.
    n = 2**64 // 3 + 1
    rng = CountingSplitMix64(5)
    rows = sample_subsets(rng, n, s, 60)
    assert rows.dtype == np.int64
    assert rng.scalar_draws > 40  # many iterations were drawn again
    assert_block_matches_scalar(n, s, 5, 60)


def test_block_sampler_edges():
    rng = SplitMix64(3)
    assert sample_subsets(rng, 5, 2, 0).shape == (0, 2) and rng.state == 3
    # The largest n: index 2^63 - 1 still fits int64.
    assert assert_block_matches_scalar(2**63, 2, 1, 10).dtype == np.int64
    with pytest.raises(InvalidBatchSize):
        sample_subsets(rng, 2**63 + 1, 1, 1)
    with pytest.raises(InvalidBatchSize):
        sample_subsets(rng, 5, 6, 1)


def test_scalar_sampler_rejects_bounds_beyond_64_bits():
    # Both samplers take n up to 2^63, where every 0-based index fits int64.
    assert len(sample_k_subset(SplitMix64(1), 2**63, 2)) == 2
    with pytest.raises(InvalidBatchSize):
        sample_k_subset(SplitMix64(1), 2**63 + 1, 1)


def test_samplers_accept_numpy_integers():
    assert SplitMix64(0).block(np.int64(3)).tolist() == SplitMix64(0).block(3).tolist()
    cases = [(np.int64(20), np.int64(3), np.int64(7)),
             (np.int32(20), np.uint8(7), np.uint8(200))]  # k * s = 1400 would wrap in uint8
    for n, s, k in cases:
        numpy_rng, python_rng = SplitMix64(9), SplitMix64(9)
        rows = sample_subsets(numpy_rng, n, s, k)
        assert rows.tolist() == sample_subsets(python_rng, int(n), int(s), int(k)).tolist()
        assert rows.dtype == np.int64 and numpy_rng.state == python_rng.state
        assert sample_k_subset(numpy_rng, n, s) == sample_k_subset(python_rng, int(n), int(s))
    assert enumerate_k_subsets(np.int64(4), np.int64(2)) == enumerate_k_subsets(4, 2)
