"""Uniform sampling of s-element subsets of {1..n}, plus exact enumeration.

Randomness comes from SplitMix64, a counter-based 64-bit generator fixed by
three constants so any implementation language reproduces the same stream
from the same seed:

    state   <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z       <- state
    z       <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z       <- ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output  <- z XOR (z >> 31)

Bounded draws use rejection sampling (no modulo bias), and subsets come from
a partial Fisher-Yates shuffle, so every s-subset is exactly equiprobable.

Output k from a state is mix(state + k * increment), so SplitMix64.block
computes many outputs in one vector pass. sample_k_subset draws one subset at
a time; sample_subsets draws the next k in blocks, shuffled together one swap
step per numpy pass, and falls back to sample_k_subset for an iteration with a
rejected draw, so both leave the same subsets and the same final state.
Both samplers and subset_rows check their sizes with errors._check_sizes:
integers (numpy integers too) with 1 <= s <= n <= 2^63, so every 0-based
index fits int64, and sample_subsets returns int64 rows.
"""

import math
import operator

import numpy as np

from .errors import EnumerationTooLarge, _check_sizes

_MASK64 = (1 << 64) - 1
_INC = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

#: Cap on C(n, s) for exhaustive enumeration.
ENUMERATION_CAP = 10**6


class SplitMix64:
    """Counter-based PRNG; one instance is owned by a single run."""

    __slots__ = ("state",)

    def __init__(self, seed):
        self.state = int(seed) & _MASK64

    def next_u64(self):
        self.state = (self.state + _INC) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
        z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
        return z ^ (z >> 31)

    def block(self, k):
        """The next k outputs as a uint64 array; advances state by k.

        uint64 arrays wrap modulo 2^64 silently, as the mix needs (numpy
        scalars would warn on overflow).
        """
        k = operator.index(k)
        z = np.arange(1, k + 1, dtype=np.uint64)
        z *= np.uint64(_INC)
        z += np.uint64(self.state)
        self.state = (self.state + k * _INC) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MUL1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MUL2)
        z ^= z >> np.uint64(31)
        return z

    def next_below(self, k):
        """Uniform integer in [0, k) via rejection (exactly unbiased)."""
        limit = _MASK64 + 1 - ((_MASK64 + 1) % k)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % k


def sample_k_subset(rng, n, s):
    """Draw one of the C(n, s) subsets uniformly at random, as a strictly
    increasing tuple of 1-based indices.

    Partial Fisher-Yates over [1..n]: the first s entries after s swap steps
    are a uniform s-permutation; sorting forgets order, leaving a uniform
    subset. A draw costs O(s), not O(n).
    """
    n, s = _check_sizes(n, s)
    return tuple(_partial_shuffle([i + rng.next_below(n - i) for i in range(s)]))


def _partial_shuffle(targets):
    """The sorted first len(targets) slots of [1, 2, ...] after swapping
    slot i with slot targets[i] >= i, for each i in turn (slots count from
    0). Only displaced slots are stored (slot j holds j + 1 otherwise), so
    this costs O(s)."""
    displaced = {}
    picked = []
    for i, j in enumerate(targets):
        picked.append(displaced.get(j, j + 1))
        displaced[j] = displaced.get(i, i + 1)
    picked.sort()
    return picked


def sample_subsets(rng, n, s, k):
    """The next k subsets of sample_k_subset's stream from rng, as a (k, s)
    array whose row r is the r-th call's subset minus 1 (sorted 0-based
    indices); rng is left where k calls would leave it.

    The draws come from SplitMix64.block, and every draw is checked against
    its rejection limit in one vector operation. The first iteration that
    holds a rejected draw is drawn again by sample_k_subset from its starting
    state, and the next block starts after it.
    """
    n, s = _check_sizes(n, s)
    k = operator.index(k)
    offsets = np.arange(s, dtype=np.uint64)
    bounds = np.uint64(n) - offsets
    # A draw u below bound b is rejected iff u > 2^64 - 1 - (2^64 mod b).
    tops = np.array([_MASK64 - (_MASK64 + 1) % (n - i) for i in range(s)], dtype=np.uint64)
    parts = [np.empty((0, s), dtype=np.int64)]
    done = 0
    while done < k:
        start = rng.state
        u = rng.block((k - done) * s).reshape(-1, s)
        bad = (u > tops).any(axis=1)
        ok = int(bad.argmax()) if bad.any() else len(u)
        targets = (u[:ok] % bounds + offsets).view(np.int64)  # every target is below 2^63
        if s == n:  # the whole shuffle: every index, whatever the draws
            parts.append(np.broadcast_to(np.arange(s), targets.shape))
        else:
            parts.append(_shuffle_rows(targets))
        done += ok
        if ok < len(u):
            rng.state = (start + ok * s * _INC) & _MASK64
            parts.append(np.array([[i - 1 for i in sample_k_subset(rng, n, s)]], dtype=np.int64))
            done += 1
    return np.concatenate(parts)


def _shuffle_rows(targets):
    """Row r is _partial_shuffle(targets[r]) - 1, one swap step per pass over all k
    rows. values holds slot i < s in column i, slot j >= s in s + j's rank in its row."""
    k, s = targets.shape
    order = targets.argsort(axis=1, kind="stable")
    ordered = np.take_along_axis(targets, order, axis=1)
    rank = s + np.cumsum(np.diff(ordered, axis=1, prepend=ordered[:, :1]) != 0, axis=1)
    values = np.tile(np.arange(2 * s), (k, 1))
    np.put_along_axis(values, rank, ordered, axis=1)  # slot j starts out holding j
    cols = np.empty_like(order)  # the column of each step's target
    np.put_along_axis(cols, order, np.where(ordered < s, ordered, rank), axis=1)
    rows = np.arange(k)
    for i, j in enumerate(cols.T):
        values[rows, j], values[:, i] = values[:, i], values[rows, j]
    return np.sort(values[:, :s], axis=1)


def subset_rows(n, s):
    """All C(n, s) subsets of the 0-based indices exactly once, in
    lexicographic order, as the strictly increasing rows of a (C(n, s), s)
    int array: one column per pass until each prefix has one completion,
    which counts up from it."""
    n, s = _check_sizes(n, s)
    total = math.comb(n, s)
    if total > ENUMERATION_CAP:
        raise EnumerationTooLarge(f"C({n}, {s}) = {total} exceeds cap {ENUMERATION_CAP}")
    rows = np.arange(n - s + 1)[:, None]
    while len(rows) < total:
        counts = n - s + rows.shape[1] - rows[:, -1]  # entries last + 1 .. n - s + width
        offsets = np.repeat(np.cumsum(counts) - counts - rows[:, -1] - 1, counts)
        rows = np.column_stack([np.repeat(rows, counts, axis=0), np.arange(len(offsets)) - offsets])
    return np.hstack([rows, rows[:, -1:] + np.arange(1, s - rows.shape[1] + 1)])
