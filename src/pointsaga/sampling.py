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
"""

import itertools
import math

from .errors import EnumerationTooLarge, InvalidBatchSize

_MASK64 = (1 << 64) - 1

#: Cap on C(n, s) for exhaustive enumeration.
ENUMERATION_CAP = 10**6


class SplitMix64:
    """Counter-based PRNG; one instance is owned by a single run."""

    __slots__ = ("state",)

    def __init__(self, seed):
        self.state = int(seed) & _MASK64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

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
    subset. Only displaced slots are stored (slot j holds j+1 otherwise), so
    a draw costs O(s), not O(n).
    """
    if not 1 <= s <= n:
        raise InvalidBatchSize(f"need 1 <= s <= n, got s={s}, n={n}")
    displaced = {}
    picked = []
    for i in range(s):
        j = i + rng.next_below(n - i)
        picked.append(displaced.get(j, j + 1))
        displaced[j] = displaced.get(i, i + 1)
    return tuple(sorted(picked))


def enumerate_k_subsets(n, s):
    """All C(n, s) subsets exactly once, in lexicographic order, each a
    strictly increasing tuple of 1-based indices."""
    if not 1 <= s <= n:
        raise InvalidBatchSize(f"need 1 <= s <= n, got s={s}, n={n}")
    total = math.comb(n, s)
    if total > ENUMERATION_CAP:
        raise EnumerationTooLarge(f"C({n}, {s}) = {total} exceeds cap {ENUMERATION_CAP}")
    return list(itertools.combinations(range(1, n + 1), s))
