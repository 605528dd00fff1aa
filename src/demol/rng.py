"""Counter-based deterministic random stream.

The generator family is part of the external reproducibility contract, not a
library choice: any implementation in any language must produce identical
streams from the same seed.

Definition (all arithmetic mod 2**64):

    state_i  = seed + i * 0x9E3779B97F4A7C15          (i = 1, 2, ...)
    out_i    = mix(state_i)
    mix(z):  z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
             z ^= z >> 27; z *= 0x94D049BB133111EB
             z ^= z >> 31

This is the splitmix64 output function applied to a pure counter, so the
stream position is fully described by (seed, counter) and can be serialized
into checkpoints.

Derived draws:

    uniform():  (out >> 11) * 2**-53                  in [0, 1)
    normal():   Box-Muller from two draws,
                u1 = ((out_a >> 11) + 1) * 2**-53     in (0, 1]
                u2 = (out_b >> 11) * 2**-53           in [0, 1)
                z  = sqrt(-2 ln u1) * cos(2 pi u2)
    randrange(n):  floor(uniform() * n)
"""

from __future__ import annotations

import math

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_INV53 = 2.0 ** -53


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * _MUL1 & _MASK64
    z = (z ^ (z >> 27)) * _MUL2 & _MASK64
    return z ^ (z >> 31)


class RandomStream:
    """Deterministic stream addressed by (seed, counter)."""

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int, counter: int = 0):
        self.seed = seed & _MASK64
        self.counter = int(counter)

    def next_u64(self) -> int:
        self.counter += 1
        return _mix64((self.seed + self.counter * _GAMMA) & _MASK64)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * _INV53

    def normal(self, sigma: float = 1.0) -> float:
        u1 = ((self.next_u64() >> 11) + 1) * _INV53
        u2 = (self.next_u64() >> 11) * _INV53
        return sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange requires n >= 1")
        k = int(self.uniform() * n)
        return n - 1 if k >= n else k

    def sample_indices(self, n: int, k: int) -> list[int]:
        """First k entries of a Fisher-Yates shuffle of range(n), sorted."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n}")
        pool = list(range(n))
        for i in range(k):
            j = i + self.randrange(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return sorted(pool[:k])

    def state(self) -> tuple[int, int]:
        return (self.seed, self.counter)

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, counter={self.counter})"
