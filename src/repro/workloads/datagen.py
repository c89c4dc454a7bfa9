"""Deterministic data generation helpers.

All workloads must be reproducible run-to-run (the simulators are
deterministic, so the inputs must be too). ``DeterministicRandom`` is a
small xorshift* generator independent of Python's global RNG state.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


class DeterministicRandom:
    """xorshift64* PRNG with convenience draws."""

    def __init__(self, seed: int = 0x1234_5678_9ABC_DEF1):
        if seed == 0:
            seed = 0xDEAD_BEEF_CAFE_F00D
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        x = self._state
        x ^= (x >> 12) & _MASK64
        x ^= (x << 25) & _MASK64
        x ^= (x >> 27) & _MASK64
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        return low + self.next_u64() % span

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return (self.next_u64() >> 11) / float(1 << 53)

    def gauss_like(self) -> float:
        """Cheap approximately-normal draw (sum of three uniforms)."""
        return (self.random() + self.random() + self.random()) / 1.5 - 1.0
