"""Deterministic random numbers and hashing.

Everything downstream that needs randomness (clustering inits, synthetic
corpora, the scripted screening provider) goes through SplitMix64 so runs
are reproducible across platforms and Python versions.  The stdlib
``random`` module would also be deterministic for a fixed seed, but its
state layout is an implementation detail we don't want baked into cached
artifacts, and string hashing via ``hash()`` is salted per process.

SplitMix64 is counter-based: its m-th output is a fixed mix of
``seed + m * gamma mod 2**64``, so any stretch of the stream can be
computed without a loop.  ``SplitMix64.next_u64_array`` does that with
numpy and returns the same outputs as repeated ``next_u64`` calls.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def fnv1a64(data: bytes | str) -> int:
    """FNV-1a 64-bit hash of ``data``. Strings are hashed as UTF-8."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & _MASK64
    return h


class SplitMix64:
    """SplitMix64 generator: 64-bit state, one multiply-xorshift chain per draw."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_u64_array(self, count: int):
        """The next ``count`` outputs as a numpy uint64 array.

        Equal to ``count`` calls of ``next_u64``, and leaves the same state.
        Every operand is a ``numpy.uint64``, so the arithmetic stays in
        uint64 and wraps modulo 2**64 as the scalar path masks it.
        """
        import numpy as np

        u64 = np.uint64
        z = np.arange(1, count + 1, dtype=u64)
        z *= u64(_GAMMA)
        z += u64(self._state)
        self._state = (self._state + count * _GAMMA) & _MASK64
        z ^= z >> u64(30)
        z *= u64(_MIX1)
        z ^= z >> u64(27)
        z *= u64(_MIX2)
        z ^= z >> u64(31)
        return z

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n). Rejection-sampled, so unbiased."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        # Draw until the value falls below the largest multiple of n.
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices drawn from range(n), in draw order."""
        if k > n:
            raise ValueError(f"cannot sample {k} from {n}")
        pool = list(range(n))
        out = []
        for _ in range(k):
            j = self.randrange(len(pool))
            out.append(pool.pop(j))
        return out


def derive_rng(seed: int, *parts: str) -> SplitMix64:
    """RNG keyed by a seed plus string parts, e.g. per-record streams.

    The same (seed, parts) always yields the same stream regardless of how
    many other streams were derived before it.
    """
    tag = ":".join(str(p) for p in parts)
    return SplitMix64(fnv1a64(f"{seed}:{tag}"))
