"""Deterministic random streams for ensembles and sampling.

The generator is written out in full (rather than taken from a library) so
that any reimplementation, in any language, reproduces the streams bit for
bit. It is SplitMix64:

    state  <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z      <- state
    z      <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z      <- ((z XOR (z >> 27)) * 0x94D49BBB133111EB) mod 2^64
    output <- z XOR (z >> 31)

Derived quantities:

* ``uniform``   -- (output >> 11) * 2^-53, a double in [0, 1)
* ``symmetric`` -- 2*uniform - 1, a double in [-1, 1)
* complex entries draw the real part first, then the imaginary part,
  each via ``symmetric``
* matrices fill row-major

Substreams: stream ``k`` of seed ``s`` starts from the state
``mix(mix(s) + (k + 1) * 0xD1B54A32D192ED03)`` where ``mix`` is the
z-transformation above (without the state increment). Substreams let
independent trials draw from decorrelated sequences that depend only on
``(seed, k)``, never on evaluation order.

No transcendental functions are used anywhere, so streams are stable
across platforms and libm versions.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_STREAM_GAMMA = 0xD1B54A32D192ED03


def mix64(z: int) -> int:
    """SplitMix64 output transformation."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D49BBB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def substream(seed: int, k: int) -> int:
    """Seed of the k-th substream of ``seed`` (pure function of both)."""
    return mix64((mix64(seed) + ((k + 1) * _STREAM_GAMMA)) & _MASK)


class Rng:
    """SplitMix64 stream."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return mix64(self._state)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def symmetric(self) -> float:
        return 2.0 * self.uniform() - 1.0

    def complex_entry(self) -> complex:
        re = self.symmetric()
        im = self.symmetric()
        return complex(re, im)

    def vector(self, dim: int) -> np.ndarray:
        return np.array([self.complex_entry() for _ in range(dim)], dtype=np.complex128)

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        out = np.empty((rows, cols), dtype=np.complex128)
        for i in range(rows):
            for j in range(cols):
                out[i, j] = self.complex_entry()
        return out
