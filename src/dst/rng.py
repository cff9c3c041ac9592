"""Deterministic random streams for ensembles, probes and power-iteration starts.

The generator is written out in full so that any reimplementation
reproduces the streams bit for bit. It has the shape of SplitMix64 but
is not reference SplitMix64: the second multiplier is 0x94D49BBB133111EB,
not the published 0x94D049BB133111EB, so ``Rng(0)`` first yields
0x4898fc382e6d65af where the reference yields 0xe220a8397b1dcdaf.

    state  <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z      <- state
    z      <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z      <- ((z XOR (z >> 27)) * 0x94D49BBB133111EB) mod 2^64
    output <- z XOR (z >> 31)

With ``mix`` the z-transformation, output k (k = 1, 2, ...) after state s
is ``mix(s + k * 0x9E3779B97F4A7C15)``, so a block is computed at once.
An entry is ``2 * ((output >> 11) * 2^-53) - 1`` for the real part, then
the same from the next output for the imaginary part; matrices fill
row-major, so ``matrix(r, c)`` holds the bits of ``r`` consecutive
``vector(c)`` draws.

Substreams: stream ``k`` of seed ``s`` starts from the state
``mix(mix(s) + (k + 1) * 0xD1B54A32D192ED03)``, so independent trials
draw from sequences that depend only on ``(seed, k)``, never on
evaluation order. No transcendental functions are used, so streams are
stable across platforms and libm versions.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_STREAM_GAMMA = 0xD1B54A32D192ED03
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D49BBB133111EB
_GAMMA_U64, _M1_U64, _M2_U64 = (np.uint64(v) for v in (_GAMMA, _M1, _M2))


def mix64(z: int) -> int:
    """Output transformation of the stream."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return (z ^ (z >> 31)) & _MASK


def substream(seed: int, k: int) -> int:
    """Seed of the k-th substream of ``seed`` (pure function of both)."""
    return mix64((mix64(seed) + ((k + 1) * _STREAM_GAMMA)) & _MASK)


class Rng:
    """Counter-based stream of complex entries in [-1, 1) + i[-1, 1)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def _entries(self, count: int) -> np.ndarray:
        # every step is an array op: uint64 arrays wrap mod 2^64 silently
        z = np.arange(1, 2 * count + 1, dtype=np.uint64)
        z *= _GAMMA_U64
        z += np.uint64(self._state)
        z ^= z >> 30
        z *= _M1_U64
        z ^= z >> 27
        z *= _M2_U64
        z ^= z >> 31
        self._state = (self._state + 2 * count * _GAMMA) & _MASK
        u = (z >> 11).astype(np.float64)
        u *= 2.0**-52  # 2 * (x * 2^-53) - 1, exactly: both scalings are powers of two
        u -= 1.0
        return u.view(np.complex128)

    def vector(self, dim: int) -> np.ndarray:
        return self._entries(dim)

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        return self._entries(rows * cols).reshape(rows, cols)
