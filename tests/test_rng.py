import numpy as np
import pytest

from dst.rng import Rng, substream

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def reference_outputs(seed: int, count: int) -> tuple[list[int], int]:
    """The stream one output at a time, in plain Python integers."""
    state = seed & MASK
    out = []
    for _ in range(count):
        state = (state + GAMMA) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D49BBB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out, state


def reference_entries(seed: int, count: int) -> tuple[np.ndarray, int]:
    outputs, state = reference_outputs(seed, 2 * count)
    sym = [2.0 * ((x >> 11) * 2.0**-53) - 1.0 for x in outputs]
    entries = [complex(re, im) for re, im in zip(sym[0::2], sym[1::2])]
    return np.array(entries, dtype=np.complex128), state


def test_known_answer():
    # not reference SplitMix64 (which starts 0xe220a8397b1dcdaf): the second
    # multiplier differs from the published one, and the streams keep it
    first = [0x4898FC382E6D65AF, 0xF64D5E6B91D2E5F4, 0x69FC71185E791D4F]
    assert reference_outputs(0, 3)[0] == first
    v = Rng(0).vector(2)
    doubles = [v[0].real, v[0].imag, v[1].real]
    assert doubles == [2.0 * ((x >> 11) * 2.0**-53) - 1.0 for x in first]


@pytest.mark.parametrize("seed", [0, 1, 42, MASK])
@pytest.mark.parametrize("n", [1, 2, 3, 16, 256])
def test_blocks_match_the_scalar_stream(seed, n):
    rng = Rng(seed)
    v = rng.vector(n)
    m = rng.matrix(3, n)
    want, end = reference_entries(seed, 4 * n)
    assert v.tobytes() == want[:n].tobytes()
    assert m.shape == (3, n)
    assert m.tobytes() == want[n:].tobytes()
    assert rng._state == end


def test_matrix_rows_are_consecutive_vectors():
    a, b = Rng(7), Rng(7)
    rows = a.matrix(4, 5)
    for row in rows:
        assert row.tobytes() == b.vector(5).tobytes()
    assert a._state == b._state


@pytest.mark.parametrize("seed", [0, 1, 42, MASK])
@pytest.mark.parametrize("offset", [0, 40_000])
@pytest.mark.parametrize("count", [1, 20])
@pytest.mark.parametrize("shape", [(3, 4), (2, 8 * 4)])  # a probe block; rankdef's (2, n r) at n = 8, r = 4
def test_stacked_substreams_are_the_scalar_streams(seed, offset, count, shape):
    ks = offset + np.arange(count)
    stacked = Rng(substream(seed, ks))
    got = stacked.matrix(*shape)
    alone = [Rng(substream(seed, int(k))) for k in ks]
    want = np.stack([rng.matrix(*shape) for rng in alone])
    assert got.shape == (count, *shape)
    assert got.tobytes() == want.tobytes()
    assert stacked._state.tolist() == [int(rng._state) for rng in alone]
    assert substream(seed, ks).tolist() == [substream(seed, int(k)) for k in ks]
    # and the streams go on as they would alone
    assert stacked.vector(5).tobytes() == np.stack([rng.vector(5) for rng in alone]).tobytes()


def test_substream_of_an_index_is_the_mixed_seed():
    # mix(mix(s) + (k + 1) * 0xD1B54A32D192ED03), the README's formula, in plain integers
    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D49BBB133111EB) & MASK
        return z ^ (z >> 31)

    for seed, k in [(0, 0), (42, 7), (MASK, 2**32 - 1), (-1, 3)]:
        want = mix((mix(seed & MASK) + (k + 1) * 0xD1B54A32D192ED03) & MASK)
        assert substream(seed, k) == want
        assert type(substream(seed, k)) is int


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", [np.int64, np.uint64, np.int32, np.uint8])
def test_numpy_integer_scalars_are_taken_as_python_ints(kind):
    # seed 7 and index 3, each as a numpy scalar, alone or together; a
    # negative index takes the signed kinds through the same arithmetic
    want = substream(7, 3)
    for seed, k in [(kind(7), 3), (7, kind(3)), (kind(7), kind(3))]:
        assert substream(seed, k) == want and type(substream(seed, k)) is int
    if np.issubdtype(kind, np.signedinteger):
        assert substream(kind(-1), kind(-5)) == substream(-1, -5)
