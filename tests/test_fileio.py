import hashlib
import struct

import numpy as np
import pytest

from dst.errors import ParseError
from dst.fileio import (
    digest,
    dump_json,
    load_matrix,
    matrix_from_obj,
    matrix_to_obj,
    measure_to_obj,
    save_matrix,
)
from dst.rng import Rng
from dst.spectral import deformed_of


def test_json_roundtrip(tmp_path):
    m = Rng(301).matrix(8, 8)
    path = tmp_path / "a.json"
    save_matrix(m, str(path))
    back = load_matrix(str(path))
    assert np.array_equal(m, back)


def test_obj_roundtrip():
    m = Rng(302).matrix(3, 5)
    assert np.array_equal(matrix_from_obj(matrix_to_obj(m)), m)


def test_matrix_market_array(tmp_path):
    text = "\n".join(
        [
            "%%MatrixMarket matrix array real general",
            "% a comment",
            "2 3",
            "1", "2", "3", "4", "5", "6",
        ]
    )
    path = tmp_path / "m.mtx"
    path.write_text(text + "\n")
    m = load_matrix(str(path))
    # array files are column-major
    assert np.array_equal(m.real, np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]))
    assert np.all(m.imag == 0.0)


def test_matrix_market_coordinate(tmp_path):
    text = "\n".join(
        [
            "%%MatrixMarket matrix coordinate real general",
            "3 3 2",
            "1 2 5.0",
            "3 1 -1.5",
        ]
    )
    path = tmp_path / "m.mtx"
    path.write_text(text + "\n")
    m = load_matrix(str(path))
    expect = np.zeros((3, 3))
    expect[0, 1] = 5.0
    expect[2, 0] = -1.5
    assert np.array_equal(m.real, expect)


def test_matrix_market_write_roundtrip(tmp_path):
    m = np.array([[1.0, -2.0], [0.5, 3.0]], dtype=complex)
    path = tmp_path / "w.mtx"
    save_matrix(m, str(path))
    assert np.array_equal(load_matrix(str(path)), m)


def test_matrix_market_rejects_complex(tmp_path):
    with pytest.raises(ParseError):
        save_matrix(np.array([[1j]]), str(tmp_path / "c.mtx"))


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": 2, "cols":')
    with pytest.raises(ParseError) as err:
        load_matrix(str(bad))
    assert err.value.line is not None

    bad2 = tmp_path / "bad2.json"
    bad2.write_text('{"rows": 2, "cols": 2, "entries": [[1, 0]]}')
    with pytest.raises(ParseError):
        load_matrix(str(bad2))

    bad3 = tmp_path / "junk.txt"
    bad3.write_text("not a matrix")
    with pytest.raises(ParseError):
        load_matrix(str(bad3))

    mm = tmp_path / "bad.mtx"
    mm.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 0\n")
    with pytest.raises(ParseError):
        load_matrix(str(mm))


def test_digest_stability():
    m = Rng(303).matrix(4, 4)
    assert digest(m) == digest(m.copy())
    other = m.copy()
    other[0, 0] += 1e-15
    assert digest(m) != digest(other)
    # byte layout: shape header, then (re, im) little-endian doubles in row-major order
    t = Rng(304).matrix(3, 5).T  # Fortran-ordered view
    t[0, 0], t[1, 2] = complex(-0.0, 5e-324), complex(2.2e-308, -0.0)
    ref = hashlib.sha256(struct.pack("<qq", *t.shape))
    for z in t.ravel(order="C"):
        ref.update(struct.pack("<dd", float(z.real), float(z.imag)))
    assert digest(t) == ref.hexdigest()[:16]


def test_measure_serialization():
    f = deformed_of(np.diag([-2.0, -1.0]).astype(complex))
    obj = measure_to_obj(f)
    assert obj["dim"] == 2
    assert obj["support"] == [1.0, 2.0]
    assert len(obj["atoms"]) == len(f.atoms)
    # canonical text is stable
    assert dump_json(obj) == dump_json(measure_to_obj(f))
