import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest

from dst.errors import DimensionMismatch, ParseError
from dst.fileio import (
    digest,
    dump_json,
    load_matrix,
    matrix_from_obj,
    matrix_to_obj,
    measure_to_obj,
    save_report,
    write_json,
)
from dst.rng import Rng
from dst.polar import polar_decompose
from dst.spectral import deform
from dst.suites import CaseResult, Report, SuiteConfig, run_suite


def test_json_roundtrip(tmp_path):
    m = Rng(301).matrix(8, 8)
    path = tmp_path / "a.json"
    path.write_text(dump_json(matrix_to_obj(m)))
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


def test_digest_of_a_stack_is_the_digest_of_each_matrix():
    # a transposed (non-contiguous) stack with signed zeros and subnormals
    stack = Rng(305).matrix(4, 15).reshape(4, 3, 5).swapaxes(1, 2)
    stack[0, 0, 0] = complex(-0.0, 5e-324)
    stack[2, 4, 1] = complex(2.2e-308, -0.0)
    stack[3] = -0.0
    got = digest(stack)
    assert got == [digest(m) for m in stack]
    assert got == [digest(np.ascontiguousarray(m)) for m in stack]
    assert len(set(got)) == 4
    with pytest.raises(DimensionMismatch):
        digest(stack[0, 0])


def test_measure_serialization():
    p = polar_decompose(np.diag([-2.0, -1.0]).astype(complex))
    obj = measure_to_obj(p)
    assert sorted(obj) == ["atoms", "dim", "source_atoms", "support", "u"]
    assert obj["dim"] == 2
    assert obj["support"] == [1.0, 2.0]
    assert obj["u"] == matrix_to_obj(p.U)
    assert obj["source_atoms"] == [{"lambda": lam, "p": matrix_to_obj(e)} for lam, e in p.source.atoms]
    # atom j of F is w v* of the SVD's pair j from the last, bit for bit,
    # and that of deform(U, E_T) to roundoff
    want = deform(p.U, p.source, support_tol=p.threshold).atoms
    assert len(obj["atoms"]) == len(want) == 2
    for j, (atom, (lam, ref)) in enumerate(zip(obj["atoms"], want)):
        df = np.outer(p.W[:, 1 - j], p.V[:, 1 - j].conj())
        assert atom == {"lambda": lam, "df": matrix_to_obj(df)}
        assert np.abs(df - ref).max() <= 16 * np.finfo(np.float64).eps
    # canonical text is stable
    assert dump_json(obj) == dump_json(measure_to_obj(p))


def _small_report(**kwargs) -> Report:
    return run_suite("all", SuiteConfig(dims=(2,), trials=1, seed=7), **kwargs)


def _nonfinite_report() -> Report:
    cases = (
        CaseResult("s/n2/t1", "d1", {"b": float("inf"), "a": 1.0}, {"b": ("<=", 1e-9), "a": ("<=", 1e-9)}, ("b",)),
        CaseResult("s/n2/t0", "d0", {"b": 0.5, "a": float("nan")}, {"b": ("<=", 1e-9), "a": ("<=", 1e-9)}, ("a",)),
    )
    return Report("s", 7, {}, cases)


@pytest.mark.parametrize(
    "make_report",
    [lambda: _small_report(timestamp="2026-01-02T03:04:05+00:00"), _nonfinite_report],
    ids=["timestamp", "nonfinite"],
)
def test_save_report_writes_what_dump_json_returns(make_report, tmp_path):
    obj = make_report().to_obj()
    path = tmp_path / "report.json"
    save_report(obj, str(path))
    text = dump_json(obj)
    assert path.read_bytes() == text.encode("utf-8")
    # the canonical form: sorted keys, two-space indent, trailing newline
    assert text == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def large_report_obj() -> dict:
    small = _small_report()
    cases = small.cases * -(-2000 // len(small.cases))
    assert len(cases) >= 2000
    return Report(small.suite, small.seed, small.config, cases).to_obj()


def test_write_json_streams_in_bounded_memory(large_report_obj, tmp_path):
    path = tmp_path / "report.json"
    with open(path, "w", encoding="utf-8") as fh:
        peak = _peak_bytes(write_json, large_report_obj, fh)
    size = path.stat().st_size
    assert peak < size / 4, (peak, size)
    assert path.read_text(encoding="utf-8") == dump_json(large_report_obj)


def test_save_report_holds_about_two_copies_of_the_text(large_report_obj, tmp_path):
    # the pieces and the joined text; one string per encoder token took 6x
    path = tmp_path / "report.json"
    peak = _peak_bytes(save_report, large_report_obj, str(path))
    size = path.stat().st_size
    assert peak < 2.5 * size, (peak, size)
    assert path.read_text(encoding="utf-8") == dump_json(large_report_obj)
