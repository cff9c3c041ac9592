import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dst.errors import InvalidInput, InvalidP, NotHermitian, NotSquare, ToolkitError
from dst.kuelbs import lp_operator_norm
from dst.linalg import abs_norm, fro, gram_inner_rows, gram_norm_rows, herm, hermitian_eigen, svd, vnorm
from dst.polar import polar_decompose
from dst.rng import Rng


def random_hermitian(n, seed=1):
    r = Rng(seed).matrix(n, n)
    return (r + herm(r)) / 2.0


def test_eigen_identity():
    es = hermitian_eigen(np.eye(2, dtype=complex))
    assert np.allclose(es.values, [1.0, 1.0])
    assert np.allclose(es.vectors @ herm(es.vectors), np.eye(2))


def test_eigen_diagonal():
    es = hermitian_eigen(np.diag([-2.0, -1.0]).astype(complex))
    assert np.allclose(es.values, [-2.0, -1.0])
    assert np.allclose(np.abs(es.vectors), np.eye(2))


def test_eigen_residual_random():
    m = random_hermitian(8)
    es = hermitian_eigen(m)
    resid = np.linalg.norm(m @ es.vectors - es.vectors * es.values)
    assert resid <= 1e-11 * np.linalg.norm(m)
    # orthonormality and reconstruction
    assert np.linalg.norm(herm(es.vectors) @ es.vectors - np.eye(8)) <= 1e-12 * 8
    assert np.linalg.norm(es.reconstruct() - m) <= 1e-11 * 8 * np.linalg.norm(m, 2)


def test_eigen_rejections():
    with pytest.raises(NotSquare):
        hermitian_eigen(np.ones((2, 3), dtype=complex))
    with pytest.raises(NotHermitian):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_svd_zero_and_diagonal():
    z = svd(np.zeros((3, 3), dtype=complex))
    assert np.allclose(z.sigma, 0.0)
    d = svd(np.diag([3.0, 4.0]).astype(complex))
    assert np.allclose(d.sigma, [4.0, 3.0])


def test_svd_against_eigen_oracle():
    m = Rng(3).matrix(5, 3)
    dec = svd(m)
    # sigma^2 equal eigenvalues of M*M (independent route)
    evals = hermitian_eigen(herm(m) @ m).values
    assert np.allclose(np.sort(dec.sigma**2), np.sort(evals), atol=1e-10)
    resid = np.linalg.norm(dec.reconstruct() - m)
    assert resid <= 1e-12 * 5 * np.linalg.norm(m, 2)


def test_svd_eigen_agree_on_psd():
    r = Rng(4).matrix(6, 6)
    m = r @ herm(r)
    m = (m + herm(m)) / 2.0
    sig = svd(m).sigma
    ev = hermitian_eigen(m).values
    assert np.allclose(np.sort(sig), np.sort(np.abs(ev)), atol=1e-10)


def test_vnorm_examples():
    assert vnorm([3.0, 4.0], 2) == pytest.approx(5.0)
    assert vnorm([1.0, 1.0, 1.0, 1.0], 1) == pytest.approx(4.0)
    assert vnorm([1.0, -7.0, 2.0], math.inf) == pytest.approx(7.0)
    with pytest.raises(InvalidP):
        vnorm([1.0], 0.5)


def test_operator2_vs_frobenius():
    a = Rng(8).matrix(6, 6)
    assert np.linalg.norm(a, 2) >= np.linalg.norm(a) / math.sqrt(6) - 1e-12


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
    st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
)
def test_vnorm_axioms(xs, ys, p):
    n = min(len(xs), len(ys))
    x = np.array(xs[:n], dtype=complex)
    y = np.array(ys[:n], dtype=complex)
    nx, ny, nxy = vnorm(x, p), vnorm(y, p), vnorm(x + y, p)
    assert nxy <= nx + ny + 1e-9 * (1 + nx + ny)
    assert vnorm(2.5 * x, p) == pytest.approx(2.5 * nx, rel=1e-12, abs=1e-12)
    if nx == 0.0:
        assert np.all(x == 0)


def _per_vector_abs_norm(a, p):
    """The one-vector form of abs_norm, kept as an oracle for the block form."""
    if p == math.inf:
        return float(a.max())
    if p == 1:
        return float(a.sum())
    top = float(a.max())
    if top == 0.0:
        return 0.0
    b = a / top
    if p == 2:
        return float(top * math.sqrt(float((b * b).sum())))
    return float(top * (((b**p).sum()) ** (1.0 / p)))


@pytest.mark.parametrize("p", [1, 1.1, 1.5, 2, 3, 8, math.inf])
@pytest.mark.parametrize("n", [1, 2, 9, 200])
def test_abs_norm_block_matches_each_row_bit_for_bit(n, p):
    block = np.abs(Rng(1000 + n).matrix(12, n))
    block[3] = 0.0  # a zero row
    block[5, : (n + 1) // 2] = 0.0
    block[7] *= 1e300
    block[8] *= 1e-300
    rows = abs_norm(block, p)
    assert rows.shape == (12,)
    for row, got in zip(block, rows):
        want = _per_vector_abs_norm(row, p)
        assert float(got).hex() == want.hex()
        assert abs_norm(row, p).hex() == want.hex()
    assert abs_norm(block.reshape(3, 4, n), p).tobytes() == rows.reshape(3, 4).tobytes()  # a stack of blocks


def test_gram_rows_match_per_vector_forms():
    rng = Rng(21)
    r = rng.matrix(5, 5)
    gram = r @ herm(r) + np.eye(5)
    us, vs = rng.matrix(4, 5), rng.matrix(4, 5)
    inner = gram_inner_rows(gram, us, vs)
    norms = gram_norm_rows(gram, us)
    for u, v, got, nrm in zip(us, vs, inner, norms):
        assert got == pytest.approx(np.vdot(v, gram @ u), rel=1e-14)
        assert nrm == pytest.approx(math.sqrt(np.vdot(u, gram @ u).real), rel=1e-14)


def test_herm_of_a_stack_is_the_herm_of_each_matrix():
    stack = Rng(5).matrix(3 * 4, 5).reshape(3, 4, 5)
    out = herm(stack)
    assert out.shape == (3, 5, 4)
    assert all(np.array_equal(out[k], stack[k].conj().T) for k in range(3))
    m = stack[0]  # a 2-D result keeps its values and its layout
    assert np.array_equal(herm(m), m.conj().T) and herm(m).strides == m.conj().T.strides


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_stacked_lapack_calls_equal_the_calls_per_matrix(n):
    # the suites' premise: one call on a (20, n, n) stack is the loop of
    # single calls, bit for bit, and fro is np.linalg.norm of each matrix
    a = Rng(n).matrix(20 * n, n).reshape(20, n, n)
    b = Rng(n + 100).matrix(20 * n, n).reshape(20, n, n)
    h = (a + herm(a)) / 2.0
    w, s, vh = np.linalg.svd(a)
    x = np.linalg.solve(a, b)
    evals, evecs = np.linalg.eigh(h)
    norms = fro(a)
    for k in range(20):
        for got, want in zip((w[k], s[k], vh[k]), np.linalg.svd(a[k])):
            assert np.array_equal(got, want)
        assert np.array_equal(x[k], np.linalg.solve(a[k], b[k]))
        for got, want in zip((evals[k], evecs[k]), np.linalg.eigh(h[k])):
            assert np.array_equal(got, want)
        assert norms[k] == np.linalg.norm(a[k]) == fro(a[k])


def test_svd_and_eigen_of_a_stack_are_those_of_each_matrix():
    a = Rng(9).matrix(4 * 5, 5).reshape(4, 5, 5)
    dec, es = svd(a), hermitian_eigen(a @ herm(a))
    for k in range(4):
        one = svd(a[k])
        for field in ("left", "sigma", "right"):
            assert np.array_equal(getattr(dec, field)[k], getattr(one, field))
        assert np.array_equal(es.vectors[k], hermitian_eigen(a[k] @ herm(a[k])).vectors)
    assert np.allclose(dec.reconstruct(), a, atol=1e-13) and np.allclose(es.reconstruct(), a @ herm(a), atol=1e-12)
    with pytest.raises(NotHermitian):  # one bad matrix refuses the stack
        hermitian_eigen(np.stack([a[0] @ herm(a[0]), a[1]]))


NAN_MATRIX = [[math.nan, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize(
    "call",
    [
        lambda: lp_operator_norm(NAN_MATRIX, 3.0),
        lambda: polar_decompose(NAN_MATRIX),
        lambda: vnorm([1.0, math.inf], 2.0),
        lambda: vnorm([math.nan, 0.0], 3.0),
    ],
    ids=["lp_operator_norm", "polar_decompose", "vnorm-inf", "vnorm-nan"],
)
def test_a_non_finite_entry_raises_a_toolkit_error(call):
    with pytest.raises(ToolkitError) as info:
        call()
    assert isinstance(info.value, InvalidInput) and isinstance(info.value, ValueError)
