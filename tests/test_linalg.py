import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dst.errors import InvalidP, NotHermitian, NotSquare
from dst.linalg import herm, hermitian_eigen, norm, svd, vnorm
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
    assert norm(a, "operator2") >= norm(a, "frobenius") / math.sqrt(6) - 1e-12


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
