import numpy as np
import pytest

from dst.adjoint import banach_operator, h_polar
from dst.ensembles import Ensemble, generate
from dst.errors import DimensionMismatch, NotSquare
from dst.kuelbs import LpSpace, build_kuelbs
from dst.linalg import herm, hermitian_eigen, svd
from dst.polar import intertwining_check, isometry_from_svd, polar_decompose, polar_from_svd
from dst.rng import Rng


def test_identity():
    p = polar_decompose(np.eye(3, dtype=complex))
    assert np.allclose(p.U, np.eye(3))
    assert np.allclose(p.T, np.eye(3))
    assert p.rank == 3


def test_negative_diagonal():
    a = np.diag([-2.0, -1.0]).astype(complex)
    p = polar_decompose(a)
    assert np.allclose(p.T, np.diag([2.0, 1.0]))
    assert np.allclose(p.U, np.diag([-1.0, -1.0]))
    assert np.allclose(p.U @ p.T, a)


def test_nilpotent_shift():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    p = polar_decompose(a)
    assert np.allclose(p.T, np.diag([0.0, 1.0]))
    assert p.rank == 1
    # U*U is the projector onto range(T), not the identity
    assert np.allclose(herm(p.U) @ p.U, np.diag([0.0, 1.0]))
    assert np.allclose(p.U @ p.T, a)
    assert np.allclose(p.Tbar, np.diag([1.0, 0.0]))


def test_zero_matrix():
    p = polar_decompose(np.zeros((3, 3), dtype=complex))
    assert p.rank == 0
    assert np.allclose(p.U, 0.0)


def test_reconstructions_and_spectra_random():
    for seed in (11, 12, 13):
        a = Rng(seed).matrix(8, 8)
        p = polar_decompose(a)
        scale = np.linalg.norm(a)
        assert np.linalg.norm(a - p.U @ p.T) <= 1e-12 * max(scale, 1.0)
        assert np.linalg.norm(a - p.Tbar @ p.U) <= 1e-12 * max(scale, 1.0)
        # T, Tbar share a spectrum
        st = hermitian_eigen(p.T).values
        sb = hermitian_eigen(p.Tbar).values
        assert np.allclose(st, sb, atol=1e-10)
        # full-rank input: U unitary
        assert np.linalg.norm(herm(p.U) @ p.U - np.eye(8)) <= 1e-10
        assert np.linalg.norm(p.U @ herm(p.U) - np.eye(8)) <= 1e-10
        # Tbar U = U T
        assert np.linalg.norm(p.Tbar @ p.U - p.U @ p.T) <= 1e-10 * (1 + scale)


def test_projector_properties_rank_deficient():
    rng = Rng(21)
    b = rng.matrix(6, 3)
    c = rng.matrix(3, 6)
    a = b @ c
    p = polar_decompose(a)
    assert p.rank == 3
    proj = herm(p.U) @ p.U
    assert np.linalg.norm(proj @ proj - proj) <= 1e-12
    assert np.linalg.norm(proj - herm(proj)) <= 1e-12
    assert np.trace(proj).real == pytest.approx(3.0, abs=1e-10)
    # U vanishes on ker(T): U (I - proj) = 0
    assert np.linalg.norm(p.U @ (np.eye(6) - proj)) <= 1e-12


def test_uniqueness_against_inverse_route():
    # independent construction for full-rank A: T = (A*A)^(1/2) by
    # eigendecomposition, U = A inv(T)
    a = Rng(31).matrix(7, 7)
    p = polar_decompose(a)
    es = hermitian_eigen(herm(a) @ a)
    t_alt = (es.vectors * np.sqrt(np.maximum(es.values, 0.0))) @ herm(es.vectors)
    u_alt = a @ np.linalg.inv(t_alt)
    assert np.linalg.norm(p.T - t_alt) <= 1e-9 * (1 + np.linalg.norm(t_alt))
    assert np.linalg.norm(p.U - u_alt) <= 1e-9


def test_intertwining():
    a = np.diag([-2.0, -1.0]).astype(complex)
    assert intertwining_check(polar_decompose(a), a) <= 1e-14
    h = Rng(41).matrix(5, 5)
    h = (h + herm(h)) / 2.0
    assert intertwining_check(polar_decompose(h), h) <= 1e-12
    g = Rng(42).matrix(8, 8)
    assert intertwining_check(polar_decompose(g), g) <= 1e-10


def test_errors():
    with pytest.raises(NotSquare):
        polar_decompose(np.ones((2, 3), dtype=complex))
    with pytest.raises(NotSquare):
        polar_from_svd(svd(np.ones((2, 3), dtype=complex)))
    p = polar_decompose(np.eye(2, dtype=complex))
    with pytest.raises(DimensionMismatch):
        intertwining_check(p, np.eye(3, dtype=complex))


@pytest.mark.parametrize("n", [16, 64])
def test_isometry_keeps_the_leading_singular_vectors(n):
    rankdef, = generate(Ensemble("rankdef", n, 1, 9, rank=n // 2))
    general, = generate(Ensemble("general", n, 1, 9))
    for a, expected_rank in ((rankdef, n // 2), (general, n)):
        dec = svd(a)
        u, rank, _, threshold = isometry_from_svd(dec)
        assert rank == expected_rank
        keep = dec.sigma > threshold  # the kept columns, selected by mask
        assert np.array_equal(u, dec.left[:, keep] @ herm(dec.right[:, keep]))


def _parent_t(dec) -> np.ndarray:
    """T = V S V*, hermitized, as formed eagerly from the SVD."""
    t = (dec.right * dec.sigma[..., None, :]) @ herm(dec.right)
    return (t + herm(t)) / 2.0


@pytest.mark.parametrize("kind", ["general", "rankdef"])
@pytest.mark.parametrize("count", [1, 3], ids=["single", "stack"])
def test_t_formed_on_first_read_is_the_eager_t(kind, count):
    stack = generate(Ensemble(kind, 12, count, 51, rank=5 if kind == "rankdef" else None))
    a = stack[0] if count == 1 else stack
    dec = svd(a)
    p = polar_decompose(a)
    assert np.array_equal(p.sigma, dec.sigma) and np.array_equal(p.V, dec.right)
    assert p.metric is None and "T" not in vars(p)  # not formed yet
    t = p.T
    assert np.array_equal(t, _parent_t(dec))
    assert p.T is t  # a second read returns the same array
    for arr in (t, p.U, p.Tbar, p.sigma, p.V):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


@pytest.mark.parametrize("kind", ["general", "rankdef"])
@pytest.mark.parametrize("count", [1, 3], ids=["single", "stack"])
@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
def test_h_polar_t_formed_on_first_read_is_the_pulled_back_eager_t(kind, count, dense):
    rng = Rng(52)
    emb = build_kuelbs(LpSpace(12, 3.0), seeds=[rng.vector(12) for _ in range(14)] if dense else None)
    stack = generate(Ensemble(kind, 12, count, 53, rank=5 if kind == "rankdef" else None))
    a = stack[0] if count == 1 else stack
    m = emb.metric
    dec = svd(m.to_frame(a))
    gp = h_polar(banach_operator(a, emb))
    assert gp.metric is m and "T" not in vars(gp)
    assert np.array_equal(gp.sigma, dec.sigma) and np.array_equal(gp.V, dec.right)
    t = gp.T
    assert np.array_equal(t, m.from_frame(_parent_t(dec)))
    assert gp.T is t
    with pytest.raises(ValueError):
        t[(0,) * t.ndim] = 1.0
