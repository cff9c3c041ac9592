import sys

import numpy as np
import pytest

from dst.adjoint import banach_operator, h_polar
from dst.config import DEFAULT
from dst.ensembles import Ensemble, generate
from dst.errors import DimensionMismatch, NotSquare
from dst.kuelbs import LpSpace, build_kuelbs
from dst.linalg import as_stack, herm, hermitian_eigen, svd
from dst.polar import intertwining_check, polar_decompose
from dst.rng import Rng
from dst.spectral import PolarDecomposition, SpectralMeasure, _cluster, deform, deformed_of


EPS = float(np.finfo(np.float64).eps)


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
        PolarDecomposition.from_svd(svd(np.ones((2, 3), dtype=complex)))
    p = polar_decompose(np.eye(2, dtype=complex))
    with pytest.raises(DimensionMismatch):
        intertwining_check(p, np.eye(3, dtype=complex))


@pytest.mark.parametrize("n", [16, 64])
def test_isometry_keeps_the_leading_singular_vectors(n):
    rankdef, = generate(Ensemble("rankdef", n, 1, 9, rank=n // 2))
    general, = generate(Ensemble("general", n, 1, 9))
    for a, expected_rank in ((rankdef, n // 2), (general, n)):
        dec = svd(a)
        p = PolarDecomposition.from_svd(dec)
        assert p.rank == expected_rank
        keep = dec.sigma > p.threshold  # the kept columns, selected by mask
        assert np.array_equal(p.U, dec.left[:, keep] @ herm(dec.right[:, keep]))


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
    assert p.T is not t and np.array_equal(p.T, t)  # each read forms it anew
    assert "T" not in vars(p)  # and the decomposition does not keep it
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
    assert gp.T is not t and "T" not in vars(gp)  # the operator's memo does not keep T
    with pytest.raises(ValueError):
        t[(0,) * t.ndim] = 1.0


def _parent_views(dec, tols=DEFAULT, metric=None) -> dict:
    """U, Tbar, T, E_T and F of one SVD, each restated from W, S and V: the
    rank cut and U of the former ``isometry_from_svd``, the Tbar of
    ``polar_from_svd``, E_T of ``deformation_from_svd``, F = (W, V*) in
    ascending order with the columns at or below the rank cut set to 0,
    and for an H-polar the pull-backs of ``h_polar``, the factors of E_T
    and of F pulled back once each."""
    rel = tols.rank_threshold_rel(dec.sigma.shape[-1])
    threshold = rel * dec.sigma[..., 0]
    rank = np.count_nonzero(dec.sigma > threshold[..., None], axis=-1)
    if rank.ndim == 0:
        threshold, rank = float(threshold), int(rank)
    if np.all(rank == np.max(rank)):
        r = int(np.max(rank))
        u = dec.left[..., :r] @ herm(dec.right[..., :r])
    else:
        u = np.stack([w[:, :r] @ herm(v[:, :r]) for w, v, r in zip(dec.left, dec.right, rank.tolist())])
    tbar = (dec.left * dec.sigma[..., None, :]) @ herm(dec.left)
    tbar = (tbar + herm(tbar)) / 2.0
    n = dec.sigma.shape[-1]
    vecs = np.ascontiguousarray(dec.right[..., ::-1])
    values = _cluster(dec.sigma[..., ::-1], tols.cluster_tol(), cut=n - rank)
    # column j of the ascending order is column n-1-j of the SVD, kept when n-1-j < rank
    w = np.array(dec.left[..., ::-1])
    for k, r in enumerate(np.atleast_1d(rank).tolist()):
        w.reshape(-1, n, n)[k, :, : n - r] = 0.0
    left, right, f_left, f_right = vecs, herm(vecs), w, herm(vecs)
    t = _parent_t(dec)
    if metric is not None:
        u, tbar, t = metric.from_frame(u), metric.from_frame(tbar), metric.from_frame(t)
        left, right = metric.from_frame_factors(left, right)
        f_left, f_right = metric.from_frame_factors(f_left, f_right)
    source = SpectralMeasure(values=values, left=left, right=right)
    measure = SpectralMeasure(values=values, left=f_left, right=f_right, support_tol=threshold)
    return {"U": u, "Tbar": tbar, "T": t, "source": source, "measure": measure, "rank": rank, "threshold": threshold}


def _assert_same_measure(got, want):
    for name in ("values", "left", "right", "support_tol"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _assert_measure_is_the_deformed_source(p):
    """F against its reference deform(U, E_T): the values, atoms, support
    and right factor bit for bit, the left factor to roundoff (16 eps per
    entry in the Euclidean metric, 1e-13 relative Frobenius when pulled
    back through a Gram metric)."""
    got, want = p.measure, deform(p.U, p.source, support_tol=p.threshold, tols=p.tols)
    assert np.array_equal(got.values, want.values) and np.array_equal(got.right, want.right)
    assert (got.bounds, got.support) == (want.bounds, want.support)
    gap = np.abs(got.left - want.left)
    if p.metric is None:
        assert gap.max() <= 16 * EPS
    else:
        assert np.linalg.norm(gap) <= 1e-13 * np.linalg.norm(want.left)


def _assert_views_are_the_parents(p, dec, metric=None):
    want = _parent_views(dec, metric=metric)
    assert np.array_equal(p.rank, want["rank"]) and np.array_equal(p.threshold, want["threshold"])
    for name in ("source", "measure"):
        view = getattr(p, name)
        _assert_same_measure(view, want[name])
        assert all(not a.flags.writeable for a in (view.values, view.left, view.right))
        assert getattr(p, name) is not view  # built anew on each read, never kept on p
    assert [name for name in ("U", "Tbar", "T") if name in vars(p)] == []  # reading E_T or F forms none of them
    for name in ("U", "Tbar", "T"):
        view = getattr(p, name)
        assert np.array_equal(view, want[name]), name
        assert not view.flags.writeable, name
        # U and Tbar are cached: a second read returns the same array
        assert (getattr(p, name) is view) is (name != "T"), name
    _assert_measure_is_the_deformed_source(p)


def _draws_of(kind, count, seed):
    if kind == "mixed":  # ranks 5 and 12 in one stack
        return np.concatenate([generate(Ensemble("rankdef", 12, 2, seed, rank=5)),
                               generate(Ensemble("general", 12, 2, seed + 1))])
    stack = generate(Ensemble(kind, 12, count, seed, rank=5 if kind == "rankdef" else None))
    return stack[0] if count == 1 else stack


VIEW_CASES = [("general", 1), ("rankdef", 1), ("general", 3), ("rankdef", 3), ("mixed", 4)]
VIEW_IDS = ["general-single", "rankdef-single", "general-stack", "rankdef-stack", "mixed-rank-stack"]


@pytest.mark.parametrize("kind,count", VIEW_CASES, ids=VIEW_IDS)
def test_every_view_is_the_expression_of_the_separate_helpers(kind, count):
    a = _draws_of(kind, count, 54)
    p = polar_decompose(a)
    assert [name for name in ("U", "Tbar", "T") if name in vars(p)] == []  # nothing formed yet
    _assert_views_are_the_parents(p, svd(a))


@pytest.mark.parametrize("kind,count", VIEW_CASES, ids=VIEW_IDS)
@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
def test_every_h_polar_view_is_the_pulled_back_expression(kind, count, dense):
    rng = Rng(55)
    emb = build_kuelbs(LpSpace(12, 3.0), seeds=[rng.vector(12) for _ in range(14)] if dense else None)
    assert emb.metric.is_diagonal is not dense
    a = _draws_of(kind, count, 56)
    gp = h_polar(banach_operator(a, emb))
    assert gp.metric is emb.metric and gp.tols is DEFAULT
    _assert_views_are_the_parents(gp, svd(emb.metric.to_frame(a)), metric=emb.metric)


def test_measure_zeroes_the_kernel_columns_exactly():
    # U annihilates ker(T): the left factor's columns at or below the rank cut are exact zeros
    a, = generate(Ensemble("rankdef", 16, 1, 57, rank=8))
    p = polar_decompose(a)
    f = p.measure
    assert p.rank == 8 and f.values[7] <= p.threshold < f.values[8]
    assert np.all(f.left[:, :8] == 0.0) and np.all(np.any(f.left[:, 8:] != 0.0, axis=0))
    assert np.array_equal(f.left[:, 8:], p.W[:, 7::-1])


def test_one_validating_copy_per_decomposition(monkeypatch):
    # polar_decompose and deformed_of validate their input once, in svd
    calls = []

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return as_stack(*args, **kwargs)

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "dst"]
    bound = [m for m in modules if getattr(m, "as_stack", None) is as_stack]
    assert len(bound) >= 2  # linalg, which defines it, and every module that imports it
    for module in bound:
        monkeypatch.setattr(module, "as_stack", counting)
    a = _draws_of("general", 3, 59)
    polar_decompose(a)
    assert calls == [a.shape]
    deformed_of(a[0])
    assert calls == [a.shape, a.shape[1:]]
