import math
from dataclasses import replace

import numpy as np
import pytest

from dst.adjoint import (
    adjoint,
    adjoint_axioms,
    baire_approximant,
    baire_convergence_study,
    banach_deformed_spectral,
    banach_operator,
    dirichlet_laplacian,
    dirichlet_laplacian_demo,
    h_polar,
    intertwining_residual,
)
from dst.errors import BadGrid, DimensionMismatch, SingularGram
from dst.kuelbs import KuelbsEmbedding, LpSpace, build_kuelbs
from dst.linalg import herm, vnorm
from dst.polar import polar_decompose
from dst.rng import Rng
from dst.spectral import deformed_of, integrate


def hilbert_embedding(n):
    """Canonical l2 embedding with uniform weights: G = I/n."""
    return build_kuelbs(LpSpace(n, 2.0), weights=np.full(n, 1.0 / n))


def diag_embedding(diag_entries, p=3.0):
    n = len(diag_entries)
    emb = build_kuelbs(LpSpace(n, p))
    g = np.diag(np.asarray(diag_entries, dtype=np.complex128))
    return KuelbsEmbedding(
        space=emb.space,
        gram=g,
        dual_gram=np.linalg.inv(g),
        weights=emb.weights,
        seeds=emb.seeds,
        functionals=emb.functionals,
    )


def test_direct_embedding_carries_its_metric():
    emb = diag_embedding([1.0, 4.0])
    assert (emb.metric.eig_min, emb.metric.eig_max) == (1.0, 4.0)
    assert np.array_equal(emb.metric.chol, np.diag([1.0, 2.0]))
    with pytest.raises(SingularGram):
        replace(emb, gram=np.diag([1.0, 0.0]).astype(complex))


def test_adjoint_hilbert_case_is_hermitian_adjoint():
    emb = hilbert_embedding(4)
    r = Rng(201).matrix(4, 4)
    h = (r + herm(r)) / 2.0
    pair = adjoint(banach_operator(h, emb))
    assert np.allclose(pair.astar, h, atol=1e-12)


def test_adjoint_hand_case_diag_gram():
    emb = diag_embedding([1.0, 4.0])
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    pair = adjoint(banach_operator(a, emb))
    # inv(G) A^H G with G = diag(1, 4)
    assert np.allclose(pair.astar, np.array([[0.0, 0.0], [0.25, 0.0]]))
    # the defining contract on basis vectors is the ground truth
    basis = np.eye(2, dtype=complex)
    for i in range(2):
        for j in range(2):
            assert pair.contract_residual(basis[:, i], basis[:, j]) <= 1e-14


def test_adjoint_involution_random():
    emb = build_kuelbs(LpSpace(6, 3.0))
    a = Rng(202).matrix(6, 6)
    pair = adjoint(banach_operator(a, emb))
    second = adjoint(banach_operator(pair.astar, emb))
    assert np.linalg.norm(second.astar - a) <= 1e-10 * (1 + np.linalg.norm(a))


def test_adjoint_contract_random_pairs():
    emb = build_kuelbs(LpSpace(5, 1.5))
    a = Rng(203).matrix(5, 5)
    pair = adjoint(banach_operator(a, emb))
    rng = Rng(204)
    for _ in range(25):
        u, v = rng.vector(5), rng.vector(5)
        scale = 1 + np.linalg.norm(a) * np.linalg.norm(u) * np.linalg.norm(v)
        assert pair.contract_residual(u, v) <= 1e-10 * scale


def test_axioms_trivial_cases():
    emb = hilbert_embedding(3)
    zero_pair = adjoint(banach_operator(np.zeros((3, 3), dtype=complex), emb))
    ax0 = adjoint_axioms(zero_pair)
    assert ax0.accretive_min == pytest.approx(0.0, abs=1e-14)
    assert ax0.inverse_norm == pytest.approx(1.0, rel=1e-12)

    eye_pair = adjoint(banach_operator(np.eye(3, dtype=complex), emb))
    ax1 = adjoint_axioms(eye_pair)
    assert ax1.accretive_min == pytest.approx(1.0, rel=1e-12)
    assert ax1.inverse_norm == pytest.approx(0.5, rel=1e-12)


def test_axioms_random():
    rng = Rng(205)
    for p in (1.5, 3.0):
        emb = build_kuelbs(LpSpace(6, p))
        for _ in range(5):
            a = rng.matrix(6, 6)
            pair = adjoint(banach_operator(a, emb))
            ax = adjoint_axioms(pair, probes=[rng.vector(6) for _ in range(4)])
            assert ax.accretive_min >= -1e-10
            assert ax.natural_selfadjoint_residual <= 1e-10
            assert ax.inverse_norm <= 1.0 + 1e-10


def test_h_polar_reduces_to_euclidean_for_scalar_gram():
    emb = hilbert_embedding(5)
    a = Rng(206).matrix(5, 5)
    gp = h_polar(banach_operator(a, emb))
    p = polar_decompose(a)
    assert np.linalg.norm(gp.U - p.U) <= 1e-11
    assert np.linalg.norm(gp.T - p.T) <= 1e-11
    assert np.linalg.norm(gp.Tbar - p.Tbar) <= 1e-11


def test_h_polar_random_metric():
    emb = build_kuelbs(LpSpace(6, 3.0))
    a = Rng(207).matrix(6, 6)
    op = banach_operator(a, emb)
    gp = h_polar(op)
    scale = 1 + np.linalg.norm(a)
    assert np.linalg.norm(gp.U @ gp.T - a) <= 1e-10 * scale
    assert np.linalg.norm(gp.Tbar @ gp.U - a) <= 1e-10 * scale
    # T is selfadjoint and PSD for the metric: G T Hermitian with PSD frame
    gt = emb.gram @ gp.T
    assert np.linalg.norm(gt - herm(gt)) <= 1e-10 * (1 + np.linalg.norm(gt))
    ell = np.linalg.cholesky(emb.gram)
    t_frame = herm(ell) @ gp.T @ np.linalg.inv(herm(ell))
    evs = np.linalg.eigvalsh((t_frame + herm(t_frame)) / 2.0)
    assert evs[0] >= -1e-10
    # U is a metric partial isometry: U~ = inv(G) U^H G U is a projector
    u_star = np.linalg.solve(emb.gram, herm(gp.U) @ emb.gram)
    proj = u_star @ gp.U
    assert np.linalg.norm(proj @ proj - proj) <= 1e-9


def test_h_polar_negative_definite_h_selfadjoint():
    emb = build_kuelbs(LpSpace(4, 3.0))
    ell = np.linalg.cholesky(emb.gram)
    r = Rng(208).matrix(4, 4)
    h = r @ herm(r) + 0.5 * np.eye(4)
    neg = -np.linalg.solve(herm(ell), h @ herm(ell))  # H-selfadjoint, negative spectrum
    op = banach_operator(neg, emb)
    gp = h_polar(op)
    assert np.linalg.norm(gp.U @ gp.T - neg) <= 1e-10 * (1 + np.linalg.norm(neg))
    # T = -A in this case
    assert np.linalg.norm(gp.T + neg) <= 1e-9 * (1 + np.linalg.norm(neg))


def test_gram_metric_intertwining_full_rank():
    emb = build_kuelbs(LpSpace(5, 1.5))
    a = Rng(209).matrix(5, 5)
    op = banach_operator(a, emb)
    pair = adjoint(op)
    gp = h_polar(op)
    lhs = a @ pair.astar @ gp.U
    rhs = gp.U @ pair.astar @ a
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1 + np.linalg.norm(a) ** 2)


def test_baire_scalar_formula():
    emb = hilbert_embedding(2)
    a = np.diag([-2.0, -1.0]).astype(complex)
    probe = baire_approximant(banach_operator(a, emb), 10.0)
    expect = np.diag([10.0 * -2.0 / 12.0, 10.0 * -1.0 / 11.0])
    assert np.allclose(probe.a_lambda, expect, atol=1e-12)
    assert probe.identity_residual() <= 1e-12
    assert intertwining_residual(banach_operator(a, emb), probe) <= 1e-12


def test_baire_large_lambda_identity_limit():
    emb = hilbert_embedding(3)
    a = np.eye(3, dtype=complex)
    probe = baire_approximant(banach_operator(a, emb), 1e8)
    assert np.linalg.norm(probe.a_lambda - a) <= 1e-7


def test_baire_resolvent_contraction_and_error_bound():
    rng = Rng(210)
    for p in (1.5, 3.0):
        emb = build_kuelbs(LpSpace(5, p))
        a = rng.matrix(5, 5)
        op = banach_operator(a, emb)
        gp = h_polar(op)
        for lam in (1e1, 1e2, 1e3, 1e4):
            probe = baire_approximant(op, lam, gp=gp)
            # ||lam R||_H <= 1
            ell = np.linalg.cholesky(emb.gram)
            frame = herm(ell) @ (lam * probe.resolvent) @ np.linalg.inv(herm(ell))
            assert np.linalg.norm(frame, 2) <= 1.0 + 1e-10
            assert probe.identity_residual() <= 1e-10
            assert intertwining_residual(op, probe) <= 1e-10
            for _ in range(3):
                phi = rng.vector(5)
                err = emb.h_norm(probe.a_lambda @ phi - a @ phi)
                bound = emb.h_norm(gp.Tbar @ (a @ phi)) / lam
                assert err <= bound * (1 + 1e-6)


def test_baire_convergence_study():
    emb = build_kuelbs(LpSpace(4, 3.0))
    zero_op = banach_operator(np.zeros((4, 4), dtype=complex), emb)
    rows = baire_convergence_study(zero_op, [np.ones(4, dtype=complex)], (1e1, 1e2))
    assert all(r.max_error == 0.0 for r in rows)

    rng = Rng(211)
    a = rng.matrix(4, 4)
    op = banach_operator(a, emb)
    phis = [rng.vector(4) for _ in range(3)]
    rows = baire_convergence_study(op, phis, (1e1, 1e2, 1e3, 1e4))
    for row in rows:
        assert row.max_error <= row.bound
    # errors track the 10x decay within a factor of 2
    for prev, nxt in zip(rows, rows[1:]):
        ratio = nxt.max_error / prev.max_error
        assert 0.05 <= ratio <= 0.2

    with pytest.raises(ValueError):
        baire_convergence_study(op, phis, (1e2, 1e1))
    with pytest.raises(ValueError):
        baire_convergence_study(op, phis, (1e1, 1e9))
    with pytest.raises(ValueError):
        baire_convergence_study(op, phis, (math.nan, 1e1))


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_baire_approximant_rejects_bad_lambda(lam):
    op = banach_operator(Rng(213).matrix(3, 3), hilbert_embedding(3))
    with pytest.raises(ValueError):
        baire_approximant(op, lam)


def test_banach_deformed_hilbert_specialization():
    emb = hilbert_embedding(5)
    a = Rng(212).matrix(5, 5)
    res = banach_deformed_spectral(banach_operator(a, emb))
    plain = deformed_of(a)
    assert res.reconstruction_residual <= 1e-10
    assert np.allclose(res.measure.support, plain.support, atol=1e-9)


def test_banach_deformed_negative_diagonal_l4():
    emb = build_kuelbs(LpSpace(2, 4.0), weights=np.array([0.5, 0.5]))
    a = np.diag([-2.0, -1.0]).astype(complex)
    res = banach_deformed_spectral(banach_operator(a, emb))
    assert min(res.measure.support) > 0.0
    recon = res.measure.reconstruct()
    for k in range(2):
        e = np.eye(2, dtype=complex)[:, k]
        assert vnorm(recon @ e - a @ e, 4.0) <= 1e-10 * (1 + vnorm(a @ e, 4.0))


def test_banach_deformed_calculus_identity():
    emb = build_kuelbs(LpSpace(4, 1.5))
    a = Rng(213).matrix(4, 4)
    res = banach_deformed_spectral(banach_operator(a, emb))
    lhs = integrate("lambda^2", res.measure)
    rhs = res.polar.U @ res.polar.T @ res.polar.T
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * (1 + np.linalg.norm(rhs))


def test_laplacian_matrix():
    j0 = dirichlet_laplacian(3)
    h = 1.0 / 4.0
    expect = np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], dtype=complex) / h**2
    assert np.allclose(j0, expect)
    with pytest.raises(BadGrid):
        dirichlet_laplacian(1)


def test_laplacian_demo_identity_and_laplacian():
    rep = dirichlet_laplacian_demo(8, r=3.0)
    assert np.allclose(rep.astar, np.eye(8))
    assert rep.contract_residual <= 1e-12
    j0 = dirichlet_laplacian(8)
    rep2 = dirichlet_laplacian_demo(8, r=3.0, a=j0)
    assert np.linalg.norm(rep2.astar - j0) <= 1e-9 * np.linalg.norm(j0)


def test_laplacian_demo_shift_oracle():
    n = 8
    j0 = dirichlet_laplacian(n)
    shift = np.zeros((n, n), dtype=complex)
    shift[np.arange(n - 1), np.arange(1, n)] = 1.0
    rep = dirichlet_laplacian_demo(n, r=3.0, a=shift, probes=[Rng(216).vector(n) for _ in range(4)])
    oracle = j0 @ shift.T @ np.linalg.inv(j0)  # direct arithmetic
    assert np.linalg.norm(rep.astar - oracle) <= 1e-10 * (1 + np.linalg.norm(oracle))
    assert rep.contract_residual <= 1e-10
    assert rep.involution_residual <= 1e-10
    assert rep.accretive_min >= -1e-10
    assert rep.inverse_norm <= 1.0 + 1e-10


def test_laplacian_demo_rejects_bad_shapes():
    with pytest.raises(BadGrid):
        dirichlet_laplacian_demo(8, a=np.eye(5, dtype=complex))


def test_operator_dimension_check():
    emb = build_kuelbs(LpSpace(3, 3.0))
    with pytest.raises(DimensionMismatch):
        banach_operator(np.eye(4, dtype=complex), emb)
