import math
from dataclasses import replace

import numpy as np
import pytest

from dst.adjoint import (
    AdjointPair,
    adjoint_metrics,
    BanachOperator,
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
    lambda_schedule,
)
from dst.config import DEFAULT, Tolerances
from dst.ensembles import Ensemble, generate
from dst.errors import BadGrid, DimensionMismatch, SingularGram
from dst.kuelbs import KuelbsEmbedding, LpSpace, build_kuelbs
from dst.linalg import abs_norm, gram_norm_rows, herm, svd, vnorm
from dst.polar import PolarDecomposition, polar_decompose
from dst.rng import Rng
from dst.spectral import SpectralMeasure, _cluster, deform, deformed_of, integrate
from dst.suites import Report, SuiteConfig, _case


EPS = float(np.finfo(np.float64).eps)


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
            assert pair.contract_rows(basis[:, i][None], basis[:, j][None])[0] <= 1e-14


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
        assert pair.contract_rows(u[None], v[None])[0] <= 1e-10 * scale


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
            probe = baire_approximant(op, lam)
            # ||lam R||_H <= 1
            ell = np.linalg.cholesky(emb.gram)
            frame = herm(ell) @ (lam * probe.resolvent) @ np.linalg.inv(herm(ell))
            assert np.linalg.norm(frame, 2) <= 1.0 + 1e-10
            assert probe.identity_residual() <= 1e-10
            assert intertwining_residual(op, probe) <= 1e-10
            for _ in range(3):
                phi = rng.vector(5)
                err = emb.metric.norm_rows(probe.a_lambda @ phi - a @ phi)
                bound = emb.metric.norm_rows(gp.Tbar @ (a @ phi)) / lam
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


def test_h_polar_is_computed_once_per_tolerance_set():
    # frame of the uniform l2 embedding is the identity up to scale, so the
    # H-singular values are those of the diagonal
    op = banach_operator(np.diag([1.0, 1e-3, 1e-6, 0.0]).astype(complex), hilbert_embedding(4))
    gp = h_polar(op)
    assert h_polar(op) is gp
    assert gp.rank == 3
    cut = h_polar(op, tols=Tolerances(rank_rel=1e-2))
    assert cut is not gp and cut.rank == 1
    assert h_polar(op, tols=Tolerances(rank_rel=1e-2)) is cut  # equal tolerances, one entry
    assert h_polar(op) is gp
    # a new operator over the same matrix computes its own
    assert h_polar(BanachOperator(op.matrix, op.metric, op.space)) is not gp


def test_shared_h_polar_is_read_only():
    gp = h_polar(banach_operator(Rng(214).matrix(4, 4), build_kuelbs(LpSpace(4, 3.0))))
    assert type(gp) is PolarDecomposition
    for a in (gp.U, gp.T, gp.Tbar):
        with pytest.raises(ValueError):
            a[0, 0] = 1.0


def test_study_and_approximant_reuse_the_operator_polar(lapack_calls):
    # h_polar takes the one SVD and every later polar reader gets the stored
    # polar, the spectral measure included
    emb = build_kuelbs(LpSpace(5, 3.0))
    op = banach_operator(Rng(215).matrix(5, 5), emb)
    lapack_calls.clear()
    gp = h_polar(op)
    baire_convergence_study(op, Rng(216).matrix(2, 5), (1e1, 1e2))
    assert baire_approximant(op, 1e3).polar is gp
    assert lapack_calls == {"svd": 1}
    banach_deformed_spectral(op)
    assert lapack_calls == {"svd": 1}
    assert op._polars == {DEFAULT: gp} and op._polars[DEFAULT] is gp


def test_banach_deformed_spectral_takes_one_svd_over_a_stored_polar(lapack_calls):
    emb = build_kuelbs(LpSpace(5, 3.0))
    a = Rng(219).matrix(5, 5)
    op = banach_operator(a, emb)
    lapack_calls.clear()
    fresh = banach_deformed_spectral(op)
    assert lapack_calls == {"svd": 1}
    gp = h_polar(op)  # the polar the measure was read off, stored by h_polar
    assert op._polars == {DEFAULT: gp} and op._polars[DEFAULT] is gp
    res = banach_deformed_spectral(op)
    assert lapack_calls == {"svd": 1}
    # a stored polar changes nothing: the same measure from the same SVD
    np.testing.assert_array_equal(res.measure.left, fresh.measure.left)
    np.testing.assert_array_equal(res.measure.right, fresh.measure.right)
    assert res.measure.lambdas == fresh.measure.lambdas
    t = gp.source.reconstruct()
    assert np.linalg.norm(t - gp.T) <= 1e-12 * (1 + np.linalg.norm(gp.T))


@pytest.mark.parametrize("measure_first", [True, False], ids=["measure-first", "polar-first"])
@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
def test_measure_and_h_polar_take_one_svd_together(lapack_calls, measure_first, dense):
    rng = Rng(220)
    emb = build_kuelbs(LpSpace(6, 3.0), seeds=[rng.vector(6) for _ in range(8)] if dense else None)
    op = banach_operator(generate(Ensemble("general", 6, 3, 221)), emb)
    lapack_calls.clear()
    if measure_first:
        res = banach_deformed_spectral(op)
        gp = h_polar(op)
    else:
        gp = h_polar(op)
        res = banach_deformed_spectral(op)
    gp.U, gp.T, gp.Tbar  # the polar's views take no further decomposition
    assert lapack_calls == {"svd": 1} and lapack_calls.shapes[-1] == ("svd", (3, 6, 6))
    assert np.array_equal(res.measure.left, gp.measure.left) and np.array_equal(res.measure.right, gp.measure.right)


@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
def test_banach_deformed_spectral_forms_no_isometry(dense):
    rng = Rng(222)
    emb = build_kuelbs(LpSpace(6, 3.0), seeds=[rng.vector(6) for _ in range(8)] if dense else None)
    op = banach_operator(generate(Ensemble("rankdef", 6, 3, 223, rank=3)), emb)
    res = banach_deformed_spectral(op)
    gp = h_polar(op)
    assert [name for name in ("U", "Tbar") if name in vars(gp)] == []
    # the columns of ker(T) stay exact zeros through either pull-back
    assert np.all(gp.rank == 3) and np.all(res.measure.left[..., :3] == 0.0)


@pytest.mark.parametrize("n", [3, 8, 20])
@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
def test_banach_deformed_spectral_is_the_h_polar_deformation(n, dense):
    # the measure is bit for bit the frame SVD's (W, V*) in ascending order,
    # the columns at or below the rank cut set to 0, each factor pulled back
    # once; it is deform(U, E) up to roundoff, with U the H-polar isometry
    # and E the frame measure of T pulled back
    rng = Rng(230 + n)
    seeds = [rng.vector(n) for _ in range(n + 2)] if dense else None
    emb = build_kuelbs(LpSpace(n, 3.0), seeds=seeds)
    assert emb.metric.is_diagonal is not dense
    op = banach_operator(rng.matrix(n, n), emb)
    res = banach_deformed_spectral(op)
    gp = h_polar(op)
    assert op._polars == {DEFAULT: gp}  # the measure was read off the stored polar
    dec = svd(op.metric.to_frame(op.matrix))
    vecs = np.ascontiguousarray(dec.right[..., ::-1])
    values = _cluster(dec.sigma[..., ::-1], DEFAULT.cluster_tol(), cut=n - gp.rank)
    w = np.array(dec.left[..., ::-1])
    w[:, : n - gp.rank] = 0.0
    left, right = op.metric.from_frame_factors(w, herm(vecs))
    for name, want in (("values", values), ("left", left), ("right", right)):
        np.testing.assert_array_equal(getattr(res.measure, name), want)
    assert res.measure.support_tol == gp.threshold
    e_left, e_right = op.metric.from_frame_factors(vecs, herm(vecs))
    expect = deform(gp.U, SpectralMeasure(values=values, left=e_left, right=e_right), support_tol=gp.threshold)
    np.testing.assert_array_equal(res.measure.right, expect.right)
    assert (res.measure.lambdas, res.measure.bounds, res.measure.support, res.measure.support_tol) == (
        expect.lambdas, expect.bounds, expect.support, expect.support_tol
    )
    gap = np.linalg.norm(res.measure.left - expect.left)
    assert gap <= 1e-13 * np.linalg.norm(expect.left)


def _full_resolvent_study(op, phis, lambdas):
    """The study as it was before the narrow solves: one n x n resolvent
    and one n x n product with A per lambda, applied to the phi block."""
    m, p = op.metric, op.space.p
    gp = h_polar(op)
    n = op.space.dim
    h_to_b = n ** max(0.0, 1.0 / p - 0.5) / math.sqrt(m.eig_min)
    a_phi = phis @ op.matrix.T
    bound = float((h_to_b * gram_norm_rows(m.gram, a_phi @ gp.Tbar.T)).max())
    rows = []
    for lam in lambdas:
        resolvent = np.linalg.solve(lam * np.eye(n) + gp.T, np.eye(n, dtype=np.complex128))
        a_lambda = lam * (op.matrix @ resolvent)
        err = abs_norm(np.abs(phis @ a_lambda.T - a_phi), p)
        rows.append((lam, float(err.max()), bound / lam))
    return rows


@pytest.mark.parametrize("n", [2, 8, 64])
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_study_matches_full_resolvent_form(n, p):
    emb = build_kuelbs(LpSpace(n, p))
    rng = Rng(217 + n)
    lams = (1e1, 1e2, 1e3, 1e4)
    for _ in range(3):
        op = banach_operator(rng.matrix(n, n), emb)
        phis = rng.matrix(4, n)
        # both forms subtract lam A R phi from A phi, terms of size ||A phi||_p,
        # so each carries a rounding floor of a few eps ||A phi||_p; at
        # lam = 1e4 that floor exceeds 1e-12 of the error itself
        floor = EPS * float(abs_norm(np.abs(phis @ op.matrix.T), p).max())
        rows = baire_convergence_study(op, phis, lams)
        for row, (lam, err, bound) in zip(rows, _full_resolvent_study(op, phis, lams), strict=True):
            assert row.lam == lam
            assert row.bound == bound  # bit for bit
            assert abs(row.max_error - err) <= 1e-12 * err + 4.0 * floor
        for row in baire_convergence_study(op, phis, (1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)):
            assert row.max_error <= row.bound


@pytest.mark.parametrize("lambdas", [(), (1e-320,), (0.0, 1e1), (1e1, math.inf), (5e-324,)])
def test_study_refuses_a_schedule_that_checks_nothing(lambdas):
    op = banach_operator(Rng(218).matrix(3, 3), build_kuelbs(LpSpace(3, 3.0)))
    with pytest.raises(ValueError):
        baire_convergence_study(op, Rng(219).matrix(2, 3), lambdas)
    with pytest.raises(ValueError):
        lambda_schedule(lambdas)


def test_study_refuses_a_bound_that_overflows():
    # 1/lambda is finite at 1e-308, but the bound ||Tbar A phi|| / lambda is not
    op = banach_operator(Rng(218).matrix(3, 3), build_kuelbs(LpSpace(3, 3.0)))
    phis = Rng(219).matrix(2, 3)
    assert baire_convergence_study(op, phis, (1.0,))[0].bound > 2.0
    with pytest.raises(ValueError, match="1e-308"):
        baire_convergence_study(op, phis, (1e-308, 1e1))


def test_lambda_schedule_names_the_refused_value():
    with pytest.raises(ValueError, match="empty"):
        lambda_schedule([])
    with pytest.raises(ValueError, match=r"capped at 1e8.*1000000000\.0"):
        lambda_schedule([1e1, 1e9])
    assert lambda_schedule([1e1, 1e8]) == (10.0, 1e8)
    op = banach_operator(Rng(213).matrix(3, 3), hilbert_embedding(3))
    with pytest.raises(ValueError, match="capped at 1e8"):  # every caller, the approximant too
        baire_approximant(op, 1e9)
    with pytest.raises(ValueError, match="1e-320"):
        lambda_schedule([1e1, 1e-320])
    assert lambda_schedule([1e-300, 1e1]) == (1e-300, 10.0)
    with pytest.raises(ValueError, match="ascending"):
        lambda_schedule([1e1, 1e-300])


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_baire_approximant_rejects_bad_lambda(lam):
    op = banach_operator(Rng(213).matrix(3, 3), hilbert_embedding(3))
    with pytest.raises(ValueError):
        baire_approximant(op, lam)


def test_baire_approximant_refuses_a_lambda_whose_inverse_overflows():
    # on a singular T, lam I + T at lam = 1e-320 inverts to inf and the
    # residuals of the probe come out NaN
    op = banach_operator(np.diag([1.0, 0.5, 0.0]).astype(complex), build_kuelbs(LpSpace(3, 3.0)))
    with pytest.raises(ValueError, match="1e-320"):
        baire_approximant(op, 1e-320)
    assert baire_approximant(op, 1e-300).identity_residual() == 0.0


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
    op = banach_operator(a, emb)
    res = banach_deformed_spectral(op)
    gp = h_polar(op)
    lhs = integrate("lambda^2", res.measure)
    rhs = gp.U @ gp.T @ gp.T
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * (1 + np.linalg.norm(rhs))


def test_laplacian_matrix():
    j0 = dirichlet_laplacian(3)
    h = 1.0 / 4.0
    expect = np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], dtype=complex) / h**2
    assert np.allclose(j0, expect)
    with pytest.raises(BadGrid):
        dirichlet_laplacian(1)


def test_laplacian_demo_identity_and_laplacian():
    pair, m = dirichlet_laplacian_demo(8, r=3.0, rng=Rng(214))
    assert np.allclose(pair.astar, np.eye(8))
    assert m["contract"] <= 1e-12
    j0 = dirichlet_laplacian(8)
    pair2, _ = dirichlet_laplacian_demo(8, r=3.0, a=j0, rng=Rng(215))
    assert np.linalg.norm(pair2.astar - j0) <= 1e-9 * np.linalg.norm(j0)


def test_laplacian_demo_shift_oracle():
    n = 8
    j0 = dirichlet_laplacian(n)
    shift = np.zeros((n, n), dtype=complex)
    shift[np.arange(n - 1), np.arange(1, n)] = 1.0
    pair, m = dirichlet_laplacian_demo(n, r=3.0, a=shift, rng=Rng(216))
    oracle = j0 @ shift.T @ np.linalg.inv(j0)  # direct arithmetic
    assert np.linalg.norm(pair.astar - oracle) <= 1e-10 * (1 + np.linalg.norm(oracle))
    assert m["contract"] <= 1e-10
    assert m["involution"] <= 1e-10
    assert m["accretive_min"] >= -1e-10
    assert m["inverse_norm"] <= 1.0 + 1e-10


def test_laplacian_demo_rejects_bad_shapes():
    with pytest.raises(BadGrid):
        dirichlet_laplacian_demo(8, a=np.eye(5, dtype=complex), rng=Rng(217))


def test_operator_dimension_check():
    emb = build_kuelbs(LpSpace(3, 3.0))
    with pytest.raises(DimensionMismatch):
        banach_operator(np.eye(4, dtype=complex), emb)


def test_operator_refuses_a_metric_of_another_dim():
    metric = build_kuelbs(LpSpace(4, 3.0)).metric
    with pytest.raises(DimensionMismatch):
        BanachOperator(np.eye(3, dtype=complex), metric, LpSpace(3, 3.0))


def test_contract_rows_is_the_direct_contract():
    emb = build_kuelbs(LpSpace(4, 3.0))
    op = banach_operator(Rng(221).matrix(4, 4), emb)
    pair = AdjointPair(op, adjoint(op).astar + 0.1)  # off the adjoint, so the contract fails
    us, vs = Rng(222).matrix(3, 4), Rng(223).matrix(3, 4)
    rows = pair.contract_rows(us, vs)
    g, a = emb.gram, op.matrix
    for u, v, row in zip(us, vs, rows):
        direct = abs(np.vdot(v, g @ (a @ u)) - np.vdot(pair.astar @ v, g @ u))
        assert direct > 1e-3 and abs(row - direct) <= 1e-12 * (1 + direct)


@pytest.mark.parametrize("n", [8, 32])
def test_generic_adjoint_in_the_laplacian_metric_is_the_closed_form(n):
    j0 = dirichlet_laplacian(n)
    a = Rng(224).matrix(n, n)
    pair, m = dirichlet_laplacian_demo(n, r=3.0, a=a, rng=Rng(225))
    closed = j0 @ herm(a) @ np.linalg.inv(j0)
    assert np.linalg.norm(pair.astar - closed) <= 1e-10 * np.linalg.norm(closed)
    gap = max(vnorm(pair.astar[:, j] - closed[:, j], 3.0) for j in range(n)) / (1 + np.linalg.norm(a))
    assert m["closed_form"] == pytest.approx(gap, rel=1e-6)


@pytest.mark.parametrize("dense", [False, True])
def test_a_stack_of_operators_gives_each_its_own_metrics(dense):
    rng = Rng(301)
    seeds = [rng.vector(5) for _ in range(7)] if dense else None
    emb = build_kuelbs(LpSpace(5, 3.0), seeds=seeds)
    stack = rng.matrix(3 * 5, 5).reshape(3, 5, 5)
    draws = rng.matrix(3 * 16, 5).reshape(3, 16, 5)
    op = banach_operator(stack, emb)
    metrics = adjoint_metrics(adjoint(op), draws)
    probe = baire_approximant(op, 10.0)
    resid = banach_deformed_spectral(op).reconstruction_residual
    for k, a in enumerate(stack):
        one = banach_operator(a, emb)
        assert {key: v[k] for key, v in metrics.items()} == adjoint_metrics(adjoint(one), draws[k])
        assert np.array_equal(h_polar(op).T[k], h_polar(one).T)
        one_probe = baire_approximant(one, 10.0)
        assert probe.identity_residual()[k] == one_probe.identity_residual()
        assert intertwining_residual(op, probe)[k] == intertwining_residual(one, one_probe)
        assert resid[k] == banach_deformed_spectral(one).reconstruction_residual


@pytest.fixture
def solve_calls(monkeypatch):
    """The number of ``numpy.linalg.solve`` calls made while the test runs."""
    calls = []
    orig = np.linalg.solve

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return orig(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return calls


@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
def test_polar_resolvents_and_axioms_solve_nothing(solve_calls, dense):
    rng = Rng(240)
    emb = build_kuelbs(LpSpace(6, 3.0), seeds=[rng.vector(6) for _ in range(8)] if dense else None)
    op = banach_operator(rng.matrix(6, 6), emb)
    pair = adjoint(op)  # a dense Gram's adjoint is one solve against G
    solve_calls.clear()
    h_polar(op)
    baire_convergence_study(op, rng.matrix(3, 6), (1e1, 1e2, 1e3))
    probes = [baire_approximant(op, lam) for lam in (1e1, 1e2)]
    assert solve_calls == []
    adjoint_axioms(pair, probes=rng.matrix(2, 6))
    # the natural-selfadjoint check takes the generic adjoint of A*A,
    # which solves against a dense Gram; the inverse bound solves nothing
    assert len(solve_calls) == int(dense)
    solve_calls.clear()
    for probe in probes:
        intertwining_residual(op, probe)  # the independent oracle keeps its solve
    assert solve_calls == [(6, 6), (6, 6)]


@pytest.mark.parametrize("n", [2, 8, 64])
def test_approximant_resolvent_is_the_solved_resolvent(n):
    # both forms carry about eps cond(L*) cond(lam I + T) of rounding, so the
    # dense Gram (cond 5.6e8 at n = 64) is held to 1e-12 only at small n
    rng = Rng(241 + n)
    embs = [build_kuelbs(LpSpace(n, 3.0))]
    if n <= 8:
        embs.append(build_kuelbs(LpSpace(n, 3.0), seeds=[rng.vector(n) for _ in range(n + 2)]))
    for emb in embs:
        for a in (rng.matrix(n, n), generate(Ensemble("rankdef", n, 1, 242, rank=max(1, n // 2)))[0]):
            op = banach_operator(a, emb)
            t = h_polar(op).T
            for lam in (1e1, 1e2, 1e3, 1e4, 1e8):
                solved = np.linalg.solve(lam * np.eye(n) + t, np.eye(n, dtype=np.complex128))
                got = baire_approximant(op, lam).resolvent
                assert np.linalg.norm(got - solved) <= 1e-12 * np.linalg.norm(solved)


@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
def test_axioms_of_a_stack_are_each_matrix_axioms(dense):
    rng = Rng(243)
    emb = build_kuelbs(LpSpace(5, 1.5), seeds=[rng.vector(5) for _ in range(7)] if dense else None)
    stack = rng.matrix(4 * 5, 5).reshape(4, 5, 5)
    probes = rng.matrix(4 * 3, 5).reshape(4, 3, 5)
    probes[1, 2] = 0.0  # a zero probe has no quotient and is skipped
    pair = adjoint(banach_operator(stack, emb))
    for with_probes in (False, True):
        ax = adjoint_axioms(pair, probes=probes if with_probes else ())
        for k, a in enumerate(stack):
            one = adjoint_axioms(adjoint(banach_operator(a, emb)), probes=probes[k] if with_probes else ())
            assert ax.accretive_min[k] == one.accretive_min
            assert ax.natural_selfadjoint_residual[k] == one.natural_selfadjoint_residual
            assert ax.inverse_norm[k] == one.inverse_norm


@pytest.mark.parametrize("n", [4, 32])
@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
def test_inverse_norm_is_one_over_the_least_frame_singular_value(n, dense):
    # oracle: an SVD of the coordinate matrix L* (I + A*A) inv(L*), with L
    # from numpy's own Cholesky of G and the identity added before the map
    rng = Rng(244 + n)
    emb = build_kuelbs(LpSpace(n, 3.0), seeds=[rng.vector(n) for _ in range(n + 2)] if dense else None)
    ell_h = herm(np.linalg.cholesky(emb.gram))
    for _ in range(3):
        pair = adjoint(banach_operator(rng.matrix(n, n), emb))
        coords = ell_h @ (np.eye(n) + pair.astar @ pair.operator.matrix) @ np.linalg.inv(ell_h)
        expect = 1.0 / np.linalg.svd(coords, compute_uv=False)[-1]
        ax = adjoint_axioms(pair)
        assert ax.inverse_norm == pytest.approx(expect, rel=1e-9)
        assert ax.inverse_norm <= 1.0 + 1e-10


def test_accretive_basis_sweep_is_the_frame_diagonal():
    # basis row u_i = inv(L*) e_i: (A*A u_i, u_i)_H / (u_i, u_i)_H = (L* A*A inv(L*))_ii
    rng = Rng(245)
    emb = build_kuelbs(LpSpace(6, 3.0), seeds=[rng.vector(6) for _ in range(8)])
    a = rng.matrix(6, 6)
    pair = adjoint(banach_operator(a, emb))
    us = emb.metric.basis
    ata = pair.astar @ a
    quotients = [np.vdot(u, emb.gram @ (ata @ u)).real / np.vdot(u, emb.gram @ u).real for u in us]
    assert adjoint_axioms(pair).accretive_min == pytest.approx(min(quotients), rel=1e-12)


def test_singular_i_plus_astar_a_reports_an_infinite_inverse_norm():
    # A = I with A* = -I: I + A*A = 0 has no inverse; the bound is inf, so
    # its gate fails by name and the report lists it as non-finite
    emb = build_kuelbs(LpSpace(3, 3.0))
    eye = np.eye(3, dtype=np.complex128)
    pair = AdjointPair(banach_operator(eye, emb), astar=-eye)
    ax = adjoint_axioms(pair)
    assert ax.inverse_norm == math.inf
    assert ax.accretive_min == pytest.approx(-1.0)
    metrics = adjoint_metrics(pair, Rng(246).matrix(16, 3))
    cfg = SuiteConfig()
    bounded = metrics["inverse_norm"] <= 1.0 + cfg.tolerance("adjoint.inverse")
    case = _case(cfg, "adjoint/singular", eye, metrics, {}, bounded)
    assert not case.passed
    summary = Report("adjoint", 0, {}, (case,)).to_obj()["summary"]
    assert summary["nonfinite"] == ["adjoint/singular:inverse_norm"]
