import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

from dst.adjoint import banach_deformed_spectral, banach_operator, h_polar
from dst.ensembles import Ensemble, generate
from dst.errors import DimensionMismatch, EvalError, NegativeSupport, NotHermitian
from dst.gexpr import evaluate, parse
from dst.kuelbs import LpSpace, build_kuelbs
from dst.linalg import herm, hermitian_eigen
from dst.polar import polar_decompose
from dst.rng import Rng
from dst.spectral import (
    PolarDecomposition,
    SpectralMeasure,
    deform,
    deformed_of,
    integrate,
    quadratic_form,
    spectral_measure,
    variation,
)
from dst.suites import SuiteConfig, _stream, run_suite


EPS = float(np.finfo(np.float64).eps)


def unit_projector(k, n):
    p = np.zeros((n, n), dtype=complex)
    p[k, k] = 1.0
    return p


def test_measure_identity_clusters_fully():
    e = spectral_measure(np.eye(3, dtype=complex))
    assert len(e.atoms) == 1
    lam, p = e.atoms[0]
    assert lam == pytest.approx(1.0)
    assert np.allclose(p, np.eye(3))


def test_measure_diagonal():
    e = spectral_measure(np.diag([-2.0, -1.0]).astype(complex))
    assert e.lambdas == pytest.approx((-2.0, -1.0))
    assert np.allclose(e.atoms[0][1], unit_projector(0, 2))
    assert np.allclose(e.atoms[1][1], unit_projector(1, 2))


def test_measure_double_eigenvalue():
    rng = Rng(51)
    q, _ = np.linalg.qr(rng.matrix(3, 3))
    h = q @ np.diag([1.0, 1.0, 3.0]).astype(complex) @ herm(q)
    e = spectral_measure((h + herm(h)) / 2.0)
    assert len(e.atoms) == 2
    assert np.trace(e.atoms[0][1]).real == pytest.approx(2.0, abs=1e-10)
    assert np.trace(e.atoms[1][1]).real == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(e.reconstruct() - h) <= 1e-10 * np.linalg.norm(h)


def test_measure_partition_of_identity():
    h = Rng(52).matrix(8, 8)
    h = (h + herm(h)) / 2.0
    e = spectral_measure(h)
    assert np.linalg.norm(integrate(lambda _: 1, e) - np.eye(8)) <= 1e-11 * 8
    for i, (_, p) in enumerate(e.atoms):
        assert np.linalg.norm(p @ p - p) <= 1e-11
        assert np.linalg.norm(p - herm(p)) <= 1e-11
        for j, (_, q) in enumerate(e.atoms):
            if i != j:
                assert np.linalg.norm(p @ q) <= 1e-11
    assert np.linalg.norm(e.reconstruct() - h) <= 1e-10 * np.linalg.norm(h)


def test_measure_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        spectral_measure(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_deform_identity_isometry():
    e = spectral_measure(np.diag([1.0, 2.0]).astype(complex))
    f = deform(np.eye(2, dtype=complex), e)
    for (lam_e, p), (lam_f, df) in zip(e.atoms, f.atoms):
        assert lam_e == lam_f
        assert np.allclose(p, df)


def test_deform_negative_unitary():
    e = spectral_measure(np.diag([2.0, 1.0]).astype(complex))
    u = np.diag([-1.0, -1.0]).astype(complex)
    f = deform(u, e)
    assert f.lambdas == pytest.approx((1.0, 2.0))
    assert np.allclose(f.atoms[0][1], -unit_projector(1, 2))
    assert np.allclose(f.atoms[1][1], -unit_projector(0, 2))


def test_deform_zero_isometry():
    e = spectral_measure(np.diag([2.0, 1.0]).astype(complex))
    f = deform(np.zeros((2, 2), dtype=complex), e)
    assert all(np.allclose(df, 0.0) for _, df in f.atoms)


def test_deform_rejects_negative_support():
    e = spectral_measure(np.diag([-1.0, 2.0]).astype(complex))
    with pytest.raises(NegativeSupport):
        deform(np.eye(2, dtype=complex), e)


def test_deformed_of_flips_negative_spectrum():
    a = np.diag([-2.0, -1.0]).astype(complex)
    f = deformed_of(a)
    assert f.support == pytest.approx((1.0, 2.0))
    classical = spectral_measure(a)
    assert max(classical.lambdas) < 0.0
    assert np.linalg.norm(f.reconstruct() - a) <= 1e-12


def test_deformed_of_identity_and_nilpotent():
    f = deformed_of(np.eye(3, dtype=complex))
    assert f.support == pytest.approx((1.0,))
    n = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    fn = deformed_of(n)
    assert fn.support == pytest.approx((1.0,))
    nz = [df for lam, df in fn.atoms if lam > fn.support_tol]
    expect = np.zeros((2, 2), dtype=complex)
    expect[0, 1] = 1.0
    assert np.allclose(nz[0], expect)


@pytest.mark.parametrize("seed, idx", [(105, 5), (306, 17)])
def test_deformed_support_excludes_kernel_at_rank_boundary(seed, idx):
    # verify cases deformed/rankdef/n2/t{idx}, where an eigensolver on T
    # rounded the kernel eigenvalue to just above the polar rank cut: read
    # off the SVD, ker(T) is its own atom, at or below the cut
    stream = _stream(SuiteConfig(seed=seed), "deformed/rankdef/2")
    a = generate(Ensemble("rankdef", 2, 20, stream, rank=1))[idx]
    f = deformed_of(a)
    p = polar_decompose(a)
    assert f.bounds == (0, 1, 2)
    assert p.source.lambdas[0] <= p.threshold < p.source.lambdas[1]
    assert len(f.support) == p.rank == 1


def _with_singular_values(s, seed):
    rng = Rng(seed)
    n = len(s)
    q1, _ = np.linalg.qr(rng.matrix(n, n))
    q2, _ = np.linalg.qr(rng.matrix(n, n))
    return (q1 * np.asarray(s, dtype=float)) @ herm(q2)


def _assert_projector_measure(e, a):
    """``e`` is a measure of T = (A*A)^(1/2) whose atoms are orthogonal
    projectors summing to the identity."""
    n = a.shape[0]
    assert np.linalg.norm(e.reconstruct() - polar_decompose(a).T) <= 1e-12 * (1 + np.linalg.norm(a))
    assert np.linalg.norm(integrate(lambda _: 1, e) - np.eye(n)) <= 1e-12 * n
    for (lo, hi), (_, p) in zip(zip(e.bounds, e.bounds[1:]), e.atoms):
        assert np.linalg.norm(p @ p - p) <= 1e-12 * n
        assert np.linalg.norm(p - herm(p)) <= 1e-12 * n
        assert np.trace(p).real == pytest.approx(hi - lo, abs=1e-12 * n)


def test_svd_measure_clusters_repeated_and_close_singular_values():
    # kernel of dimension 2, a simple 1, a pair 1e-12 apart, a triple 3
    s = [3.0, 3.0, 3.0, 2.0, 2.0 * (1.0 - 1e-12), 1.0, 0.0, 0.0]
    a = _with_singular_values(s, 101)
    f = deformed_of(a)
    assert np.diff(f.bounds).tolist() == [2, 1, 2, 3]
    assert f.lambdas == pytest.approx((0.0, 1.0, 2.0 - 1e-12, 3.0), rel=1e-14, abs=1e-14)
    assert len(f.support) == 3
    assert np.linalg.norm(f.reconstruct() - a) <= 1e-12 * (1 + np.linalg.norm(a))
    _assert_projector_measure(polar_decompose(a).source, a)


def test_svd_measure_splits_a_cluster_at_the_rank_cut():
    # 1e-10 is above the rank cut 4 eps but within the cluster window of the
    # kernel: the forced bound keeps ker(T) out of the atom at 1e-10
    s = [1.0, 0.5, 1e-10, 0.0]
    a = _with_singular_values(s, 102)
    p = polar_decompose(a)
    assert p.rank == 3
    f = deformed_of(a)
    assert f.bounds == (0, 1, 2, 3, 4)
    assert f.lambdas[0] <= p.threshold < f.lambdas[1]
    assert f.lambdas[1] == pytest.approx(1e-10, rel=1e-4)
    assert len(f.support) == p.rank
    assert np.linalg.norm(f.reconstruct() - a) <= 1e-14 * (1 + np.linalg.norm(a))
    _assert_projector_measure(p.source, a)


def test_svd_measure_of_a_rank_13_matrix_has_13_support_atoms():
    a = generate(Ensemble("rankdef", 16, 1, 103, rank=13))[0]
    f = deformed_of(a)
    assert len(f.support) == polar_decompose(a).rank == 13
    assert f.bounds[:2] == (0, 3) and f.lambdas[0] <= f.support_tol
    assert np.linalg.norm(f.reconstruct() - a) <= 1e-12 * (1 + np.linalg.norm(a))
    _assert_projector_measure(polar_decompose(a).source, a)


@pytest.mark.parametrize("kind", ["general", "rankdef"])
@pytest.mark.parametrize("n", [2, 8, 64])
def test_svd_measure_matches_an_eigendecomposition_of_t(n, kind):
    # the oracle diagonalizes T on its own; the measure never does
    a = generate(Ensemble(kind, n, 1, 104 + n, rank=max(1, n // 2) if kind == "rankdef" else None))[0]
    f = deformed_of(a)
    p = polar_decompose(a)
    et = hermitian_eigen(p.T)
    scale = float(et.values[-1])
    e = p.source
    assert e.bounds[-1] == n and list(e.lambdas) == sorted(e.lambdas)
    # every atom spans the eigenvectors of T in the same ascending positions
    for lam, lo, hi in zip(e.lambdas, e.bounds, e.bounds[1:]):
        assert lam == pytest.approx(float(np.mean(et.values[lo:hi])), abs=1e-13 * n * scale)
        v = et.vectors[:, lo:hi]
        proj = e.left[:, lo:hi] @ e.right[lo:hi]
        assert np.linalg.norm(proj - v @ herm(v)) <= 1e-9
    assert len(f.support) == p.rank
    expect = p.U @ ((et.vectors * np.exp(-np.maximum(et.values, 0.0))) @ herm(et.vectors))
    assert np.linalg.norm(integrate("exp(-lambda)", f) - expect) <= 1e-12 * (1 + np.linalg.norm(expect))


def test_deformed_of_takes_one_svd_and_no_eigensolver(lapack_calls):
    a = Rng(105).matrix(8, 8)
    lapack_calls.clear()
    deformed_of(a)
    assert lapack_calls == {"svd": 1}


def test_integrate_identity_function_recovers_a():
    for seed in (61, 62):
        a = Rng(seed).matrix(6, 6)
        f = deformed_of(a)
        out = integrate("lambda", f)
        assert np.linalg.norm(out - a) <= 1e-10 * (1 + np.linalg.norm(a))


def test_integrate_constant_recovers_isometry_mass():
    a = Rng(63).matrix(5, 5)
    f = deformed_of(a)
    out = integrate("1", f)
    u = polar_decompose(a).U
    assert np.linalg.norm(out - u) <= 1e-10 * (1 + np.linalg.norm(u))


def test_integrate_square_is_deformed_calculus():
    a = np.diag([-2.0, -1.0]).astype(complex)
    f = deformed_of(a)
    out = integrate("lambda^2", f)
    assert np.allclose(out, np.diag([-4.0, -1.0]))  # U T^2
    assert not np.allclose(out, a @ a)  # distinct from the holomorphic square


def test_integrate_matches_u_g_t_for_corpus():
    a = Rng(64).matrix(8, 8)
    f = deformed_of(a)
    p = polar_decompose(a)
    et = hermitian_eigen(p.T)
    for src in ("lambda", "lambda^2", "exp(-lambda)", "sin(lambda)", "sqrt(lambda)"):
        ast = parse(src)
        gt = (et.vectors * [evaluate(ast, max(v, 0.0)) for v in et.values]) @ herm(et.vectors)
        lhs = integrate(ast, f)
        rhs = p.U @ gt
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * (1 + np.linalg.norm(rhs))


def test_integrate_vector_mode_and_callable():
    a = Rng(65).matrix(5, 5)
    f = deformed_of(a)
    phi = Rng(66).vector(5)
    via_matrix = integrate("exp(-lambda)", f) @ phi
    via_vector = integrate("exp(-lambda)", f, phi)
    assert np.allclose(via_matrix, via_vector)
    via_callable = integrate(lambda lam: np.exp(-lam), f, phi)
    assert np.allclose(via_vector, via_callable)


def test_integrate_eval_error_propagates():
    n = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # singular: atom at 0
    f = deformed_of(n)
    with pytest.raises(EvalError):
        integrate("log(lambda)", f)


def test_classical_and_deformed_agree_on_positive_definite():
    r = Rng(67).matrix(6, 6)
    a = r @ herm(r) + 0.5 * np.eye(6)
    fd = deformed_of(a)
    ec = spectral_measure(a)
    for src in ("exp(-lambda)", "sqrt(lambda)"):
        d = integrate(src, fd)
        c = integrate(src, ec)
        assert np.linalg.norm(d - c) <= 1e-10 * (1 + np.linalg.norm(c))


def test_quadratic_form_trivial_cases():
    a = np.eye(2, dtype=complex)
    f = deformed_of(a)
    zero = quadratic_form(f, np.zeros(2, dtype=complex))
    assert zero.total == pytest.approx(0.0)
    e1 = np.array([1.0, 0.0], dtype=complex)
    one = quadratic_form(f, e1)
    assert one.total == pytest.approx(1.0)


def test_quadratic_form_source_matches_t_norm():
    a = Rng(71).matrix(6, 6)
    f = deformed_of(a)
    p = polar_decompose(a)
    phi = Rng(72).vector(6)
    qf = quadratic_form(p.source, phi)
    t_phi = p.T @ phi
    a_phi = a @ phi
    assert qf.total.real == pytest.approx(float(np.vdot(t_phi, t_phi).real), rel=1e-10)
    assert qf.total.real == pytest.approx(float(np.vdot(a_phi, a_phi).real), rel=1e-10)
    assert qf.total.imag == pytest.approx(0.0, abs=1e-10)


def test_quadratic_form_pairings():
    a = Rng(73).matrix(4, 4)
    f = deformed_of(a)
    phi = Rng(74).vector(4)
    g = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    got = quadratic_form(f, phi, functional=(g @ phi).conj())
    manual = sum((lam**2) * complex(np.vdot(phi, g @ (df @ phi))) for lam, df in f.atoms)
    assert got.total == pytest.approx(manual)
    with pytest.raises(DimensionMismatch):
        quadratic_form(f, np.ones(3, dtype=complex))


def test_quadratic_form_steadman_pairing():
    from dst.kuelbs import LpSpace, build_kuelbs, steadman

    a = Rng(75).matrix(4, 4)
    f = deformed_of(a)
    phi = Rng(76).vector(4)
    emb = build_kuelbs(LpSpace(4, 3.0))
    s_phi = steadman(emb, phi)
    got = quadratic_form(f, phi, functional=s_phi)
    manual = sum((lam**2) * complex(s_phi @ (df @ phi)) for lam, df in f.atoms)
    assert got.total == pytest.approx(manual)
    assert len(got.terms) == len(f.atoms)


def test_quadratic_form_refuses_a_functional_of_the_wrong_length():
    f = deformed_of(Rng(77).matrix(4, 4))
    phi = Rng(78).vector(4)
    with pytest.raises(DimensionMismatch):
        quadratic_form(f, phi, functional=np.ones(3, dtype=complex))


def test_variation_examples():
    e = spectral_measure(np.diag([2.0, 1.0]).astype(complex))
    assert variation(e, np.zeros(2, dtype=complex)) == pytest.approx(0.0)
    assert variation(e, np.array([1.0, 1.0], dtype=complex)) == pytest.approx(2.0)


def test_variation_bound_random():
    rng = Rng(81)
    for _ in range(200):
        a = rng.matrix(4, 4)
        phi = rng.vector(4)
        p = polar_decompose(a)
        assert variation(p.measure, phi) <= variation(p.source, phi) + 1e-12


def test_boundary_spectra_reconstruction():
    # repeated singular values, kernels, and wide spreads reconstruct at
    # working precision under the default tolerances
    rng = Rng(83)
    spectra = [
        np.array([3.0, 3.0, 3.0, 1.0, 1.0, 0.0]),
        np.logspace(0, -7, 6),
        np.full(6, 2.0),
    ]
    for s in spectra:
        q1, _ = np.linalg.qr(rng.matrix(6, 6))
        q2, _ = np.linalg.qr(rng.matrix(6, 6))
        a = (q1 * s) @ herm(q2)
        f = deformed_of(a)
        assert np.linalg.norm(f.reconstruct() - a) <= 1e-10 * (1 + np.linalg.norm(a))


def test_cluster_tolerance_reconstruction_tradeoff():
    from dst.config import Tolerances

    # gaps inside the clustering window merge into one atom: the default
    # measure reconstructs to the cluster width, a tighter tolerance
    # restores working precision at the cost of nearly-parallel projectors
    rng = Rng(84)
    q1, _ = np.linalg.qr(rng.matrix(4, 4))
    q2, _ = np.linalg.qr(rng.matrix(4, 4))
    s = np.array([1.0, 1.0 - 1e-9, 0.5, 0.25])
    a = (q1 * s) @ herm(q2)
    coarse = deformed_of(a)
    resid_coarse = np.linalg.norm(coarse.reconstruct() - a)
    assert resid_coarse <= 2e-8 * (1 + np.linalg.norm(a))
    assert len(coarse.support) == 3  # the 1e-9 gap merged

    tight = deformed_of(a, tols=Tolerances(cluster_rel=1e-12))
    assert len(tight.support) == 4
    assert np.linalg.norm(tight.reconstruct() - a) <= 1e-10 * (1 + np.linalg.norm(a))
    assert np.linalg.norm(tight.reconstruct() - a) < resid_coarse


def test_commutation_order_independence():
    rng = Rng(82)
    for _ in range(20):
        a = rng.matrix(5, 5)
        phi = rng.vector(5)
        p = polar_decompose(a)
        lhs = p.U @ integrate("exp(-lambda)", p.source, phi)
        rhs = integrate("exp(-lambda)", p.measure, phi)
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * (1 + np.linalg.norm(lhs))


def _dense_sum(measure, values):
    return sum(v * p for v, (_, p) in zip(values, measure.atoms))


def _cross_check(measure, phi):
    """The factored contractions against the dense sum over ``atoms``."""
    scale = 1.0 + np.linalg.norm(measure.reconstruct())
    assert np.linalg.norm(measure.reconstruct() - _dense_sum(measure, measure.lambdas)) <= 1e-13 * scale
    ones = [1.0] * len(measure.lambdas)
    assert np.linalg.norm(integrate(lambda _: 1, measure) - _dense_sum(measure, ones)) <= 1e-13 * scale
    for src in ("exp(-lambda)", "lambda^2", "1"):
        g = parse(src)
        ref = _dense_sum(measure, [evaluate(g, lam) for lam in measure.lambdas])
        assert np.linalg.norm(integrate(g, measure) - ref) <= 1e-13 * (1 + np.linalg.norm(ref))
        assert np.linalg.norm(integrate(g, measure, phi) - ref @ phi) <= 1e-13 * (1 + np.linalg.norm(ref @ phi))
    vectors = [p @ phi for _, p in measure.atoms]
    assert variation(measure, phi) == pytest.approx(sum(np.linalg.norm(v) for v in vectors), rel=1e-13)
    terms = [lam**2 * complex(np.vdot(phi, v)) for lam, v in zip(measure.lambdas, vectors)]
    assert np.allclose(quadratic_form(measure, phi).terms, terms, rtol=1e-13, atol=1e-13)


def test_factored_contractions_double_eigenvalue():
    rng = Rng(91)
    q, _ = np.linalg.qr(rng.matrix(4, 4))
    h = q @ np.diag([0.5, 2.0, 2.0, 3.0]).astype(complex) @ herm(q)
    e = spectral_measure((h + herm(h)) / 2.0)
    assert np.diff(e.bounds).tolist() == [1, 2, 1]
    phi = rng.vector(4)
    _cross_check(e, phi)
    _cross_check(deform(q, e), phi)


def test_factored_contractions_rank_deficient_zero_cluster():
    a = generate(Ensemble("rankdef", 6, 1, 92, rank=3))[0]
    f = deformed_of(a)
    # ker(T) is one three-column cluster, kept in the measure but outside the support
    assert f.bounds[:2] == (0, 3) and f.lambdas[0] <= f.support_tol
    assert len(f.support) == 3
    phi = Rng(93).vector(6)
    _cross_check(f, phi)
    _cross_check(polar_decompose(a).source, phi)


def test_factored_contractions_metric_measure():
    emb = build_kuelbs(LpSpace(5, 3.0))
    g = emb.gram
    op = banach_operator(Rng(94).matrix(5, 5), emb)
    res = banach_deformed_spectral(op)
    _cross_check(res.measure, Rng(95).vector(5))
    pulled = h_polar(op).source.atoms
    assert np.linalg.norm(sum(p for _, p in pulled) - np.eye(5)) <= 1e-10
    for _, p in pulled:
        assert np.linalg.norm(p @ p - p) <= 1e-10 * (1 + np.linalg.norm(p))
        assert np.linalg.norm(g @ p - herm(p) @ g) <= 1e-10 * (1 + np.linalg.norm(g @ p))


def test_deformed_calculus_memory_is_quadratic():
    # at n = 128 one complex matrix is 256 KiB; per-atom projectors would
    # need one such matrix for each of the ~128 atoms
    n = 128
    a = generate(Ensemble("general", n, 1, 96))[0]
    tracemalloc.start()
    try:
        integrate("exp(-lambda)", deformed_of(a))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * n * n * 16


def _stacked_cases():
    # one shared rank, then ranks 3 and 6 mixed in one stack
    rankdef = generate(Ensemble("rankdef", 6, 4, 201, rank=3))
    mixed = np.concatenate([rankdef[:2], generate(Ensemble("general", 6, 2, 202))])
    return [rankdef, mixed]


@pytest.mark.parametrize("stack", _stacked_cases(), ids=["one-rank", "mixed-rank"])
def test_a_stack_of_measures_is_the_measure_of_each_matrix(stack):
    f = deformed_of(stack)
    phi = Rng(203).matrix(len(stack), 6)
    p = polar_decompose(stack)
    lhs, at_phi, var = integrate("exp(-lambda)", f), integrate("sqrt(lambda)", f, phi), variation(p.source, phi)
    for k, a in enumerate(stack):
        one, p_one = deformed_of(a), polar_decompose(a)
        assert np.array_equal(f.values[k], one.values) and np.array_equal(p.U[k], p_one.U)
        assert np.array_equal(f.left[k], one.left) and np.array_equal(p.source.left[k], p_one.source.left)
        assert f.support_tol[k] == one.support_tol and p.rank[k] == p_one.rank
        assert np.array_equal(lhs[k], integrate("exp(-lambda)", one))
        assert np.array_equal(at_phi[k], integrate("sqrt(lambda)", one, phi[k]))
        assert var[k] == variation(p_one.source, phi[k])
    assert [lam for lam, _ in f.atoms] == [lam for a in stack for lam, _ in deformed_of(a).atoms]
    with pytest.raises(DimensionMismatch):  # one phi per measure of the stack
        integrate("lambda", f, phi[0])


@pytest.mark.parametrize("stack", _stacked_cases(), ids=["one-rank", "mixed-rank"])
def test_deformed_of_is_the_measure_of_the_polar_decomposition(stack):
    # F is (W, V*) in ascending order, the columns at or below the rank
    # cut set to 0; deform(U, E_T) is the same measure up to roundoff
    for a in (stack[0], stack):
        p = polar_decompose(a)
        f, g, ref = deformed_of(a), p.measure, deform(p.U, p.source, support_tol=p.threshold)
        n = a.shape[-1]
        kept = np.arange(n) >= n - np.asarray(p.rank)[..., None, None]
        assert np.array_equal(g.left, np.where(kept, p.W[..., ::-1], 0.0))
        assert np.array_equal(g.right, herm(p.V[..., ::-1])) and np.array_equal(g.values, p.source.values)
        for name in ("values", "left", "right", "support_tol"):
            assert np.array_equal(getattr(f, name), getattr(g, name)), name
        assert np.array_equal(g.values, ref.values) and np.array_equal(g.right, ref.right)
        assert (g.bounds, g.support) == (ref.bounds, ref.support)
        assert np.abs(g.left - ref.left).max() <= 16 * EPS


def test_support_of_a_stack_runs_over_each_measure_in_turn():
    # each measure's atoms above that measure's own support_tol, in turn;
    # ranks 3 and 6 mix in the second stack
    mixed = _stacked_cases()[1]
    for stack in (generate(Ensemble("general", 3, 2, 5)), mixed):
        f = deformed_of(stack)
        assert f.support == tuple(lam for a in stack for lam in deformed_of(a).support)
    assert [len(deformed_of(a).support) for a in mixed] == [3, 3, 6, 6]
    # a single measure's support is unchanged: its lambdas above support_tol
    one = deformed_of(mixed[0])
    assert one.support == tuple(lam for lam in one.lambdas if lam > one.support_tol)


def test_a_measure_is_four_arrays():
    assert [f.name for f in dataclasses.fields(SpectralMeasure)] == ["values", "left", "right", "support_tol"]


def test_deformed_of_holds_five_matrices_at_most():
    # the SVD's W and V, V in ascending order, and F's two factors;
    # forming U and multiplying it into V took two matrices more
    n = 128
    a = generate(Ensemble("general", n, 1, 97))[0]
    tracemalloc.start()
    try:
        deformed_of(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * n * n * 16


def test_no_library_path_deforms(monkeypatch):
    # deform is the public push-forward and the tests' reference for F; the
    # library reads F off the polar decomposition instead
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return deform(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dst" and getattr(module, "deform", None) is deform:
            monkeypatch.setattr(module, "deform", spy)
    run_suite("all", SuiteConfig(dims=(2, 4, 8, 16), trials=20, seed=42))
    deformed_of(Rng(98).matrix(6, 6))
    banach_deformed_spectral(banach_operator(Rng(99).matrix(6, 6), build_kuelbs(LpSpace(6, 3.0))))
    assert calls == []
    sys.modules["dst.spectral"].deform(np.eye(2, dtype=complex), spectral_measure(np.eye(2)))  # the spy is in place
    assert calls == [1]


def test_the_calculus_gates_see_a_wrong_isometry(monkeypatch):
    # F no longer shares U with the oracles U g(T): flipping the sign of U's
    # first singular pair, w_1 v_1*, must fail both calculus identities
    formed = PolarDecomposition.U.func

    def flipped(p):
        pair = p.W[..., :1] @ herm(p.V[..., :1])
        return formed(p) - 2.0 * (pair if p.metric is None else p.metric.from_frame(pair))

    monkeypatch.setattr(PolarDecomposition, "U", property(flipped))
    cfg = SuiteConfig(dims=(2, 4, 8), trials=5, seed=42)
    for suite, check in (("funcalc", "identity"), ("banach-spectral", "funcalc_identity")):
        report = run_suite(suite, cfg)
        assert any(c.metrics[check] > c.tolerances[check] for c in report.cases), suite
