import hashlib
import math
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dst.adjoint
import dst.ensembles
from dst.adjoint import dirichlet_laplacian_demo
from dst.ensembles import Ensemble, generate
from dst.errors import (
    BadWeights,
    ConvergenceFailure,
    DegenerateSeeds,
    DimensionMismatch,
    InvalidP,
    SingularGram,
    ToolkitError,
    ZeroVector,
)
from dst.kuelbs import (
    GramMetric,
    LpSpace,
    build_kuelbs,
    canonical_duality_map,
    lax_diagnostic,
    lp_operator_norm,
    steadman,
)
from dst.linalg import abs_norm, gram_inner_rows, gram_norm_rows, herm, vnorm
from dst.rng import Rng, substream

EPS = float(np.finfo(np.float64).eps)
P_GRID = (1.5, 2.0, 3.0, 4.0)
DIM_GRID = (2, 4, 8, 16)


def test_lp_space_validation():
    with pytest.raises(InvalidP):
        LpSpace(3, 1.0)
    with pytest.raises(InvalidP):
        LpSpace(3, math.inf)
    with pytest.raises(InvalidP, match="1e[+]16"):  # q = p/(p-1) rounds to 1
        LpSpace(3, 1e16)
    assert LpSpace(3, 3.0).q == pytest.approx(1.5)


def test_duality_hilbert_case():
    sp = LpSpace(2, 2.0)
    f = canonical_duality_map(np.array([3.0, 4.0], dtype=complex), sp)
    assert np.allclose(f, [3.0, 4.0])
    assert f @ np.array([3.0, 4.0], dtype=complex) == pytest.approx(25.0)


def test_duality_p4_hand_case():
    sp = LpSpace(2, 4.0)
    u = np.array([1.0, 1.0], dtype=complex)
    f = canonical_duality_map(u, sp)
    assert np.allclose(f, 2.0**-0.5)
    assert f @ u == pytest.approx(2.0**0.5)  # = ||u||_4^2
    assert sp.dual_norm(f) == pytest.approx(2.0**0.25)  # = ||u||_4


def test_duality_identities_random_grid():
    rng = Rng(101)
    for p in P_GRID:
        for dim in (2, 4, 8):
            sp = LpSpace(dim, p)
            for _ in range(50):
                u = rng.vector(dim)
                f = canonical_duality_map(u, sp)
                nb = sp.norm(u)
                assert abs(f @ u - nb**2) <= 1e-10 * (1 + nb**2)
                assert abs(sp.dual_norm(f) - nb) <= 1e-10 * (1 + nb)


def test_duality_rejects_zero():
    with pytest.raises(ZeroVector):
        canonical_duality_map(np.zeros(2, dtype=complex), LpSpace(2, 3.0))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8),
    st.sampled_from([1.1, 1.5, 3.0]),
    st.sampled_from([-900, 900]) | st.integers(-900, 900),
    st.integers(0, 2**32 - 1),
)
def test_duality_map_is_scale_free(n, p, k, seed):
    sp = LpSpace(n, p)
    u = Rng(seed).vector(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = canonical_duality_map(2.0**k * u, sp)
    expect = 2.0**k * canonical_duality_map(u, sp)
    assert np.abs(scaled - expect).max() <= 1e-15 * np.abs(expect).max()


def test_duality_map_of_a_block_is_the_map_of_each_row():
    sp = LpSpace(5, 3.0)
    us = Rng(118).matrix(9, 5)
    assert np.array_equal(canonical_duality_map(us, sp), np.vstack([canonical_duality_map(u, sp) for u in us]))
    with pytest.raises(DimensionMismatch):
        canonical_duality_map(us[:, :4], sp)


@pytest.mark.parametrize("seeds", ["canonical", "dense"])
def test_steadman_of_a_block_is_steadman_of_each_row(seeds):
    sp = LpSpace(5, 3.0)
    emb = build_kuelbs(sp) if seeds == "canonical" else build_kuelbs(sp, seeds=Rng(117).matrix(7, 5))
    us = Rng(118).matrix(9, 5)
    block, rows = steadman(emb, us), np.vstack([steadman(emb, u) for u in us])
    if emb.metric.is_diagonal:
        assert np.array_equal(block, rows)
    else:  # BLAS may round G u of a block and of one row apart in the last bits
        assert np.abs(block - rows).max() <= 4 * EPS * np.abs(rows).max()
    with pytest.raises(DimensionMismatch):
        steadman(emb, us[:, :4])


@pytest.mark.parametrize("row", [0, 4, 8])
def test_a_zero_row_anywhere_in_a_block_raises(row):
    sp = LpSpace(4, 3.0)
    us = Rng(120).matrix(9, 4)
    us[row] = 0.0
    with pytest.raises(ZeroVector):
        canonical_duality_map(us, sp)
    with pytest.raises(ZeroVector):
        steadman(build_kuelbs(sp), us)


def test_build_takes_tiny_seeds_and_refuses_zero_ones():
    n = 3
    seeds = [1e-170 * (np.eye(n, dtype=complex)[k] + 0.1) for k in range(n)]
    emb = build_kuelbs(LpSpace(n, 3.0), seeds=seeds)
    assert np.linalg.eigvalsh(emb.gram)[0] > 0.0
    with pytest.raises(ZeroVector):
        build_kuelbs(LpSpace(n, 3.0), seeds=[seeds[0], np.zeros(n, dtype=complex), seeds[2]])


def test_build_refuses_seeds_whose_dual_gram_overflows():
    seeds = [1e200 * np.eye(3, dtype=complex)[k] for k in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateSeeds, match="overflow"):
            build_kuelbs(LpSpace(3, 3.0), seeds=seeds)


def test_build_canonical_l2_uniform_weights():
    n = 5
    emb = build_kuelbs(LpSpace(n, 2.0), weights=np.full(n, 1.0 / n))
    assert np.allclose(emb.gram, np.eye(n) / n)
    u = Rng(102).vector(n)
    assert emb.metric.norm_rows(u) == pytest.approx(float(np.linalg.norm(u)) / math.sqrt(n), rel=1e-12)


def test_build_l4_basis():
    emb = build_kuelbs(LpSpace(2, 4.0), weights=np.array([0.5, 0.5]))
    assert np.allclose(emb.gram, np.eye(2) / 2)
    e1 = np.array([1.0, 0.0], dtype=complex)
    s = steadman(emb, e1)
    assert s @ e1 == pytest.approx(1.0)  # = ||e1||_4^2


def test_build_rejects_degenerate_and_bad_weights():
    e1 = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(DegenerateSeeds):
        build_kuelbs(LpSpace(2, 3.0), seeds=[e1, e1], weights=np.array([0.5, 0.5]))
    with pytest.raises(BadWeights):
        build_kuelbs(LpSpace(2, 3.0), weights=np.array([0.5, 0.4]))
    with pytest.raises(BadWeights):
        build_kuelbs(LpSpace(2, 3.0), weights=np.array([1.5, -0.5]))
    with pytest.raises(BadWeights):
        build_kuelbs(LpSpace(2, 3.0), weights=np.array([1.0]))


def test_default_weights_are_capped_geometric():
    # below 20 seeds the cap is inactive: plain 2^-k, bit for bit
    for n in (1, 5, 19):
        w = np.array([2.0 ** -(k + 1) for k in range(n)])
        assert np.array_equal(build_kuelbs(LpSpace(n, 3.0)).weights, w / w.sum())
    # uncapped 2^-k weights made this Gram numerically singular from dim ~45
    m = build_kuelbs(LpSpace(64, 3.0)).metric
    assert m.eig_max / m.eig_min < 1e6


def test_gram_metric_is_one_read_only_factorization():
    rng = Rng(109)
    emb = build_kuelbs(LpSpace(4, 3.0), seeds=[rng.vector(4) for _ in range(6)])
    m = emb.metric
    assert m.gram is emb.gram
    assert np.allclose(m.chol @ m.chol_h, emb.gram, atol=1e-14)
    assert np.allclose(m.chol_h @ m.frame_inv, np.eye(4), atol=1e-12)
    evs = np.linalg.eigvalsh(emb.gram)
    assert (m.eig_min, m.eig_max) == (evs[0], evs[-1])
    for a in (m.gram, m.chol, m.chol_h, m.frame_inv):
        assert not a.flags.writeable
    with pytest.raises(FrozenInstanceError):
        m.eig_min = 1.0
    with pytest.raises(SingularGram):
        GramMetric(np.diag([1.0, 0.0]).astype(complex))


def test_embedding_seeds_and_functionals_are_read_only():
    rng = Rng(110)
    seeds = [rng.vector(3) for _ in range(4)]
    kept = np.vstack(seeds)
    seeded = build_kuelbs(LpSpace(3, 1.5), seeds=seeds)
    for emb, m in ((build_kuelbs(LpSpace(3, 3.0)), 3), (seeded, 4)):
        assert emb.seeds.shape == emb.functionals.shape == (m, 3)
        for a in (emb.seeds, emb.functionals, *emb.seeds, *emb.functionals):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0
    for s in seeds:  # the embedding keeps its own copy of the caller's seeds
        s[:] = 0.0
    assert np.array_equal(seeded.seeds, kept)


def test_build_kuelbs_leaves_the_callers_weights_writeable():
    w = np.full(3, 1.0 / 3.0)
    emb = build_kuelbs(LpSpace(3, 3.0), weights=w)
    assert w.flags.writeable
    assert not emb.weights.flags.writeable
    assert np.array_equal(emb.weights, w)
    w[0] = 0.5  # the embedding keeps its own copy
    assert emb.weights[0] == 1.0 / 3.0


@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
def test_gram_metric_leaves_the_callers_gram_writeable(dense):
    g = np.diag([2.0, 3.0, 5.0]).astype(complex)
    if dense:
        g[0, 1] = g[1, 0] = 0.5
    m = GramMetric(g)
    assert g.flags.writeable
    assert not m.gram.flags.writeable
    assert np.array_equal(m.gram, g)
    g[0, 0] = 7.0  # the metric keeps its own copy
    assert m.gram[0, 0] == 2.0
    frozen = m.gram  # a read-only Gram is shared, not copied
    assert GramMetric(frozen).gram is frozen


def test_embedding_freezes_its_own_gram():
    for emb in (build_kuelbs(LpSpace(3, 3.0)), build_kuelbs(LpSpace(3, 1.5), seeds=Rng(116).matrix(4, 3))):
        assert not emb.gram.flags.writeable
        assert emb.metric.gram is emb.gram


def test_callers_hand_the_metric_frozen_temporaries(monkeypatch):
    # a Gram made for one GramMetric is frozen first, so the metric keeps it uncopied
    seen = []

    def spy(gram):
        seen.append(gram.flags.writeable)
        return GramMetric(gram)

    monkeypatch.setattr(dst.ensembles, "GramMetric", spy)
    monkeypatch.setattr(dst.adjoint, "GramMetric", spy)
    generate(Ensemble("h_selfadjoint", 4, 2, 7, gram=build_kuelbs(LpSpace(4, 3.0)).gram))
    dirichlet_laplacian_demo(8, rng=Rng(119))
    assert seen == [False, False]


def _dense_methods(m, a, us, vs):
    """Each GramMetric method's result beside its formula in the dense factors."""
    left, right = m.from_frame_factors(a, us)
    return {
        "to_frame": (m.to_frame(a), m.chol_h @ a @ m.frame_inv),
        "from_frame": (m.from_frame(a), m.frame_inv @ a @ m.chol_h),
        "from_frame_factors.left": (left, m.frame_inv @ a),
        "from_frame_factors.right": (right, us @ m.chol_h),
        "adjoint_of": (m.adjoint_of(a), np.linalg.solve(m.gram, herm(a) @ m.gram)),
        "apply": (m.apply(a), m.gram @ a),
        "inner_rows": (m.inner_rows(us, vs), gram_inner_rows(m.gram, us, vs)),
        "norm_rows": (m.norm_rows(us), gram_norm_rows(m.gram, us)),
    }


@pytest.mark.parametrize("n", [1, 2, 17, 64])
def test_diagonal_gram_scalings_match_the_dense_factors_bit_for_bit(n):
    rng = Rng(substream(111, n))
    weights = np.abs(rng.vector(n).real) + 0.01
    grams = [
        build_kuelbs(LpSpace(n, 3.0)).gram,
        build_kuelbs(LpSpace(n, 1.5), weights=weights / weights.sum()).gram,
        np.diag(10.0 ** (2.0 * rng.vector(n).real)).astype(complex),
    ]
    for gram in grams:
        m = GramMetric(gram)
        assert m.is_diagonal
        a, us, vs = rng.matrix(n, n), rng.matrix(3, n), rng.matrix(3, n)
        for name, (fast, dense) in _dense_methods(m, a, us, vs).items():
            assert np.array_equal(fast, dense), (n, name)


def _lapack_factors(gram):
    """GramMetric's fields as LAPACK computes them for ``gram``."""
    chol = np.linalg.cholesky(gram)
    evs = np.linalg.eigvalsh(gram)
    return {"chol": chol, "chol_h": herm(chol), "frame_inv": np.linalg.inv(herm(chol)),
            "eig_min": evs[0], "eig_max": evs[-1]}


@pytest.mark.parametrize("n", [1, 2, 3, 16, 64, 256])
def test_diagonal_gram_fields_equal_what_lapack_returns(n):
    rng = Rng(substream(115, n))
    grams = [
        build_kuelbs(LpSpace(n, p), weights=weights).gram
        for p in (1.2, 1.5, 3.0, 7.0)
        for weights in (None, np.full(n, 1.0 / n))
    ]
    grams += [np.diag(10.0 ** (2.0 * rng.vector(n).real)).astype(complex) for _ in range(3)]
    for gram in grams:
        m = GramMetric(gram)
        assert m.is_diagonal
        for name, expect in _lapack_factors(gram).items():
            got = getattr(m, name)
            assert np.array_equal(got, expect) and np.asarray(got).dtype == np.asarray(expect).dtype, (n, name)


def test_canonical_grams_equal_the_weighted_products_byte_for_byte():
    # build_kuelbs writes diag(w) for canonical seeds instead of forming
    # c* diag(w) c and u* diag(w) u; the two must agree to the signed zero
    for n in (1, 3, 16, 64):
        for p in (1.5, 3.0):
            for weights in (None, np.full(n, 1.0 / n)):
                emb = build_kuelbs(LpSpace(n, p), weights=weights)
                w, c, u = emb.weights, emb.functionals, emb.seeds
                gram = herm(c) @ (w[:, None] * c)
                dual_gram = herm(u) @ (w[:, None] * u)
                assert emb.gram.tobytes() == ((gram + herm(gram)) / 2.0).tobytes()
                assert emb.dual_gram.tobytes() == ((dual_gram + herm(dual_gram)) / 2.0).tobytes()


@pytest.mark.parametrize(
    "diagonal",
    [
        [1.0, 0.0, 2.0],  # a zero entry
        [1.0, -1e-3, 2.0],  # a negative entry
        [1.0, 3 * EPS, 1.0],  # exactly at n eps max
        [1.0, 2 * EPS, 1.0],  # below it
    ],
)
def test_a_singular_diagonal_gram_is_refused_as_before(diagonal):
    gram = np.diag(diagonal).astype(complex)
    evs = np.linalg.eigvalsh(gram)
    message = f"gram matrix is numerically singular (min/max eigenvalue = {evs[0]:.3e}/{evs[-1]:.3e})"
    with pytest.raises(SingularGram) as info:
        GramMetric(gram)
    assert str(info.value) == message
    assert GramMetric(np.diag(np.array(diagonal) + 1.0).astype(complex)).is_diagonal  # the same layout passes


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_diagonal_gram_is_refused(bad):
    with pytest.raises(SingularGram):
        GramMetric(np.diag([1.0, bad, 2.0]).astype(complex))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [(1, 1), (0, 2)], ids=["diagonal-entry", "off-diagonal-entry"])
def test_a_non_finite_dense_gram_is_refused(bad, where):
    g = np.diag([1.0, 1.5, 2.0]).astype(complex)
    g[0, 1] = g[1, 0] = 0.5  # a nonzero off-diagonal entry: the dense path
    g[where] = g[where[::-1]] = bad
    with pytest.raises(SingularGram, match="NaN or inf"):
        GramMetric(g)


def test_canonical_embedding_is_built_without_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a canonical-seed build called LAPACK")

    for name in ("eigvalsh", "cholesky", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for p in (1.5, 3.0):
        assert build_kuelbs(LpSpace(17, p), weights=np.full(17, 1.0 / 17)).metric.is_diagonal
        assert build_kuelbs(LpSpace(17, p)).metric.is_diagonal


def test_canonical_embedding_is_built_in_quadratic_memory():
    # an n x n complex array is 256 KiB at n = 128, so 8 MB holds about 30
    # of them, while one n x n identity per seed would take 16 n^3 = 34 MB
    build_kuelbs(LpSpace(128, 3.0))  # imports and caches outside the trace
    tracemalloc.start()
    try:
        build_kuelbs(LpSpace(128, 3.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_a_single_nonzero_off_diagonal_entry_takes_the_dense_path():
    gram = np.diag([1.0, 2.0, 3.0]).astype(complex)
    gram[0, 2] = 5e-324  # the smallest subnormal: no tolerance hides it
    m = GramMetric(gram)
    assert not m.is_diagonal
    assert GramMetric(np.diag([1.0, 2.0, 3.0]).astype(complex)).is_diagonal
    rng = Rng(112)
    for name, (fast, dense) in _dense_methods(m, rng.matrix(3, 3), rng.matrix(2, 3), rng.matrix(2, 3)).items():
        assert np.array_equal(fast, dense), name


def test_gram_reproduces_weighted_sum():
    rng = Rng(103)
    emb = build_kuelbs(LpSpace(4, 3.0), seeds=[rng.vector(4) for _ in range(6)])
    for _ in range(20):
        u, v = rng.vector(4), rng.vector(4)
        atomwise = sum(
            w * complex(fc @ u) * complex(fc @ v).conjugate()
            for w, fc in zip(emb.weights, emb.functionals)
        )
        assert abs(atomwise - emb.metric.inner_rows(u, v)) <= 1e-12 * (1 + abs(atomwise))


def test_embedding_contractive():
    rng = Rng(104)
    for p in P_GRID:
        for dim in DIM_GRID:
            emb = build_kuelbs(LpSpace(dim, p))
            evs = np.linalg.eigvalsh(emb.gram)
            assert evs[0] > 0.0
            for _ in range(50):
                u = rng.vector(dim)
                assert emb.metric.norm_rows(u) <= vnorm(u, p) + 1e-12


def test_dual_gram_identity():
    rng = Rng(105)
    emb = build_kuelbs(LpSpace(3, 3.0), seeds=[rng.vector(3) for _ in range(5)])
    for fa in emb.functionals:
        for fb in emb.functionals:
            direct = sum(
                w * complex(fa @ s) * complex(fb @ s).conjugate()
                for w, s in zip(emb.weights, emb.seeds)
            )
            assert abs(direct - np.vdot(fb, emb.dual_gram @ fa)) <= 1e-12 * (1 + abs(direct))


def test_steadman_identity_and_lower_bound():
    rng = Rng(108)
    for p in (1.5, 3.0):
        emb = build_kuelbs(LpSpace(4, p))
        for _ in range(100):
            u = rng.vector(4)
            s = steadman(emb, u)
            nb = vnorm(u, p)
            assert abs(s @ u - nb**2) <= 1e-10 * (1 + nb**2)
            assert emb.space.dual_norm(s) >= nb - 1e-10
        with pytest.raises(ZeroVector):
            steadman(emb, np.zeros(4, dtype=complex))


def test_steadman_hilbert_case_matches_canonical_map():
    n = 4
    emb = build_kuelbs(LpSpace(n, 2.0), weights=np.full(n, 1.0 / n))  # G = I/n
    u = Rng(109).vector(n)
    s = steadman(emb, u)
    f = canonical_duality_map(u, emb.space)
    assert np.allclose(s, f)


def test_lp_operator_norm_diagonal_and_identity():
    for p in (1.5, 3.0):
        est = lp_operator_norm(np.diag([0.5, -3.0, 2.0]).astype(complex), p)
        assert est.value == pytest.approx(3.0, rel=1e-6)
        est_i = lp_operator_norm(np.eye(4, dtype=complex), p)
        assert est_i.value == pytest.approx(1.0, rel=1e-9)
    exact = lp_operator_norm(Rng(111).matrix(5, 5), 2.0)
    assert exact.method == "svd"


def _lp_norms(rows: np.ndarray, p: float) -> np.ndarray:
    return (np.abs(rows) ** p).sum(axis=1) ** (1.0 / p)


@pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 8.0])
@pytest.mark.parametrize("n", [2, 3])
def test_power_iteration_beats_sphere_sampling(n, p):
    # the sampling pass that once followed the power iteration at n <= 3,
    # kept here as a reference: it never finds a larger ||a x||_p
    for k, a in enumerate(generate(Ensemble("general", n, 20, 1000 * n + int(10 * p)))):
        est = lp_operator_norm(a, p)
        assert est.method == "power"
        x = Rng(k).matrix(4096, n)
        x /= _lp_norms(x, p)[:, None]
        assert est.value >= _lp_norms(x @ a.T, p).max()
        best = est.maximizer[None, :]
        assert _lp_norms(best, p)[0] == pytest.approx(1.0, rel=1e-12)
        assert _lp_norms(best @ a.T, p)[0] == pytest.approx(est.value, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 0.5, math.inf, math.nan, -2.0])
def test_lp_operator_norm_refuses_p_outside_the_reflexive_range(p):
    with pytest.raises(InvalidP):
        lp_operator_norm(Rng(114).matrix(3, 3), p)


@pytest.mark.parametrize(
    "a, p, names",
    [
        (np.full((2, 2), 1e308 + 0j), 3.0, "1.000e+308"),  # the true norm, 2e308, overflows
        (np.full((2, 2), 1.5e308 + 1.5e308j), 1.5, "1.500e+308"),  # so does max |a_ij|
        (np.full((2, 2), 1.5e308 + 1.5e308j), 3.0, "1.500e+308"),
    ],
    ids=["a0-3.0", "a1-1.5", "a2-3.0"],
)
def test_lp_operator_norm_out_of_range_raises_toolkit_error(a, p, names):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceFailure, match="floating-point range") as info:
            lp_operator_norm(a, p)
    assert isinstance(info.value, ToolkitError)
    assert f"max(|Re a_ij|, |Im a_ij|) = {names}" in str(info.value)


@pytest.mark.parametrize("scale", [1e31, 1e-40])
def test_lp_operator_norm_has_no_scale_limit(scale):
    # q - 1 = 10 here, so a dual map that divides by ||z||_q^(q-1) would
    # overflow at 1e31 and underflow to 0 at 1e-40
    a = Rng(113).matrix(4, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = lp_operator_norm(scale * a, 1.1).value
    assert value == pytest.approx(scale * lp_operator_norm(a, 1.1).value, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8),
    st.sampled_from([1.1, 1.5, 3.0, 8.0]),
    st.integers(-900, 900),
    st.integers(0, 2**32 - 1),
)
def test_lp_operator_norm_is_scale_invariant(n, p, k, seed):
    a = Rng(seed).matrix(n, n)
    scaled = lp_operator_norm(2.0**k * a, p).value
    assert scaled == pytest.approx(2.0**k * lp_operator_norm(a, p).value, rel=1e-12)


def _per_vector_dual_direction(y, ay, ny, r):
    if ny == 0.0:
        return np.zeros_like(y)
    out = np.zeros_like(y)
    nz = ay > 0
    out[nz] = y[nz] * ay[nz] ** (r - 2.0)
    return out / ny ** (r - 1.0)


def _other_starts(n):
    return np.vstack([np.eye(n, dtype=complex)[: min(n, 3)], np.ones((1, n), dtype=complex),
                      Rng(substream(0x1B5, n)).matrix(6, n)])


def _ritz_start(a):
    """The Ritz vector of the one subspace step b* b S (b = a / max|a_ij|,
    S the other starts as columns), taken as the top eigenvector of the
    projected b* b rather than by an SVD of b Q."""
    b = a / np.abs(a).max()
    q = np.linalg.qr(herm(b) @ b @ _other_starts(a.shape[0]).T)[0]
    bq = b @ q
    return q @ np.linalg.eigh(herm(bq) @ bq)[1][:, -1]


def _svd_start(a):
    """The top right singular vector, the start the Ritz vector replaced."""
    return np.linalg.svd(a)[2][0].conj()


def _per_start_lp_norm(a, p, top_start):
    """The power iteration one start at a time, as an oracle for the block;
    ``top_start`` takes the slot after the flat vector."""
    n = a.shape[0]
    q = p / (p - 1.0)
    others = _other_starts(n)
    starts = [*others[: min(n, 3) + 1], top_start, *others[min(n, 3) + 1 :]]
    ah = herm(a)
    best = 0.0
    for x0 in starts:
        x = x0 / abs_norm(np.abs(x0), p)
        for _ in range(100):
            y = a @ x
            ay = np.abs(y)
            gamma = abs_norm(ay, p)
            best = max(best, gamma)
            if gamma == 0.0:
                break
            z = ah @ _per_vector_dual_direction(y, ay, gamma, p)
            az = np.abs(z)
            zq = abs_norm(az, q)
            if zq <= np.vdot(z, x).real * (1.0 + 1e-14):
                break
            x = _per_vector_dual_direction(z, az, zq, q)
    return best


@pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 8.0])
@pytest.mark.parametrize("n", [2, 3, 8, 16, 64])
def test_block_power_iteration_matches_per_start_loop(n, p):
    for a in generate(Ensemble("general", n, 20, 7000 + 100 * n + int(10 * p))):
        est = lp_operator_norm(a, p)
        # up to n = 16 the Ritz start leaves the SVD-start estimate as it was
        top = _svd_start(a) if n <= 16 else _ritz_start(a)
        assert est.value == pytest.approx(_per_start_lp_norm(a, p, top), rel=1e-12)
        assert vnorm(est.maximizer, p) == pytest.approx(1.0, rel=1e-12)
        assert vnorm(a @ est.maximizer, p) == pytest.approx(est.value, rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_lp_operator_norm_factors_no_n_by_n_matrix(p, monkeypatch):
    seen = []
    for name in ("svd", "qr"):
        real = getattr(np.linalg, name)

        def spy(m, *args, _real=real, **kwargs):
            seen.append(np.shape(m))
            return _real(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    est = lp_operator_norm(Rng(115).matrix(64, 64), p)
    assert est.method == "power"
    assert seen and all(min(shape) <= 11 for shape in seen), seen
    seen.clear()
    assert lp_operator_norm(Rng(115).matrix(64, 64), 2.0).method == "svd"
    assert seen == [(64, 64)]


def test_lp_operator_norm_stops_starts_that_have_merged(monkeypatch):
    rows = []
    real = LpSpace.duality_rows

    def spy(self, block):
        rows.append(int(np.prod(block.shape[:-1])))  # every row of the (count, k, n) block
        return real(self, block)

    monkeypatch.setattr(LpSpace, "duality_rows", spy)
    emb = build_kuelbs(LpSpace(64, 3.0))
    h = generate(Ensemble("h_selfadjoint", 64, 1, 115, gram=emb.gram))[0]
    g = Rng(115).matrix(64, 64)
    # rows through both half steps: 1144, 360 and 1878 (the stack carries
    # the stopped rows of one matrix while the other needs their starts)
    # with the merge; 1232, 1046 and 2568 when every start runs to its own
    # stop test
    for a, limit in ((g, 1180), (h, 450), (np.stack([g, h]), 1950)):
        rows.clear()
        lp_operator_norm(a, 3.0)
        assert sum(rows) <= limit


@settings(max_examples=100, deadline=None, derandomize=True)  # a failure is a regression, not a lucky search
@given(
    st.integers(1, 32),
    st.sampled_from([1.1, 1.5, 3.0, 8.0]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_lp_operator_norm_is_at_least_the_spectral_radius(n, p, hermitian, seed, stacked):
    # ||A||_p >= |lambda| for every eigenvalue (A x = lambda x gives
    # ||A x||_p = |lambda| ||x||_p); the estimate, a lower bound of ||A||_p,
    # reaches the spectral radius on these draws, alone or as the second
    # matrix of a stack
    a = Rng(seed).matrix(n, n)
    if hermitian:
        a = (a + herm(a)) / 2.0
    rho = float(np.abs(np.linalg.eigvals(a)).max())
    if stacked:
        value = lp_operator_norm(np.stack([Rng(seed + 1).matrix(n, n), a]), p).value[1]
    else:
        value = lp_operator_norm(a, p).value
    assert value >= rho * (1.0 - 1e-12)


@pytest.mark.parametrize("kind", ["general", "h_selfadjoint"])
@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("n", [2, 4, 16])
def test_a_stack_estimates_each_matrix_as_its_own_call_does(kind, n, p):
    gram = build_kuelbs(LpSpace(n, p)).gram if kind == "h_selfadjoint" else None
    draws = generate(Ensemble(kind, n, 6, 4000 + 10 * n + int(p), gram=gram))
    stack = np.concatenate([draws, draws[:1]])  # a repeated matrix merges no start with its twin
    est = lp_operator_norm(stack, p)
    assert est.method == "power" and est.value.shape == (7,) and est.maximizer.shape == (7, n)
    for a, value, x in zip(stack, est.value, est.maximizer):
        assert value == pytest.approx(lp_operator_norm(a, p).value, rel=1e-13)
        assert vnorm(x, p) == pytest.approx(1.0, rel=1e-12)
        assert vnorm(a @ x, p) == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("n", [2, 16, 64])
def test_a_stack_of_one_has_the_shapes_of_a_stack(n, p):
    a = Rng(116 + n).matrix(n, n)
    one, single = lp_operator_norm(a[None], p), lp_operator_norm(a, p)
    assert isinstance(single.value, float) and single.maximizer.shape == (n,)
    assert np.array_equal(one.value, [single.value]) and np.array_equal(one.maximizer, single.maximizer[None])


# value (as float.hex) and the leading 16 hex digits of the sha256 of the
# maximizer's bytes, as the iteration gave them before it took stacks
_SINGLE_MATRIX_BITS = {
    (16, 1.5): ("0x1.95eb5577e8876p+2", "31daaff3c63957ce"),
    (16, 3.0): ("0x1.9ce02f63210f1p+2", "b87bec02438a180a"),
    (64, 1.5): ("0x1.d61fca99af686p+3", "e21f90c76772220b"),
    (64, 3.0): ("0x1.d8bfd1ad59130p+3", "0519a0c564257fde"),
}


@pytest.mark.parametrize(("n", "p"), sorted(_SINGLE_MATRIX_BITS))
def test_a_single_matrix_keeps_its_bits(n, p):
    est = lp_operator_norm(Rng(116 + n).matrix(n, n), p)
    got = (est.value.hex(), hashlib.sha256(est.maximizer.tobytes()).hexdigest()[:16])
    assert got == _SINGLE_MATRIX_BITS[n, p]


@pytest.mark.parametrize("where", [0, 1])
def test_an_operator_that_overflows_inside_a_stack_raises(where):
    big = np.full((2, 2), 1e308 + 0j)  # its lp norm, 2e308 at p = 3, overflows
    stack = np.insert(Rng(117).matrix(2, 2)[None], where, big, axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceFailure, match=r"max\(\|Re a_ij\|, \|Im a_ij\|\) = 1.000e\+308"):
            lp_operator_norm(stack, 3.0)


def test_a_stopped_start_that_the_block_still_carries_never_raises(monkeypatch):
    # in diag(0, 1) the start e_1 stops at once (A e_1 = 0) while a general
    # matrix keeps e_1 going, so the block carries its zero row; the spy
    # turns the norm of every zero row after the first step into NaN, as an
    # iterate that left the floating-point range would read
    real, calls = LpSpace.duality_rows, []

    def spy(self, block):
        norms, psi = real(self, block)
        calls.append(self.p)
        if len(calls) > 2 and self.p == 3.0:
            norms = np.where(np.abs(block).max(axis=-1) == 0.0, math.nan, norms)
        return norms, psi

    a = np.diag([0.0, 1.0]).astype(complex)
    b = Rng(118).matrix(2, 2)
    monkeypatch.setattr(LpSpace, "duality_rows", spy)
    est = lp_operator_norm(np.stack([a, b]), 3.0)
    assert len(calls) > 4  # the carried zero row went through at least one more step
    monkeypatch.undo()
    assert est.value[0] == 1.0
    assert est.value[1] == pytest.approx(lp_operator_norm(b, 3.0).value, rel=1e-13)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_lax_diagnostic_of_a_stack_is_the_diagnostic_of_each_matrix(p):
    emb = build_kuelbs(LpSpace(8, p))
    stack = generate(Ensemble("h_selfadjoint", 8, 5, 119, gram=emb.gram))
    stack[4] += np.triu(np.ones((8, 8)), 1)  # not H-selfadjoint
    diag = lax_diagnostic(emb, stack)
    assert diag.method == "power" and diag.is_h_selfadjoint.tolist() == [True] * 4 + [False]
    for idx, a in enumerate(stack):
        one = lax_diagnostic(emb, a)
        assert isinstance(one.norm_h, float) and isinstance(one.is_h_selfadjoint, bool)
        # the Frobenius and frame 2-norms of a stack are those of each matrix, bit for bit
        assert (diag.norm_h[idx], diag.selfadjoint_residual[idx], diag.bound) == (
            one.norm_h, one.selfadjoint_residual, one.bound
        )
        assert diag.norm_b[idx] == pytest.approx(one.norm_b, rel=1e-13)
        assert diag.ratio[idx] == pytest.approx(one.ratio, rel=1e-13)


def test_lax_identity_and_selfadjoint_ensemble():
    emb = build_kuelbs(LpSpace(4, 3.0))
    d = lax_diagnostic(emb, np.eye(4, dtype=complex))
    assert d.is_h_selfadjoint
    assert d.ratio == pytest.approx(1.0, rel=1e-6)
    assert d.bound >= 1.0

    ell = np.linalg.cholesky(emb.gram)
    rng = Rng(112)
    for _ in range(5):
        r = rng.matrix(4, 4)
        h = (r + herm(r)) / 2.0
        a = np.linalg.solve(herm(ell), h @ herm(ell))  # G-selfadjoint by construction
        diag = lax_diagnostic(emb, a)
        assert diag.is_h_selfadjoint
        assert diag.ratio <= diag.bound

    nonnormal = np.triu(np.ones((4, 4)), 1).astype(complex) + np.diag([1.0, 2.0, 3.0, 4.0])
    d2 = lax_diagnostic(emb, nonnormal)
    assert not d2.is_h_selfadjoint
    assert d2.norm_h > 0 and d2.norm_b > 0


def test_dimension_mismatch():
    emb = build_kuelbs(LpSpace(3, 3.0))
    with pytest.raises(DimensionMismatch):
        lax_diagnostic(emb, np.eye(4, dtype=complex))
