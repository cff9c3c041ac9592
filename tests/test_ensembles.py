import numpy as np
import pytest

from dst.ensembles import Ensemble, generate
from dst.errors import BadRank, ConfigError, SingularGram
from dst.kuelbs import LpSpace, build_kuelbs
from dst.linalg import herm, hermitian_eigen
from dst.rng import Rng, substream


def test_determinism():
    a = generate(Ensemble("hermitian", 4, 3, 42))
    b = generate(Ensemble("hermitian", 4, 3, 42))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    c = generate(Ensemble("hermitian", 4, 3, 43))
    assert not np.array_equal(a[0], c[0])


def test_hermitian_kind():
    for m in generate(Ensemble("hermitian", 5, 3, 7)):
        assert np.array_equal(m, herm(m))


def test_negdef_eigenvalues():
    for m in generate(Ensemble("negdef", 5, 3, 7)):
        assert np.all(hermitian_eigen(m).values < 0.0)


def test_rankdef_numerical_rank():
    for m in generate(Ensemble("rankdef", 5, 3, 7, rank=2)):
        s = np.linalg.svd(m, compute_uv=False)
        assert s[1] > 1e-8
        assert s[2] <= 1e-12 * s[0]


def test_h_selfadjoint_kind():
    emb = build_kuelbs(LpSpace(4, 3.0))
    for m in generate(Ensemble("h_selfadjoint", 4, 3, 7, gram=emb.gram)):
        gm = emb.gram @ m
        assert np.linalg.norm(gm - herm(gm)) <= 1e-12 * (1 + np.linalg.norm(gm))


def test_h_selfadjoint_ensemble_factors_its_gram_once(lapack_calls):
    gram = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    mats = generate(Ensemble("h_selfadjoint", 4, 10, 7, gram=gram))
    assert lapack_calls == {}  # a diagonal Gram is factored without LAPACK
    for m in mats:
        gm = gram @ m
        assert np.linalg.norm(gm - herm(gm)) <= 1e-12 * (1 + np.linalg.norm(gm))
    gram[0, 1] = gram[1, 0] = 0.5
    generate(Ensemble("h_selfadjoint", 4, 10, 7, gram=gram))
    assert lapack_calls == {"cholesky": 1}


def _cholesky_draws(gram, count, seed):
    """The ensemble as drawn from herm(cholesky(G)) directly."""
    ell_h = herm(np.linalg.cholesky(gram))
    out = []
    for k in range(count):
        r = Rng(substream(seed, k)).matrix(len(gram), len(gram))
        out.append(np.linalg.solve(ell_h, (r + herm(r)) / 2.0 @ ell_h))
    return out


@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
def test_h_selfadjoint_draws_equal_the_cholesky_form(dense):
    space = LpSpace(8, 3.0)
    emb = build_kuelbs(space, seeds=Rng(117).matrix(10, 8)) if dense else build_kuelbs(space)
    assert emb.metric.is_diagonal is not dense
    mats = generate(Ensemble("h_selfadjoint", 8, 5, 11, gram=emb.gram))
    for m, ref in zip(mats, _cholesky_draws(emb.gram, 5, 11), strict=True):
        assert np.array_equal(m, ref)


def test_h_selfadjoint_refuses_a_gram_that_is_not_positive_definite():
    with pytest.raises(SingularGram):
        generate(Ensemble("h_selfadjoint", 2, 1, 7, gram=np.array([[1.0, 2.0], [2.0, 1.0]])))


def test_validation():
    with pytest.raises(ConfigError):
        Ensemble("weird", 4, 1, 0)
    with pytest.raises(BadRank):
        Ensemble("rankdef", 4, 1, 0, rank=5)
    with pytest.raises(ConfigError):
        Ensemble("rankdef", 4, 1, 0)
    with pytest.raises(ConfigError):
        Ensemble("h_selfadjoint", 4, 1, 0)


@pytest.mark.parametrize("kind", ["general", "hermitian", "negdef", "rankdef"])
def test_generate_returns_one_stack_in_index_order(kind):
    rank = 2 if kind == "rankdef" else None
    stack = generate(Ensemble(kind, 4, 3, 42, rank=rank))
    assert isinstance(stack, np.ndarray) and stack.shape == (3, 4, 4)
    assert np.array_equal(stack[0], generate(Ensemble(kind, 4, 1, 42, rank=rank))[0])
