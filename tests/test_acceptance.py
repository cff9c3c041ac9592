"""End-to-end acceptance battery.

Every numbered test pins its tolerance inline and prints one PASS line
(visible under ``pytest -s`` or on failure). Random inputs come from the
deterministic ensemble generator, so the battery is reproducible bit for
bit. Run with::

    pytest tests/test_acceptance.py -v -s
"""

import subprocess
import sys
import time

import numpy as np

from dst.adjoint import (
    adjoint,
    adjoint_axioms,
    baire_approximant,
    banach_deformed_spectral,
    banach_operator,
    dirichlet_laplacian,
    dirichlet_laplacian_demo,
    h_polar,
)
from dst.ensembles import Ensemble, generate
from dst.gexpr import evaluate, parse
from dst.kuelbs import LpSpace, build_kuelbs, canonical_duality_map, lax_diagnostic, steadman
from dst.linalg import herm, hermitian_eigen, vnorm
from dst.polar import polar_decompose
from dst.rng import Rng, substream
from dst.spectral import deformed_of, integrate, spectral_measure, variation
from dst.suites import _support_match

SEED = 42
G_CORPUS = ("lambda", "lambda^2", "exp(-lambda)", "sin(lambda)", "sqrt(lambda)")


def announce(num, text):
    print(f"PASS criterion {num:2d}: {text}")


def test_01_deformed_reconstruction():
    start = time.time()
    for dim in (2, 4, 8, 16, 32):
        mats = generate(Ensemble("general", dim, 200, substream(SEED, dim)))
        for a in mats:
            f = deformed_of(a)
            resid = np.linalg.norm(f.reconstruct() - a)
            assert resid <= 1e-10 * (1.0 + np.linalg.norm(a))
    elapsed = time.time() - start
    assert elapsed < 30.0
    announce(1, f"deformed reconstruction, 1000 matrices in {elapsed:.1f} s")


def test_02_representation_distinctness():
    checked = 0
    for dim in (4, 8, 16):
        count = 17 if dim != 16 else 16  # 50 matrices total
        for a in generate(Ensemble("negdef", dim, count, substream(SEED, 100 + dim))):
            es = hermitian_eigen(a)
            r_a = float(np.max(np.abs(es.values)))
            classical = spectral_measure(a)
            assert all(-r_a - 1e-10 <= lam < 0.0 for lam in classical.lambdas)
            f = deformed_of(a)
            assert all(0.0 < lam <= r_a + 1e-10 for lam in f.support)
            assert _support_match(f.support, np.abs(es.values)) <= 1e-10
            checked += 1
    assert checked == 50
    announce(2, "negative-definite inputs: classical atoms in [-r,0), deformed in (0,r]")


def test_03_support_identity():
    for dim in (2, 4, 8, 16, 32):
        general = generate(Ensemble("general", dim, 10, substream(SEED, 200 + dim)))
        rankdef = generate(
            Ensemble("rankdef", dim, 10, substream(SEED, 300 + dim), rank=max(1, dim // 2))
        )
        for a in general + rankdef:
            f = deformed_of(a)
            sigma = np.linalg.svd(a, compute_uv=False)
            nonzero = sigma[sigma > f.support_tol]
            assert _support_match(f.support, nonzero) <= 1e-10
    announce(3, "deformed support equals the nonzero singular values")


def test_04_functional_calculus():
    for dim in (2, 4, 8, 16):
        for a in generate(Ensemble("general", dim, 10, substream(SEED, 400 + dim))):
            f = deformed_of(a)
            p = polar_decompose(a)
            et = hermitian_eigen(p.T)
            for src in G_CORPUS:
                ast = parse(src)
                g_t = (et.vectors * [evaluate(ast, max(v, 0.0)) for v in et.values]) @ herm(et.vectors)
                rhs = p.U @ g_t
                lhs = integrate(ast, f)
                assert np.linalg.norm(lhs - rhs) <= 1e-9 * (1.0 + np.linalg.norm(rhs))
        # Hermitian positive definite: matches the classical calculus
        for r in generate(Ensemble("general", dim, 5, substream(SEED, 500 + dim))):
            a = r @ herm(r) + 0.5 * np.eye(dim)
            fd = deformed_of(a)
            ec = spectral_measure(a)
            for src in G_CORPUS:
                lhs = integrate(src, fd)
                rhs = integrate(src, ec)
                assert np.linalg.norm(lhs - rhs) <= 1e-9 * (1.0 + np.linalg.norm(rhs))
    announce(4, "parsed-g calculus equals U g(T); classical agreement on PD inputs")


def test_05_variation_bound():
    rng = Rng(substream(SEED, 600))
    count = 0
    for dim in (2, 4, 8, 16):
        for a in generate(Ensemble("general", dim, 50, substream(SEED, 600 + dim))):
            f = deformed_of(a)
            for _ in range(5):
                phi = rng.vector(dim)
                assert variation(f, phi) <= variation(f.source, phi) + 1e-12
                count += 1
    assert count >= 1000
    announce(5, f"variation bound Var(F phi) <= Var(E phi) on {count} pairs")


def test_06_kuelbs_embedding():
    for p in (1.5, 2.0, 3.0, 4.0):
        for dim in (2, 4, 8, 16):
            emb = build_kuelbs(LpSpace(dim, p))
            assert float(np.linalg.eigvalsh(emb.gram)[0]) > 0.0
            rng = Rng(substream(SEED, 700 + dim * 10 + int(p * 10)))
            for _ in range(1000):
                u = rng.vector(dim)
                assert emb.metric.norm_rows(u) <= vnorm(u, p) + 1e-12
    announce(6, "embedding gram PD and ||u||_H <= ||u||_B, 1000 draws per (p, dim)")


def test_07_duality_identities():
    for p in (1.5, 2.0, 3.0, 4.0):
        for dim in (2, 4, 8, 16):
            sp = LpSpace(dim, p)
            emb = build_kuelbs(sp)
            rng = Rng(substream(SEED, 800 + dim * 10 + int(p * 10)))
            for _ in range(1000):
                u = rng.vector(dim)
                nb = sp.norm(u)
                f = canonical_duality_map(u, sp)
                assert abs(f @ u - nb**2) <= 1e-10 * (1.0 + nb**2)
                assert abs(sp.dual_norm(f) - nb) <= 1e-10 * (1.0 + nb)
                s = steadman(emb, u)
                assert abs(s @ u - nb**2) <= 1e-10 * (1.0 + nb**2)
    announce(7, "canonical pairing/dual-norm identities and Steadman identity")


def test_08_adjoint_axioms():
    for p in (1.5, 2.0, 3.0, 4.0):
        for dim in (2, 4, 8, 16):
            emb = build_kuelbs(LpSpace(dim, p))
            rng = Rng(substream(SEED, 900 + dim * 10 + int(p * 10)))
            for a in generate(Ensemble("general", dim, 100, substream(SEED, 10_000 + dim * 10 + int(p * 10)))):
                pair = adjoint(banach_operator(a, emb))
                ax = adjoint_axioms(pair, probes=[rng.vector(dim) for _ in range(3)])
                assert ax.accretive_min >= -1e-10
                assert ax.natural_selfadjoint_residual <= 1e-10
                assert ax.inverse_norm <= 1.0 + 1e-10
                second = adjoint(banach_operator(pair.astar, emb))
                assert np.linalg.norm(second.astar - a) <= 1e-10 * (1.0 + np.linalg.norm(a))
    announce(8, "adjoint axioms and involution, 100 operators per (p, dim)")


def test_09_baire_approximation():
    # uniform weights keep the frame norm of T at the Euclidean scale, so
    # the decade schedule 1e1..1e4 sits in the resolvent-dominated regime
    # where the O(1/lambda) rate window applies at every tested dim
    lams = (1e1, 1e2, 1e3, 1e4)
    for p in (1.5, 3.0):
        for dim in (2, 4, 8, 16):
            emb = build_kuelbs(LpSpace(dim, p), weights=np.full(dim, 1.0 / dim))
            rng = Rng(substream(SEED, 11_000 + dim * 10 + int(p * 10)))
            for a in generate(Ensemble("general", dim, 3, substream(SEED, 12_000 + dim * 10 + int(p * 10)))):
                sigma = np.linalg.svd(a, compute_uv=False)
                assert sigma[-1] > 1e-6 * sigma[0]  # ensemble draws are full rank
                op = banach_operator(a, emb)
                gp = h_polar(op)
                phis = [rng.vector(dim) for _ in range(3)]
                errors = []
                for lam in lams:
                    probe = baire_approximant(op, lam)
                    assert probe.identity_residual() <= 1e-10
                    worst = 0.0
                    for phi in phis:
                        err = emb.metric.norm_rows(probe.a_lambda @ phi - a @ phi)
                        bound = emb.metric.norm_rows(gp.Tbar @ (a @ phi)) / lam
                        assert err <= bound * (1.0 + 1e-6)
                        worst = max(worst, err)
                    errors.append(worst)
                for e_prev, e_next in zip(errors, errors[1:]):
                    ratio = e_next / e_prev
                    assert 0.02 <= ratio <= 0.5
    announce(9, "resolvent approximant: error bound, decade rate window, identity")


def test_10_banach_deformed_spectral():
    for p in (1.5, 3.0):
        for dim in (2, 4, 8, 16):
            emb = build_kuelbs(LpSpace(dim, p))
            rng = Rng(substream(SEED, 13_000 + dim * 10 + int(p * 10)))
            for a in generate(Ensemble("general", dim, 5, substream(SEED, 14_000 + dim * 10 + int(p * 10)))):
                res = banach_deformed_spectral(banach_operator(a, emb))
                recon = res.measure.reconstruct()
                probes = [np.eye(dim, dtype=complex)[:, k] for k in range(dim)]
                probes += [rng.vector(dim) for _ in range(3)]
                for phi in probes:
                    err = vnorm(recon @ phi - a @ phi, p)
                    assert err <= 1e-8 * (1.0 + vnorm(a @ phi, p))
    announce(10, "metric deformed measure reconstructs in the lp norm")


def test_11_lax_diagnostic():
    checked = 0
    for p in (1.5, 3.0):
        for dim in (2, 4, 8, 16):
            emb = build_kuelbs(LpSpace(dim, p))
            ens = Ensemble(
                "h_selfadjoint", dim, 13, substream(SEED, 15_000 + dim * 10 + int(p * 10)), gram=emb.gram
            )
            for a in generate(ens):
                diag = lax_diagnostic(emb, a)
                assert diag.is_h_selfadjoint
                assert diag.ratio <= diag.bound
                checked += 1
    assert checked >= 100
    announce(11, f"Lax ratio below the factorization bound on {checked} operators")


def test_12_laplacian_demo():
    for n in (8, 32):
        rng = Rng(substream(SEED, 16_000 + n))
        shift = np.zeros((n, n), dtype=complex)
        shift[np.arange(n - 1), np.arange(1, n)] = 1.0
        for a in (None, dirichlet_laplacian(n), shift, rng.matrix(n, n)):
            _, m = dirichlet_laplacian_demo(n, r=3.0, a=a, rng=rng)
            assert m["contract"] <= 1e-9
            assert m["closed_form"] <= 1e-9
            assert m["involution"] <= 1e-9
            assert m["accretive_min"] >= -1e-9
            assert m["natural_selfadjoint"] <= 1e-9
            assert m["inverse_norm"] <= 1.0 + 1e-9
    announce(12, "Dirichlet-Laplacian adjoint demo on n = 8 and n = 32 grids")


def test_13_determinism(tmp_path):
    def run(report_name):
        path = tmp_path / report_name
        proc = subprocess.run(
            [
                sys.executable, "-m", "dst", "verify", "--suite", "all",
                "--seed", "42", "--no-timestamp", "--report", str(path),
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        return proc.returncode, path.read_bytes()

    code1, bytes1 = run("r1.json")
    code2, bytes2 = run("r2.json")
    assert code1 == 0 and code2 == 0
    assert bytes1 == bytes2
    announce(13, "verify --suite all is byte-deterministic with exit code 0")
