"""Acceptance gate: one test per acceptance criterion, each printing a
single pass/fail line (also echoed in the terminal summary)."""

import time
from itertools import combinations, permutations

import numpy as np

from qflag.decomp import bruhat, dieudonne_det
from qflag.flags import leaf_dimension, orbit_probe
from qflag.hmat import Permutation, QMatrix, random_symplectic
from qflag.hp1geom import (
    ChartPoint,
    bruhat_field,
    bruhat_normalization,
    fourvector_rank,
    invariant_field,
    lie_derivative_check,
    radial_profile,
    rank_at,
)
from qflag.liealg import (
    Multivector,
    ad_group,
    ad_multivector,
    lambda_element,
    lie_bracket,
    schouten,
    sp_basis,
)
from qflag.quat import Quaternion

from conftest import record_criterion
from util import (
    embed_multivector,
    embed_sp2,
    max_coeff_diff,
    random_bruhat_factors,
    random_invertible,
    random_multivector,
    random_quaternion,
    random_unit_quaternion,
)

RHO_GRID = [0.1, 0.25, 0.5, 1.0, 2.0, 3.0]


def g_ratio(rho):
    return (1.0 + 3.0 * rho ** 4) / (1.0 + rho ** 2) ** 3


def test_criterion_01_hp1_closed_form():
    t0 = time.perf_counter()
    rows = list(radial_profile(RHO_GRID, directions=5, seed=0))
    worst = 0.0
    for row in rows:
        profile = row["coeff_bruhat"]  # normalized: -> 1 as rho -> 0
        expect = (1.0 + row["rho"] ** 2) * (1.0 + 3.0 * row["rho"] ** 4)
        worst = max(worst, abs(profile / expect - 1.0))
    # direction independence at fixed rho, 20 random directions
    rng = np.random.default_rng(1)
    dirs = rng.normal(size=(20, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    coeffs = [bruhat_field(ChartPoint.south(Quaternion.from_array(d))).coeff
              for d in dirs]
    spread = max(coeffs) - min(coeffs)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and spread <= 1e-9 and elapsed < 5.0
    record_criterion(1, ok,
                     f"profile (1+rho^2)(1+3rho^4) rel err {worst:.2e}, "
                     f"direction spread {spread:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_02_g_ratio_law():
    norm = bruhat_normalization()
    worst = 0.0
    for rho in RHO_GRID:
        p = ChartPoint.south(Quaternion(0.0, rho))
        ratio = bruhat_field(p).coeff / norm / invariant_field(p).coeff
        worst = max(worst, abs(ratio / g_ratio(rho) - 1.0))
    spot = (abs(g_ratio(1.0) - 0.5), abs(g_ratio(2.0) - 49.0 / 125.0))
    ok = worst <= 1e-6 and max(spot) == 0.0
    record_criterion(2, ok,
                     f"ratio g(rho) rel err {worst:.2e}, g(1)=0.5, g(2)=49/125 exact")
    assert ok


def test_criterion_03_vanishing_and_rank():
    north = ChartPoint.north(Quaternion())
    coeff = abs(bruhat_field(north).coeff)
    ranks_ok = rank_at(north) == 0
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = random_quaternion(rng)
        ranks_ok = ranks_ok and rank_at(ChartPoint.south(v)) == 4
    ok = coeff <= 1e-10 and ranks_ok
    record_criterion(3, ok,
                     f"north coeff {coeff:.2e}, rank 0 at pole / 4 at 50 south points")
    assert ok


def test_criterion_04_lambda_brackets():
    t0 = time.perf_counter()
    lam2, lam3 = lambda_element(2), lambda_element(3)
    n2 = schouten(lam2, lam2).max_abs()
    n3 = schouten(lam3, lam3).max_abs()
    worst_sph = 0.0
    rng = np.random.default_rng(4)
    for n in (2, 3):
        basis = sp_basis(n)
        lam = lambda_element(n)
        for _ in range(50):
            coeffs = {(int(i),): float(rng.normal()) for i in basis.spheroid_indices}
            x = Multivector(n, 1, coeffs)
            worst_sph = max(worst_sph, ad_multivector(x, lam).max_abs())
    elapsed = time.perf_counter() - t0
    ok = n2 <= 1e-12 and n3 > 1e-3 and worst_sph <= 1e-12 and elapsed < 30.0
    record_criterion(4, ok,
                     f"[L2,L2] {n2:.1e}, [L3,L3] max {n3:.3g}, "
                     f"spheroid residual {worst_sph:.1e}, {elapsed:.2f}s")
    assert ok


def test_criterion_05_commutator_table():
    b = sp_basis(2)
    E = b.element("E(1,2)")
    S = {x: b.element(f"S({x};1,2)") for x in "ijk"}
    H = {x: b.element(f"Dg({x};1)") - b.element(f"Dg({x};2)") for x in "ijk"}
    M = {x: b.element(f"Dg({x};1)") + b.element(f"Dg({x};2)") for x in "ijk"}
    uprod = {("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
             ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j")}
    resid = 0.0
    checks = 0
    for x in "ijk":
        for lhs, rhs in [
            (lie_bracket(M[x], E), Multivector.zero(2, 1)),
            (lie_bracket(H[x], E), S[x].scale(2.0)),
            (lie_bracket(E, S[x]), H[x].scale(2.0)),
        ]:
            resid = max(resid, (lhs - rhs).max_abs())
            checks += 1
        for y in "ijk":
            if x == y:
                pairs = [
                    (lie_bracket(M[x], M[y]), Multivector.zero(2, 1)),
                    (lie_bracket(H[x], H[y]), Multivector.zero(2, 1)),
                    (lie_bracket(S[x], S[y]), Multivector.zero(2, 1)),
                    (lie_bracket(H[x], S[y]), E.scale(-2.0)),
                    (lie_bracket(S[x], M[y]), Multivector.zero(2, 1)),
                    (lie_bracket(H[x], M[y]), Multivector.zero(2, 1)),
                ]
            else:
                sgn, u = uprod[(x, y)]
                pairs = [
                    (lie_bracket(M[x], M[y]), M[u].scale(2.0 * sgn)),
                    (lie_bracket(H[x], H[y]), M[u].scale(2.0 * sgn)),
                    (lie_bracket(S[x], S[y]), M[u].scale(2.0 * sgn)),
                    (lie_bracket(S[x], H[y]), Multivector.zero(2, 1)),
                    (lie_bracket(S[x], M[y]), S[u].scale(2.0 * sgn)),
                    (lie_bracket(H[x], M[y]), H[u].scale(2.0 * sgn)),
                ]
            for lhs, rhs in pairs:
                resid = max(resid, (lhs - rhs).max_abs())
                checks += 1
    ok = resid == 0.0
    record_criterion(5, ok, f"commutator table: {checks} relations, residual {resid}")
    assert ok


def test_criterion_06_bruhat_and_dieudonne():
    rng = np.random.default_rng(6)
    worst_factor = 0.0
    structural = True
    for n in (2, 3, 4):
        for _ in range(200):
            u, d, w, v, g = random_bruhat_factors(n, rng)
            form = bruhat(g)
            structural = structural and form.w == w
            worst_factor = max(worst_factor,
                               (form.U - u).frobenius(),
                               (form.D - d).frobenius(),
                               (form.V - v).frobenius())
            pw = form.w.matrix()
            conj = pw @ form.V @ pw.inverse()
            for i in range(n):
                for j in range(i + 1, n):
                    structural = structural and conj[i, j].norm() <= 1e-10
    worst_mult = 0.0
    for _ in range(200):
        a, b = random_invertible(3, rng), random_invertible(3, rng)
        worst_mult = max(worst_mult, abs(
            dieudonne_det(a @ b) / (dieudonne_det(a) * dieudonne_det(b)) - 1.0))
    worst_sp = 0.0
    for n in (2, 3):
        for _ in range(10):
            worst_sp = max(worst_sp, abs(dieudonne_det(random_symplectic(n, rng)) - 1.0))
    ok = (worst_factor <= 1e-8 and structural
          and worst_mult <= 1e-9 and worst_sp <= 1e-9)
    record_criterion(6, ok,
                     f"factor recovery {worst_factor:.1e}, V in V_w, "
                     f"ddet mult {worst_mult:.1e}, ddet(Sp) dev {worst_sp:.1e}")
    assert ok


def test_criterion_07_dressing_leaf_coincidence():
    rng = np.random.default_rng(7)
    worst_dev = 0.0
    for n in (2, 3):
        sigma = [random_unit_quaternion(rng) for _ in range(n)]
        for ol in permutations(range(n)):
            w = Permutation(ol)
            k = QMatrix.diag(sigma) @ w.matrix()
            report = orbit_probe(k, samples=100 // (1 if n == 2 else 6) + 1, seed=7)
            worst_dev = max(worst_dev, report["phase_dev"])
    kv_report = orbit_probe(Permutation([1, 0]).matrix(), samples=100, seed=8)
    worst_dev = max(worst_dev, kv_report["phase_dev"])
    recon = kv_report["kv_reconstruction_err"]
    ok = worst_dev <= 1e-8 and recon <= 1e-9
    record_criterion(7, ok,
                     f"signature deviation {worst_dev:.1e}, "
                     f"P_(12) orbit k_v reconstruction {recon:.1e}")
    assert ok


def test_criterion_08_dimension_formulas():
    t0 = time.perf_counter()
    ok = True
    for ol in permutations(range(3)):
        word = Permutation(ol).reduced_word()
        ok = ok and leaf_dimension(word, 3, seed=8) == 4 * len(word)
    ok = ok and leaf_dimension([0, 1, 0], 3, seed=9) == 12
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    record_criterion(8, ok,
                     f"rank = 4*len(w) for all reduced words in S3, {elapsed:.2f}s")
    assert ok


def test_criterion_09_schouten_axioms_and_rank():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        p, q, r = (int(v) for v in rng.integers(1, 5, size=3))
        P, Q, R = (random_multivector(2, g, rng) for g in (p, q, r))
        worst = max(worst,
                    (schouten(P, Q) - schouten(Q, P).scale((-1.0) ** (p * q))).max_abs(),
                    (schouten(P, Q.wedge(R)) - schouten(P, Q).wedge(R)
                     - Q.wedge(schouten(P, R)).scale((-1.0) ** (p * q + q))).max_abs(),
                    (schouten(P, schouten(Q, R)).scale((-1.0) ** (p * (r - 1)))
                     + schouten(Q, schouten(R, P)).scale((-1.0) ** (q * (p - 1)))
                     + schouten(R, schouten(P, Q)).scale((-1.0) ** (r * (q - 1)))
                     ).max_abs())
    divisible = True
    for dim in (8, 12):
        combos = list(combinations(range(dim), 4))
        for trial in range(100):
            if trial % 2 == 0:
                # generic dense 4-vector: full rank, = dim
                coeffs = {t: float(rng.normal()) for t in combos}
            else:
                # sum of decomposables on disjoint blocks: rank 4k
                k = int(rng.integers(0, dim // 4 + 1))
                coeffs = {tuple(range(4 * b, 4 * b + 4)): float(rng.normal()) + 2.0
                          for b in range(k)}
            divisible = divisible and fourvector_rank(coeffs, dim) % 4 == 0
    ok = worst <= 1e-10 and divisible
    record_criterion(9, ok,
                     f"axiom residual {worst:.1e} on 100 triples, "
                     f"rank divisible by 4 in dims 8 and 12")
    assert ok


def test_criterion_10_lie_derivative():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(10):
        v = random_quaternion(rng)
        v = v * (float(rng.uniform(0.3, 1.5)) / v.norm())
        x = random_multivector(2, 1, rng, nterms=4)
        worst = max(worst, lie_derivative_check(ChartPoint.south(v), x))
    ok = worst <= 1e-3
    record_criterion(10, ok, f"Lie-derivative residual {worst:.1e} at 10 (p, X) pairs")
    assert ok


def test_criterion_11_multiplicativity_and_embedding():
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in (2, 3):
        lam = lambda_element(n)
        for _ in range(100):
            g, h = random_symplectic(n, rng), random_symplectic(n, rng)
            lhs = ad_group(g @ h, lam) - lam
            rhs = ad_group(g, ad_group(h, lam) - lam) + (ad_group(g, lam) - lam)
            worst = max(worst, max_coeff_diff(lhs, rhs))  # unpruned, unlike lhs - rhs
    # Embedding compatibility: the component of Ad_{f(A)} L3 - L3 in the
    # wedge algebra of the embedded sp(2) equals the embedded Ad_A L2 - L2,
    # and the remainder never touches the embedded subalgebra.
    worst_embed = 0.0
    lam3 = lambda_element(3)
    lam2 = lambda_element(2)
    b2 = sp_basis(2)
    for r in (0, 1):
        emb = {next(iter(embed_multivector(b2.element(nm), r, 3).coeffs))[0]
               for nm in b2.names}
        for _ in range(10):
            a = random_symplectic(2, rng)
            lhs = ad_group(embed_sp2(a, r, 3), lam3) - lam3
            rhs = embed_multivector(ad_group(a, lam2) - lam2, r, 3)
            block = Multivector(3, 4, {t: c for t, c in lhs.coeffs.items()
                                       if set(t) <= emb})
            rest = Multivector(3, 4, {t: c for t, c in lhs.coeffs.items()
                                      if not set(t) <= emb})
            worst_embed = max(worst_embed, max_coeff_diff(block, rhs))
            leak = max((abs(c) for t, c in rest.coeffs.items() if set(t) & emb),
                       default=0.0)
            worst_embed = max(worst_embed, leak)
    ok = worst <= 1e-10 and worst_embed <= 1e-10
    record_criterion(11, ok,
                     f"multiplicativity residual {worst:.1e} (100 pairs, n=2,3), "
                     f"embedding compatibility {worst_embed:.1e}")
    assert ok
