"""Acceptance gate: one test per shipped guarantee, each printing a PASS/FAIL
line with the measured defect.  Run with -s (or read the captured output) to
see the per-criterion report.

Criterion 2's variance target (0, 2, 2) comes from the definition: centering
kills order 0, and Gaussian moments with Sigma = (lambda/2) 1 give the rest.
"""

import time

import numpy as np
import pytest

from vertstar import poisson, smoothfn as sf, starprod
from vertstar.formal import is_formally_positive
from vertstar.jets import jet_constant, jet_variable, multi_indices
from vertstar.poisson import standard_symplectic
from vertstar.smoothfn import eval_jet, evaluate
from vertstar.starprod import (
    associativity_defect,
    check_flip_symmetry,
    check_hermitean,
    check_verticality,
    general_vertical,
    moyal_constant,
    moyal_fiberwise,
    pair_picture_star,
)
from vertstar.states import (
    CoherentState,
    QuadraticObservable,
    bare_delta,
    lightcone_v0,
    lorentz_square,
    minkowski_metric,
)

from conftest import (exp_of, expectation_root, partial, random_poly,
                      star_square_expect_closed_form, variance_closed_form)

STD2 = standard_symplectic(2)
STD4 = standard_symplectic(4)


def report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"criterion {num:2d}: {status} - {desc}{extra}")
    return ok


def test_criterion_01_lorentz_square_offset():
    t0 = time.time()
    st = CoherentState((1.0, 0.0, 0.0, 0.0), 4, 2)
    s = st.expect(lorentz_square(4))
    ok = np.allclose(s.coeffs, (1.0, -1.0, 0.0), atol=1e-12)
    ok &= time.time() - t0 < 1.0
    assert report(1, "Lorentz-square offset (1, -1, 0)", ok,
                  f"got {tuple(float(np.real(c)) for c in s.coeffs)}")


def test_criterion_02_variance_closed_form():
    t0 = time.time()
    sp = moyal_constant(4, STD4, 2, picture="fiber")
    st = CoherentState((1.0, 0.0, 0.0, 0.0), 4, 2)
    f_eta = lorentz_square(4)
    var = st.variance(sp, f_eta)  # generic pipeline: star product + expect
    # the smeared star-square identity for quadratic forms must hold
    q = QuadraticObservable(minkowski_metric(4))
    sq = st.star_expect(sp, f_eta, f_eta)
    assert np.allclose(sq.coeffs, star_square_expect_closed_form(q, st, STD4).coeffs,
                       atol=1e-10)
    assert np.allclose(var.coeffs, variance_closed_form(q, st, STD4).coeffs,
                       atol=1e-10)
    # omega = delta_v o exp(lambda Delta / 4) is Gaussian smearing with
    # covariance Sigma = (lambda/2) 1.  Centering kills order 0; the order-1
    # Moyal term of f_eta * f_eta vanishes by antisymmetry of Theta and the
    # order-2 term is proportional to tr(Theta eta Theta eta) = 0.  Hence
    # Var = 4 v^T eta Sigma eta v + 2 tr((Sigma eta)^2) = 2 lambda |v|^2
    # + 2 lambda^2, i.e. (0, 2, 2) at v = (1, 0, 0, 0).
    target = (0.0, 2.0, 2.0)
    ok = np.allclose(var.coeffs, target, atol=1e-10) and time.time() - t0 < 1.0
    got = tuple(float(np.real(c)) for c in var.coeffs)
    report(2, "variance target (0, 2, 2)", ok, f"pipeline gives {got}")
    assert ok, f"variance {got} != target {target}"
    # companions from the same moments: omega(f_eta * f_eta) = f_eta(v)^2
    # + 2 f_eta(v) tr(Sigma eta) + 4 v^T eta Sigma eta v + (tr(Sigma eta))^2
    # + 2 tr((Sigma eta)^2) = (1, 0, 3), and Var(v^0) = Sigma_00 = lambda/2
    assert np.allclose(sq.coeffs, (1.0, 0.0, 3.0), atol=1e-10), sq.coeffs
    var0 = st.variance(sp, sf.coordinate(0, 4))
    assert np.allclose(var0.coeffs, (0.0, 0.5, 0.0), atol=1e-10), var0.coeffs


def test_criterion_03_quadratic_expectation():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        A = rng.uniform(-1, 1, (4, 4))
        q = QuadraticObservable(A)
        v = rng.uniform(-1, 1, 4)
        st = CoherentState(v, 4, 2)
        got = st.expect(q.fn(4))
        want = q.expect_closed_form(st)
        worst = max(worst, float(np.max(np.abs(np.asarray(got.coeffs)
                                               - np.asarray(want.coeffs)))))
    assert report(3, "quadratic expectation f_A(v) + (lambda/2) tr(gA)",
                  worst < 1e-10, f"max defect {worst:.2e}")


def test_criterion_04_deformed_lightcone():
    worst = 0.0
    for lam in (0.01, 0.04):
        grid = np.linspace(0.0, 2.0, 20)
        gaps = []
        for s in grid:
            root = expectation_root(lam, s)
            worst = max(worst, abs(root - lightcone_v0(lam, s)))
            gaps.append(lightcone_v0(lam, s) - s)
        monotone = all(a > b > 0 for a, b in zip(gaps, gaps[1:]))
        worst = worst if monotone else np.inf
    assert report(4, "deformed light cone v0 = sqrt(lambda + |s|^2), "
                     "monotone approach", worst < 1e-10,
                  f"max root defect {worst:.2e}")


def test_criterion_05_moyal_associativity():
    t0 = time.time()
    rng = np.random.default_rng(12)
    sp = moyal_constant(4, STD4, 3, picture="fiber")
    worst = 0.0
    for _ in range(1000):
        f, g, h = (random_poly(rng, 4) for _ in range(3))
        x = rng.uniform(-1, 1, 4)
        worst = max(worst, float(np.max(associativity_defect(sp, f, g, h, [x]))))
    dt = time.time() - t0
    assert report(5, "Moyal associativity, 1000 cubic triples, orders <= 3",
                  worst < 1e-10 and dt < 30.0,
                  f"max defect {worst:.2e}, {dt:.1f}s")


def test_criterion_06_verticality_every_mode():
    rng = np.random.default_rng(13)
    n = 2
    modes = {
        "moyal_constant": moyal_constant(n, STD2, 2, picture="tm"),
        "moyal_fiberwise": moyal_fiberwise(
            n, [[None, sf.polynomial({(0, 0): 1.0, (2, 0): 0.5}, n)],
                [sf.polynomial({(0, 0): -1.0, (2, 0): -0.5}, n), None]],
            2),
        "general_vertical": general_vertical(
            poisson.build_commuting_compact_theta(n, STD2, 1.0, 0.25), 2),
    }
    worst = 0.0
    exact = True
    for sp in modes.values():
        pairs = [(random_poly(rng, 2 * n, axes=range(n, 2 * n)),
                  random_poly(rng, 2 * n, axes=range(n)))
                 for _ in range(100)]
        pts = rng.uniform(-1, 1, (2, 2 * n))
        for f, u in pairs:
            for x in pts:
                for s in (sp.star_at(f, u, x), sp.star_at(u, f, x)):
                    # every correction term differentiates u along the fiber
                    exact &= all(c == 0 for c in s.coeffs[1:])
                    worst = max(worst, abs(s.coeffs[0]
                                           - evaluate(f, x) * evaluate(u, x)))
    assert report(6, "verticality: f * pi^*u == f u, corrections exactly zero",
                  exact and worst < 1e-13,
                  f"classical-term rounding {worst:.2e}")


def test_criterion_07_jacobi_identity():
    t0 = time.time()
    th1 = poisson.build_commuting_compact_theta(4, STD4, 1.0, 0.25)
    d1 = poisson.jacobi_defect(th1, poisson.fiber_samples(th1, 1000, seed=0,
                                                          radius=1.3))
    th2 = poisson.build_ball_compact_theta(4, STD4, 1.0, 0.25)
    d2 = poisson.jacobi_defect(th2, poisson.fiber_samples(th2, 1000, seed=0))
    th3 = poisson.naive_scaled_theta(4, STD4, 1.0, 0.25)
    d3 = poisson.jacobi_defect(th3, poisson.fiber_samples(th3, 1000, seed=0))
    ok = d1 < 1e-9 and d2 < 1e-9 and d3 > 1e-3
    assert report(7, "Jacobi: compact constructions pass, naive scaling fails",
                  ok, f"commuting {d1:.1e}, ball {d2:.1e}, naive {d3:.1e}, "
                      f"{time.time() - t0:.1f}s")


def test_criterion_08_general_vertical_order_two():
    t0 = time.time()
    th = poisson.restrict_to_fiber(
        poisson.build_commuting_compact_theta(2, STD2, 1.0, 0.25), np.zeros(2))
    sp = general_vertical(th, 2)
    rng = np.random.default_rng(16)
    worst = 0.0
    for _ in range(1000):
        polys = [random_poly(rng, 2, terms=1) for _ in range(3)]
        x = rng.uniform(-1.3, 1.3, 2)
        worst = max(worst, float(np.max(associativity_defect(sp, *polys, [x]))))
    dt = time.time() - t0
    assert report(8, "order-2 vertical star: associativity of the closed-form C2",
                  worst < 1e-8 and dt < 60.0,
                  f"max defect {worst:.2e}, {dt:.1f}s")


def test_criterion_09_flip_and_hermiticity():
    rng = np.random.default_rng(17)
    n = 2
    modes = (
        moyal_constant(n, STD2, 2, picture="tm"),
        moyal_fiberwise(
            n, [[None, sf.constant(1.0, n)], [sf.constant(-1.0, n), None]], 2),
        general_vertical(poisson.build_ball_compact_theta(n, STD2, 1.0, 0.25), 2),
    )
    worst = 0.0
    for sp in modes:
        pairs = [(random_poly(rng, 2 * n, axes=range(n, 2 * n), complex_coeffs=True),
                  random_poly(rng, 2 * n, axes=range(n, 2 * n), complex_coeffs=True))
                 for _ in range(100)]
        real_pairs = [(random_poly(rng, 2 * n, axes=range(n, 2 * n)),
                       random_poly(rng, 2 * n, axes=range(n, 2 * n)))
                      for _ in range(100)]
        pts = rng.uniform(-1, 1, (1, 2 * n))
        worst = max(worst, check_hermitean(sp, pairs, pts))
        worst = max(worst, check_flip_symmetry(sp, real_pairs, pts))
    assert report(9, "flip symmetry and Hermiticity, all modes",
                  worst < 1e-12, f"max defect {worst:.2e}")


def test_criterion_10_uncertainty_saturation():
    sp = moyal_constant(4, STD4, 2, picture="fiber")
    st = CoherentState((0.0,) * 4, 4, 2)
    rep = st.uncertainty_check(sp, sf.coordinate(0, 4), sf.coordinate(1, 4))
    gap = np.max(np.abs(np.asarray(rep["lhs"].coeffs)
                        - np.asarray(rep["rhs"].coeffs)))
    ok = gap < 1e-10 and rep["holds"]
    assert report(10, "uncertainty saturation: 4 Var(v0) Var(v1) = lambda^2",
                  ok, f"|lhs - rhs| {gap:.2e}")


def test_criterion_11_classicality_at_large_separation():
    th = poisson.restrict_to_fiber(
        poisson.build_ball_compact_theta(2, STD2, 1.0, 0.25), np.zeros(2))
    sp = general_vertical(th, 2)
    R = th.support_radius
    rng = np.random.default_rng(20)
    exact = True
    for _ in range(100):
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        base = direction * rng.uniform(1.1 * R, 3 * R)
        st = CoherentState(base, 2, 2)
        f, g = random_poly(rng, 2), random_poly(rng, 2)
        exact &= st.star_expect(sp, f, g).coeffs == st.expect(f * g).coeffs
    assert report(11, "omega(f * g) == omega(f g) exactly beyond the support",
                  exact)


def test_criterion_12_bare_delta_positivity_failure():
    sp = moyal_constant(4, STD4, 2, picture="fiber")
    base = (0.5, 0.0, 0.0, 0.0)
    bd = bare_delta(base, 4, 2)
    scan = bd.positivity_scan(sp, np.random.default_rng(21), count=500)
    st = CoherentState(base, 4, 2)
    scan2 = st.positivity_scan(sp, np.random.default_rng(22), count=500)
    ok = (not scan["ok"]) and scan["checked"] <= 500 and scan2["ok"]
    assert report(12, "bare delta fails the positivity scan, coherent state passes",
                  ok, f"witness after {scan['checked']} probes")


def test_criterion_13_pair_picture_consistency():
    n = 2
    sp = moyal_constant(n, STD2, 2, picture="tm")
    rng = np.random.default_rng(23)
    eye = np.eye(n)
    Ainv = np.block([[eye / 2, eye / 2], [-eye / 2, eye / 2]])
    worst = 0.0
    for _ in range(100):
        f = random_poly(rng, 2 * n, axes=range(n, 2 * n))
        g = random_poly(rng, 2 * n, axes=range(n, 2 * n))
        pv = rng.uniform(-1, 1, 2 * n)
        qq = np.concatenate([pv[:n] - pv[n:], pv[:n] + pv[n:]])
        F = sf.pullback_affine(f, Ainv, np.zeros(2 * n))
        G = sf.pullback_affine(g, Ainv, np.zeros(2 * n))
        a = sp.star_at(f, g, pv)
        b = pair_picture_star(sp, F, G, qq)
        worst = max(worst, float(np.max(np.abs(np.asarray(a.coeffs)
                                               - np.asarray(b.coeffs)))))
    # beyond the support radius the pair product is pointwise
    thc = poisson.build_ball_compact_theta(n, STD2, 1.0, 0.25)
    spc = general_vertical(thc, 2)
    exact = True
    for _ in range(20):
        qq = np.concatenate([rng.uniform(-0.3, 0.3, n),
                             rng.uniform(3.0, 5.0, n)])
        f = sf.coordinate(0, 2 * n)
        g = sf.coordinate(n + 1, 2 * n)
        s = pair_picture_star(spc, f, g, qq)
        exact &= abs(s.coeffs[0] - evaluate(f, qq) * evaluate(g, qq)) < 1e-14
        exact &= s.coeffs[1] == 0 and s.coeffs[2] == 0
    assert report(13, "pair picture agrees with the midpoint-chart product",
                  worst < 1e-10 and exact, f"max defect {worst:.2e}")


def test_criterion_14_jet_engine_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(25)
    h = 1e-5
    worst_rel = 0.0
    for dim in (1, 2, 3, 4):
        for order in (1, 2, 3):
            f = random_poly(rng, dim, degree=order)
            g = exp_of(random_poly(rng, dim, degree=2, terms=2) * 0.3)
            for func in (f, g, f * g):
                x0 = rng.uniform(-1, 1, dim)
                j = eval_jet(func, tuple(x0), order)
                for i in range(dim):
                    e = np.zeros(dim)
                    e[i] = h
                    fd = (evaluate(func, x0 + e) - evaluate(func, x0 - e)) / (2 * h)
                    exact = partial(j, tuple(int(k == i) for k in range(dim)))
                    rel = abs(fd - exact) / max(1.0, abs(exact))
                    worst_rel = max(worst_rel, rel)
    dt = time.time() - t0
    assert report(14, "jet partials vs central finite differences",
                  worst_rel < 1e-5 and dt < 10.0,
                  f"max relative defect {worst_rel:.2e}, {dt:.1f}s")
