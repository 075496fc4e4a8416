"""Star products: canonical commutators, associativity, structural symmetries,
the closed-form order-2 operator, and the two-point (pair) picture."""

from dataclasses import fields, replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertstar import poisson, smoothfn as sf, starprod
from vertstar.poisson import (
    build_ball_compact_theta,
    build_commuting_compact_theta,
    check_antisymmetric,
    constant_theta,
    naive_scaled_theta,
    restrict_to_fiber,
    standard_symplectic,
)
from vertstar.jets import Jet, jet_constant, n_coeffs, partials
from vertstar.smoothfn import eval_jet, eval_jets, evaluate
from vertstar.starprod import (
    C2_WEIGHTS,
    associativity_defect,
    check_flip_symmetry,
    check_hermitean,
    check_verticality,
    general_vertical,
    midpoint_chart,
    midpoint_pullback,
    moyal_constant,
    moyal_fiberwise,
    pair_picture_star,
)
from vertstar.states import CoherentState

from conftest import exp_of, random_poly

STD2 = standard_symplectic(2)
STD4 = standard_symplectic(4)


def test_canonical_commutator():
    sp = moyal_constant(2, STD2, 2, picture="fiber")
    v0, v1 = sf.coordinate(0, 2), sf.coordinate(1, 2)
    x = (0.3, -0.7)
    comm = sp.star_at(v0, v1, x) - sp.star_at(v1, v0, x)
    assert comm.coeffs == pytest.approx((0j, 1j, 0j))


def test_star_with_constant_is_pointwise():
    sp = moyal_constant(2, STD2, 2, picture="fiber")
    f = sf.polynomial({(2, 1): 1.0, (1, 0): -0.5}, 2)
    one = sf.constant(1.0, 2)
    x = (0.4, 0.9)
    s = sp.star_at(f, one, x)
    assert s.coeffs[0] == pytest.approx(evaluate(f, x))
    assert s.coeffs[1] == 0 and s.coeffs[2] == 0


def test_moyal_matches_hand_expansion():
    # f = v0^2, g = v1^2: f*g = f g + i lam v0 v1 * Theta^{01}*2... checked
    # against the explicit bidifferential expansion
    sp = moyal_constant(2, STD2, 2, picture="fiber")
    f = sf.polynomial({(2, 0): 1.0}, 2)
    g = sf.polynomial({(0, 2): 1.0}, 2)
    a, b = 0.7, -0.4
    s = sp.star_at(f, g, (a, b))
    # C1 = (i/2)(d0 f d1 g - d1 f d0 g) = (i/2)(2a)(2b)
    # C2 = -(1/8)*2*(d0^2 f)(d1^2 g) ... = (1/2)(i/2)^2 Theta^2 (2)(2)
    assert s.coeffs[0] == pytest.approx(a * a * b * b)
    assert s.coeffs[1] == pytest.approx(2j * a * b)
    assert s.coeffs[2] == pytest.approx(-0.5)


def test_lorentz_square_star_squares_to_pointwise_square():
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    sp = moyal_constant(4, STD4, 3, picture="fiber")
    f_eta = sf.quadratic_form(eta)
    x = (0.9, 0.2, -0.4, 0.6)
    s = sp.star_at(f_eta, f_eta, x)
    assert s.coeffs[0] == pytest.approx(evaluate(f_eta, x) ** 2)
    assert np.allclose(s.coeffs[1:], 0.0, atol=1e-14)


def test_moyal_associativity(rng):
    sp = moyal_constant(4, STD4, 3, picture="fiber")
    worst = 0.0
    for _ in range(50):
        f, g, h = (random_poly(rng, 4) for _ in range(3))
        x = rng.uniform(-1, 1, 4)
        worst = max(worst, float(np.max(associativity_defect(sp, f, g, h, [x]))))
    assert worst < 1e-10


def test_moyal_fiberwise_theta_varies_with_base(rng):
    n = 2
    # Theta^{01}(p) = 1 + p0^2
    fn = [[None, sf.polynomial({(0, 0): 1.0, (2, 0): 1.0}, n)], [None, None]]
    fn[1][0] = sf.polynomial({(0, 0): -1.0, (2, 0): -1.0}, n)
    sp = moyal_fiberwise(n, fn, 1)
    v0 = sf.coordinate(n, 2 * n)
    v1 = sf.coordinate(n + 1, 2 * n)
    for p0 in (0.0, 0.5, 1.0):
        x = (p0, 0.3, 0.1, -0.2)
        comm = sp.star_at(v0, v1, x) - sp.star_at(v1, v0, x)
        assert comm.coeffs[1] == pytest.approx(1j * (1 + p0 ** 2))


@pytest.mark.parametrize("given", ["upper", "lower", "both"])
def test_moyal_fiberwise_reads_the_given_entries(given):
    # Theta^{01} = 1, given above the diagonal, below it, or on both sides
    n = 2
    fn = [[None, None], [None, None]]
    if given != "lower":
        fn[0][1] = sf.constant(1.0, n)
    if given != "upper":
        fn[1][0] = sf.constant(-1.0, n)
    sp = moyal_fiberwise(n, fn, 1)
    v0, v1 = sf.coordinate(n, 2 * n), sf.coordinate(n + 1, 2 * n)
    x = (0.3, -0.2, 0.1, 0.4)
    comm = sp.star_at(v0, v1, x) - sp.star_at(v1, v0, x)
    assert comm.coeffs == (0j, 1j)
    f = v0 + v1 * 1j
    assert check_hermitean(sp, [(f, f), (f, v1)], [x]) <= 1e-12


def test_star_product_carries_one_theta():
    assert [fl.name for fl in fields(starprod.StarProduct)] == ["lambda_order", "theta"]
    ball = build_ball_compact_theta(2, STD2, 1.0, 0.25)
    fw = moyal_fiberwise(2, [[None, sf.constant(1.0, 2)], [None, None]], 2)
    # the kernel follows theta: Moyal at every point of a theta constant in
    # v, the general vertical kernel in the ball's annulus
    p, v = np.array([0.3, -0.5]), np.array([1.1, 0.0])
    cases = [(moyal_constant(2, STD2, 2, picture="tm"), True, "tm"),
             (moyal_constant(2, STD2, 2), True, "fiber"),
             (fw, True, "tm"),
             (general_vertical(ball, 2), False, "tm")]
    for sp, constant, picture in cases:
        for spx, x, pic in ((sp, np.concatenate([p, v]) if picture == "tm" else v, picture),
                            (sp.restrict(p), v, "fiber")):
            assert (spx.n, spx.picture) == (2, pic)
            Theta = spx.constant_theta_at(x)
            assert np.array_equal(Theta, STD2) if constant else Theta is None
    assert moyal_constant(2, STD2, 2).theta.plateau[0] == np.inf
    with pytest.raises(ValueError):
        moyal_constant(2, STD4, 2)  # Theta of the wrong size
    with pytest.raises(ValueError):
        moyal_constant(2, STD2, 2, picture="pair")


def test_star_product_is_validated_at_construction():
    # an order above 2 needs a theta constant in v, and fails when the
    # product is made, not at its first use; general_vertical stops at order
    # 2 for any theta
    ball = build_ball_compact_theta(2, STD2, 1.0, 0.25)
    with pytest.raises(ValueError, match="constant in v"):
        starprod.StarProduct(3, ball)
    for theta in (ball, constant_theta(2, STD2)):
        with pytest.raises(ValueError, match="order <= 2"):
            general_vertical(theta, 3)


def test_moyal_mode_rejects_a_theta_varying_in_v():
    # the restricted ball theta read i lam for [v^0, v^1] at v = (1.2, 0),
    # outside its support; an affine pullback that reads v is not constant.
    # Above order 2 no such theta is accepted; up to order 2 each one is.
    ball = build_ball_compact_theta(2, STD2, 1.0, 0.25)
    reads_v = sf.pullback_affine(sf.coordinate(0, 2), np.hstack([np.zeros((2, 2)), np.eye(2)]),
                                 np.zeros(2))
    for theta in (restrict_to_fiber(ball, np.zeros(2)), ball,
                  naive_scaled_theta(2, STD2, 1.0, 0.25),
                  poisson.VerticalMultivector(2, {(0, 1): reads_v})):
        with pytest.raises(ValueError, match="constant in v"):
            starprod.StarProduct(3, theta)
        assert starprod.StarProduct(2, theta).lambda_order == 2
    # every Moyal constructor's product, and its restriction, takes order 3
    fw = moyal_fiberwise(2, [[None, sf.coordinate(0, 2) + 2.0], [None, None]], 2)
    for sp in (moyal_constant(2, STD2, 2, picture="tm"), moyal_constant(2, STD2, 2), fw):
        for spx in (sp, sp.restrict((0.3, -0.5))):
            assert replace(spx, lambda_order=3).lambda_order == 3
    gv = general_vertical(ball, 2)
    for spx in (gv, gv.restrict((0.3, -0.5))):
        with pytest.raises(ValueError, match="constant in v"):
            replace(spx, lambda_order=3)


def test_restricted_fiberwise_product_is_constant_moyal(monkeypatch):
    # restriction reads Theta(p) once; the fiber product is the constant
    # Moyal product of it, equal to the product on TM at (p, v), and its
    # star_jets walk no theta
    fw = moyal_fiberwise(2, [[None, sf.coordinate(0, 2) + 2.0], [None, None]], 2)
    p, v = np.array([0.3, -0.5]), np.array([0.4, 0.8])
    spf = fw.restrict(p)
    assert spf.theta.plateau[0] == np.inf
    assert np.array_equal(spf.theta.plateau[1], [[0.0, 2.3], [-2.3, 0.0]])
    f = sf.polynomial({(2, 1): 1.0, (0, 1): 0.5}, 2)
    g = sf.polynomial({(1, 2): -1.0, (1, 0): 2.0}, 2)
    F, G = [eval_jet(f, v, 2)], [eval_jet(g, v, 2)]
    lift = np.hstack([np.zeros((2, 2)), np.eye(2)])  # (p, v) -> v
    x = np.concatenate([p, v])
    Ftm, Gtm = ([eval_jet(sf.pullback_affine(h, lift, np.zeros(2)), x, 2, fiber=2)]
                for h in (f, g))
    ref = fw.star_jets(Ftm, Gtm, x, [0, 0, 0])

    def fail(*args, **kwargs):
        raise AssertionError("theta walked by a restricted Moyal product")

    monkeypatch.setattr(poisson, "eval_jets", fail)
    monkeypatch.setattr(sf, "eval_jets", fail)
    out = spf.star_jets(F, G, v, [0, 0, 0])
    assert [j.c.tolist() for j in out] == [j.c.tolist() for j in ref]


def test_moyal_path_bypasses_poisson(monkeypatch):
    # the constant Moyal product reads Theta from theta's plateau: no theta
    # array is built for any product, state or associativity check
    def fail(*args, **kwargs):
        raise AssertionError("theta array built on the Moyal path")

    monkeypatch.setattr(poisson, "theta_matrix", fail)
    monkeypatch.setattr(starprod, "theta_matrix", fail)
    monkeypatch.setattr(poisson.VerticalMultivector, "matrix_at", fail)
    tm = moyal_constant(2, STD2, 2, picture="tm")
    fiber = moyal_constant(2, STD2, 2)
    f = sf.polynomial({(0, 0, 2, 1): 1.0, (1, 0, 0, 1): 0.5}, 4)
    g = sf.polynomial({(0, 0, 1, 2): -1.0, (0, 1, 1, 0): 2.0}, 4)
    ff = sf.polynomial({(2, 1): 1.0, (0, 1): 0.5}, 2)
    gf = sf.polynomial({(1, 2): -1.0, (1, 0): 2.0}, 2)
    x = np.array([0.3, -0.2, 0.4, 0.8])
    for sp, (u, w), pt in [(tm, (f, g), x), (fiber, (ff, gf), x[2:]),
                           (tm.restrict(x[:2]), (ff, gf), x[2:]),
                           (fiber.restrict(x[:2]), (ff, gf), x[2:])]:
        s = sp.star_at(u, w, pt)
        assert s.coeffs[0] == pytest.approx(evaluate(u, pt) * evaluate(w, pt))
        assert np.max(associativity_defect(sp, u, w, u, [pt])) < 1e-12
        var = CoherentState(pt, 2, 2).variance(sp, u)
        assert var.coeffs[0] == 0


def test_kernel_follows_theta_at_the_point(monkeypatch):
    # on the plateau theta's jet is the constant Theta, read off the plateau:
    # the general vertical product builds no theta array there
    ball = general_vertical(build_ball_compact_theta(2, STD2, 1.0, 0.25), 2)
    f = sf.polynomial({(0, 0, 2, 1): 1.0, (1, 0, 0, 1): 0.5}, 4)
    g = sf.polynomial({(0, 0, 1, 2): -1.0, (0, 1, 1, 0): 2.0}, 4)
    x = np.array([0.3, -0.2, 0.4, 0.5])  # |v| < 1
    F, G = ([J] for J in eval_jets([f, g], x, 4, fiber=2))
    ref = starprod._moyal_star_jets(STD2, F, G, [4, 2, 0])
    # a NaN point takes the vertical kernel up to order 2, whose walk of theta
    # carries the NaN; above order 2 theta is constant in v and stays Moyal
    nan = np.array([0.3, -0.2, np.nan, 0.5])
    assert ball.constant_theta_at(nan) is None
    assert moyal_constant(2, STD2, 2, picture="tm").constant_theta_at(nan) is None
    assert np.array_equal(moyal_constant(2, STD2, 3, picture="tm").constant_theta_at(nan), STD2)

    def fail(*args, **kwargs):
        raise AssertionError("theta array built on the plateau")

    monkeypatch.setattr(poisson, "theta_matrix", fail)
    monkeypatch.setattr(starprod, "theta_matrix", fail)
    monkeypatch.setattr(poisson.VerticalMultivector, "matrix_at", fail)
    out = ball.star_jets(F, G, x, [4, 2, 0])
    assert [j.c.tobytes() for j in out] == [j.c.tobytes() for j in ref]


def _random_jets(rng, n, orders, base):
    return [Jet(n, k, tuple(base), rng.uniform(-1, 1, n_coeffs(n, k))
                + 1j * rng.uniform(-1, 1, n_coeffs(n, k))) for k in orders]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["constant-tm", "ball-tm", "ball-fiber", "commuting-fiber"]),
       st.integers(1, 4), st.integers(0, 2), st.sampled_from(["values", "assoc", "states"]),
       st.integers(0, 2 ** 32 - 1))
def test_vertical_kernel_is_moyal_where_theta_is_constant(kind, n, N, pattern, seed):
    # star_jets no longer runs the vertical kernel where theta's jet is the
    # constant Theta; there it must still reduce to Moyal's
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1, 1, (n, n))
    Theta = A - A.T
    p, v = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
    if kind == "constant-tm":
        theta = constant_theta(n, Theta)
    else:
        build = {"ball": build_ball_compact_theta,
                 "commuting": build_commuting_compact_theta}[kind.split("-")[0]]
        theta = build(n, Theta, 1.0, 0.25)
        v *= rng.uniform(0.0, 0.95) / max(np.linalg.norm(v), 1e-3)  # on the plateau |v| < 1
    x = v if kind.endswith("fiber") else np.concatenate([p, v])
    if kind.endswith("fiber"):
        theta = restrict_to_fiber(theta, p)
    # the (F, G, out_orders) shapes of the checks, the two associativity
    # products and the states
    values = [0] * (N + 1)
    shapes = {"values": [([N], [N], values)],
              "assoc": [([2 * N], [2 * N], [N - t for t in range(N + 1)]),
                        ([N - t for t in range(N + 1)], [2 * N], values)],
              "states": [([2 * N] * int(rng.integers(1, N + 2)),
                          [2 * N] * int(rng.integers(1, N + 2)),
                          [2 * (N - t) for t in range(N + 1)])]}[pattern]
    for f_orders, g_orders, out_orders in shapes:
        F, G = _random_jets(rng, n, f_orders, x), _random_jets(rng, n, g_orders, x)
        got = starprod._vertical_star_jets(theta, F, G, x, out_orders)
        ref = starprod._moyal_star_jets(check_antisymmetric(Theta), F, G, out_orders)
        for a, b in zip(got, ref):
            assert a.order == b.order
            assert np.max(np.abs(a.c - b.c)) <= 1e-12 * max(1.0, np.max(np.abs(b.c)))


def test_solve_C2_rejects_non_poisson():
    th = poisson.naive_scaled_theta(4, STD4, 1.0, 0.25)
    samples = poisson.fiber_samples(th, 100, seed=0)
    with pytest.raises(ValueError):
        general_vertical(th, 2, jacobi_samples=samples)


def test_general_vertical_associativity_order_two(rng):
    th = restrict_to_fiber(
        build_commuting_compact_theta(2, STD2, 1.0, 0.25), np.zeros(2))
    sp = general_vertical(th, 2)
    worst = 0.0
    for _ in range(60):
        polys = [random_poly(rng, 2, terms=1) for _ in range(3)]
        x = rng.uniform(-1.3, 1.3, 2)
        worst = max(worst, float(np.max(associativity_defect(sp, *polys, [x]))))
    assert worst < 1e-8
    # n = 4 on the tangent bundle, with every fiber coordinate in the
    # transition annulus 1 < |v^a| < 1.25 of its bump, where d theta != 0;
    # this theta declares no support radius
    sp = general_vertical(build_commuting_compact_theta(4, STD4, 1.0, 0.25), 2)
    worst = 0.0
    for _ in range(200):
        polys = [random_poly(rng, 8, terms=1, axes=range(4, 8)) for _ in range(3)]
        x = np.concatenate([rng.uniform(-1, 1, 4),
                            rng.uniform(1.0, 1.25, 4) * rng.choice([-1.0, 1.0], 4)])
        worst = max(worst, float(np.max(associativity_defect(sp, *polys, [x]))))
    assert worst < 1e-8


def test_general_vertical_reduces_to_moyal_on_plateau():
    th = restrict_to_fiber(
        build_commuting_compact_theta(2, STD2, 1.0, 0.25), np.zeros(2))
    spv = general_vertical(th, 2)
    spm = moyal_constant(2, STD2, 2, picture="fiber")
    rng = np.random.default_rng(4)
    for _ in range(10):
        f, g = random_poly(rng, 2), random_poly(rng, 2)
        x = rng.uniform(-0.55, 0.55, 2)  # inside the constant ball
        a = spv.star_at(f, g, x)
        b = spm.star_at(f, g, x)
        assert np.allclose(a.coeffs, b.coeffs, atol=1e-12)


class _RecipBumpSq(sf.BumpSqElem):
    """1 / chi(sqrt(u)): the radial factor of psi(w) = w / chi(|w|) inside the
    ball |w| < r + eps."""

    def taylor(self, u, order):
        return np.array(sf._quot([1.0] + [0.0] * order, self._series(float(u.real), order)),
                        dtype=complex)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_general_vertical_c1_is_exact_on_transported_exponentials(n):
    # psi(w) = w / chi(|w|) maps the ball onto R^n, and the ball theta is the
    # constant Theta carried back by it: theta = X Theta X with X = (D psi)^-1.
    # So E_a = exp(a . psi) has C_1(E_a, E_b) = (i/2) (a^T Theta b) E_{a+b}
    # exactly, also in the annulus, where theta is not constant.  The points
    # keep to the inner 60 % of the annulus, as 1 / chi, and with it E_a,
    # overflows towards |v| = r + eps.  Measured worst relative error over 200
    # points for each n: 9.2e-15, 2.5e-14 and 3.2e-14 at n = 2, 3 and 4.
    rng = np.random.default_rng(40 + n)
    Theta = rng.uniform(-1, 1, (n, n))
    Theta = Theta - Theta.T
    r, eps = 1.0, 0.25
    sp = general_vertical(restrict_to_fiber(build_ball_compact_theta(n, Theta, r, eps),
                                            rng.uniform(-1, 1, n)), 1)
    radial = sf.radial_profile(_RecipBumpSq(r, eps), sf.norm_squared(n, range(n)))
    psi = [sf.coordinate(i, n) * radial for i in range(n)]

    def exp_along(a):
        return exp_of(sum((p * c for p, c in zip(psi[1:], a[1:])), psi[0] * a[0]))

    errors = []
    for _ in range(20):
        a, b = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n) for _ in range(2))
        v = rng.normal(size=n)
        v *= rng.uniform(r, r + 0.6 * eps) / np.linalg.norm(v)
        c1 = sp.star_at(exp_along(a), exp_along(b), v).coeffs[1]
        want = 0.5j * (a @ Theta @ b) * evaluate(exp_along(a + b), v)
        errors.append(abs(c1 - want) / abs(want))
    assert np.max(errors) <= 1e-12


def test_general_vertical_support_containment():
    # every star correction vanishes where theta does
    th = restrict_to_fiber(
        build_ball_compact_theta(2, STD2, 1.0, 0.25), np.zeros(2))
    sp = general_vertical(th, 2)
    rng = np.random.default_rng(6)
    for _ in range(10):
        f, g = random_poly(rng, 2), random_poly(rng, 2)
        x = rng.uniform(1.3, 2.0, 2) * rng.choice([-1.0, 1.0], 2)
        s = sp.star_at(f, g, x)
        assert s.coeffs[0] == pytest.approx(evaluate(f, x) * evaluate(g, x))
        assert s.coeffs[1] == 0 and s.coeffs[2] == 0


def test_verticality_all_modes(rng):
    n = 2
    pts = rng.uniform(-1, 1, (5, 2 * n))
    pairs = []
    for _ in range(5):
        f = random_poly(rng, 2 * n, axes=range(n, 2 * n))
        u = random_poly(rng, 2 * n, axes=range(n))
        pairs.append((f, u))
    for sp in (
        moyal_constant(n, STD2, 2, picture="tm"),
        general_vertical(build_commuting_compact_theta(n, STD2, 1.0, 0.25), 2),
    ):
        assert check_verticality(sp, pairs, pts) < 1e-12


def test_hermiticity_and_flip_all_modes(rng):
    n = 2
    pts = rng.uniform(-1, 1, (5, 2 * n))
    pairs = [(random_poly(rng, 2 * n, axes=range(n, 2 * n), complex_coeffs=True),
              random_poly(rng, 2 * n, axes=range(n, 2 * n), complex_coeffs=True))
             for _ in range(5)]
    real_pairs = [(random_poly(rng, 2 * n, axes=range(n, 2 * n)),
                   random_poly(rng, 2 * n, axes=range(n, 2 * n)))
                  for _ in range(5)]
    for sp in (
        moyal_constant(n, STD2, 2, picture="tm"),
        general_vertical(build_ball_compact_theta(n, STD2, 1.0, 0.25), 2),
    ):
        assert check_hermitean(sp, pairs, pts) < 1e-12
        assert check_flip_symmetry(sp, real_pairs, pts) < 1e-12


def test_flip_and_hermiticity_checks_catch_broken_structures(rng):
    # negative controls, which a check comparing a jet with itself would
    # pass: theta^{01} = 1 + v_0 / 2 is Poisson (n = 2) but not flip-even, and
    # a constant complex theta is flip-even but not Hermitean
    n = 2
    pts = rng.uniform(-1, 1, (5, 2 * n))
    pairs = [(random_poly(rng, 2 * n, axes=range(n, 2 * n), complex_coeffs=True),
              random_poly(rng, 2 * n, axes=range(n, 2 * n), complex_coeffs=True))
             for _ in range(5)]
    odd = sf.polynomial({(0, 0, 0, 0): 1.0, (0, 0, 1, 0): 0.5}, 2 * n)
    odd = general_vertical(poisson.VerticalMultivector(n, {(0, 1): odd}), 2)
    cplx = sf.constant(1.0 + 0.5j, 2 * n)
    cplx = general_vertical(poisson.VerticalMultivector(n, {(0, 1): cplx}), 2)
    assert check_flip_symmetry(odd, pairs, pts) == pytest.approx(3.0345846816873703, rel=1e-12)
    assert check_hermitean(odd, pairs, pts) < 1e-12
    assert check_hermitean(cplx, pairs, pts) == pytest.approx(1.6921305422698907, rel=1e-12)
    assert check_flip_symmetry(cplx, pairs, pts) < 1e-12


def test_each_observable_is_walked_once_per_point(monkeypatch, rng):
    # a root walk is a coordinate environment made from a point; the Moyal
    # products of a constant Theta walk no theta, so every root walk counted
    # here is one of the observables
    roots = []

    class CountingEnv(sf._Env):
        def __init__(self, x, order, fiber=None, coords=None):
            roots.append(coords is None)
            super().__init__(x, order, fiber, coords)

    def walks(run):
        roots.clear()
        run()
        return sum(roots)

    monkeypatch.setattr(sf, "_Env", CountingEnv)
    n = 2
    sp = moyal_constant(n, STD2, 2, picture="tm")
    fiber_sp = sp.restrict(np.zeros(n))
    pts = rng.uniform(-1, 1, (3, 2 * n))
    f, g = (random_poly(rng, 2 * n, axes=range(n, 2 * n), complex_coeffs=True)
            for _ in range(2))
    u = random_poly(rng, 2 * n, axes=range(n))
    pairs = [(f, g), (g, f)]
    assert walks(lambda: check_verticality(sp, [(f, u), (g, u)], pts)) == 2 * len(pts)
    assert walks(lambda: check_hermitean(sp, pairs, pts)) == 2 * len(pts)
    assert walks(lambda: check_flip_symmetry(sp, pairs, pts)) == 2 * len(pts)
    assert walks(lambda: sp.star_at(f, g, pts[0])) == 1
    state = CoherentState(np.zeros(n), n, 2)
    a, b = sf.coordinate(0, n), random_poly(rng, n, complex_coeffs=True)
    assert walks(lambda: state.star_expect(fiber_sp, a, b)) == 1
    assert walks(lambda: state.variance(fiber_sp, b)) == 1
    assert walks(lambda: state.uncertainty_check(fiber_sp, a, sf.coordinate(1, n))) == 1
    assert walks(lambda: state.positivity_scan(fiber_sp, rng, count=4)) == 4


def test_midpoint_chart_roundtrip():
    qq = np.array([0.1, 0.2, 0.7, -0.4])
    pv = midpoint_chart(qq)
    assert pv == pytest.approx([0.4, -0.1, 0.3, -0.3])


def test_pair_picture_matches_direct_product(rng):
    n = 2
    sp = moyal_constant(n, STD2, 2, picture="tm")
    eye = np.eye(n)
    Ainv = np.block([[eye / 2, eye / 2], [-eye / 2, eye / 2]])
    for _ in range(10):
        f = random_poly(rng, 2 * n, axes=range(n, 2 * n))
        g = random_poly(rng, 2 * n, axes=range(n, 2 * n))
        pv = rng.uniform(-1, 1, 2 * n)
        qq = np.concatenate([pv[:n] - pv[n:], pv[:n] + pv[n:]])
        F = sf.pullback_affine(f, Ainv, np.zeros(2 * n))
        G = sf.pullback_affine(g, Ainv, np.zeros(2 * n))
        a = sp.star_at(f, g, pv)
        b = pair_picture_star(sp, F, G, qq)
        assert np.allclose(a.coeffs, b.coeffs, atol=1e-10)


def test_pair_picture_pointwise_beyond_support(rng):
    n = 2
    th = build_ball_compact_theta(n, STD2, 1.0, 0.25)
    sp = general_vertical(th, 2)
    q1 = sf.coordinate(0, 2 * n)
    q2 = sf.coordinate(n + 1, 2 * n)
    for sep in (3.0, 4.5):
        qq = np.array([0.0, 0.0, sep, 0.3])
        s = pair_picture_star(sp, q1, q2, qq)
        assert s.coeffs[0] == pytest.approx(
            evaluate(q1, qq) * evaluate(q2, qq))
        assert s.coeffs[1] == 0 and s.coeffs[2] == 0


def test_restrict_to_fiber_picture():
    sp = moyal_constant(2, STD2, 2, picture="tm")
    spf = sp.restrict((0.3, -0.5))
    assert spf.picture == "fiber"
    f = sf.polynomial({(1, 1): 1.0}, 2)
    g = sf.polynomial({(2, 0): 1.0}, 2)
    x = (0.4, 0.8)
    # compare with the same fiber functions lifted through the TM product
    A = np.hstack([np.zeros((2, 2)), np.eye(2)])  # (p, v) -> v
    a1 = spf.star_at(f, g, x)
    a2 = sp.star_at(sf.pullback_affine(f, A, np.zeros(2)),
                    sf.pullback_affine(g, A, np.zeros(2)),
                    (0.3, -0.5, 0.4, 0.8))
    assert np.allclose(a1.coeffs, a2.coeffs, atol=1e-12)


def test_bad_mode_and_order_errors():
    with pytest.raises(ValueError):
        moyal_constant(2, np.eye(2), 2)  # not antisymmetric
    with pytest.raises(ValueError):  # asymmetric by 9e-6, under allclose's rtol
        moyal_constant(2, [[0.0, 1.0], [-1.000009, 0.0]], 2)
    th = constant_theta(2, STD2)
    with pytest.raises(ValueError):
        general_vertical(th, 3)


# Reference for the array kernels of the general vertical product: the
# (i, j, k, l) loops over single jets that they replace.

def _ref_theta_jets(theta, x, order):
    n = theta.base_dim
    m = [[None] * n for _ in range(n)]
    comps = theta.components
    for (i, j), jet in zip(comps, eval_jets(list(comps.values()), x, order, n)):
        m[i][j], m[j][i] = jet, -jet
    return m


def _ref_c1(theta_jets, fjet, gjet, K):
    n = len(theta_jets)
    out = jet_constant(0.0, fjet.base, fjet.dim, K)
    for i in range(n):
        for j in range(n):
            th = theta_jets[i][j]
            if th is None:
                continue
            out = out + th.truncate(K) * fjet.deriv(i).truncate(K) * gjet.deriv(j).truncate(K)
    return out * 0.5j


def _ref_c2(theta_jets, fjet, gjet, K):
    n = len(theta_jets)
    Ta = Tb = jet_constant(0.0, fjet.base, fjet.dim, K)
    dtheta_jets = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if theta_jets[i][j] is not None:
                row = [theta_jets[i][j].deriv(l).truncate(K) for l in range(n)]
                dtheta_jets[i][j], dtheta_jets[j][i] = row, [-d for d in row]
    theta_jets = [[None if e is None else e.truncate(K) for e in row] for row in theta_jets]
    df = [fjet.deriv(i) for i in range(n)]
    dg = [gjet.deriv(i) for i in range(n)]
    d2f = [[df[i].deriv(k).truncate(K) for k in range(n)] for i in range(n)]
    d2g = [[dg[i].deriv(k).truncate(K) for k in range(n)] for i in range(n)]
    df = [j.truncate(K) for j in df]
    dg = [j.truncate(K) for j in dg]
    for i in range(n):
        for j in range(n):
            th_ij = theta_jets[i][j]
            if th_ij is None:
                continue
            dth_ij = dtheta_jets[i][j]
            for k in range(n):
                for l in range(n):
                    th_kl = theta_jets[k][l]
                    if th_kl is None:
                        continue
                    Ta = Ta + th_ij * th_kl * d2f[i][k] * d2g[j][l]
                    Tb = Tb + dth_ij[l] * th_kl * (d2f[i][k] * dg[j] - df[i] * d2g[j][k])
    return Ta * C2_WEIGHTS[0] + Tb * C2_WEIGHTS[1]


# fiber radii per region of the ball theta with r = 1, eps = 0.25
KERNEL_REGIONS = {"plateau": (0.0, 0.95), "annulus": (1.02, 1.23), "outside": (1.3, 2.0),
                  "plateau edge": (1.0, 1.0), "support edge": (1.25, 1.25)}


@lru_cache(maxsize=None)
def _kernel_theta(n, picture):
    Theta = np.random.default_rng(n).uniform(-1, 1, (n, n))
    th = build_ball_compact_theta(n, Theta - Theta.T, 1.0, 0.25)
    return th if picture == "tm" else restrict_to_fiber(th, np.linspace(-0.5, 0.5, n))


def _term_sizes(th_arr, fj, gj, K):
    """Sizes of C_1 and C_2 before cancellation: the sum over their terms of
    the l1 norms of the term jets.

    The kernels and the loops sum the same terms in different orders, so they
    differ by rounding relative to this size.  In the annulus at K = 2 the
    terms can cancel to a result a hundred times smaller; there the two
    differed by up to 1.2e-14 max(1, |ref|) in 3000 random cases, while each
    stayed within 6e-15 max(1, |ref|) of a 40-digit evaluation."""
    dim = fj.dim
    dth_arr = partials(th_arr[..., :n_coeffs(dim, K + 1)], dim, K + 1, K)
    th, dth = np.abs(th_arr).sum(-1), np.abs(dth_arr).sum(-1)
    df, dg = (np.abs(partials(j.c, dim, j.order, K)).sum(-1) for j in (fj, gj))
    d2f, d2g = (np.abs(partials(partials(j.c, dim, j.order, K + 1), dim, K + 1, K))
                .sum(-1) for j in (fj, gj))
    c1 = 0.5 * np.einsum("ij,i,j->", th, df, dg)
    c2 = (-C2_WEIGHTS[0] * np.einsum("ij,kl,ik,jl->", th, th, d2f, d2g)
          - C2_WEIGHTS[1] * (np.einsum("ijl,kl,ik,j->", dth, th, d2f, dg)
                             + np.einsum("ijl,kl,i,jk->", dth, th, df, d2g)))
    return c1, c2


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.sampled_from([0, 1, 2]),
       st.sampled_from(["tm", "fiber"]), st.sampled_from(sorted(KERNEL_REGIONS)),
       st.integers(0, 2 ** 32 - 1))
def test_vertical_kernels_match_loop_reference(n, K, picture, region, seed):
    rng = np.random.default_rng(seed)
    th = _kernel_theta(n, picture)
    dim, off = th.ambient_dim, th.fiber_offset
    v = rng.normal(size=n)
    v *= rng.uniform(*KERNEL_REGIONS[region]) / np.linalg.norm(v)
    x = np.concatenate([rng.uniform(-1, 1, off), v])
    f, g = (random_poly(rng, dim, degree=4, terms=6, complex_coeffs=True) for _ in range(2))
    fj, gj = eval_jet(f, x, K + 2, n), eval_jet(g, x, K + 2, n)
    th_jets = _ref_theta_jets(th, x, K + 1)
    th_arr = poisson.theta_matrix(th, x, K + 1)
    c1_size, c2_size = _term_sizes(th_arr, fj, gj, K)
    pairs = [
        (starprod._c1_jet(th_arr, fj, gj, K),
         _ref_c1(th_jets, fj.truncate(K + 1), gj.truncate(K + 1), K), c1_size),
        (starprod._c2_jet(th_arr, fj, gj, K), _ref_c2(th_jets, fj, gj, K), c2_size),
    ]
    for new, ref, size in pairs:
        assert new.order == K
        assert np.max(np.abs(new.c - ref.c)) <= 1e-14 * max(1.0, size)



def _same_bits(a, b):
    """Bitwise equality up to signed zeros (adding 0 turns -0.0 into 0.0)."""
    return (a + 0).tobytes() == (b + 0).tobytes()


@pytest.mark.parametrize("build", [build_ball_compact_theta, build_commuting_compact_theta,
                                   naive_scaled_theta])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("picture", ["tm", "fiber"])
def test_plateau_closed_form_is_the_walk(build, n, picture):
    # strictly inside |v| < r the theta array is taken in closed form from
    # theta.plateau, and at |v| >= theta.support_radius it is 0 with no walk;
    # both must be the walk's array bit for bit
    rng = np.random.default_rng(n)
    Theta = rng.uniform(-1, 1, (n, n))
    th = build(n, Theta - Theta.T, 1.0, 0.25)
    if picture == "fiber":
        th = restrict_to_fiber(th, np.linspace(-0.5, 0.5, n))
    walked = replace(th, plateau=None, support_radius=None)
    off = th.fiber_offset
    # on a coordinate axis |v| is exactly the radius: one ulp inside, at and
    # one ulp outside r and r + eps, then |v| = 0, random plateau points and
    # random points outside the support
    axis = np.eye(n)[rng.integers(n)]
    radii = sorted({1.0, 1.25, th.support_radius or 1.25})
    vs = [rho * axis for r in radii for rho in (np.nextafter(r, 0.0), r, np.nextafter(r, 2.0))]
    vs.append(0.0 * axis)
    for rho in np.concatenate([rng.uniform(0.0, 0.99, 6), rng.uniform(1.25, 3.0, 4)]):
        d = rng.normal(size=n)
        vs.append(rho * d / np.linalg.norm(d))
    wrong = th.plateau and replace(th, plateau=(1.0, 1.001 * th.plateau[1]))
    for v in vs:
        x = np.concatenate([rng.uniform(-1, 1, off), v])
        for k in range(4):
            closed = poisson.theta_matrix(th, x, k)
            assert _same_bits(closed, poisson.theta_matrix(walked, x, k))
            if wrong and 0.0 < np.linalg.norm(v) < 1.0:
                assert not _same_bits(poisson.theta_matrix(wrong, x, k), closed)
    # a NaN point meets neither shortcut: it is walked, and the NaN propagates
    x = np.concatenate([rng.uniform(-1, 1, off), np.full(n, np.nan)])
    with np.errstate(invalid="ignore"):
        for k in range(3):
            closed = poisson.theta_matrix(th, x, k)
            assert np.isnan(closed).any()
            assert np.array_equal(closed, poisson.theta_matrix(walked, x, k), equal_nan=True)


@pytest.mark.parametrize("check", [
    lambda sp, f, u, pts: check_verticality(sp, [(f, u)], pts),
    lambda sp, f, u, pts: check_hermitean(sp, [(u, f)], pts),
    lambda sp, f, u, pts: check_flip_symmetry(sp, [(u, f)], pts),
    lambda sp, f, u, pts: associativity_defect(sp, u, f, u, pts),
], ids=["verticality", "hermitean", "flip", "assoc"])
def test_nan_defect_is_not_folded_away(check):
    # Python's max(0.0, nan) is 0.0: a NaN observable used to pass every check
    sp = moyal_constant(2, STD2, 2, picture="tm")
    f, u = sf.constant(np.nan, 4), sf.coordinate(0, 4)
    pts = np.random.default_rng(0).uniform(-1, 1, (3, 4))
    assert np.isnan(np.max(check(sp, f, u, pts)))
