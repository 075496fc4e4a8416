"""Deformed states: expectations, variances, uncertainty, positivity, and the
light-cone observables."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from vertstar import poisson, smoothfn as sf, states
from vertstar.formal import FormalSeries, is_formally_positive
from vertstar.jets import Jet, n_coeffs
from vertstar.poisson import (build_ball_compact_theta, build_commuting_compact_theta,
                              restrict_to_fiber, standard_symplectic)
from vertstar.smoothfn import eval_jets
from vertstar.starprod import general_vertical, moyal_constant, moyal_fiberwise
from vertstar.states import (
    CoherentState,
    QuadraticObservable,
    bare_delta,
    causal_class,
    lightcone_profile,
    lightcone_v0,
    lorentz_square,
    minkowski_metric,
)

from conftest import (conjugate, expectation_root, gaussian_moments_expjet, jet_laplacian,
                      random_poly, star_square_expect_closed_form, variance_closed_form)

STD4 = standard_symplectic(4)


@pytest.fixture
def sp4():
    return moyal_constant(4, STD4, 2, picture="fiber")


def test_normalization_and_classical_coefficient(sp4):
    st = CoherentState((0.2, -0.4, 0.1, 0.9), 4, 2)
    one = sf.constant(1.0, 4)
    assert st.expect(one).coeffs == (1.0 + 0j, 0j, 0j)
    f = random_poly(np.random.default_rng(0), 4)
    assert st.expect(f).coeffs[0] == pytest.approx(sf.evaluate(f, st.base))


def test_expect_is_linear(sp4):
    rng = np.random.default_rng(1)
    st = CoherentState((0.1, 0.2, 0.3, 0.4), 4, 2)
    f, g = random_poly(rng, 4), random_poly(rng, 4)
    a, b = 1.7, -0.3
    lhs = st.expect(a * f + b * g)
    rhs = st.expect(f) * a + st.expect(g) * b
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_lorentz_square_offset(sp4):
    st = CoherentState((1.0, 0.0, 0.0, 0.0), 4, 2)
    s = st.expect(lorentz_square(4))
    assert s.coeffs == pytest.approx((1.0, -1.0, 0.0), abs=1e-12)
    # at the origin the square is shifted to -lambda
    st0 = CoherentState((0.0, 0.0, 0.0, 0.0), 4, 2)
    assert st0.expect(lorentz_square(4)).coeffs == pytest.approx((0.0, -1.0, 0.0),
                                                                 abs=1e-12)


def test_quadratic_expectation_closed_form():
    rng = np.random.default_rng(2)
    for _ in range(20):
        A = rng.uniform(-1, 1, (4, 4))
        q = QuadraticObservable(A)
        v = rng.uniform(-1, 1, 4)
        st = CoherentState(v, 4, 2)
        got = st.expect(q.fn(4))
        want = q.expect_closed_form(st)
        assert np.allclose(got.coeffs, want.coeffs, atol=1e-10)


def test_variance_pipeline_matches_quadratic_closed_forms(sp4):
    st = CoherentState((1.0, 0.0, 0.0, 0.0), 4, 2)
    q = QuadraticObservable(minkowski_metric(4))
    var = st.variance(sp4, lorentz_square(4))
    closed = variance_closed_form(q, st, STD4)
    assert np.allclose(var.coeffs, closed.coeffs, atol=1e-10)
    sq = st.star_expect(sp4, lorentz_square(4), lorentz_square(4))
    closed_sq = star_square_expect_closed_form(q, st, STD4)
    assert np.allclose(sq.coeffs, closed_sq.coeffs, atol=1e-10)


def test_variance_simple_oracles(sp4):
    st0 = CoherentState((0.0,) * 4, 4, 2)
    # constant observable: no spread
    assert np.allclose(st0.variance(sp4, sf.constant(2.0, 4)).coeffs, 0.0,
                       atol=1e-12)
    # coordinate observable at the origin: lambda/2
    var = st0.variance(sp4, sf.coordinate(0, 4))
    assert var.coeffs == pytest.approx((0.0, 0.5, 0.0), abs=1e-12)


def test_variance_formally_nonnegative(sp4, rng):
    st = CoherentState((0.3, -0.2, 0.5, 0.1), 4, 2)
    for _ in range(10):
        f = random_poly(rng, 4)
        verdict = is_formally_positive(st.variance(sp4, f).real())
        assert verdict in ("positive", "zero")


def test_uncertainty_saturation(sp4):
    st0 = CoherentState((0.0,) * 4, 4, 2)
    rep = st0.uncertainty_check(sp4, sf.coordinate(0, 4), sf.coordinate(1, 4))
    assert np.allclose(rep["lhs"].coeffs, (0, 0, 1.0), atol=1e-10)
    assert np.allclose(rep["rhs"].coeffs, (0, 0, 1.0), atol=1e-10)
    assert rep["holds"]


def test_uncertainty_trivial_cases(sp4, rng):
    st = CoherentState((0.2, 0.1, -0.3, 0.4), 4, 2)
    f = random_poly(rng, 4)
    rep = st.uncertainty_check(sp4, f, f)
    assert np.allclose(rep["rhs"].coeffs, 0.0, atol=1e-10)
    assert rep["holds"]


def test_uncertainty_of_a_nan_observable_is_a_numeric_failure(sp4):
    # a NaN variance has no sign; it used to read as zero, and the check held
    st = CoherentState((0.2, 0.1, -0.3, 0.4), 4, 2)
    with pytest.raises(ArithmeticError, match="NaN"):
        st.uncertainty_check(sp4, sf.constant(np.nan, 4), sf.coordinate(1, 4))


def test_cauchy_schwarz(sp4, rng):
    st = CoherentState((0.1, 0.4, -0.2, 0.0), 4, 2)
    for _ in range(10):
        f = random_poly(rng, 4, complex_coeffs=True)
        g = random_poly(rng, 4, complex_coeffs=True)
        cross = st.star_expect(sp4, conjugate(f), g)
        lhs = cross * cross.conjugate()
        rhs = (st.star_expect(sp4, conjugate(f), f)
               * st.star_expect(sp4, conjugate(g), g))
        verdict = is_formally_positive((rhs - lhs).real(), tol=1e-8)
        assert verdict in ("positive", "zero")


def test_positivity_coherent_passes_bare_fails(sp4):
    st = CoherentState((0.5, 0.0, 0.0, 0.0), 4, 2)
    assert st.positivity_scan(sp4, np.random.default_rng(3), count=60)["ok"]
    bd = bare_delta((0.5, 0.0, 0.0, 0.0), 4, 2)
    scan = bd.positivity_scan(sp4, np.random.default_rng(4), count=500)
    assert not scan["ok"]
    assert scan["witness"] is not None
    assert is_formally_positive(scan["witness_series"].real()) == "negative"


def test_known_bare_delta_witness(sp4):
    # f = (v0 - b0) + i (v1 - b1) makes the first-order coefficient -Theta^{01}
    b = (0.3, -0.2, 0.0, 0.0)
    bd = bare_delta(b, 4, 2)
    f = sf.polynomial({(1, 0, 0, 0): 1.0, (0, 1, 0, 0): 1.0j,
                       (0, 0, 0, 0): -b[0] - 1j * b[1]}, 4)
    s = bd.star_expect(sp4, conjugate(f), f)
    assert s.coeffs[0] == pytest.approx(0.0, abs=1e-14)
    assert np.real(s.coeffs[1]) == pytest.approx(-1.0)


def test_classicality_outside_support():
    th = poisson.restrict_to_fiber(
        poisson.build_ball_compact_theta(2, standard_symplectic(2), 1.0, 0.25),
        np.zeros(2))
    sp = general_vertical(th, 2)
    rng = np.random.default_rng(6)
    for _ in range(10):
        base = rng.uniform(1.4, 2.5, 2) * rng.choice([-1.0, 1.0], 2)
        st = CoherentState(base, 2, 2)
        f, g = random_poly(rng, 2), random_poly(rng, 2)
        lhs = st.star_expect(sp, f, g)
        rhs = st.expect(f * g)
        assert lhs.coeffs == rhs.coeffs  # exact, not approximate


def test_classical_limit_order_zero():
    st = CoherentState((0.7, 0.1, 0.0, 0.0), 4, 0)
    f = lorentz_square(4)
    assert st.expect(f).coeffs == (pytest.approx(0.48),)


def test_lightcone_closed_form_and_root():
    assert lightcone_v0(0.01, 0.0) == pytest.approx(0.1)
    assert lightcone_v0(0.04, 0.3) == pytest.approx(np.sqrt(0.13))
    assert lightcone_v0(0.0, 0.7) == pytest.approx(0.7)
    root = expectation_root(0.01, 0.1)
    assert abs(root - np.sqrt(0.02)) < 1e-12
    with pytest.raises(ValueError):
        lightcone_v0(-0.1, 0.0)
    # v0^2 = |s|^2 - (lambda/2) tr(g eta), with no lambda term at order 0
    assert lightcone_v0(0.04, 0.3, n=3) == pytest.approx(np.sqrt(0.11))
    assert lightcone_v0(0.04, 0.3, n=2) == pytest.approx(0.3)
    assert lightcone_v0(0.04, 0.3, order=0) == pytest.approx(0.3)
    g5 = np.diag([5.0, 1.0, 1.0, 1.0])
    assert lightcone_v0(0.04, 0.3, metric_inv=g5) == pytest.approx(np.sqrt(0.05))
    with pytest.raises(ArithmeticError, match=r"\|s\| = 0\.1"):
        lightcone_v0(0.04, 0.1, metric_inv=g5)
    with pytest.raises(ValueError, match="n >= 2"):
        lightcone_v0(0.04, 0.1, n=1)


def test_lightcone_profile_monotone_approach():
    rows = lightcone_profile(0.04, np.linspace(0.0, 3.0, 12))
    gaps = [d - c for _s, c, d in rows]
    assert all(g > 0 for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))  # strictly shrinking


def test_verify_rejects_a_wrong_root(monkeypatch):
    real = states.lightcone_v0
    # a root off by 1e-8; the slope 2 v0 is nonzero there
    monkeypatch.setattr(states, "lightcone_v0", lambda *a: real(*a) * (1 + 1e-8))
    with pytest.raises(ArithmeticError, match="Newton step"):
        lightcone_profile(0.04, [0.5], verify=True)
    # v0 = 0 where the root is sqrt(lambda): the slope vanishes, and sqrt|r| is
    # the root's error
    monkeypatch.setattr(states, "lightcone_v0", lambda *a: 0.0)
    assert lightcone_profile(1e-22, [0.0], verify=True) == [(0.0, 0.0, 0.0)]
    with pytest.raises(ArithmeticError, match="Newton step"):
        lightcone_profile(1e-18, [0.0], verify=True)


def test_causal_class():
    def cls(v, lam):
        omega = QuadraticObservable(minkowski_metric(4)).expect_closed_form(
            CoherentState(v, 4, 2))
        return causal_class(omega, lam)

    assert cls((1.0, 0.0, 0.0, 0.0), 0.5) == "timelike"
    assert cls((1.0, 1.0, 0.0, 0.0), 0.01) == "spacelike"
    assert cls((0.0, 0.0, 0.0, 0.0), 0.0) == "lightlike"
    assert cls((np.sqrt(1.04), 1.0, 0.0, 0.0), 0.04) == "lightlike"
    with pytest.raises(ArithmeticError, match="NaN"):
        causal_class(FormalSeries(1, (math.nan, -1.0)), 0.04)


@settings(max_examples=150, deadline=None)
@given(hst.integers(2, 6), hst.integers(0, 3), hst.floats(0.0, 0.1), hst.floats(0.0, 2.0),
       hst.integers(0, 2 ** 32 - 1))
def test_closed_form_cone_zeroes_the_pipeline(n, order, lam, s, seed):
    g = random_spd(np.random.default_rng(seed), n)
    f_eta = lorentz_square(n)

    def state(v0):
        return CoherentState((v0, s) + (0.0,) * (n - 2), n, order, metric_inv=g)

    def expect(v0):
        return float(np.real(state(v0).expect(f_eta).substitute(lam)))

    def closed_form_class(v0):
        omega = QuadraticObservable(minkowski_metric(n)).expect_closed_form(state(v0))
        return causal_class(omega, lam)

    try:
        v0 = lightcone_v0(lam, s, n, order, g)
    except ArithmeticError:
        # no real root: the pipeline is positive on the whole v0 axis
        assert expect(0.0) > -1e-12 * (1 + s ** 2)
        return
    assert abs(expect(v0)) <= 1e-12 * (1 + s ** 2)
    assert lightcone_profile(lam, [s], n, order, g, verify=True) == [(s, s, v0)]
    delta = 1e-3
    for u in (v0 + delta, v0 - delta):
        e = expect(u)
        want = "timelike" if e > 1e-12 else "spacelike" if e < -1e-12 else "lightlike"
        assert closed_form_class(u) == want
    assert closed_form_class(v0 + delta) == "timelike"
    if v0 > delta:
        assert closed_form_class(v0 - delta) == "spacelike"


def trust_report(state, sp) -> dict:
    """Whether positivity of the coherent state is backed by theory or only by
    scanning, read from the product's theta (a reference rule; the library
    does not consult it).

    Guaranteed at bases outside the support, where the state is classical,
    and inside the plateau |v| < r, where theta = Theta (everywhere for a
    constant theta), when (Theta, g) is the standard compatible pair; other
    bases in the support of a compactly supported structure are flagged as
    annulus for a mandatory scan.
    """
    report = {"guaranteed": False, "annulus": False, "scan_required": True}
    if not state.smearing:
        report["reason"] = "bare delta functionals are not positive"
        return report
    theta = sp.theta
    s = np.linalg.norm(state.base[-state.n:])
    if theta.support_radius is not None and s >= theta.support_radius:
        report.update(guaranteed=True, scan_required=False,
                      reason="base outside the support: classical state")
    elif (theta.plateau and s < theta.plateau[0]
          and np.array_equal(state.metric_inv, np.eye(sp.n))
          and np.array_equal(theta.plateau[1], standard_symplectic(sp.n))):
        report.update(guaranteed=True, scan_required=False,
                      reason="plateau: standard compatible (Theta, g) pair")
    elif theta.support_radius is not None:
        report.update(annulus=True,
                      reason="base inside the support of a non-constant "
                             "structure: unverified by theory")
    else:
        report["reason"] = "general structure; positivity is scan-verified only"
    return report


def test_trust_report(sp4):
    st = CoherentState((0.0,) * 4, 4, 2)
    rep = trust_report(st, sp4)
    assert rep["guaranteed"] and not rep["scan_required"]
    skew = moyal_constant(4, 2 * STD4, 2, picture="fiber")
    rep = trust_report(st, skew)
    assert not rep["guaranteed"] and rep["scan_required"]
    th = poisson.restrict_to_fiber(
        poisson.build_ball_compact_theta(2, standard_symplectic(2), 1.0, 0.25),
        np.zeros(2))
    spv = general_vertical(th, 2)
    inner = CoherentState((0.1, 0.0), 2, 2)
    annulus = CoherentState((1.1, 0.0), 2, 2)
    edge = CoherentState((1.25, 0.0), 2, 2)
    outer = CoherentState((3.0, 0.0), 2, 2)
    # inside the plateau theta is the standard Theta, so the Moyal guarantee holds
    rep = trust_report(inner, spv)
    assert rep["guaranteed"] and not rep["scan_required"] and not rep["annulus"]
    assert rep["reason"].startswith("plateau")
    rep = trust_report(annulus, spv)
    assert rep["annulus"] and rep["scan_required"] and not rep["guaranteed"]
    assert trust_report(outer, spv)["guaranteed"]
    assert trust_report(edge, spv)["guaranteed"]  # |v| = r + eps: theta vanishes there
    # a nonstandard Theta or metric keeps the plateau under the scan
    skewed = general_vertical(poisson.build_ball_compact_theta(
        2, 2 * standard_symplectic(2), 1.0, 0.25), 2)
    assert trust_report(CoherentState((0.0, 0.0, 0.1, 0.0), 2, 2),
                        skewed)["annulus"]
    squeezed = CoherentState((0.1, 0.0), 2, 2, metric_inv=np.diag([2.0, 0.5]))
    assert trust_report(squeezed, spv)["annulus"]
    # a constant theta is one plateau: its vertical product has the Moyal guarantee
    rep = trust_report(st, general_vertical(poisson.constant_theta(4, STD4), 2))
    assert rep["guaranteed"] and not rep["scan_required"]
    assert rep["reason"].startswith("plateau")
    # a base-dependent Theta has no plateau to vouch for it
    fw = moyal_fiberwise(2, [[None, sf.constant(1.0, 2)], [None, None]], 2)
    rep = trust_report(CoherentState((0.0,) * 4, 2, 2), fw)
    assert rep["scan_required"] and not rep["guaranteed"] and not rep["annulus"]


def test_metric_validation():
    with pytest.raises(ValueError):
        CoherentState((0.0, 0.0), 2, 2, metric_inv=[[1.0, 0.0], [0.0, -1.0]])
    for m in (3, 5):  # the moments would be those of another dimension
        with pytest.raises(ValueError, match="n x n"):
            CoherentState((0.0,) * 4, 4, 1, metric_inv=np.eye(m))


def iterated_expect(state, H):
    """omega(H) as sum_k Delta_g^k H_s(base) / (k! 4^k) by iterated Laplacians,
    the reference for the Gaussian moments of expect_jets."""
    N = state.order
    out = [0j] * (N + 1)
    for s, jet in enumerate(H):
        cur, fact = jet, 1.0
        for k in range(N - s + 1 if state.smearing else 1):
            if k:
                fact *= 4.0 * k
                cur = jet_laplacian(cur, state.metric_inv)
            out[s + k] += cur.value / fact
    return out


def random_jets(rng, n, orders):
    return [Jet(n, K, (0.0,) * n, rng.uniform(-1, 1, n_coeffs(n, K))
                + 1j * rng.uniform(-1, 1, n_coeffs(n, K))) for K in orders]


@settings(max_examples=120, deadline=None)
@given(hst.integers(1, 4), hst.integers(0, 3),
       hst.sampled_from(["identity", "diagonal", "full"]), hst.booleans(), hst.integers(0, 1),
       hst.integers(0, 2 ** 32 - 1))
def test_expect_jets_matches_iterated_laplacian(n, N, metric, smearing, extra, seed):
    rng = np.random.default_rng(seed)
    if metric == "identity":
        g = np.eye(n)
    elif metric == "diagonal":
        g = np.diag(rng.uniform(0.2, 3.0, n))
    else:
        A = rng.normal(size=(n, n))
        g = A @ A.T + 0.2 * np.eye(n)
    state = CoherentState(rng.uniform(-1, 1, n), n, N, metric_inv=g, smearing=smearing)
    H = random_jets(rng, n, [2 * (N - s) + extra for s in range(N + 1)])
    ref = iterated_expect(state, H)
    np.testing.assert_allclose(state.expect_jets(H).coeffs, ref, rtol=1e-12,
                               atol=1e-12 * max(abs(c) for c in ref))


def test_expect_jets_order_boundary():
    rng = np.random.default_rng(3)
    state = CoherentState((0.1, 0.2, 0.3), 3, 3)
    for s in range(4):
        need = 2 * (3 - s)
        state.expect_jets([None] * s + random_jets(rng, 3, [need]))
        if need:
            with pytest.raises(ValueError, match="jet order insufficient"):
                state.expect_jets([None] * s + random_jets(rng, 3, [need - 1]))
    # the bare delta reads only the value
    bare_delta((0.1, 0.2, 0.3), 3, 3).expect_jets(random_jets(rng, 3, [0]))


def test_expect_jets_rejects_wrong_dimension():
    state = CoherentState((0.1, -0.2, 0.3, 0.4), 4, 2)
    for dim in (6, 2):
        jet = Jet(dim, 4, (0.0,) * dim, np.arange(n_coeffs(dim, 4), dtype=complex))
        with pytest.raises(ValueError, match="variables"):
            state.expect_jets([jet])


# ---------------------------------------------------------------------------
# the Gaussian pairing at constant-Theta bases
# ---------------------------------------------------------------------------


def random_spd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + 0.2 * np.eye(n)


def random_antisymmetric(rng, n):
    A = rng.normal(size=(n, n))
    return A - A.T


def star_jets_expect(state, sp, F, G):
    """omega(F * G) through the product's star_jets: the path the pairing
    replaces at constant-Theta bases."""
    N = state.order
    return state.expect_jets(sp.star_jets(F, G, state.base, [2 * (N - t) for t in range(N + 1)]))


def random_series(rng, n, N, base):
    """1 to N + 1 complex fiber jets of order 2N, each zero above a random
    degree, so that the pairing's moment table stops short of 2N."""
    out = []
    for _ in range(int(rng.integers(1, N + 2))):
        c = rng.uniform(-1, 1, n_coeffs(n, 2 * N)) + 1j * rng.uniform(-1, 1, n_coeffs(n, 2 * N))
        c[n_coeffs(n, int(rng.integers(0, 2 * N + 1))):] = 0.0
        out.append(Jet(n, 2 * N, tuple(base), c))
    return out


def pairing_case(kind, n, N, rng):
    """A product and a base at which theta's jet is the constant Theta."""
    Theta, g = random_antisymmetric(rng, n), random_spd(rng, n)
    v = rng.uniform(-1, 1, n)
    if kind == "moyal-fiber":
        return moyal_constant(n, Theta, N), 2 * v, g
    p = rng.uniform(-1, 1, n)
    if kind == "moyal-tm":
        return moyal_constant(n, Theta, N, picture="tm"), np.concatenate([p, 2 * v]), g
    build = build_ball_compact_theta if kind.startswith("ball") else build_commuting_compact_theta
    theta = build(n, Theta, 1.0, 0.25)
    v *= rng.uniform(0.0, 0.95) / max(np.linalg.norm(v), 1e-3)  # on the plateau |v| < 1
    if kind.endswith("tm"):
        return general_vertical(theta, min(N, 2)), np.concatenate([p, v]), g
    return general_vertical(restrict_to_fiber(theta, p), min(N, 2)), v, g


@settings(max_examples=150, deadline=None)
@given(hst.sampled_from(["moyal-fiber", "moyal-tm", "ball-tm", "ball-fiber", "commuting-tm"]),
       hst.integers(1, 4), hst.integers(0, 3), hst.booleans(), hst.integers(0, 2 ** 32 - 1))
def test_pairing_matches_star_jets(kind, n, N, smearing, seed):
    rng = np.random.default_rng(seed)
    sp, base, g = pairing_case(kind, n, N, rng)
    N = sp.lambda_order
    state = CoherentState(base, n, N, metric_inv=g, smearing=smearing)
    assert sp.constant_theta_at(state.base) is not None
    F, G = random_series(rng, n, N, base), random_series(rng, n, N, base)
    got = np.array(state._star_expect_jets(sp, F, G).coeffs)
    ref = np.array(star_jets_expect(state, sp, F, G).coeffs)
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("n, N", [(2, 4), (4, 3), (6, 2)])
def test_pairing_gives_the_weyl_exponentials(n, N):
    # omega_x(e_a * e_b) = exp((i lam/2) a^T Theta b) e^{(a+b).x} exp(lam (a+b)^T g (a+b)/4)
    # for e_a(v) = exp(a.v): the Weyl relations and the Gaussian generating function
    rng = np.random.default_rng(10 * n + N)
    Theta, g = random_antisymmetric(rng, n), random_spd(rng, n)
    a, b = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n) for _ in range(2))
    x = rng.uniform(-1, 1, n)
    units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    ea, eb = (sf.exp_of(sf.polynomial(dict(zip(units, c)), n)) for c in (a, b))
    got = np.array(CoherentState(x, n, N, metric_inv=g).star_expect(
        moyal_constant(n, Theta, N), ea, eb).coeffs)
    w = 0.5j * a @ Theta @ b + (a + b) @ g @ (a + b) / 4
    want = np.exp((a + b) @ x) * np.array([w ** t / math.factorial(t) for t in range(N + 1)])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=60, deadline=None)
@given(hst.integers(1, 4), hst.integers(0, 8), hst.integers(0, 2 ** 32 - 1))
def test_isserlis_recursion_matches_the_exponential_jet(n, order, seed):
    g = random_spd(np.random.default_rng(seed), n)
    want = gaussian_moments_expjet(g, order)
    got = states._gaussian_moments(g / 2, order)
    assert got.dtype == want.dtype
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_pairing_guards(monkeypatch):
    # annulus, outside and NaN bases keep the star_jets path, bit for bit; a
    # plateau base takes the pairing
    ball = general_vertical(restrict_to_fiber(
        build_ball_compact_theta(2, standard_symplectic(2), 1.0, 0.25), np.zeros(2)), 2)
    moyal = moyal_constant(2, standard_symplectic(2), 2)
    rng = np.random.default_rng(11)
    f, g = (random_poly(rng, 2, complex_coeffs=True) for _ in range(2))
    calls = []
    real = states._pair_moments
    monkeypatch.setattr(states, "_pair_moments", lambda *a: calls.append(a) or real(*a))
    for sp, base in [(ball, (1.1, 0.0)), (ball, (0.3, -1.05)), (ball, (2.0, 0.5)),
                     (ball, (np.nan, 0.2)), (moyal, (0.1, np.nan))]:
        st = CoherentState(base, 2, 2)
        F, G = eval_jets([f, g], st.base, 4, fiber=2)
        for H in ([F], [G]), ([F.conjugate()], [F]):
            got = st._star_expect_jets(sp, *H)
            assert np.array(got.coeffs).tobytes() == np.array(
                star_jets_expect(st, sp, *H).coeffs).tobytes()
    assert not calls
    CoherentState((0.3, 0.4), 2, 2).star_expect(ball, f, g)
    assert len(calls) == 1
    # a product of another order raises, as star_jets does
    for sp in (ball, moyal):
        with pytest.raises(ValueError, match="lambda_order"):
            CoherentState((0.1, 0.2), 2, 1).star_expect(sp, f, g)


def test_uncertainty_at_order_six_in_six_variables():
    # the Moyal pairing needs moments only up to the degree of the observables
    states._moment_table.cache_clear()
    states._pair_moments.cache_clear()
    t0 = time.perf_counter()
    st = CoherentState(np.zeros(6), 6, 6)
    rep = st.uncertainty_check(moyal_constant(6, standard_symplectic(6), 6),
                               sf.coordinate(0, 6), sf.coordinate(1, 6))
    elapsed = time.perf_counter() - t0
    lam2 = (0, 0, 1, 0, 0, 0, 0)
    assert np.allclose(rep["lhs"].coeffs, lam2, atol=1e-14)
    assert np.allclose(rep["rhs"].coeffs, lam2, atol=1e-14)
    assert rep["holds"]
    assert elapsed < 1.0, elapsed
