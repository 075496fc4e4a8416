"""SmoothMap expression trees: pointwise evaluation, jets through the tree,
bump profiles, affine pullbacks, and support metadata."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vertstar import smoothfn as sf, starprod, states
from vertstar.jets import Jet, jet_compose_univariate, jet_constant, jet_variable, multi_indices
from vertstar.poisson import (build_ball_compact_theta, build_commuting_compact_theta,
                              naive_scaled_theta, restrict_to_fiber, standard_symplectic,
                              theta_matrix)
from vertstar.smoothfn import eval_jet, eval_jets, evaluate

from conftest import ExpElem, conjugate, exp_of, partial, random_poly


def fd_gradient(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.zeros(len(x), dtype=complex)
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = h
        g[i] = (evaluate(f, x + e) - evaluate(f, x - e)) / (2 * h)
    return g


def test_polynomial_eval_and_jet():
    f = sf.polynomial({(2, 1): 1.0, (0, 1): 1.0}, 2)
    assert evaluate(f, (1.0, 2.0)) == pytest.approx(4.0)
    j = eval_jet(f, (1.0, 2.0), 3)
    assert partial(j, (1, 0)) == pytest.approx(4.0)
    assert partial(j, (2, 1)) == pytest.approx(2.0)


def test_arithmetic_overloads_match_pointwise():
    rng = np.random.default_rng(0)
    f = sf.polynomial({(1, 0): 2.0, (0, 2): -1.0}, 2)
    g = sf.coordinate(1, 2)
    for _ in range(5):
        x = rng.uniform(-2, 2, 2)
        assert evaluate(f * g + 3.0, x) == pytest.approx(
            evaluate(f, x) * evaluate(g, x) + 3.0)
        assert evaluate(f - g, x) == pytest.approx(evaluate(f, x) - evaluate(g, x))


def test_quadratic_form():
    A = np.array([[1.0, 0.5], [0.5, -2.0]])
    f = sf.quadratic_form(A)
    x = np.array([0.3, -1.1])
    assert evaluate(f, x) == pytest.approx(x @ A @ x)
    j = eval_jet(f, x, 2)
    assert partial(j, (2, 0)) == pytest.approx(2 * A[0, 0])
    assert partial(j, (1, 1)) == pytest.approx(2 * A[0, 1])


def test_pullback_affine_chain_rule():
    rng = np.random.default_rng(1)
    f = sf.polynomial({(3, 0): 1.0, (1, 1): -2.0, (0, 2): 0.5}, 2)
    A = rng.uniform(-1, 1, (2, 3))
    b = rng.uniform(-1, 1, 2)
    g = sf.pullback_affine(f, A, b)
    x = rng.uniform(-1, 1, 3)
    assert evaluate(g, x) == pytest.approx(evaluate(f, A @ x + b))
    j = eval_jet(g, x, 2)
    grad_f = fd_gradient(f, A @ x + b)
    for i in range(3):
        e = tuple(int(k == i) for k in range(3))
        assert partial(j, e) == pytest.approx((A.T @ grad_f)[i], rel=1e-6, abs=1e-8)


def test_exp_of_jet():
    f = exp_of(sf.polynomial({(2,): 1.0}, 1))  # exp(x^2)
    x = 0.7
    j = eval_jet(f, (x,), 2)
    assert j.value == pytest.approx(np.exp(x ** 2))
    assert partial(j, (1,)) == pytest.approx(2 * x * np.exp(x ** 2))
    assert partial(j, (2,)) == pytest.approx((2 + 4 * x ** 2) * np.exp(x ** 2))


def test_bump_plateau_and_support():
    chi = sf.bump_of(sf.coordinate(0, 1), 1.0, 0.5)
    assert evaluate(chi, (0.3,)) == 1.0
    assert evaluate(chi, (-0.99,)) == 1.0
    assert evaluate(chi, (1.51,)) == 0.0
    assert evaluate(chi, (-2.0,)) == 0.0
    mid = evaluate(chi, (1.2,))
    assert 0.0 < np.real(mid) < 1.0
    # even in its argument
    assert evaluate(chi, (1.2,)) == pytest.approx(evaluate(chi, (-1.2,)))


def test_bump_derivatives_match_finite_differences():
    chi = sf.bump_of(sf.coordinate(0, 1), 1.0, 0.5)
    for t in (1.1, 1.25, 1.4):
        j = eval_jet(chi, (t,), 2)
        h = 1e-5
        fd1 = (evaluate(chi, (t + h,)) - evaluate(chi, (t - h,))) / (2 * h)
        fd2 = (evaluate(chi, (t + h,)) - 2 * evaluate(chi, (t,))
               + evaluate(chi, (t - h,))) / h ** 2
        assert abs(partial(j, (1,)) - fd1) <= 1e-5 * max(1.0, abs(fd1))
        assert abs(partial(j, (2,)) - fd2) <= 1e-4 * max(1.0, abs(fd2))


def test_bump_is_flat_at_plateau_edge():
    chi = sf.bump_of(sf.coordinate(0, 1), 1.0, 0.5)
    j = eval_jet(chi, (1.0,), 4)
    assert np.allclose(j.c[1:], 0.0, atol=1e-12)
    j = eval_jet(chi, (1.5,), 4)
    assert np.allclose(j.c, 0.0, atol=1e-12)


def test_radial_bump_in_two_axes():
    f = sf.radial_bump(3, (1, 2), 1.0, 0.5)
    assert evaluate(f, (9.0, 0.5, 0.5)) == 1.0      # axis 0 irrelevant
    assert evaluate(f, (0.0, 1.2, 1.2)) == 0.0      # norm ~1.7 > 1.5
    inside = evaluate(f, (0.0, 0.9, 0.0))
    assert inside == 1.0


def test_conjugate():
    f = sf.polynomial({(1, 0): 1.0 + 2.0j, (0, 1): -1.0j}, 2)
    fc = conjugate(f)
    x = (0.4, -0.3)
    assert evaluate(fc, x) == pytest.approx(np.conj(evaluate(f, x)))


def _random_tree(rng, dim, depth):
    """A random tree over poly, quad, const, radial bump, exp, bump, scale,
    affine, sum and prod nodes, with complex coefficients."""
    if depth == 0:
        kind = rng.integers(4)
        if kind == 0:
            return random_poly(rng, dim, complex_coeffs=True)
        if kind == 1:
            return sf.quadratic_form(rng.uniform(-1, 1, (dim, dim)))
        if kind == 2:
            axes = rng.choice(dim, int(rng.integers(1, dim + 1)), replace=False)
            return sf.radial_bump(dim, sorted(axes), 0.8, 0.5)
        return sf.constant(complex(*rng.uniform(-1, 1, 2)), dim)
    a = _random_tree(rng, dim, depth - 1)
    kind = rng.integers(6)
    if kind == 0:
        return exp_of(a * 0.25)
    if kind == 1:
        return sf.bump_of(a, 0.5, 0.5)
    if kind == 2:
        return a * complex(*rng.uniform(-1, 1, 2))
    if kind == 3:
        return sf.pullback_affine(a, rng.uniform(-1, 1, (dim, dim)), rng.uniform(-1, 1, dim))
    b = _random_tree(rng, dim, depth - 1)
    return a + b if kind == 4 else a * b


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.booleans(), st.integers(0, 4), st.integers(0, 3),
       st.integers(0, 2 ** 32 - 1))
def test_conjugated_and_reflected_jets_are_the_walks(n, tm, order, depth, seed):
    # the structural checks and the states take conj(f) and tau^*f from the
    # jets of f: the conjugated jets, and the jets at tau x times (-1)^|alpha|
    rng = np.random.default_rng(seed)
    dim = 2 * n if tm else n
    f = _random_tree(rng, dim, depth)
    x = rng.uniform(-1.5, 1.5, dim)
    jet = eval_jet(f, x, order, fiber=n)
    assert np.array_equal(jet.conjugate().c, eval_jet(conjugate(f), x, order, fiber=n).c)
    tau = np.diag([1.0] * (dim - n) + [-1.0] * n)
    sign = np.array([(-1.0) ** sum(a) for a in multi_indices(n, order)])
    reflected = eval_jet(f, tau @ x, order, fiber=n).c * sign
    assert np.array_equal(reflected, eval_jet(sf.pullback_affine(f, tau, np.zeros(dim)), x,
                                              order, fiber=n).c)


def test_ball_ramp_vanishes_off_annulus():
    m = sf.radial_profile(sf.BallRampElem(1.0, 0.25), sf.norm_squared(2, (0, 1)))
    assert evaluate(m, (0.5, 0.5)) == 0.0
    assert evaluate(m, (1.0, 1.0)) == 0.0
    mid = evaluate(m, (1.1, 0.0))
    assert mid != 0.0


@pytest.mark.parametrize("elem, inner", [(sf.BumpSqElem, 1.0), (sf.BallRampElem, 0.0)])
def test_radial_profiles_at_annulus_edges(elem, inner):
    # one ulp past r^2 the square root is r, and one ulp short of (r + eps)^2
    # it is r + eps, so the ramp argument is exactly 0 or 1 inside the annulus
    e = elem(1.0, 0.25)
    for u, want in ((np.nextafter(1.0, np.inf), inner), (np.nextafter(1.5625, 0.0), 0.0)):
        assert e.taylor(u, 0)[0] == want
        assert np.array_equal(e.taylor(u, 3), [want, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("elem", [sf.BumpElem, sf.BumpSqElem, sf.BallRampElem])
def test_radial_profiles_propagate_nan(elem):
    # a NaN argument is neither inside nor outside the annulus
    e = elem(1.0, 0.25)
    with np.errstate(invalid="ignore"):
        assert np.isnan(e.taylor(np.nan, 0)[0])
        assert np.isnan(e.taylor(np.nan, 2)).all()


@pytest.mark.parametrize("elem", [sf.BumpElem, sf.BumpSqElem, sf.BallRampElem])
@pytest.mark.parametrize("r, eps", [(1.0, 0.0), (1.0, -0.25), (0.0, 0.25), (-1.0, 0.25)])
def test_profiles_reject_degenerate_radii(elem, r, eps):
    with pytest.raises(ValueError):
        elem(r, eps)


# The dim-1 Jet path the profiles took before their univariate recurrences,
# kept as the reference for them.  It composes each step's Taylor coefficients
# with a jet in the profile's argument, and takes the ramp as 1 - h and m as
# (chi^2 / (chi - 2u dchi/du) - chi) / u.


def _u_jet(t0, order):
    return jet_variable(0, (t0,), 1, order)


def _recip_jet(j):
    u0 = j.value
    if u0 == 0:
        raise ZeroDivisionError("reciprocal of a jet with zero value")
    return jet_compose_univariate([(-1.0) ** k / u0 ** (k + 1) for k in range(j.order + 1)], j)


def _exp_jet(j):
    return jet_compose_univariate(ExpElem().taylor(j.value, j.order), j)


def _sqrt_jet(j):
    u0 = j.value.real
    outer = [math.sqrt(u0)]
    for k in range(1, j.order + 1):
        outer.append(outer[-1] * (0.5 - (k - 1)) / (k * u0))
    return jet_compose_univariate(outer, j)


def _ramp_taylor_ref(s0, order):
    if s0 <= 0.0 or s0 >= 1.0:
        return np.array([float(s0 <= 0.0)] + [0.0] * order, dtype=complex)
    s = _u_jet(s0, order)
    sig_s = _exp_jet(-_recip_jet(s))
    sig_1ms = _exp_jet(-_recip_jet(1.0 - s))
    return (1.0 - sig_s * _recip_jet(sig_s + sig_1ms)).c


def _bump_ref(e, t, order):
    a = abs(t)
    if a >= e.r + e.eps or a <= e.r:
        return np.array([float(a <= e.r)] + [0.0] * order, dtype=complex)
    ramp = _ramp_taylor_ref((a - e.r) / e.eps, order)
    return np.array([ramp[k] * (np.sign(t) / e.eps) ** k for k in range(order + 1)])


def _bump_sq_ref(e, u, order):
    if u >= (e.r + e.eps) ** 2 or u <= e.r ** 2:
        return np.array([float(u <= e.r ** 2)] + [0.0] * order, dtype=complex)
    s_jet = (_sqrt_jet(_u_jet(u, order)) - e.r) * (1.0 / e.eps)
    return jet_compose_univariate(_ramp_taylor_ref(s_jet.value.real, order), s_jet).c


def _ball_ramp_ref(e, u, order):
    if u <= e.r ** 2 or u >= (e.r + e.eps) ** 2:
        return np.zeros(order + 1, dtype=complex)
    chi = Jet(1, order + 1, (u,), _bump_sq_ref(e, u, order + 1))
    if abs(chi.value) < e._TINY:
        return np.zeros(order + 1, dtype=complex)
    dchi_du = chi.deriv(0)
    chi = chi.truncate(order)
    denom = chi - (_u_jet(u, order) * 2.0) * dchi_du
    return ((chi * chi * _recip_jet(denom) - chi) * _recip_jet(_u_jet(u, order))).c


PROFILE_REFS = {sf.BumpElem: _bump_ref, sf.BumpSqElem: _bump_sq_ref,
                sf.BallRampElem: _ball_ramp_ref}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(PROFILE_REFS, key=lambda c: c.__name__)),
       st.floats(0.5, 2.0), st.floats(0.1, 1.0), st.integers(0, 5),
       st.one_of(st.floats(0.0, 1.0),
                 st.tuples(st.booleans(), st.integers(-8, 8))),
       st.booleans())
def test_profile_recurrences_match_the_jet_path(cls, r, eps, order, where, negative):
    # `where` is a fraction of the annulus r^2 < u < (r + eps)^2, or a glue
    # point (inner or outer) moved by up to 8 of its ulps to either side.  The
    # reference loses accuracy where it cancels: its rounding at order k,
    # relative to max(1, |c_k|), grows about like 10^k, and m divides the
    # absolute rounding of chi by chi.  Measured worst case of |new - ref| /
    # (10^k max(1, |c_k|)), times chi for m: 1.5e-14 (m at order 2 next to u =
    # r^2, r = 0.5, eps = 0.1), over 700,000 draws of r, eps, u and the order.
    e = cls(r, eps)
    lo, hi = r * r, (r + eps) ** 2
    if isinstance(where, float):
        u = lo + where * (hi - lo)
    else:
        edge = hi if where[0] else lo
        u = edge + where[1] * np.spacing(edge)
    arg = u if cls is not sf.BumpElem else -math.sqrt(u) if negative else math.sqrt(u)
    got, ref = e.taylor(arg, order), PROFILE_REFS[cls](e, arg, order)
    assert got.shape == ref.shape == (order + 1,) and got.dtype == complex
    chi = min(1.0, sf.BumpSqElem(r, eps).taylor(u, 0)[0].real) if cls is sf.BallRampElem else 1.0
    scale = 1e-13 * 10.0 ** np.arange(order + 1)
    assert np.all(np.abs(got - ref) * chi <= scale * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_annulus_theta_walk_builds_no_one_variable_jet(order, monkeypatch):
    # the profiles B and M take their coefficients from recurrences on plain
    # lists: the walk composes only at the two `uni` nodes and every jet it
    # builds is in the n = 4 fiber variables
    theta = build_ball_compact_theta(4, standard_symplectic(4), 1.0, 0.25)
    x = np.array([0.1, -0.2, 0.3, 0.0, 0.7, 0.6, 0.5, 0.3])  # |v| = 1.09
    dims, composed = [], []
    init, compose = Jet.__init__, sf.jet_compose_univariate

    def counted_init(self, dim, *args):
        dims.append(dim)
        init(self, dim, *args)

    def counted_compose(outer, inner):
        composed.append(inner.dim)
        return compose(outer, inner)

    monkeypatch.setattr(Jet, "__init__", counted_init)
    monkeypatch.setattr(sf, "jet_compose_univariate", counted_compose)
    theta_matrix(theta, x, order)
    assert dims and set(dims) == {4}
    assert composed == [4, 4]


def test_eval_jet_wrong_dim_raises():
    f = sf.coordinate(0, 2)
    with pytest.raises(ValueError):
        eval_jet(f, (1.0,), 2)


def _poly_by_jet_arithmetic(coeffs, coords):
    """sum_m c_m prod_i coords[i]^(m_i) by jet products: the reference for the
    closed-form polynomial jet."""
    ref = coords[0]
    out = jet_constant(0.0, ref.base, ref.dim, ref.order)
    for m, cm in coeffs.items():
        term = jet_constant(cm, ref.base, ref.dim, ref.order)
        for i, e in enumerate(m):
            term = term * coords[i] ** e
        out = out + term
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_poly_closed_form_matches_jet_arithmetic(data):
    # in plain coordinates the polynomial jet is a closed form; under an
    # affine pullback it is that closed form at the pulled-back point,
    # substituted into the shifted coordinate jets
    dim = data.draw(st.integers(1, 4))
    order = data.draw(st.integers(0, 6))
    monos = multi_indices(dim, data.draw(st.integers(0, 4)))
    coef = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    coeffs = data.draw(st.dictionaries(st.sampled_from(monos), coef, min_size=1, max_size=6))
    x = tuple(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)))
    entries = st.lists(st.floats(-2.0, 2.0), min_size=dim * dim + dim, max_size=dim * dim + dim)
    A, b = np.eye(dim), np.zeros(dim)
    if data.draw(st.booleans()):
        ab = np.array(data.draw(entries))
        A, b = ab[:dim * dim].reshape(dim, dim), ab[dim * dim:]
    f = sf.polynomial(coeffs, dim)
    var = [jet_variable(i, x, dim, order) for i in range(dim)]
    pulled = [sum((var[i] * A[j, i] for i in range(dim)), jet_constant(b[j], x, dim, order))
              for j in range(dim)]
    for g, coords in ((f, var), (sf.pullback_affine(f, A, b), pulled)):
        ref = _poly_by_jet_arithmetic(coeffs, coords).c
        # the size of the terms before they cancel bounds the rounding
        size = _poly_by_jet_arithmetic({m: abs(c) for m, c in coeffs.items()},
                                       [Jet(dim, order, x, np.abs(c.c)) for c in coords]).c
        assert np.all(np.abs(eval_jet(g, x, order).c - ref) <= 1e-13 * np.maximum(1.0, size.real))


def _restricted_ball_theta():
    """The six components of the n=4 ball theta on one fiber, and a point of
    its transition annulus 1 < |v| < 1.25."""
    th = build_ball_compact_theta(4, standard_symplectic(4), 1.0, 0.25)
    th = restrict_to_fiber(th, (0.1, -0.2, 0.3, 0.0))
    return list(th.components.values()), np.array([0.7, 0.6, 0.5, 0.3])


def test_eval_jets_share_pulled_back_subtrees(monkeypatch):
    # every component is its own affine node; their pulled-back environments
    # have the same content, so the ramp profile M is evaluated once
    fns, v = _restricted_ball_theta()
    calls = []
    taylor = sf.BallRampElem.taylor

    def counted(self, u, order):
        calls.append(u)
        return taylor(self, u, order)

    monkeypatch.setattr(sf.BallRampElem, "taylor", counted)
    eval_jets(fns, v, 2)
    assert len(fns) == 6 and len(calls) == 1


def test_eval_jets_match_per_component_eval_jet():
    fns, v = _restricted_ball_theta()
    for f, jet in zip(fns, eval_jets(fns, v, 2)):
        assert np.array_equal(jet.c, eval_jet(f, v, 2).c)


THETA3 = np.array([[0.0, 1.0, 0.5], [-1.0, 0.0, 0.3], [-0.5, -0.3, 0.0]])
BASE = (0.3, -0.2, 0.1, 0.5)
R, EPS = 1.0, 0.25
THETAS = {
    "ball2": lambda: build_ball_compact_theta(2, standard_symplectic(2), R, EPS),
    "ball3": lambda: build_ball_compact_theta(3, THETA3, R, EPS),
    "ball4": lambda: build_ball_compact_theta(4, standard_symplectic(4), R, EPS),
    "commuting3": lambda: build_commuting_compact_theta(3, THETA3, R, EPS),
    "naive3": lambda: naive_scaled_theta(3, THETA3, R, EPS),
}


@lru_cache(maxsize=None)
def value_tree(name):
    """(components, fiber offset) of a named tree family: the theta above,
    or its restriction to a fiber ("/fiber")."""
    base, _, part = name.partition("/")
    th = THETAS[base]()
    if part:
        th = restrict_to_fiber(th, BASE[:th.base_dim])
    return list(th.components.values()), th.fiber_offset


VALUE_TREES = sorted(f"{t}{part}" for t in THETAS for part in ("", "/fiber"))
RADII = {"plateau": 0.6, "annulus": 1.1, "outside": 1.4, "at r": R, "at r + eps": R + EPS}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(VALUE_TREES), st.sampled_from(sorted(RADII)), st.integers(1, 3),
       st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
def test_evaluate_is_the_value_of_every_jet(name, region, k, coords):
    # the point value and the value of a jet of any order come out of one
    # recursion, so they agree exactly, also on the annulus edges
    fns, off = value_tree(name)
    x = np.array(coords[:fns[0].dim])
    v = x[off:]
    assume(np.linalg.norm(v) > 1e-3)
    v *= RADII[region] / np.linalg.norm(v)
    for f, jet in zip(fns, eval_jets(fns, x, k)):
        assert evaluate(f, x) == jet.value


def _fiber_indices(dim, n, order):
    """Where the multi-indices with a zero base part (the leading dim - n
    entries) sit among all of them: the fiber indices, in the same graded
    order."""
    mi = multi_indices(dim, order)
    idx = [k for k, m in enumerate(mi) if not any(m[:dim - n])]
    assert [mi[k][dim - n:] for k in idx] == list(multi_indices(n, order))
    return idx


def _flip(n):
    return np.diag([1.0] * n + [-1.0] * n)


def _midpoint(n):
    eye = np.eye(n)
    return np.block([[eye, -eye], [eye, eye]])


@lru_cache(maxsize=None)
def _fiber_theta(name, n):
    """Components on (p, v) of a theta family: tangent-bundle theta, or its
    restriction to a fiber lifted back to (p, v)."""
    Theta = np.random.default_rng(n).uniform(-1, 1, (n, n))
    build = {"ball": build_ball_compact_theta, "commuting": build_commuting_compact_theta,
             "naive": naive_scaled_theta}[name.partition("/")[0]]
    th = build(n, Theta - Theta.T, R, EPS)
    if name.endswith("/restricted"):
        lift = np.hstack([np.zeros((n, n)), np.eye(n)])
        return [sf.pullback_affine(f, lift, np.zeros(n))
                for f in restrict_to_fiber(th, BASE[:n]).components.values()]
    return list(th.components.values())


# trees without poly nodes, whose fiber jets are the full jets'
# coefficients bit for bit; support-pruned nodes among them outside |v| < 1.25
EXACT_TREES = ["ball", "commuting", "naive", "ball/restricted", "commuting/restricted"]
POLY_PULLBACKS = {"poly": None, "poly/flip": _flip, "poly/midpoint": _midpoint}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(EXACT_TREES + sorted(POLY_PULLBACKS)),
       st.sampled_from([2, 3, 4]), st.sampled_from(["plateau", "annulus", "outside"]),
       st.integers(0, 4), st.integers(0, 2 ** 32 - 1))
def test_fiber_jets_are_the_full_jets_at_fiber_indices(name, n, region, order, seed):
    # the fast path: jets in the n fiber variables of (p, v), with p held
    # constant; the reference: the jets in all 2n variables, gathered at the
    # multi-indices with a zero base part
    rng = np.random.default_rng(seed)
    dim = 2 * n
    poly = None
    if name in EXACT_TREES:
        fns = _fiber_theta(name, n)
    else:
        monos = multi_indices(dim, 4)
        coeffs = {monos[k]: complex(*rng.uniform(-1, 1, 2))
                  for k in rng.choice(len(monos), 6, replace=False)}
        make = POLY_PULLBACKS[name]
        A = None if make is None else make(n)
        poly = (coeffs, A)
        f = sf.polynomial(coeffs, dim)
        fns = [f if A is None else sf.pullback_affine(f, A, np.zeros(dim))]
    v = rng.normal(size=n)
    v *= {"plateau": 0.6, "annulus": 1.1, "outside": 1.4}[region] / np.linalg.norm(v)
    x = np.concatenate([rng.uniform(-1, 1, n), v])
    idx = _fiber_indices(dim, n, order)
    if poly is not None:  # as in test_poly_closed_form_matches_jet_arithmetic
        coeffs, A = poly
        var = [jet_variable(i, x, dim, order) for i in range(dim)]
        coords = var if A is None else [
            sum((var[i] * A[j, i] for i in range(dim)), jet_constant(0.0, x, dim, order))
            for j in range(dim)]
        size = _poly_by_jet_arithmetic({m: abs(c) for m, c in coeffs.items()},
                                       [Jet(dim, order, c.base, np.abs(c.c)) for c in coords])
        size = size.c[idx].real
    for a, b in zip(eval_jets(fns, x, order, n), eval_jets(fns, x, order)):
        ref = b.c[idx]
        assert (a.dim, a.order) == (n, order)
        if name in EXACT_TREES:
            assert (a.c + 0).tobytes() == (ref + 0).tobytes()  # up to signed zeros
        else:
            assert np.all(np.abs(a.c - ref) <= 1e-13 * np.maximum(1.0, size))


def test_products_and_states_see_fiber_jets(monkeypatch):
    # on the tangent bundle too, star_jets and expect_jets get jets in the n
    # fiber variables only
    n = 2
    dims = []
    star_jets, expect_jets = starprod.StarProduct.star_jets, states.CoherentState.expect_jets

    def spy_star(sp, F, G, x, out_orders):
        dims.extend(j.dim for j in F + G)
        return star_jets(sp, F, G, x, out_orders)

    def spy_expect(state, H):
        dims.extend(j.dim for j in H)
        return expect_jets(state, H)

    monkeypatch.setattr(starprod.StarProduct, "star_jets", spy_star)
    monkeypatch.setattr(states.CoherentState, "expect_jets", spy_expect)
    std = standard_symplectic(n)
    products = [
        starprod.moyal_constant(n, std, 2, picture="tm"),
        starprod.moyal_fiberwise(n, [[None, sf.constant(1.0, n)],
                                     [sf.constant(-1.0, n), None]], 2),
        starprod.general_vertical(build_ball_compact_theta(n, std, R, EPS), 2),
    ]
    f = sf.polynomial({(1, 0, 2, 0): 1.0, (0, 0, 1, 1): 0.5j}, 2 * n)
    g = sf.polynomial({(0, 1, 0, 2): -1.0, (0, 0, 1, 0): 2.0}, 2 * n)
    x = np.array([0.3, -0.2, 1.1, 0.0])  # in the annulus of the ball theta
    for sp in products:
        sp.star_at(f, g, x)
        starprod.associativity_defect(sp, f, g, f, [x])
        state = states.CoherentState(x, n, 2)
        state.variance(sp, f)
        state.star_expect(sp, f, g)
    assert len(dims) > 30 and set(dims) == {n}
