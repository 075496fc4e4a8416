"""Vertical Poisson bivectors: the Jacobi identity for the shipped
constructors, the cyclic Jacobi defect against a Schouten reference, and the
structural checks."""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vertstar import poisson, smoothfn as sf
from vertstar.poisson import (
    VerticalMultivector,
    build_ball_compact_theta,
    build_commuting_compact_theta,
    check_antisymmetric,
    check_flip_even,
    check_support,
    constant_theta,
    fiber_samples,
    jacobi_defect,
    naive_scaled_theta,
    restrict_to_fiber,
)
from vertstar.smoothfn import eval_jet, eval_jets, evaluate

STD2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
STD4 = np.zeros((4, 4))
STD4[0, 1] = STD4[2, 3] = 1.0
STD4[1, 0] = STD4[3, 2] = -1.0
SO3 = np.zeros((3, 3, 3))  # c^{ij}_k = epsilon_{ijk}
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    SO3[_i, _j, _k] = 1.0
    SO3[_j, _i, _k] = -1.0


def lie_linear_theta(n: int, structure_constants) -> VerticalMultivector:
    """Fiberwise-linear bivector theta^{ij} = c^{ij}_k v^k from structure
    constants of a Lie algebra on the fiber."""
    c = np.asarray(structure_constants, dtype=float)
    comps = {}
    for i in range(n):
        for j in range(i + 1, n):
            terms = {}
            for k in range(n):
                if c[i, j, k] != 0.0:
                    m = [0] * (2 * n)
                    m[n + k] = 1
                    terms[tuple(m)] = c[i, j, k]
            if terms:
                comps[(i, j)] = sf.polynomial(terms, 2 * n)
    return VerticalMultivector(n, comps)


def _perm_sign(idx) -> int:
    """Sign of the permutation that sorts distinct indices."""
    sign = 1
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            if idx[a] > idx[b]:
                sign = -sign
    return sign


def schouten_reference(theta: VerticalMultivector, x) -> dict:
    """The components [[theta, theta]]^{ijk}, i < j < k, at x, from the
    decomposable expansion of the Schouten bracket: each term f d_i ^ d_j is
    read as (f d_i) ^ d_j, and for vector fields U_a, V_b

        [[U_0 ^ U_1, V_0 ^ V_1]] = sum_{a,b} (-1)^(a+b) [U_a, V_b] ^ U_{1-a} ^ V_{1-b},
        [u d_p, w d_q] = u (d_p w) d_q - w (d_q u) d_p.

    Its inputs are one order-1 fiber jet per component, with no walk shared
    between them; the jet holds the value, then the fiber gradient."""
    n = theta.base_dim
    jets = {key: eval_jet(f, x, 1, fiber=n) for key, f in theta.components.items()}
    out: dict = {}
    for I, f in jets.items():
        for J, g in jets.items():
            # the factors of f d_I: f d_{I[0]}, then d_{I[1]}, whose
            # coefficient 1 has gradient 0
            U = [(f.value, f.c[1:], I[0]), (1.0, np.zeros(n), I[1])]
            V = [(g.value, g.c[1:], J[0]), (1.0, np.zeros(n), J[1])]
            for a in range(2):
                for b in range(2):
                    (u, du, p), (u_rest, _, p_rest) = U[a], U[1 - a]
                    (w, dw, q), (w_rest, _, q_rest) = V[b], V[1 - b]
                    for coef, idx in ((u * dw[p], q), (-w * du[q], p)):
                        key = (idx, p_rest, q_rest)
                        if len(set(key)) < 3:
                            continue
                        term = (-1) ** (a + b) * _perm_sign(key) * coef * u_rest * w_rest
                        ijk = tuple(sorted(key))
                        out[ijk] = out.get(ijk, 0.0) + term
    return out


def test_jacobi_constant_and_linear():
    rng = np.random.default_rng(2)
    samples = rng.uniform(-1, 1, (50, 8))
    assert jacobi_defect(constant_theta(4, STD4), samples) < 1e-12
    th = lie_linear_theta(3, SO3)
    assert jacobi_defect(th, rng.uniform(-1, 1, (50, 6))) < 1e-12


def test_jacobi_commuting_compact():
    th = build_commuting_compact_theta(4, STD4, 1.0, 0.25)
    samples = fiber_samples(th, 200, seed=0, radius=1.3)
    assert jacobi_defect(th, samples) < 1e-9


def test_jacobi_ball_compact():
    th = build_ball_compact_theta(4, STD4, 1.0, 0.25)
    samples = fiber_samples(th, 60, seed=0)
    assert jacobi_defect(th, samples) < 1e-9


def test_naive_scaled_theta_fails_jacobi():
    th = naive_scaled_theta(4, STD4, 1.0, 0.25)
    samples = fiber_samples(th, 200, seed=0)
    assert jacobi_defect(th, samples) > 1e-3


def test_naive_scaled_theta_is_poisson_for_two_dim_fibers():
    # top-degree bracket vanishes identically in 2-dim fibers
    th = naive_scaled_theta(2, STD2, 1.0, 0.25)
    samples = fiber_samples(th, 100, seed=1)
    assert jacobi_defect(th, samples) < 1e-12


def test_flip_and_support_checks():
    th = build_ball_compact_theta(2, STD2, 1.0, 0.25)
    samples = fiber_samples(th, 100, seed=5)
    assert check_flip_even(th, samples) < 1e-12
    assert check_support(th, samples) == 0.0


def test_check_support_does_not_trust_node_metadata():
    # theta claims to vanish beyond |v| = 0.5, but its bumps reach 1.25:
    # theta_matrix trusts the radius and reads 0 at |v| = 0.8, check_support
    # walks the components and sees the true value
    ball = build_ball_compact_theta(2, STD2, 1.0, 0.25)
    understated = replace(ball, support_radius=0.5)
    x = np.array([0.1, -0.2, 0.8, 0.0])
    for th, y in ((understated, x), (restrict_to_fiber(understated, x[:2]), x[2:])):
        assert not poisson.theta_matrix(th, y, 0).any()
        assert check_support(th, [y]) == abs(ball.matrix_at(x)[0, 1]) == 1.0


def test_wrong_degree_raises():
    # a bivector has components over the fiber index pairs i < j only
    f = sf.constant(1.0, 6)
    for key in ((0,), (0, 1, 2), (1, 0), (1, 1), (-1, 0), (0, 3)):
        with pytest.raises(ValueError, match="not a pair"):
            VerticalMultivector(3, {key: f})
    assert VerticalMultivector(3, {(0, 2): f}).components


_RNG = np.random.default_rng(11)
GENERIC4 = _RNG.uniform(-1, 1, (4, 4))
GENERIC4 = GENERIC4 - GENERIC4.T
NOT_LIE = _RNG.uniform(-1, 1, (4, 4, 4))
NOT_LIE = NOT_LIE - NOT_LIE.transpose(1, 0, 2)
JACOBI_CASES = {
    "constant": lambda: constant_theta(4, GENERIC4),
    "lie_linear": lambda: lie_linear_theta(3, SO3),
    "linear_not_lie": lambda: lie_linear_theta(4, NOT_LIE),
    "commuting_compact": lambda: build_commuting_compact_theta(4, STD4, 1.0, 0.25),
    "ball_compact": lambda: build_ball_compact_theta(4, GENERIC4, 1.0, 0.25),
    "naive_scaled": lambda: naive_scaled_theta(4, GENERIC4, 1.0, 0.25),
    "restricted": lambda: restrict_to_fiber(
        naive_scaled_theta(4, GENERIC4, 1.0, 0.25), [0.3, -0.2, 0.1, 0.5]),
}


NOT_POISSON = {"linear_not_lie", "naive_scaled", "restricted"}


@lru_cache(maxsize=None)
def jacobi_case(name):
    return JACOBI_CASES[name]()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(JACOBI_CASES)),
       st.lists(st.floats(-1.3, 1.3), min_size=8, max_size=8),
       st.one_of(st.none(), st.floats(0.0, 1.3)))
# |v|^2 lands one ulp past the plateau radius squared, where sqrt(|v|^2) = r
@example(name="ball_compact", coords=[0, 0, 0, 0, 0, 0, 1.0, 1.125], radius=1.0)
def test_jacobi_defect_matches_schouten_reference(name, coords, radius):
    # reference: every component of the Schouten bracket, expanded term by
    # term; a radius rescales the fiber part onto that sphere, to hit the
    # annulus
    th = jacobi_case(name)
    x = np.array(coords[:th.ambient_dim])
    v = x[th.fiber_offset:]
    if radius is not None and np.linalg.norm(v) > 0:
        v *= radius / np.linalg.norm(v)
    ref = max((abs(c) for c in schouten_reference(th, x).values()), default=0.0)
    assert abs(jacobi_defect(th, [x]) - ref) <= 1e-12 * max(1.0, ref)


@pytest.mark.parametrize("name", sorted(JACOBI_CASES))
def test_schouten_reference_on_every_case(name):
    # every case at seeded points on both sides of the annulus; the
    # reference reads a defect exactly for the cases that are not Poisson
    th = jacobi_case(name)
    worst = 0.0
    for x in fiber_samples(th, 20, seed=3, radius=1.2):
        ref = max(abs(c) for c in schouten_reference(th, x).values())
        assert abs(jacobi_defect(th, [x]) - ref) <= 1e-12 * max(1.0, ref)
        worst = max(worst, ref)
    assert (worst > 1e-3) == (name in NOT_POISSON)


def test_jacobi_defect_degenerate_inputs():
    th2 = naive_scaled_theta(2, STD2, 1.0, 0.25)
    assert jacobi_defect(th2, [np.array([0.0, 0.0, 1.1, 0.0])]) == 0.0
    th4 = naive_scaled_theta(4, STD4, 1.0, 0.25)
    for th, dim in ((th2, 4), (th4, 8)):
        with pytest.raises(ValueError):
            jacobi_defect(th, [np.zeros(dim + 1)])
        with pytest.raises(ValueError):
            jacobi_defect(th, [])


def test_shared_memo_checks_match_per_component_evaluate():
    th = build_ball_compact_theta(4, STD4, 1.0, 0.25)
    samples = fiber_samples(th, 40, seed=2, radius=1.3)
    for x in samples:
        m = th.matrix_at(x)
        for (i, j), f in th.components.items():
            assert m[i, j] == evaluate(f, x) and m[j, i] == -evaluate(f, x)
    # not flip-even, and every component shares its subtrees with the others
    odd = VerticalMultivector(4, {k: f * (sf.coordinate(4, 8) + 1.0)
                                     for k, f in th.components.items()})
    for X in (th, odd):
        ref = 0.0
        for x in samples:
            y = np.concatenate([x[:4], -x[4:]])
            for f in X.components.values():
                ref = max(ref, abs(evaluate(f, x) - evaluate(f, y)))
        assert check_flip_even(X, samples) == ref
    assert ref > 0.1
    # a declared radius inside the support, so the checked values are not 0
    inner = replace(th, support_radius=0.5)
    ref = max(abs(evaluate(f, x)) for x in samples if np.linalg.norm(x[4:]) >= 0.5
              for f in th.components.values())
    assert ref > 0.1
    assert check_support(inner, samples) == ref


def _quad_nodes(fns):
    """The distinct |v|^2 nodes reachable from the maps."""
    seen, stack, quads = set(), list(fns), 0
    while stack:
        f = stack.pop()
        if id(f) not in seen:
            seen.add(id(f))
            quads += f.kind == "quad"
            stack.extend(f.children)
    return quads


def test_ball_frame_shares_one_norm_squared(monkeypatch):
    # the bump B and the ramp M of the ball frame are both radial in v, so
    # they share one |v|^2 node; jets are bit-identical to those of a tree in
    # which each profile builds its own
    shared = sf.radial_profile

    def separate(elem, q):
        return shared(elem, sf.quadratic_form(q.payload))

    def build(base):
        th = build_ball_compact_theta(4, STD4, 1.0, 0.25)
        return th if base is None else restrict_to_fiber(th, base)

    base = np.array([0.1, -0.2, 0.3, 0.0])
    for p in (None, base):
        th = build(p)
        fns = list(th.components.values())
        with monkeypatch.context() as m:
            m.setattr(sf, "radial_profile", separate)
            ref = list(build(p).components.values())
        assert _quad_nodes(fns) == 1 and _quad_nodes(ref) == 2
        for radius in (0.5, 1.1, 1.2, 1.4):  # plateau, annulus, outside
            v = np.array([0.7, 0.6, 0.5, 0.3]) * radius / np.linalg.norm([0.7, 0.6, 0.5, 0.3])
            x = v if p is not None else np.concatenate([base, v])
            for a, b in zip(eval_jets(fns, x, 2), eval_jets(ref, x, 2)):
                assert a.c.tobytes() == b.c.tobytes()


@pytest.mark.parametrize("build", [
    lambda T: constant_theta(2, T),
    lambda T: build_commuting_compact_theta(2, T, 1.0, 0.25),
    lambda T: build_ball_compact_theta(2, T, 1.0, 0.25),
    lambda T: naive_scaled_theta(2, T, 1.0, 0.25),
], ids=["constant", "commuting", "ball", "naive"])
def test_constructors_reject_asymmetric_theta(build):
    # asymmetric by 9e-6: no relative tolerance may let it through
    with pytest.raises(ValueError, match="antisymmetric"):
        build([[0.0, 1.0], [-1.000009, 0.0]])
    # NaN + NaN^T is not above any tolerance
    for t in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            build([[0.0, t], [-t, 0.0]])
    assert build([[0.0, 1.0], [-1.0, 0.0]]).components


@pytest.mark.parametrize("build", [build_ball_compact_theta, build_commuting_compact_theta])
@pytest.mark.parametrize("n", [3, 4])
def test_jacobi_defect_on_the_plateau_takes_no_walk(build, n, monkeypatch):
    # on the plateau theta = Theta, so dtheta = 0 and the defect is exactly
    # 0 without a walk; elsewhere it is the defect of the walked theta
    rng = np.random.default_rng(n)
    Theta = rng.uniform(-1, 1, (n, n))
    th = build(n, Theta - Theta.T, 1.0, 0.25)
    walked = replace(th, plateau=None)
    pts = fiber_samples(th, 60, seed=n, radius=1.3)
    inside = [x for x in pts if np.linalg.norm(x[n:]) < 1.0]
    assert inside and len(inside) < len(pts)
    for x in pts:
        assert jacobi_defect(th, [x]) == jacobi_defect(walked, [x])

    def no_walk(*args):
        raise AssertionError("theta was walked on the plateau")

    monkeypatch.setattr(poisson, "eval_jets", no_walk)
    assert jacobi_defect(th, inside) == 0.0


def ball_frame_fields(n: int, r: float, eps: float) -> list:
    """Pairwise commuting vector-field components supported in the closed
    fiber ball of radius r + eps, equal to the coordinate frame at v = 0.

    Returns X[a][i]: SmoothMap on (p, v) for the i-th component of X_a.
    """
    dim = 2 * n
    axes = tuple(range(n, dim))
    q = sf.norm_squared(dim, axes)
    B = sf.radial_profile(sf.BumpSqElem(r, eps), q)
    M = sf.radial_profile(sf.BallRampElem(r, eps), q)
    vs = [sf.coordinate(n + i, dim) for i in range(n)]
    fields = []
    for a in range(n):
        row = []
        for i in range(n):
            comp = M * (vs[a] * vs[i])
            if i == a:
                comp = comp + B
            row.append(comp)
        fields.append(row)
    return fields


def frame_product_theta(n: int, Theta, r: float, eps: float):
    """Reference for build_ball_compact_theta: theta multiplied out from the
    frame, theta^{ij} = sum_{a<b} Theta^{ab} (X_a^i X_b^j - X_a^j X_b^i), with
    a component wherever Theta != 0.  Also returns, per component, the
    products X_a^i X_b^j and X_a^j X_b^i with their weights |Theta^{ab}|."""
    Theta = check_antisymmetric(Theta)
    X = ball_frame_fields(n, r, eps)
    comps, terms = {}, {}
    for i in range(n):
        for j in range(i + 1, n):
            acc, terms[(i, j)] = None, []
            for a in range(n):
                for b in range(a + 1, n):
                    if Theta[a, b] == 0.0:
                        continue
                    left, right = X[a][i] * X[b][j], X[a][j] * X[b][i]
                    term = (left - right) * Theta[a, b]
                    acc = term if acc is None else acc + term
                    terms[(i, j)] += [(abs(Theta[a, b]), left), (abs(Theta[a, b]), right)]
            if acc is not None:
                comps[(i, j)] = acc
    return VerticalMultivector(n, comps, support_radius=r + eps, plateau=(r, Theta)), terms


ONE_PAIR4 = np.zeros((4, 4))
ONE_PAIR4[0, 1], ONE_PAIR4[1, 0] = 0.7, -0.7
_DENSE3 = np.random.default_rng(3).uniform(-1, 1, (3, 3))
BALL_THETAS = {"std2": STD2, "dense3": _DENSE3 - _DENSE3.T, "std4": STD4,
               "dense4": GENERIC4, "one_pair4": ONE_PAIR4}
# fiber radii per region of the ball theta with r = 1, eps = 0.25; the two
# edges sit on a coordinate axis, where |v| is exactly the radius
FRAME_REGIONS = {"plateau": (0.0, 0.99), "at r": (1.0, 1.0), "annulus": (1.01, 1.24),
                 "at r + eps": (1.25, 1.25), "outside": (1.26, 2.0)}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(BALL_THETAS)), st.sampled_from(["tm", "fiber"]),
       st.sampled_from(sorted(FRAME_REGIONS)), st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_ball_theta_closed_form_matches_frame_product(name, picture, region, order, seed):
    # the closed form B^2 Theta + B M (w v^T - v w^T) against the frame
    # product: bit for bit where B and M are exact (on the plateau, at r and
    # beyond the support), and within the rounding of the frame product's
    # summed term sizes in the annulus; a component the closed form leaves
    # out must vanish there too
    Theta = BALL_THETAS[name]
    n = len(Theta)
    th = build_ball_compact_theta(n, Theta, 1.0, 0.25)
    ref, terms = frame_product_theta(n, Theta, 1.0, 0.25)
    assert set(th.components) <= set(ref.components)
    rng = np.random.default_rng(seed)
    p = rng.uniform(-1, 1, n)
    d = np.eye(n)[rng.integers(n)] if region.startswith("at") else rng.normal(size=n)
    v = d * (rng.uniform(*FRAME_REGIONS[region]) / np.linalg.norm(d))
    x = np.concatenate([p, v])  # the terms are taken on TM in both pictures
    pt = x
    if picture == "fiber":
        th, ref, pt = restrict_to_fiber(th, p), restrict_to_fiber(ref, p), v
    new = dict(zip(th.components, eval_jets(list(th.components.values()), pt, order, fiber=n)))
    old = eval_jets(list(ref.components.values()), pt, order, fiber=n)
    for key, jet in zip(ref.components, old):
        got = new[key].c if key in new else np.zeros_like(jet.c)
        if region == "annulus":
            weights, fns = zip(*terms[key])
            jets = eval_jets(list(fns), x, order, fiber=n)
            size = sum(w * np.abs(j.c) for w, j in zip(weights, jets))
            assert np.all(np.abs(got - jet.c) <= 1e-13 * np.maximum(1.0, size))
        else:
            assert got.tobytes() == jet.c.tobytes()


@pytest.mark.parametrize("check", [jacobi_defect, check_flip_even, check_support])
def test_nan_component_is_not_folded_away(check):
    # Python's max(0.0, nan) is 0.0: a NaN component used to pass every check
    radius = 0.5 if check is check_support else None  # else theta_matrix reads 0 there
    theta = VerticalMultivector(3, {(0, 1): sf.constant(np.nan, 6),
                                    (1, 2): sf.constant(1.0, 6)}, support_radius=radius)
    pts = np.random.default_rng(0).uniform(-1, 1, (4, 6)) * [1, 1, 1, 2, 2, 2]
    assert np.isnan(check(theta, pts))
