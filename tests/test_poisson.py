"""Vertical multivector fields: Schouten bracket laws, the Jacobi identity for
the shipped constructors, the HKR map, and the structural checks."""

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
    check_flip_even,
    check_rotation_invariance,
    check_support,
    constant_theta,
    fiber_samples,
    hkr,
    jacobi_defect,
    lie_linear_theta,
    naive_scaled_theta,
    poisson_bracket,
    restrict_to_fiber,
    schouten,
    wedge,
)
from vertstar.smoothfn import eval_jets, evaluate

STD2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
STD4 = np.zeros((4, 4))
STD4[0, 1] = STD4[2, 3] = 1.0
STD4[1, 0] = STD4[3, 2] = -1.0
SO3 = np.zeros((3, 3, 3))  # c^{ij}_k = epsilon_{ijk}
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    SO3[_i, _j, _k] = 1.0
    SO3[_j, _i, _k] = -1.0


def vector_field(n, comps):
    """Degree-1 vertical multivector from {axis: SmoothMap} on (p, v)."""
    return VerticalMultivector(n, 1, {(i,): f for i, f in comps.items()})


def components_close(X, Y, samples, atol=1e-9):
    keys = set(X.components) | set(Y.components)
    for x in samples:
        for k in keys:
            a = evaluate(X.components[k], x) if k in X.components else 0.0
            b = evaluate(Y.components[k], x) if k in Y.components else 0.0
            if abs(a - b) > atol:
                return False
    return True


def test_component_antisymmetry_lookup():
    th = constant_theta(2, STD2)
    assert evaluate(th.component((0, 1)), np.zeros(4)) == pytest.approx(1.0)
    assert evaluate(th.component((1, 0)), np.zeros(4)) == pytest.approx(-1.0)
    assert th.component((0, 0)) is None


def test_poisson_bracket_constant_theta():
    th = constant_theta(2, STD2)
    f = sf.coordinate(2, 4)  # v^0
    g = sf.coordinate(3, 4)  # v^1
    x = np.array([0.1, -0.2, 0.5, 0.7])
    # {v^0, v^1} = Theta^{01}, matching the commutator [v^0, v^1] = i lambda Theta^{01}
    assert poisson_bracket(th, f, g, x) == pytest.approx(1.0)
    assert poisson_bracket(th, g, f, x) == pytest.approx(-1.0)


def test_schouten_of_commuting_coordinate_fields_vanishes():
    n = 2
    X = vector_field(n, {0: sf.constant(1.0, 2 * n)})
    Y = vector_field(n, {1: sf.constant(1.0, 2 * n)})
    B = schouten(X, Y)
    assert all(
        evaluate(f, np.zeros(2 * n)) == 0 for f in B.components.values()) or not B.components


def test_schouten_antisymmetry_degree_one():
    n = 2
    rng = np.random.default_rng(0)
    v0, v1 = sf.coordinate(2, 4), sf.coordinate(3, 4)
    X = vector_field(n, {0: v0 * v1, 1: v1})
    Y = vector_field(n, {0: v1 * v1, 1: v0})
    samples = rng.uniform(-1, 1, (10, 4))
    lhs = schouten(X, Y)
    rhs = schouten(Y, X)
    for x in samples:
        for k in set(lhs.components) | set(rhs.components):
            a = evaluate(lhs.components[k], x) if k in lhs.components else 0.0
            b = evaluate(rhs.components[k], x) if k in rhs.components else 0.0
            assert abs(a + b) < 1e-9


def test_schouten_leibniz_vector_on_wedge():
    # [[X, Y ^ Z]] = [[X, Y]] ^ Z + Y ^ [[X, Z]] for vector fields
    n = 3
    rng = np.random.default_rng(1)
    dim = 2 * n
    v = [sf.coordinate(n + i, dim) for i in range(n)]
    X = vector_field(n, {0: v[1] * v[2], 2: v[0]})
    Y = vector_field(n, {1: v[0] * v[0], 2: v[1]})
    Z = vector_field(n, {0: v[2], 1: v[1] * v[2]})
    lhs = schouten(X, wedge(Y, Z))
    r1 = wedge(schouten(X, Y), Z)
    r2 = wedge(Y, schouten(X, Z))
    samples = rng.uniform(-1, 1, (8, dim))
    for x in samples:
        keys = set(lhs.components) | set(r1.components) | set(r2.components)
        for k in keys:
            a = evaluate(lhs.components[k], x) if k in lhs.components else 0.0
            b = evaluate(r1.components[k], x) if k in r1.components else 0.0
            c = evaluate(r2.components[k], x) if k in r2.components else 0.0
            assert abs(a - b - c) < 1e-9


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


def test_restriction_is_wedge_homomorphism():
    n = 2
    dim = 2 * n
    v = [sf.coordinate(n + i, dim) for i in range(n)]
    p0 = sf.coordinate(0, dim)
    X = vector_field(n, {0: v[1] + p0, 1: v[0] * v[1]})
    Y = vector_field(n, {0: v[0], 1: p0 * v[1]})
    p = np.array([0.4, -0.7])
    rng = np.random.default_rng(3)
    fiber_pts = rng.uniform(-1, 1, (10, n))
    lhs = restrict_to_fiber(wedge(X, Y), p)
    rhs = wedge(restrict_to_fiber(X, p), restrict_to_fiber(Y, p))
    assert components_close(lhs, rhs, fiber_pts)
    lhs = restrict_to_fiber(schouten(X, Y), p)
    rhs = schouten(restrict_to_fiber(X, p), restrict_to_fiber(Y, p))
    assert components_close(lhs, rhs, fiber_pts)


def test_hkr_degree_one_is_directional_derivative():
    n = 2
    dim = 2 * n
    v0, v1 = sf.coordinate(n, dim), sf.coordinate(n + 1, dim)
    X = vector_field(n, {0: v1, 1: sf.constant(2.0, dim)})
    f = v0 * v0 + v1
    op = hkr(X)
    x = np.array([0.0, 0.0, 0.5, -0.3])
    # X f = v1 * 2 v0 + 2 * 1
    assert op([f], x) == pytest.approx(-0.3 * 1.0 + 2.0)


def test_hkr_antisymmetrization_is_poisson_bracket():
    th = build_commuting_compact_theta(2, STD2, 1.0, 0.25)
    op = hkr(th)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = np.concatenate([rng.uniform(-1, 1, 2), rng.uniform(-1.3, 1.3, 2)])
        f = sf.polynomial({(0, 0, 2, 0): rng.uniform(-1, 1),
                           (0, 0, 1, 1): rng.uniform(-1, 1)}, 4)
        g = sf.polynomial({(0, 0, 0, 2): rng.uniform(-1, 1),
                           (0, 0, 1, 0): rng.uniform(-1, 1)}, 4)
        lhs = op([f, g], x) - op([g, f], x)
        assert abs(lhs - poisson_bracket(th, f, g, x)) < 1e-9


def test_hkr_kills_base_only_slots():
    th = constant_theta(2, STD2)
    op = hkr(th)
    f = sf.coordinate(2, 4)
    u = sf.coordinate(0, 4)  # base coordinate: no fiber derivative
    assert op([f, u], (0.3, 0.1, 0.2, 0.4)) == 0.0


def test_flip_support_rotation_checks():
    th = build_ball_compact_theta(2, STD2, 1.0, 0.25)
    samples = fiber_samples(th, 100, seed=5)
    assert check_flip_even(th, samples) < 1e-12
    assert check_support(th, samples) == 0.0
    angles = np.linspace(0.3, 2.8, 4)
    rots = [np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
            for a in angles]
    assert check_rotation_invariance(th, samples, rots) < 1e-9


def test_check_support_does_not_trust_node_metadata():
    # the node claims to vanish beyond |v| = 0.5, but its bump reaches 1.25:
    # the pruned walk reads 0 at |v| = 0.8, check_support sees the true 1
    axes = (2, 3)
    bump = sf.radial_bump(4, axes, 1.0, 0.25)
    understated = sf.SmoothMap(4, "scale", (bump,), payload=1.0, support=(axes, 0.5))
    th = VerticalMultivector(2, 2, {(0, 1): understated}, support_radius=0.5)
    x = np.array([0.1, -0.2, 0.8, 0.0])
    assert evaluate(understated, x) == 0.0
    assert check_support(th, [x]) == 1.0
    assert check_support(restrict_to_fiber(th, x[:2]), [x[2:]]) == 1.0


def test_wrong_degree_raises():
    X = vector_field(2, {0: sf.constant(1.0, 4)})
    with pytest.raises(ValueError):
        jacobi_defect(X, [np.zeros(4)])


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


@lru_cache(maxsize=None)
def theta_and_bracket(name):
    th = JACOBI_CASES[name]()
    return th, schouten(th, th)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(JACOBI_CASES)),
       st.lists(st.floats(-1.3, 1.3), min_size=8, max_size=8),
       st.one_of(st.none(), st.floats(0.0, 1.3)))
# |v|^2 lands one ulp past the plateau radius squared, where sqrt(|v|^2) = r
@example(name="ball_compact", coords=[0, 0, 0, 0, 0, 0, 1.0, 1.125], radius=1.0)
def test_jacobi_defect_matches_schouten_reference(name, coords, radius):
    # reference: every component of the Schouten bracket, evaluated alone;
    # a radius rescales the fiber part onto that sphere, to hit the annulus
    th, bracket = theta_and_bracket(name)
    x = np.array(coords[:th.ambient_dim])
    v = x[th.fiber_offset:]
    if radius is not None and np.linalg.norm(v) > 0:
        v *= radius / np.linalg.norm(v)
    ref = max((abs(evaluate(f, x)) for f in bracket.components.values()),
              default=0.0)
    assert abs(jacobi_defect(th, [x]) - ref) <= 1e-12 * max(1.0, ref)


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
    odd = VerticalMultivector(4, 2, {k: f * (sf.coordinate(4, 8) + 1.0)
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

    def separate(elem, q, axes):
        return shared(elem, sf.norm_squared(q.dim, axes), axes)

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
