"""Jet arithmetic: ring laws, derivative bookkeeping, and agreement with
finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertstar.jets import (
    Jet,
    cauchy_product,
    jet_compose_univariate,
    jet_constant,
    jet_variable,
    multi_indices,
    n_coeffs,
)

from conftest import jet_laplacian, partial


def random_jet(rng, dim, order, base=None):
    base = tuple(rng.uniform(-1, 1, dim)) if base is None else base
    c = rng.uniform(-1, 1, n_coeffs(dim, order)) + 1j * rng.uniform(-1, 1, n_coeffs(dim, order))
    return Jet(dim, order, base, c)


def test_multi_index_enumeration_is_graded():
    mi = multi_indices(3, 4)
    degrees = [sum(a) for a in mi]
    assert degrees == sorted(degrees)
    # truncation is a prefix
    assert multi_indices(3, 2) == mi[: n_coeffs(3, 2)]


def test_variable_and_constant_values():
    x = jet_variable(1, (2.0, -3.0), 2, 3)
    assert x.value == -3.0
    assert partial(x, (0, 1)) == 1.0
    assert partial(x, (0, 2)) == 0.0
    one = jet_constant(1.0, (2.0, -3.0), 2, 3)
    assert (one * x).c == pytest.approx(x.c)


def test_polynomial_partials_match_hand_computation():
    # f(x, y) = x^2 y + y at (1, 2)
    x = jet_variable(0, (1.0, 2.0), 2, 3)
    y = jet_variable(1, (1.0, 2.0), 2, 3)
    f = x * x * y + y
    assert f.value == 4.0
    assert partial(f, (1, 0)) == 4.0     # 2xy
    assert partial(f, (0, 1)) == 2.0     # x^2 + 1
    assert partial(f, (1, 1)) == 2.0     # 2x
    assert partial(f, (2, 1)) == 2.0
    assert partial(f, (3, 0)) == 0.0


def test_deriv_commutes_with_truncate():
    rng = np.random.default_rng(0)
    j = random_jet(rng, 3, 4)
    a = j.deriv(1).truncate(2)
    b = j.truncate(3).deriv(1)
    assert np.allclose(a.c, b.c)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(1, 4))
def test_multiplication_is_commutative_and_associative(seed, dim, order):
    rng = np.random.default_rng(seed)
    a, b, c = (random_jet(rng, dim, order, base=(0.0,) * dim) for _ in range(3))
    assert np.allclose((a * b).c, (b * a).c, atol=1e-12)
    assert np.allclose(((a * b) * c).c, (a * (b * c)).c, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(1, 4))
def test_distributivity(seed, dim, order):
    rng = np.random.default_rng(seed)
    a, b, c = (random_jet(rng, dim, order, base=(0.0,) * dim) for _ in range(3))
    assert np.allclose((a * (b + c)).c, (a * b + a * c).c, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(2, 4))
def test_truncation_consistency_of_products(seed, dim, order):
    # truncating a product equals the product of truncations
    rng = np.random.default_rng(seed)
    a = random_jet(rng, dim, order, base=(0.0,) * dim)
    b = random_jet(rng, dim, order, base=(0.0,) * dim)
    k = order - 1
    assert np.allclose((a * b).truncate(k).c, (a.truncate(k) * b.truncate(k)).c,
                       atol=1e-12)


def _poly_eval(coeffs, x):
    return sum(c * np.prod(np.asarray(x, dtype=complex) ** np.asarray(m))
               for m, c in coeffs.items())


def test_jet_partials_match_central_finite_differences():
    # degree-3 polynomial in 4 variables, compare each first partial
    rng = np.random.default_rng(7)
    dim = 4
    monos = [m for m in multi_indices(dim, 3)]
    coeffs = {m: rng.uniform(-1, 1) for m in monos}
    x0 = rng.uniform(-1, 1, dim)

    x = [jet_variable(i, tuple(x0), dim, 3) for i in range(dim)]
    f = jet_constant(0.0, tuple(x0), dim, 3)
    for m, c in coeffs.items():
        term = jet_constant(c, tuple(x0), dim, 3)
        for i, p in enumerate(m):
            for _ in range(p):
                term = term * x[i]
        f = f + term

    h = 1e-5
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = h
        fd = (_poly_eval(coeffs, x0 + e) - _poly_eval(coeffs, x0 - e)) / (2 * h)
        exact = partial(f, tuple(int(k == i) for k in range(dim)))
        assert abs(fd - exact) <= 1e-5 * max(1.0, abs(exact))


def test_compose_univariate_exp():
    rng = np.random.default_rng(3)
    inner = random_jet(rng, 2, 4).c.real
    j = Jet(2, 4, (0.1, 0.2), np.asarray(inner, dtype=complex))
    outer = np.array([np.exp(j.value) / math.factorial(k) for k in range(5)])
    composed = jet_compose_univariate(outer, j)
    # d/dx exp(f) = exp(f) df/dx
    lhs = partial(composed, (1, 0))
    rhs = composed.value * partial(j, (1, 0))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_laplacian_of_quadratic_form():
    A = np.array([[2.0, 1.0], [1.0, -3.0]])
    base = (0.4, -0.2)
    x = jet_variable(0, base, 2, 2)
    y = jet_variable(1, base, 2, 2)
    f = A[0, 0] * x * x + 2 * A[0, 1] * x * y + A[1, 1] * y * y
    lap = jet_laplacian(f, np.eye(2))
    assert lap.value == pytest.approx(2 * np.trace(A))


def test_shape_mismatch_raises():
    a = jet_constant(1.0, (0.0,), 1, 2)
    b = jet_constant(1.0, (0.0, 0.0), 2, 2)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        partial(a, (3,))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 4), st.sampled_from([(), (3,), (2, 3)]),
       st.integers(0, 2 ** 32 - 1))
def test_cauchy_product_matches_jet_mul(dim, order, lead, seed):
    # b carries one leading axis less than a, so the product also broadcasts
    rng = np.random.default_rng(seed)
    m = n_coeffs(dim, order)
    a = rng.uniform(-1, 1, lead + (m,)) + 1j * rng.uniform(-1, 1, lead + (m,))
    b = rng.uniform(-1, 1, lead[1:] + (m,)) + 1j * rng.uniform(-1, 1, lead[1:] + (m,))
    out = cauchy_product(a, b, dim, order)
    assert out.shape == lead + (m,)
    base = (0.0,) * dim
    for idx in np.ndindex(*lead):
        ref = Jet(dim, order, base, a[idx]) * Jet(dim, order, base, b[idx[1:]])
        assert np.array_equal(out[idx], ref.c)
