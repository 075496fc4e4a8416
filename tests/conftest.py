import math

import numpy as np
import pytest
from scipy import optimize

from vertstar import smoothfn as sf
from vertstar.formal import FormalSeries
from vertstar.jets import (Jet, index_lookup, jet_compose_univariate, jet_constant, multi_indices,
                           n_coeffs)
from vertstar.smoothfn import SmoothMap
from vertstar.states import CoherentState, lorentz_square


def random_poly(rng, dim, degree=3, terms=5, axes=None, complex_coeffs=False):
    """Random polynomial with monomials drawn on the given axes."""
    axes = list(range(dim)) if axes is None else list(axes)
    coeffs = {}
    for _ in range(terms):
        m = [0] * dim
        for _d in range(int(rng.integers(0, degree + 1))):
            m[axes[int(rng.integers(0, len(axes)))]] += 1
        c = rng.uniform(-1, 1)
        if complex_coeffs:
            c = c + 1j * rng.uniform(-1, 1)
        coeffs[tuple(m)] = coeffs.get(tuple(m), 0.0) + c
    return sf.polynomial(coeffs, dim)


def partial(j: Jet, alpha) -> complex:
    """The raw partial derivative d^alpha f(base) = alpha! c[alpha] of a jet:
    the tests read derivatives off jets this way; the library works on the
    normalized coefficients."""
    alpha = tuple(alpha)
    if sum(alpha) > j.order:
        raise ValueError(f"|alpha|={sum(alpha)} exceeds jet order {j.order}")
    return math.prod(map(math.factorial, alpha)) * j.c[index_lookup(j.dim, j.order)[alpha]]


class ExpElem:
    """exp(t) as a univariate elementary, for test functions built with exp_of."""

    def taylor(self, t, order):
        v = np.exp(t)
        return np.array([v / math.factorial(k) for k in range(order + 1)], dtype=complex)


def exp_of(f: SmoothMap) -> SmoothMap:
    """The tree of exp(f): a `uni` node over f."""
    return SmoothMap(f.dim, "uni", (f,), payload=ExpElem())


def conjugate(f: SmoothMap) -> SmoothMap:
    """The tree of conj(f): the reference for Jet.conjugate."""
    if f.kind == "const":
        return SmoothMap(f.dim, "const", payload=np.conj(f.payload))
    if f.kind == "poly":
        return SmoothMap(f.dim, "poly", payload={k: np.conj(v) for k, v in f.payload.items()})
    if f.kind == "scale":
        return SmoothMap(f.dim, "scale", (conjugate(f.children[0]),),
                         payload=np.conj(f.payload))
    if not f.children:
        return f
    return SmoothMap(f.dim, f.kind, tuple(conjugate(c) for c in f.children),
                     payload=f.payload)


def jet_laplacian(j: Jet, metric_inv) -> Jet:
    """g^{ik} d_i d_k applied to a jet; result is two orders lower."""
    g = np.asarray(metric_inv)
    n = g.shape[0]
    out = None
    for i in range(n):
        for k in range(n):
            if g[i, k] == 0:
                continue
            term = j.deriv(i).deriv(k) * g[i, k]
            out = term if out is None else out + term
    if out is None:
        out = jet_constant(0.0, j.base, j.dim, j.order - 2)
    return out


def star_square_expect_closed_form(q, state, Theta) -> FormalSeries:
    """omega(f_A * f_A) for the quadratic observable q = f_A and the
    constant-bivector product:
    f_A^2 + lambda (f_A tr(gA) + 2 f_{AgA})
    + (lambda^2/4) (2 tr(A_t A_t) + (tr gA)^2 + 2 tr(gAgA)),
    with (A_t)^r_j = Theta^{rs} A_{sj}."""
    if state.order < 2:
        raise ValueError("closed form needs order >= 2")
    A = q.A
    g = state.metric_inv
    Th = np.asarray(Theta, dtype=float)
    v = np.asarray(state.base[-state.n:])
    fA = float(v @ A @ v)
    fAgA = float(v @ (A @ g @ A) @ v)
    trgA = float(np.trace(g @ A))
    At = Th @ A
    c0 = fA ** 2
    c1 = fA * trgA + 2 * fAgA
    c2 = 0.25 * (2 * np.trace(At @ At) + trgA ** 2 + 2 * np.trace(g @ A @ g @ A))
    coeffs = [complex(c0), complex(c1), complex(c2)] + [0j] * (state.order - 2)
    return FormalSeries(state.order, tuple(coeffs))


def variance_closed_form(q, state, Theta) -> FormalSeries:
    """2 lambda f_{AgA}(v) + (lambda^2/2)(tr(A_t A_t) + tr(gAgA)); follows
    from omega(f_A * f_A) above by subtracting omega(f_A)^2."""
    m = q.expect_closed_form(state)
    return star_square_expect_closed_form(q, state, Theta) - m * m


def gaussian_moments_expjet(g, order: int) -> np.ndarray:
    """E[Y^alpha] for Y ~ N(0, g/2) at every |alpha| <= order, in the graded
    order of multi_indices: alpha! [xi^alpha] exp(xi^T g xi / 4).  The
    reference for the Isserlis recursion of `states._gaussian_moments`."""
    n = g.shape[0]
    q = jet_constant(0.0, (0.0,) * n, n, order)
    if order >= 2:  # the degree-2 block lists xi_i xi_k, i <= k, row by row
        i, k = np.triu_indices(n)
        q.c[n + 1:n_coeffs(n, 2)] = np.where(i == k, 0.25, 0.5) * g[i, k]
    e = jet_compose_univariate([1.0 / math.factorial(k) for k in range(order + 1)], q)
    fact = [math.prod(map(math.factorial, a)) for a in multi_indices(n, order)]
    return e.c.real * fact


def expectation_root(lam: float, spatial_norm: float, n: int = 4,
                     order: int = 2, metric_inv=None) -> float:
    """v0 at which the numeric expectation of the Lorentz square vanishes,
    found by bracketing and bisection on the generic expectation pipeline.
    The reference for the closed-form cone `states.lightcone_v0`."""
    f_eta = lorentz_square(n)

    def h(v0):
        base = np.zeros(n)
        base[0] = v0
        base[1] = spatial_norm
        state = CoherentState(base, n, order, metric_inv=metric_inv)
        return float(np.real(state.expect(f_eta).substitute(lam)))

    hi = np.sqrt(lam + spatial_norm ** 2) + 1.0
    return float(optimize.brentq(h, 0.0, hi, xtol=1e-14, rtol=8.9e-16))


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)
