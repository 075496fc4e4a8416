"""Smooth functions as expression trees, evaluable on points and on jets.

A SmoothMap is an immutable tree; evaluation on a point and jet evaluation at
a point share the same recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .jets import Jet, jet_compose_univariate, jet_constant, multi_indices, n_coeffs


# ---------------------------------------------------------------------------
# univariate elementaries
# ---------------------------------------------------------------------------
# The profiles build their Taylor coefficients at a point t0 on plain lists c
# of K + 1 floats, c[k] = f^(k)(t0) / k!.  Products, quotients, exp and sqrt
# of such series follow from the standard coefficient recurrences in O(K^2)
# scalar operations (Griewank & Walther, Evaluating Derivatives, 2nd ed.,
# ch. 13), and the derivative has the coefficients (k + 1) c[k + 1].


def _linear(c0: float, c1: float, order: int) -> list:
    """The series of c0 + c1 (t - t0)."""
    return ([c0, c1] + [0.0] * order)[:order + 1]


def _mul(a: list, b: list) -> list:
    """a b: the convolution of the coefficients, truncated."""
    return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(len(a))]


def _quot(a: list, b: list) -> list:
    """a / b, from b c = a: c[k] = (a[k] - sum_{j >= 1} b[j] c[k - j]) / b[0]."""
    if b[0] == 0:
        raise ZeroDivisionError("reciprocal of a series with zero value")
    c = []
    for k in range(len(a)):
        c.append((a[k] - sum(b[j] * c[k - j] for j in range(1, k + 1))) / b[0])
    return c


def _exp(a: list) -> list:
    """exp(a), from e' = a' e: k e[k] = sum_{j >= 1} j a[j] e[k - j]."""
    e = [math.exp(a[0])]
    for k in range(1, len(a)):
        e.append(sum(j * a[j] * e[k - j] for j in range(1, k + 1)) / k)
    return e


def _sqrt(a: list) -> list:
    """sqrt(a), from r r = a: 2 r[0] r[k] = a[k] - sum_{0 < j < k} r[j] r[k - j]."""
    r = [math.sqrt(a[0])]
    for k in range(1, len(a)):
        r.append((a[k] - sum(r[j] * r[k - j] for j in range(1, k))) / (2.0 * r[0]))
    return r


def _ramp(s: list) -> list:
    """Series of 1 - h(s) for a series s, with h(s) = sigma(s) / (sigma(s) +
    sigma(1 - s)), sigma(s) = exp(-1/s), the canonical smooth step: 0 below
    s = 0, 1 above s = 1, flat at both glue points, so there the series is
    exactly (1, 0, ...) and 0.  Inside, 1 - h is taken as
    sigma(1 - s) / (sigma(s) + sigma(1 - s)), which does not cancel near s = 1."""
    if s[0] <= 0.0 or s[0] >= 1.0:
        return _linear(float(s[0] <= 0.0), 0.0, len(s) - 1)
    minus_one = _linear(-1.0, 0.0, len(s) - 1)
    sig_s = _exp(_quot(minus_one, s))
    sig_1ms = _exp(_quot(minus_one, [1.0 - s[0]] + [-c for c in s[1:]]))
    return _quot(sig_1ms, [a + b for a, b in zip(sig_s, sig_1ms)])


class _Profile:
    """A flat profile with plateau radius r and ramp width eps."""

    def __init__(self, r: float, eps: float):
        if r <= 0 or eps <= 0:
            raise ValueError("profile requires r > 0 and eps > 0")
        self.r = r
        self.eps = eps


class BumpElem(_Profile):
    """Even bump in t: 1 on [-r, r], smooth monotone ramp, 0 beyond r + eps."""

    def taylor(self, t, order):
        t = float(np.real(t))
        a = abs(t)
        if a >= self.r + self.eps or a <= self.r:
            return np.array(_linear(float(a <= self.r), 0.0, order), dtype=complex)
        sgn = 1.0 if t > 0 else -1.0
        # the ramp argument (|t| - r) / eps is linear in t
        s = _linear((a - self.r) / self.eps, sgn / self.eps, order)
        return np.array(_ramp(s), dtype=complex)


class BumpSqElem(_Profile):
    """Radial bump profile in u = |v|^2: value chi(sqrt(u)) of an even bump."""

    def taylor(self, u, order):
        return np.array(self._series(float(np.real(u)), order), dtype=complex)

    def _series(self, u: float, order: int) -> list:
        if u >= (self.r + self.eps) ** 2 or u <= self.r ** 2:
            return _linear(float(u <= self.r ** 2), 0.0, order)
        root = _sqrt(_linear(u, 1.0, order))
        return _ramp([(root[0] - self.r) / self.eps] + [c / self.eps for c in root[1:]])


class BallRampElem(BumpSqElem):
    """Radial correction profile m(u) of a ball-supported pushforward frame.

    The frame fields are X_alpha(w) = chi(s) e_alpha + m(s^2) (w . e_alpha) w
    with s = |w|, the pushforward of the coordinate frame along the inverse of
    the radial map w -> (s/chi(s)) w/s onto all of R^n.  Here chi is the even
    bump with plateau radius r and ramp width eps, and
    m(u) = (1/sigma'(sqrt(u)) - chi(sqrt(u))) / u, sigma(s) = s / chi(s).
    m vanishes flatly at both ends of the annulus r < sqrt(u) < r + eps.
    """

    # below this plateau value the exact profile is far under any tolerance
    _TINY = 1e-60

    def taylor(self, u, order):
        u = float(np.real(u))
        if u <= self.r ** 2 or u >= (self.r + self.eps) ** 2:
            return np.zeros(order + 1, dtype=complex)
        chi = self._series(u, order + 1)  # chi as a series in u = s^2
        if abs(chi[0]) < self._TINY:
            return np.zeros(order + 1, dtype=complex)
        dchi = [k * chi[k] for k in range(1, order + 2)]  # dchi/du
        chi = chi[:order + 1]
        # 1/sigma' = chi^2 / (chi - s chi'(s)) and chi'(s) = 2s dchi/du, so
        # m = 2 chi dchi/du / (chi - 2u dchi/du), with no cancellation; the
        # denominator stays >= chi > 0 on the ramp
        u_dchi = _mul(_linear(u, 1.0, order), dchi)
        m = _quot([2.0 * c for c in _mul(chi, dchi)], [c - 2.0 * d for c, d in zip(chi, u_dchi)])
        return np.array(m, dtype=complex)


# ---------------------------------------------------------------------------
# expression trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SmoothMap:
    """Expression tree for a smooth function on R^dim."""

    dim: int
    kind: str
    children: tuple = ()
    payload: object = None

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        return SmoothMap(self.dim, "sum", (self, _as_map(other, self.dim)))

    __radd__ = __add__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-_as_map(other, self.dim))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, SmoothMap):
            return SmoothMap(self.dim, "scale", (self,), payload=other)
        return SmoothMap(self.dim, "prod", (self, other))

    __rmul__ = __mul__

    # -- evaluation ----------------------------------------------------------

    def __call__(self, x):
        return evaluate(self, x)


def _as_map(v, dim):
    if isinstance(v, SmoothMap):
        return v
    return constant(v, dim)


# -- constructors -----------------------------------------------------------


def coordinate(i: int, dim: int) -> SmoothMap:
    if not 0 <= i < dim:
        raise ValueError(f"coordinate index {i} out of range for dim {dim}")
    return SmoothMap(dim, "coord", payload=i)


def constant(c, dim: int) -> SmoothMap:
    return SmoothMap(dim, "const", payload=complex(c))


def quadratic_form(A) -> SmoothMap:
    """x -> x^T A x for a square matrix A."""
    A = np.asarray(A, dtype=float)
    return SmoothMap(A.shape[0], "quad", payload=A)


def polynomial(coeffs: dict, dim: int) -> SmoothMap:
    """Sum of monomials; coeffs maps exponent tuples to scalars."""
    clean = {tuple(k): complex(v) for k, v in coeffs.items()}
    return SmoothMap(dim, "poly", payload=clean)


def pullback_affine(f: SmoothMap, A, b) -> SmoothMap:
    """x -> f(A x + b); A maps the new variable space into f's."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.shape[0] != f.dim or b.shape[0] != f.dim:
        raise ValueError("affine pullback shape mismatch")
    return SmoothMap(A.shape[1], "affine", (f,), payload=(A, b))


def bump_of(f: SmoothMap, r: float, eps: float) -> SmoothMap:
    """chi(f(x)) with chi the even flat bump (1 on [-r, r], 0 beyond r+eps)."""
    return SmoothMap(f.dim, "uni", (f,), payload=BumpElem(r, eps))


def norm_squared(dim: int, axes) -> SmoothMap:
    """x -> the squared Euclidean norm of the listed coordinates."""
    A = np.zeros((dim, dim))
    for i in axes:
        A[i, i] = 1.0
    return quadratic_form(A)


def radial_profile(elem: _Profile, q: SmoothMap) -> SmoothMap:
    """elem(q) for q = norm_squared(dim, axes) and a profile element in
    u = |v|^2 (BumpSqElem or BallRampElem).  Profiles built on one q node
    share its evaluation in a walk."""
    return SmoothMap(q.dim, "uni", (q,), payload=elem)


def radial_bump(dim: int, axes, r: float, eps: float) -> SmoothMap:
    """Bump in the Euclidean norm over the listed axes: 1 inside radius r,
    0 outside radius r + eps."""
    return radial_profile(BumpSqElem(r, eps), norm_squared(dim, axes))


# -- evaluation -------------------------------------------------------------


def evaluate(f: SmoothMap, x):
    """Pointwise value of f at x: the value of its order-0 jet."""
    return eval_jets([f], x, 0)[0].value


def eval_jet(f: SmoothMap, x, order: int, fiber: int | None = None) -> Jet:
    """Jet of f at x to the given order (see eval_jets for `fiber`)."""
    return eval_jets([f], x, order, fiber)[0]


def eval_jets(fs, x, order: int, fiber: int | None = None) -> list:
    """Jets of several maps at one point x to the given order.  They share one
    walk, so a subtree common to several maps is evaluated once.

    The jet variables are the trailing `fiber` coordinates of x (all of them
    by default); the others are constants.  With fiber = n on the tangent
    bundle the jets differentiate only the fiber directions v of (p, v)."""
    x = tuple(float(v) for v in np.asarray(x, dtype=float))
    if any(len(x) != f.dim for f in fs):
        raise ValueError("point dimension mismatch")
    env = _Env(x, order, fiber)
    return [_eval_jet(f, env) for f in fs]


class _Env:
    """A coordinate environment of one jet walk: the point x and the jets its
    coordinates take.  `memo` holds the jets of the nodes evaluated in it,
    keyed by id (every node is alive for the walk); `derived` holds the
    environments made from it for affine nodes, keyed by content, so all the
    nodes that need one share its memo."""

    def __init__(self, x: tuple, order: int, fiber: int | None = None, coords=None):
        self.x = x
        # made from the point alone, the coordinates are plain: the trailing
        # `fiber` of them are the jet variables, the others constants
        self.plain = coords is None
        if coords is None:
            fiber = len(x) if fiber is None else fiber
            coords = tuple(jet_constant(v, x, fiber, order) for v in x)
            if order >= 1:
                for k in range(fiber):  # graded order: e_k follows the value
                    coords[len(x) - fiber + k].c[1 + k] = 1.0
        self.coords = coords
        self.memo: dict = {}
        self.derived: dict = {}
        self.monomials = None  # see substitute

    def pullback(self, A: np.ndarray, b: np.ndarray) -> "_Env":
        key = (A.shape, A.tobytes(), b.tobytes())
        if key not in self.derived:
            c, ref = self.coords, self.coords[0]
            coords = tuple(
                sum((c[i] * A[j, i] for i in range(len(c)) if A[j, i] != 0.0),
                    jet_constant(b[j], ref.base, ref.dim, ref.order))
                for j in range(A.shape[0]))
            self.derived[key] = _Env(tuple(float(y.value.real) for y in coords),
                                     ref.order, coords=coords)
        return self.derived[key]

    def substitute(self, j: Jet) -> Jet:
        """A jet in plain coordinates at x, all of them variables, as a jet in
        the variables of this environment: its Taylor polynomial at the
        coordinate jets shifted to x."""
        ref = self.coords[0]
        if self.monomials is None:
            # row m: the jet of prod_i (coords[i] - value_i)^(m_i), |m| <= order
            shifted = [c - c.value for c in self.coords]
            mono = {}
            for m in multi_indices(j.dim, j.order):  # graded: m - e_i comes first
                i = next((i for i, e in enumerate(m) if e), None)
                mono[m] = (jet_constant(1.0, ref.base, ref.dim, ref.order) if i is None
                           else mono[m[:i] + (m[i] - 1,) + m[i + 1:]] * shifted[i])
            self.monomials = np.array([jet.c for jet in mono.values()])
        return Jet(ref.dim, ref.order, ref.base, j.c @ self.monomials)


def _eval_jet(f: SmoothMap, env: _Env) -> Jet:
    memo = env.memo
    if id(f) in memo:
        return memo[id(f)]
    k = f.kind
    coords = env.coords
    ref = coords[0]
    if k == "coord":
        out = coords[f.payload]
    elif k == "const":
        out = jet_constant(f.payload, ref.base, ref.dim, ref.order)
    elif k == "sum":
        out = _eval_jet(f.children[0], env) + _eval_jet(f.children[1], env)
    elif k == "prod":
        out = _eval_jet(f.children[0], env) * _eval_jet(f.children[1], env)
    elif k == "scale":
        out = _eval_jet(f.children[0], env) * f.payload
    elif k == "quad":
        A = f.payload
        n = A.shape[0]
        out = None
        for i in range(n):
            for j in range(i, n):
                a = A[i, j] + (A[j, i] if j > i else 0.0)
                if a == 0:
                    continue
                term = (coords[i] * coords[j]) * a
                out = term if out is None else out + term
        if out is None:
            out = jet_constant(0.0, ref.base, ref.dim, ref.order)
    elif k == "poly":
        out = (_poly_jet(f.payload, env.x, ref.order, ref.dim) if env.plain
               else env.substitute(_poly_jet(f.payload, env.x, ref.order, f.dim)))
    elif k == "affine":
        out = _eval_jet(f.children[0], env.pullback(*f.payload))
    elif k == "uni":
        inner = _eval_jet(f.children[0], env)
        out = jet_compose_univariate(f.payload.taylor(inner.value, inner.order), inner)
    else:
        raise ValueError(f"unknown node kind {k!r}")
    memo[id(f)] = out
    return out


@lru_cache(maxsize=None)
def _index_array(dim: int, fiber: int, degree: int) -> np.ndarray:
    """multi_indices(fiber, degree) as an integer array, one row per index,
    padded with zeros in front to the dim coordinates whose trailing `fiber`
    are the variables."""
    alpha = np.array(multi_indices(fiber, degree), dtype=int).reshape(-1, fiber)
    return np.pad(alpha, ((0, 0), (dim - fiber, 0)))


def _poly_jet(coeffs: dict, x0: tuple, order: int, fiber: int) -> Jet:
    """Jet of a polynomial at x0 in plain coordinates whose trailing `fiber`
    are the variables, in closed form."""
    dim = len(x0)
    # x^m shifted to x0 has the coefficient prod_i comb(m_i, alpha_i)
    # x0_i^(m_i - alpha_i) at alpha <= m, and 0 at every other alpha; a
    # constant coordinate has alpha_i = 0, so its x0_i^(m_i) scales them all
    c = np.zeros(n_coeffs(fiber, order), dtype=complex)
    for m, cm in coeffs.items():
        alpha = _index_array(dim, fiber, min(sum(m[dim - fiber:]), order))
        w = np.full(len(alpha), cm, dtype=complex)
        for i, x in enumerate(x0):
            factor = np.zeros(sum(m) + 1)  # indexed by alpha_i, 0 above m_i
            factor[:m[i] + 1] = [math.comb(m[i], a) * x ** (m[i] - a) for a in range(m[i] + 1)]
            w = w * factor[alpha[:, i]]
        c[:len(alpha)] += w
    return Jet(fiber, order, x0, c)
