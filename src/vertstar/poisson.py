"""Vertical multivector fields, the Schouten-Nijenhuis bracket, the HKR map,
and constructors for compactly supported vertical Poisson structures.

A vertical multivector on the tangent bundle of flat n-space has components
indexed by strictly increasing fiber-index tuples; each component is a
SmoothMap in the 2n variables (p, v).  Restriction to a fiber freezes p and
yields components in the n fiber variables alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import smoothfn as sf
from .jets import n_coeffs
from .smoothfn import SmoothMap, eval_jet, eval_jets


@dataclass(eq=False)
class VerticalMultivector:
    """Antisymmetric contravariant tensor field differentiating only fiber
    directions; stored over sorted fiber-index tuples."""

    base_dim: int
    degree: int
    components: dict  # sorted fiber-index tuple -> SmoothMap
    support_radius: float | None = None
    fiber_offset: int = field(default=-1)  # -1: defaults to base_dim (TM picture)
    plateau: tuple | None = None  # (radius, Theta): theta = Theta where |v| < radius

    def __post_init__(self):
        if self.fiber_offset < 0:
            self.fiber_offset = self.base_dim
        for key in self.components:
            if list(key) != sorted(key) or len(set(key)) != len(key):
                raise ValueError(f"component key {key} is not strictly increasing")
            if len(key) != self.degree:
                raise ValueError("component key length does not match degree")

    @property
    def ambient_dim(self) -> int:
        return self.fiber_offset + self.base_dim

    def component(self, key) -> SmoothMap | None:
        """Component for an arbitrary index tuple, with antisymmetry sign;
        None when zero."""
        key = tuple(key)
        if len(set(key)) != len(key):
            return None
        order = tuple(sorted(key))
        f = self.components.get(order)
        if f is None:
            return None
        sign = _perm_sign(key)
        return f if sign == 1 else f * (-1.0)

    def matrix_at(self, x):
        """Dense antisymmetric component array evaluated at a point (degree 2)."""
        return theta_matrix(self, x, 0)[..., 0]


def theta_matrix(theta: VerticalMultivector, x, order: int) -> np.ndarray:
    """Antisymmetric [n, n, c] array of the coefficients of the component
    jets at x in the n fiber variables (zeros where a component is absent),
    from one walk of all the components, or in closed form where the fiber
    part of x is inside theta's plateau."""
    n, comps = theta.base_dim, theta.components
    m = np.zeros((n, n, n_coeffs(n, order)), dtype=complex)
    if theta.plateau and np.linalg.norm(np.asarray(x)[theta.fiber_offset:]) < theta.plateau[0]:
        m[..., 0] = theta.plateau[1]
        return m
    for (i, j), jet in zip(comps, eval_jets(list(comps.values()), x, order, fiber=n)):
        m[i, j], m[j, i] = jet.c, -jet.c
    return m


def _values(X: VerticalMultivector, x) -> list:
    """The component values at x, in the order of X.components, from one
    order-0 jet walk."""
    return [j.value for j in eval_jets(list(X.components.values()), x, 0)]


def _perm_sign(key) -> int:
    sign = 1
    key = list(key)
    for i in range(len(key)):
        for j in range(i + 1, len(key)):
            if key[i] > key[j]:
                sign = -sign
    return sign


def _add_term(comps: dict, indices, coef: SmoothMap):
    """Accumulate coef * d_{i1} ^ ... ^ d_{ik} into a component dict."""
    indices = list(indices)
    if len(set(indices)) != len(indices):
        return
    sign = _perm_sign(indices)
    key = tuple(sorted(indices))
    term = coef if sign == 1 else coef * (-1.0)
    comps[key] = term if key not in comps else comps[key] + term


def wedge(X: VerticalMultivector, Y: VerticalMultivector) -> VerticalMultivector:
    if X.base_dim != Y.base_dim or X.fiber_offset != Y.fiber_offset:
        raise ValueError("multivector shape mismatch")
    comps: dict = {}
    for I, f in X.components.items():
        for J, g in Y.components.items():
            _add_term(comps, I + J, f * g)
    rad = _combine_radius(X.support_radius, Y.support_radius)
    return VerticalMultivector(X.base_dim, X.degree + Y.degree, comps, rad, X.fiber_offset)


def _combine_radius(a, b):
    vals = [r for r in (a, b) if r is not None]
    return min(vals) if vals else None


def schouten(X: VerticalMultivector, Y: VerticalMultivector) -> VerticalMultivector:
    """Schouten-Nijenhuis bracket of two vertical multivectors (degrees >= 1).

    Each component term f d_I is treated as the decomposable wedge
    (f d_{i1}) ^ d_{i2} ^ ... and the bracket of decomposables is expanded
    through pairwise Lie brackets of the factors.  Verticality is preserved:
    all derivatives are fiber derivatives.
    """
    if X.base_dim != Y.base_dim or X.fiber_offset != Y.fiber_offset:
        raise ValueError("multivector shape mismatch")
    if X.degree < 1 or Y.degree < 1:
        raise ValueError("schouten bracket implemented for degrees >= 1")
    off = X.fiber_offset
    comps: dict = {}
    one = None  # marker for unit coefficient

    def d(fn, i):
        return sf.derivative(fn, off + i)

    for I, fI in X.components.items():
        for J, gJ in Y.components.items():
            u = [(fI, I[0])] + [(one, i) for i in I[1:]]
            v = [(gJ, J[0])] + [(one, j) for j in J[1:]]
            for a, (fa, ia) in enumerate(u):
                for b, (gb, jb) in enumerate(v):
                    rest = u[:a] + u[a + 1:] + v[:b] + v[b + 1:]
                    rest_coef = None
                    for (cf, _i) in rest:
                        if cf is not None:
                            rest_coef = cf if rest_coef is None else rest_coef * cf
                    rest_idx = [t[1] for t in rest]
                    sign = (-1.0) ** (a + b)
                    # [fa d_ia, gb d_jb] = fa (d_ia gb) d_jb - gb (d_jb fa) d_ia
                    pieces = []
                    if gb is not None:
                        lead = d(gb, ia) if fa is None else fa * d(gb, ia)
                        pieces.append((lead, jb))
                    if fa is not None:
                        lead = d(fa, jb) if gb is None else gb * d(fa, jb)
                        pieces.append((lead * (-1.0), ia))
                    for coef, idx in pieces:
                        total = coef if rest_coef is None else coef * rest_coef
                        _add_term(comps, [idx] + rest_idx, total * sign)
    rad = _combine_radius(X.support_radius, Y.support_radius)
    return VerticalMultivector(X.base_dim, X.degree + Y.degree - 1, comps, rad, X.fiber_offset)


def jacobi_defect(theta: VerticalMultivector, samples) -> float:
    """Max pointwise magnitude of [[theta, theta]] over the sample points.

    The bracket is taken from the cyclic formula

        [[theta, theta]]^{ijk} = 2 (A^{ijk} + A^{jki} + A^{kij}),
        A^{ijk} = sum_l theta^{il} d_l theta^{jk},

    with d_l the l-th fiber derivative.  The factor 2 is the normalization of
    `schouten`, so the result is max |schouten(theta, theta)| over the
    components i < j < k.  Each point takes the order-1 theta_matrix: one jet
    walk of all the components, or none on the plateau, where dtheta = 0 and
    the defect is exactly 0.  Raises ValueError on an empty sample set or a
    point of the wrong dimension.
    """
    if theta.degree != 2:
        raise ValueError("jacobi_defect requires a bivector")
    points = [np.asarray(x, dtype=float) for x in samples]
    if not points:
        raise ValueError("jacobi_defect needs at least one sample point")
    if any(x.shape != (theta.ambient_dim,) for x in points):
        raise ValueError("point dimension mismatch")
    n = theta.base_dim
    if n < 3:
        return 0.0
    i, j, k = np.array(list(combinations(range(n), 3))).T
    worst = 0.0
    for x in points:
        m = theta_matrix(theta, x, 1)
        # graded order: the first partials follow the value, axis by axis, so
        # m[a, b, 1 + l] = d_l theta^{ab}
        A = np.einsum("il,jkl->ijk", m[..., 0], m[..., 1:])
        J = 2.0 * (A + A.transpose(2, 0, 1) + A.transpose(1, 2, 0))
        worst = max(worst, float(np.max(np.abs(J[i, j, k]))))
    return worst


def restrict_to_fiber(X: VerticalMultivector, p) -> VerticalMultivector:
    """Freeze the base point: components become functions of the fiber
    variables alone."""
    p = np.asarray(p, dtype=float)
    n = X.base_dim
    if X.fiber_offset == 0:
        return X
    A = np.vstack([np.zeros((n, n)), np.eye(n)])
    b = np.concatenate([p, np.zeros(n)])
    comps = {k: sf.pullback_affine(f, A, b) for k, f in X.components.items()}
    return VerticalMultivector(n, X.degree, comps, X.support_radius, 0, X.plateau)


def hkr(X: VerticalMultivector):
    """HKR map: the multivector as the antisymmetric k-differential operator
    (f_1, ..., f_k) -> (1/k!) <X, df_1 x ... x df_k>, fiber derivatives only.

    Returns a callable (functions, point) -> value.
    """
    k = X.degree
    if k < 1:
        raise ValueError("hkr requires degree >= 1")
    from itertools import permutations

    def apply(fns, x):
        if len(fns) != k:
            raise ValueError(f"expected {k} functions")
        grads = [eval_jet(f, x, 1, fiber=X.base_dim) for f in fns]
        total = 0.0
        for key, cval in zip(X.components, _values(X, x)):
            for perm in permutations(range(k)):
                sign = _perm_sign([key[q] for q in perm])
                prod = cval * sign
                for slot, q in enumerate(perm):
                    prod *= grads[slot].deriv(key[q]).value
                total += prod
        return total / math.factorial(k)

    return apply


def poisson_bracket(theta: VerticalMultivector, f, g, x):
    """{f, g} = <theta, df x dg> evaluated at a point."""
    # the order-1 fiber jets hold the value, then the fiber gradient
    df, dg = (eval_jet(h, x, 1, fiber=theta.base_dim).c[1:] for h in (f, g))
    return df @ theta.matrix_at(x) @ dg


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def check_antisymmetric(Theta) -> np.ndarray:
    """Theta's upper triangle made exactly antisymmetric, after checking that
    Theta is square with max |Theta + Theta^T| <= 1e-14 (no relative term,
    so a large Theta gets no more slack)."""
    Theta = np.asarray(Theta, dtype=float)
    if Theta.ndim != 2 or Theta.shape[0] != Theta.shape[1]:
        raise ValueError("Theta must be a square matrix")
    if np.max(np.abs(Theta + Theta.T)) > 1e-14:
        raise ValueError("Theta must be antisymmetric")
    return np.triu(Theta, 1) - np.triu(Theta, 1).T


def standard_symplectic(n: int) -> np.ndarray:
    """Constant Theta with Theta^{2k, 2k+1} = 1 = -Theta^{2k+1, 2k}."""
    Theta = np.zeros((n, n))
    for k in range(n // 2):
        Theta[2 * k, 2 * k + 1] = 1.0
        Theta[2 * k + 1, 2 * k] = -1.0
    return Theta


def constant_theta(n: int, Theta) -> VerticalMultivector:
    """Vertical lift of a constant bivector; its plateau is the whole fiber."""
    Theta = check_antisymmetric(Theta)
    if Theta.shape != (n, n):
        raise ValueError(f"Theta must be an {n} x {n} matrix")
    comps = {}
    for i in range(n):
        for j in range(i + 1, n):
            if Theta[i, j] != 0.0:
                comps[(i, j)] = sf.constant(Theta[i, j], 2 * n)
    return VerticalMultivector(n, 2, comps, plateau=(math.inf, Theta))


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
    return VerticalMultivector(n, 2, comps)


def build_commuting_compact_theta(n: int, Theta, r: float, eps: float) -> VerticalMultivector:
    """theta = (1/2) Theta^{ab} X_a ^ X_b with the separated-bump frame
    X_a = chi(v^a) d/dv^a.  The fields commute exactly, so the Jacobi identity
    holds; each component has compact support in its own pair of fiber
    directions (a full fiber ball only for n = 2)."""
    Theta = check_antisymmetric(Theta)
    comps = {}
    chis = [sf.bump_of(sf.coordinate(n + a, 2 * n), r, eps) for a in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if Theta[a, b] != 0.0:
                comps[(a, b)] = (chis[a] * chis[b]) * Theta[a, b]
    radius = math.sqrt(2.0) * (r + eps) if n == 2 else None
    return VerticalMultivector(n, 2, comps, support_radius=radius, plateau=(r, Theta))


def ball_frame_fields(n: int, r: float, eps: float) -> list:
    """Pairwise commuting vector-field components supported in the closed
    fiber ball of radius r + eps, equal to the coordinate frame at v = 0.

    Returns X[a][i]: SmoothMap on (p, v) for the i-th component of X_a.
    """
    dim = 2 * n
    axes = tuple(range(n, dim))
    q = sf.norm_squared(dim, axes)
    B = sf.radial_profile(sf.BumpSqElem(r, eps), q, axes)
    M = sf.radial_profile(sf.BallRampElem(r, eps), q, axes)
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


def build_ball_compact_theta(n: int, Theta, r: float, eps: float) -> VerticalMultivector:
    """theta = (1/2) Theta^{ab} X_a ^ X_b with a commuting frame supported in
    the fiber ball of radius r + eps (pushforward of the coordinate frame
    along a radial diffeomorphism onto the open ball, extended by zero)."""
    Theta = check_antisymmetric(Theta)
    X = ball_frame_fields(n, r, eps)
    comps = {}
    for i in range(n):
        for j in range(i + 1, n):
            acc = None
            for a in range(n):
                for b in range(a + 1, n):
                    if Theta[a, b] == 0.0:
                        continue
                    term = (X[a][i] * X[b][j] - X[a][j] * X[b][i]) * Theta[a, b]
                    acc = term if acc is None else acc + term
            if acc is not None:
                comps[(i, j)] = acc
    return VerticalMultivector(n, 2, comps, support_radius=r + eps, plateau=(r, Theta))


def naive_scaled_theta(n: int, Theta, r: float, eps: float) -> VerticalMultivector:
    """A radially bump-scaled constant bivector.  NOT Poisson for n >= 3 in
    general; kept as the counterexample that the Jacobi check must reject."""
    Theta = check_antisymmetric(Theta)
    dim = 2 * n
    chi = sf.radial_bump(dim, tuple(range(n, dim)), r, eps)
    comps = {}
    for i in range(n):
        for j in range(i + 1, n):
            if Theta[i, j] != 0.0:
                comps[(i, j)] = chi * Theta[i, j]
    return VerticalMultivector(n, 2, comps, support_radius=r + eps)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


def fiber_samples(theta: VerticalMultivector, count: int, seed: int = 0,
                  radius: float | None = None, base_box: float = 1.0):
    """Seeded uniform sample points in the ambient space of theta, with the
    fiber part in the cube of half-width R, and the last tenth of them in a
    band straddling the sphere of radius R, so that the transition annulus of
    a compactly supported theta is always reached."""
    n = theta.base_dim
    dim = theta.ambient_dim
    R = radius if radius is not None else (theta.support_radius or 1.0)
    pts = np.random.default_rng(seed).random((count, dim))
    out = []
    n_boundary = max(count // 10, 1)
    for k, row in enumerate(pts):
        x = np.zeros(dim)
        if theta.fiber_offset > 0:
            x[:n] = (2 * row[:n] - 1) * base_box
        v = 2 * row[theta.fiber_offset:] - 1
        if k >= count - n_boundary:
            nv = np.linalg.norm(v) or 1.0
            v = v / nv * (1.0 + 0.1 * (2 * row[0] - 1))
        x[theta.fiber_offset:] = v * R
        out.append(x)
    return out


def check_flip_even(theta: VerticalMultivector, samples) -> float:
    """Max violation of theta(p, -v) = theta(p, v) over the samples."""
    off = theta.fiber_offset
    worst = 0.0
    for x in samples:
        y = np.array(x, dtype=float)
        y[off:] = -y[off:]
        for a, b in zip(_values(theta, x), _values(theta, y)):
            worst = max(worst, abs(a - b))
    return worst


def check_support(theta: VerticalMultivector, samples) -> float:
    """Max component magnitude at samples outside the declared radius, with
    the node-level support metadata stripped so that no node is pruned."""
    if theta.support_radius is None:
        raise ValueError("theta declares no support radius")
    off = theta.fiber_offset
    fns = sf.strip_support(list(theta.components.values()))
    worst = 0.0
    for x in samples:
        v = np.asarray(x, dtype=float)[off:]
        if np.linalg.norm(v) < theta.support_radius:
            continue
        for jet in eval_jets(fns, x, 0):
            worst = max(worst, abs(jet.value))
    return worst


def check_rotation_invariance(theta: VerticalMultivector, samples, rotations) -> float:
    """Max violation of R^* theta = theta, i.e. R^T theta(p, R v) R = theta(p, v)."""
    off = theta.fiber_offset
    n = theta.base_dim
    worst = 0.0
    for R in rotations:
        R = np.asarray(R, dtype=float)
        for x in samples:
            x = np.asarray(x, dtype=float)
            y = x.copy()
            y[off:] = R @ x[off:]
            m_x = theta.matrix_at(x).real
            m_Ry = theta.matrix_at(y).real
            worst = max(worst, float(np.max(np.abs(R.T @ m_Ry @ R - m_x))))
    return worst
