"""Vertical Poisson bivectors on the tangent bundle of flat n-space: the
Jacobi check, the structural checks, and constructors for compactly
supported vertical Poisson structures.

A vertical bivector theta has components theta^{ij}, i < j, over the fiber
directions; each component is a SmoothMap in the 2n variables (p, v).
Restriction to a fiber freezes p and yields components in the n fiber
variables alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import smoothfn as sf
from .jets import n_coeffs
from .smoothfn import eval_jets


@dataclass(eq=False)
class VerticalMultivector:
    """Antisymmetric bivector field differentiating only fiber directions;
    stored over the index pairs i < j."""

    base_dim: int
    components: dict  # fiber-index pair (i, j), i < j -> SmoothMap
    support_radius: float | None = None
    fiber_offset: int = field(default=-1)  # -1: defaults to base_dim (TM picture)
    plateau: tuple | None = None  # (radius, Theta): theta = Theta where |v| < radius

    def __post_init__(self):
        if self.fiber_offset < 0:
            self.fiber_offset = self.base_dim
        for key in self.components:
            if len(key) != 2 or not 0 <= key[0] < key[1] < self.base_dim:
                raise ValueError(f"component key {key} is not a pair i < j < {self.base_dim}")

    @property
    def ambient_dim(self) -> int:
        return self.fiber_offset + self.base_dim

    def matrix_at(self, x):
        """Dense antisymmetric component array evaluated at a point."""
        return theta_matrix(self, x, 0)[..., 0]


def theta_matrix(theta: VerticalMultivector, x, order: int) -> np.ndarray:
    """Antisymmetric [n, n, c] array of the coefficients of the component
    jets at x in the n fiber variables (zeros where a component is absent),
    from one walk of all the components.  No walk is made where the fiber
    norm s of x settles it: the array is exactly 0 for s >= theta's support
    radius, and the closed form of theta's plateau for s below its radius.
    A NaN point meets neither test, so it is walked and the NaN propagates."""
    n, comps = theta.base_dim, theta.components
    m = np.zeros((n, n, n_coeffs(n, order)), dtype=complex)
    s = np.linalg.norm(np.asarray(x)[theta.fiber_offset:])
    if theta.support_radius is not None and s >= theta.support_radius:
        return m
    if theta.plateau and s < theta.plateau[0]:
        m[..., 0] = theta.plateau[1]
        return m
    for (i, j), jet in zip(comps, eval_jets(list(comps.values()), x, order, fiber=n)):
        m[i, j], m[j, i] = jet.c, -jet.c
    return m


def _values(X: VerticalMultivector, x) -> list:
    """The component values at x, in the order of X.components, from one
    order-0 jet walk."""
    return [j.value for j in eval_jets(list(X.components.values()), x, 0)]


def jacobi_defect(theta: VerticalMultivector, samples) -> float:
    """Max pointwise magnitude of [[theta, theta]] over the sample points.

    [[ , ]] is the Schouten-Nijenhuis bracket: the Lie bracket on vector
    fields, extended to multivectors as a graded biderivation of the exterior
    product; theta is Poisson iff [[theta, theta]] = 0 (Kontsevich,
    arXiv:q-alg/9709040).  For theta = sum_{i<j} theta^{ij} d_i ^ d_j it is
    sum_{i<j<k} [[theta, theta]]^{ijk} d_i ^ d_j ^ d_k with

        [[theta, theta]]^{ijk} = 2 (A^{ijk} + A^{jki} + A^{kij}),
        A^{ijk} = sum_l theta^{il} d_l theta^{jk},

    d_l the l-th fiber derivative.  The factor 2 makes the Jacobiator of
    {f, g} = theta^{ij} d_i f d_j g half the bracket:
    {f, {g, h}} + cyclic = (1/2) [[theta, theta]]^{ijk} d_i f d_j g d_k h,
    summed over all i, j, k.  The result is the max of |[[theta, theta]]^{ijk}|
    over i < j < k.  Each point takes the order-1 theta_matrix: one jet walk
    of all the components, or none on the plateau, where dtheta = 0 and the
    defect is exactly 0.  Raises ValueError on an empty sample set or a point
    of the wrong dimension.
    """
    points = [np.asarray(x, dtype=float) for x in samples]
    if not points:
        raise ValueError("jacobi_defect needs at least one sample point")
    if any(x.shape != (theta.ambient_dim,) for x in points):
        raise ValueError("point dimension mismatch")
    n = theta.base_dim
    if n < 3:
        return 0.0
    i, j, k = np.array(list(combinations(range(n), 3))).T
    defects = [0.0]  # folded by np.max, which keeps a NaN that Python's max drops
    for x in points:
        m = theta_matrix(theta, x, 1)
        # graded order: the first partials follow the value, axis by axis, so
        # m[a, b, 1 + l] = d_l theta^{ab}
        A = np.einsum("il,jkl->ijk", m[..., 0], m[..., 1:])
        J = 2.0 * (A + A.transpose(2, 0, 1) + A.transpose(1, 2, 0))
        defects.append(np.max(np.abs(J[i, j, k])))
    return float(np.max(defects))


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
    return VerticalMultivector(n, comps, X.support_radius, 0, X.plateau)


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
    return VerticalMultivector(n, comps, plateau=(math.inf, Theta))


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
    return VerticalMultivector(n, comps, support_radius=radius, plateau=(r, Theta))


def build_ball_compact_theta(n: int, Theta, r: float, eps: float) -> VerticalMultivector:
    """theta = (1/2) Theta^{ab} X_a ^ X_b for the commuting frame
    X_a = B e_a + M (v . e_a) v supported in the fiber ball of radius r + eps
    (the pushforward of the coordinate frame along a radial diffeomorphism
    onto the open ball, extended by zero), with B and M the profiles of
    BumpSqElem and BallRampElem in |v|^2.  The matrix X = B I + M v v^T is
    symmetric, so with w = Theta v the trees are the closed form
        theta = X Theta X = B^2 Theta + B M (w v^T - v w^T);
    its M^2 term M^2 v^i v^j (v^T Theta v) is 0, as Theta is antisymmetric."""
    Theta = check_antisymmetric(Theta)
    dim = 2 * n
    q = sf.norm_squared(dim, range(n, dim))
    B = sf.radial_profile(sf.BumpSqElem(r, eps), q)
    M = sf.radial_profile(sf.BallRampElem(r, eps), q)
    BB, BM = B * B, B * M
    vs = [sf.coordinate(n + i, dim) for i in range(n)]
    zero = sf.constant(0.0, dim)
    rows = [[vs[k] * Theta[i, k] for k in np.flatnonzero(Theta[i])] for i in range(n)]
    w = [sum(terms[1:], terms[0]) if terms else zero for terms in rows]
    comps = {}
    for i, j in combinations(range(n), 2):
        if w[i] is not zero or w[j] is not zero:  # else theta^{ij} = 0
            comp = BM * (w[i] * vs[j] - vs[i] * w[j])
            comps[(i, j)] = comp if Theta[i, j] == 0.0 else BB * Theta[i, j] + comp
    return VerticalMultivector(n, comps, support_radius=r + eps, plateau=(r, Theta))


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
    return VerticalMultivector(n, comps, support_radius=r + eps)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


def fiber_samples(theta: VerticalMultivector, count: int, seed: int = 0,
                  radius: float | None = None):
    """Seeded uniform sample points in the ambient space of theta, with the
    base part in the cube [-1, 1]^n, the fiber part in the cube of half-width
    R, and the last tenth of them in a band straddling the sphere of radius
    R, so that the transition annulus of a compactly supported theta is
    always reached."""
    n = theta.base_dim
    dim = theta.ambient_dim
    R = radius if radius is not None else (theta.support_radius or 1.0)
    pts = np.random.default_rng(seed).random((count, dim))
    out = []
    n_boundary = max(count // 10, 1)
    for k, row in enumerate(pts):
        x = np.zeros(dim)
        if theta.fiber_offset > 0:
            x[:n] = 2 * row[:n] - 1
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
    defects = [0.0]
    for x in samples:
        y = np.array(x, dtype=float)
        y[off:] = -y[off:]
        defects += [abs(a - b) for a, b in zip(_values(theta, x), _values(theta, y))]
    return float(np.max(defects))


def check_support(theta: VerticalMultivector, samples) -> float:
    """Max component magnitude at samples outside theta's declared support
    radius, the radius beyond which theta_matrix returns zeros without a
    walk.  The components are walked here, so a radius set too small shows."""
    if theta.support_radius is None:
        raise ValueError("theta declares no support radius")
    off = theta.fiber_offset
    defects = [0.0]
    for x in samples:
        v = np.asarray(x, dtype=float)[off:]
        if np.linalg.norm(v) < theta.support_radius:
            continue
        defects += [abs(value) for value in _values(theta, x)]
    return float(np.max(defects))

