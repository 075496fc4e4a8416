"""Vertical star products at finite order in the deformation parameter.

A star product is one vertical Poisson bivector theta and an order; its kernel
at a point follows theta there: the exact Weyl-Moyal product where theta's
fiber jet is a constant Theta (on theta's plateau; everywhere for a theta
constant in v, as moyal_constant and moyal_fiberwise build it), else the
order-<=2 general vertical product with Kontsevich's closed-form second-order
operator (the transition annulus; beyond the support, where theta vanishes, it
is the pointwise product).  An order above 2 needs a theta constant in v.

All products differentiate only fiber directions and are computed on jets in
the n fiber variables (the base point, if any, is a constant of the jet walk),
so verticality holds by construction and the same code path yields point
values and derivative information for states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from . import smoothfn as sf
from .formal import FormalSeries
from .jets import Jet, cauchy_product, jet_constant, multi_indices, n_coeffs, partials
from .poisson import (VerticalMultivector, constant_theta, jacobi_defect,
                      restrict_to_fiber, theta_matrix)
from .smoothfn import SmoothMap, eval_jet, eval_jets

# ---------------------------------------------------------------------------
# doubled-jet machinery for the Moyal kernel
#
# The tensor product f x g of two jets in d variables is a "pair jet" indexed
# by pairs (alpha, beta) with |alpha| + |beta| <= D.  The Moyal bidifferential
# operator P = Theta^{ij} d_{v_i} (x) d_{w_j} is a sparse reindexing on pair
# jets, and the product C_r(f, g) is the restriction of P^r (f x g) to the
# diagonal w = v.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _pair_enum(dim: int, D: int):
    mi = multi_indices(dim, D)
    pairs = []
    for i, a in enumerate(mi):
        rem = D - sum(a)
        for j in range(n_coeffs(dim, rem)):
            pairs.append((i, j))
    lookup = {p: k for k, p in enumerate(pairs)}
    return tuple(pairs), lookup


@lru_cache(maxsize=None)
def _pair_fill(dim: int, D: int, ord_a: int, ord_b: int):
    pairs, _ = _pair_enum(dim, D)
    mi = multi_indices(dim, D)
    ks, ia, ib = [], [], []
    for k, (i, j) in enumerate(pairs):
        if sum(mi[i]) <= ord_a and sum(mi[j]) <= ord_b:
            ks.append(k)
            ia.append(i)
            ib.append(j)
    return np.asarray(ks), np.asarray(ia), np.asarray(ib)


@lru_cache(maxsize=None)
def _pair_step(dim: int, D: int, i: int, j: int):
    """Index arrays realizing d_{v_i} d_{w_j} on pair jets."""
    pairs, lookup = _pair_enum(dim, D)
    mi = multi_indices(dim, D)
    lut = {a: k for k, a in enumerate(mi)}
    dst, src, fac = [], [], []
    for k, (ai, bi) in enumerate(pairs):
        a, b = mi[ai], mi[bi]
        if sum(a) + sum(b) + 2 > D:
            continue
        a2 = a[:i] + (a[i] + 1,) + a[i + 1:]
        b2 = b[:j] + (b[j] + 1,) + b[j + 1:]
        dst.append(k)
        src.append(lookup[(lut[a2], lut[b2])])
        fac.append((a[i] + 1) * (b[j] + 1))
    return np.asarray(dst), np.asarray(src), np.asarray(fac, dtype=float)


@lru_cache(maxsize=None)
def _pair_diag(dim: int, D: int, K: int):
    """Restriction of a pair jet to the diagonal, as an order-K jet."""
    pairs, _ = _pair_enum(dim, D)
    mi = multi_indices(dim, D)
    lut = {a: k for k, a in enumerate(multi_indices(dim, K))}
    dst, src = [], []
    for k, (ai, bi) in enumerate(pairs):
        a, b = mi[ai], mi[bi]
        if sum(a) + sum(b) > K:
            continue
        dst.append(lut[tuple(x + y for x, y in zip(a, b))])
        src.append(k)
    return np.asarray(dst), np.asarray(src)


def _moyal_apply_P(c: np.ndarray, Theta, D: int) -> np.ndarray:
    out = np.zeros_like(c)
    n = len(Theta)
    for i in range(n):
        for j in range(n):
            t = Theta[i, j]
            if t == 0.0:
                continue
            dst, src, fac = _pair_step(n, D, i, j)
            out[dst] += t * fac * c[src]
    return out


def _moyal_star_jets(Theta, F, G, out_orders):
    """Series of jets of f * g for the Weyl-Moyal product with a (locally)
    constant bivector; out_orders[t] is the jet order of the t-th coefficient."""
    N = len(out_orders) - 1
    dim, base = F[0].dim, F[0].base
    out = [None] * (N + 1)
    for a in range(len(F)):
        for b in range(len(G)):
            if a + b > N:
                continue
            ka, kb = F[a].order, G[b].order
            rs = list(range(N - a - b + 1))
            for r in rs:
                if out_orders[a + b + r] + r > min(ka, kb):
                    raise ValueError("input jets of insufficient order")
            D = max(out_orders[a + b + r] + 2 * r for r in rs)
            ks, ia, ib = _pair_fill(dim, D, ka, kb)
            c = np.zeros(len(_pair_enum(dim, D)[0]), dtype=complex)
            c[ks] = F[a].c[ia] * G[b].c[ib]
            for r in rs:
                t = a + b + r
                K = out_orders[t]
                dst, src = _pair_diag(dim, D, K)
                coeff = np.zeros(n_coeffs(dim, K), dtype=complex)
                np.add.at(coeff, dst, c[src])
                coeff *= (0.5j) ** r / math.factorial(r)
                jet = Jet(dim, K, base, coeff)
                out[t] = jet if out[t] is None else out[t] + jet
                if r < rs[-1]:
                    c = _moyal_apply_P(c, Theta, D)
    for t in range(N + 1):
        if out[t] is None:
            out[t] = jet_constant(0.0, base, dim, out_orders[t])
    return out


# ---------------------------------------------------------------------------
# the general vertical kernel (order <= 2)
# ---------------------------------------------------------------------------

# weights of T_a and T_b in the second-order operator C_2; derived in
# general_vertical
C2_WEIGHTS = (-1.0 / 8.0, -1.0 / 12.0)


def _c1_jet(th: np.ndarray, fjet: Jet, gjet: Jet, K: int) -> Jet:
    """C_1(f, g) = (i/2) th^{ij} d_i f d_j g as a jet of order K; th is the
    [n, n, c] theta array of order K or above."""
    dim = fjet.dim
    df = partials(fjet.c, dim, fjet.order, K)
    dg = partials(gjet.c, dim, gjet.order, K)
    th_dg = cauchy_product(th[..., :df.shape[-1]], dg[None], dim, K).sum(1)
    return Jet(dim, K, fjet.base, 0.5j * cauchy_product(df, th_dg, dim, K).sum(0))


def _c2_jet(th: np.ndarray, fjet: Jet, gjet: Jet, K: int) -> Jet:
    """C_2(f, g) = C2_WEIGHTS[0] T_a + C2_WEIGHTS[1] T_b as a jet of order K, in
    the factored form given in `general_vertical`; th is the [n, n, c] theta
    array of order K + 1 or above."""
    dim = fjet.dim
    mul = partial(cauchy_product, dim=dim, order=K)
    df = partials(fjet.c, dim, fjet.order, K)
    dg = partials(gjet.c, dim, gjet.order, K)
    d2f = partials(partials(fjet.c, dim, fjet.order, K + 1), dim, K + 1, K)
    d2g = partials(partials(gjet.c, dim, gjet.order, K + 1), dim, K + 1, K)
    dth = partials(th[..., :n_coeffs(dim, K + 1)], dim, K + 1, K)  # last index l
    th = th[..., :df.shape[-1]]
    F = mul(d2f[:, :, None], th[None]).sum(1)
    G = mul(d2g[:, :, None], th[None]).sum(1)
    Ta = mul(th, mul(F[:, None], d2g[None]).sum(2)).sum((0, 1))
    Tb = mul(dth, mul(dg[None, :, None], F[:, None]) - mul(df[:, None, None], G[None]))
    return Jet(dim, K, fjet.base, C2_WEIGHTS[0] * Ta + C2_WEIGHTS[1] * Tb.sum((0, 1, 2)))


def _vertical_star_jets(theta, F, G, x, out_orders):
    N = len(out_orders) - 1
    base, dim = F[0].base, F[0].dim
    # theta enters C_1 at the output order K and C_2 (from t = 2) at K + 1
    th_order = max((K + (t == 2) for t, K in enumerate(out_orders) if t > 0), default=0)
    th = theta_matrix(theta, x, th_order) if N > 0 else None
    pointwise = th is None or not th.any()  # then C_1 = C_2 = 0: beyond the support
    out = [jet_constant(0.0, base, dim, K) for K in out_orders]
    for a in range(len(F)):
        for b in range(min(len(G), N - a + 1)):
            for r in range(N - a - b + 1):
                t = a + b + r
                K = out_orders[t]
                if K + r > min(F[a].order, G[b].order):
                    raise ValueError("input jets of insufficient order")
                if r > 0 and pointwise:
                    continue
                if r == 0:
                    term = F[a].truncate(K) * G[b].truncate(K)
                elif r == 1:
                    term = _c1_jet(th, F[a], G[b], K)
                else:
                    term = _c2_jet(th, F[a], G[b], K)
                out[t] = out[t] + term
    return out


# ---------------------------------------------------------------------------
# the star product object
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class StarProduct:
    """The star product of order lambda_order of the vertical Poisson bivector
    theta: Weyl-Moyal where theta's fiber jet is a constant Theta (see
    constant_theta_at), the order-<=2 general vertical product elsewhere.  Its
    domain, the picture, is theta's: 'tm' for functions of (p, v), 'fiber' for
    functions of v.  It acts on jets in the n fiber variables; F and G of
    star_jets are such jets."""

    lambda_order: int
    theta: VerticalMultivector

    def __post_init__(self):
        if self.lambda_order > 2 and not _constant_in_v(self.theta):
            raise ValueError("an order above 2 needs a theta constant in v")

    @property
    def n(self) -> int:
        return self.theta.base_dim

    @property
    def picture(self) -> str:
        return "tm" if self.theta.fiber_offset > 0 else "fiber"

    def constant_theta_at(self, x):
        """Theta where theta's fiber jet at x is that constant (on theta's
        plateau; anywhere for a theta constant in v), else None: at annulus and
        outside points, and at NaN points off the plateau up to order 2, where
        the vertical kernel's walk of theta carries the NaN (above order 2 Moyal
        is the only kernel).  The plateau is read first and builds no array."""
        theta, plateau = self.theta, self.theta.plateau
        if plateau and np.linalg.norm(x[theta.fiber_offset:]) < plateau[0]:
            return plateau[1]
        if self.lambda_order <= 2 and np.isnan(x).any():
            return None
        return theta.matrix_at(x).real if _constant_in_v(theta) else None

    def star_jets(self, F, G, x, out_orders):
        """Series of jets of F * G at x; F, G are lists of jets per order in
        the deformation parameter."""
        if len(out_orders) != self.lambda_order + 1:
            raise ValueError("out_orders must have lambda_order + 1 entries")
        if len(x) != self.theta.ambient_dim:
            raise ValueError(f"a point of length {len(x)} is not in the "
                             f"{self.picture!r} domain of n = {self.n}")
        Theta = self.constant_theta_at(x)
        if Theta is None:
            return _vertical_star_jets(self.theta, F, G, x, out_orders)
        return _moyal_star_jets(Theta, F, G, out_orders)

    def star_at(self, f: SmoothMap, g: SmoothMap, x) -> FormalSeries:
        """Pointwise star product as a formal series of complex values."""
        N = self.lambda_order
        F, G = eval_jets([f, g], x, N, fiber=self.n)
        jets = self.star_jets([F], [G], x, [0] * (N + 1))
        return FormalSeries(N, tuple(j.value for j in jets))

    def restrict(self, p) -> "StarProduct":
        """The induced star product on the fiber over p; for a theta constant
        in v and no plateau, the constant Moyal product of Theta(p), read once."""
        theta = restrict_to_fiber(self.theta, p)
        if not theta.plateau and _constant_in_v(self.theta):
            Theta = theta.matrix_at(np.zeros(self.n)).real
            return moyal_constant(self.n, Theta, self.lambda_order)
        return replace(self, theta=theta)


def _constant_in_v(theta: VerticalMultivector) -> bool:
    """Whether theta is constant in v: it has an infinite plateau, or every
    component is an affine pullback that reads no fiber coordinate (as
    moyal_fiberwise builds them)."""
    if theta.plateau and theta.plateau[0] == math.inf:
        return True
    return all(f.kind == "affine" and not f.payload[0][:, theta.fiber_offset:].any()
               for f in theta.components.values())


def moyal_constant(n: int, Theta, lambda_order: int, picture: str = "fiber") -> StarProduct:
    """Weyl-Moyal product of a constant Theta on TM ('tm') or one fiber."""
    if picture not in ("tm", "fiber"):
        raise ValueError(f"unknown picture {picture!r}")
    theta = constant_theta(n, Theta)
    if picture == "fiber":
        theta = restrict_to_fiber(theta, np.zeros(n))
    return StarProduct(lambda_order, theta)


def moyal_fiberwise(n: int, Theta_of_p, lambda_order: int) -> StarProduct:
    """Weyl-Moyal product on the tangent bundle with Theta depending on the
    base point: Theta_of_p[i][j] is a SmoothMap in p (None for zero).  Theta is
    built from the upper triangle; an entry given only below the diagonal is
    used negated."""
    A = np.hstack([np.eye(n), np.zeros((n, n))])  # (p, v) -> p
    comps = {}
    for i in range(n):
        for j in range(i + 1, n):
            f = Theta_of_p[i][j]
            if f is None and Theta_of_p[j][i] is not None:
                f = Theta_of_p[j][i] * (-1.0)
            if f is not None:
                comps[(i, j)] = sf.pullback_affine(f, A, np.zeros(n))
    return StarProduct(lambda_order, VerticalMultivector(n, comps))


def general_vertical(theta: VerticalMultivector, lambda_order: int,
                     jacobi_samples=None) -> StarProduct:
    """Star product of order <= 2 for a vertical Poisson bivector theta,

      f * g = f g + lam C_1(f, g) + lam^2 C_2(f, g),
      C_1 = (i/2) th^{ij} d_i f d_j g,   C_2 = -(1/8) T_a - (1/12) T_b,
      T_a = th^{ij} th^{kl} d_i d_k f  d_j d_l g,
      T_b = (d_l th^{ij}) th^{kl} (d_i d_k f d_j g - d_i f d_j d_k g).

    These are the order-2 terms of Kontsevich's formula (arXiv:q-alg/9709040)
    with hbar = i lam and alpha = theta / 2: hbar^2/2 alpha alpha gives
    -1/8 T_a and hbar^2/3 alpha d alpha gives -1/12 T_b.  Kontsevich's third
    term, -hbar^2/6 (d_l alpha^{ij}) (d_j alpha^{kl}) d_i f d_k g
    = +(1/24) (d_l th^{ij}) (d_j th^{kl}) d_i f d_k g, is left out: its
    coefficient matrix is symmetric, so it is the Hochschild coboundary of a
    second-order differential operator and associativity cannot see it.
    Dropping it is a gauge choice (a different but equivalent product); for
    constant theta both choices reduce to Weyl-Moyal.

    T_a and T_b are contracted in O(n^3), not O(n^4), through
    F_il = d_i d_k f th^{kl} and G_jl = d_j d_k g th^{kl}, formed once per call:
      T_a = th^{ij} F_il d_j d_l g,   T_b = (d_l th^{ij}) (d_j g F_il - d_i f G_jl).

    With jacobi_samples, theta is first checked to be Poisson there, and a
    ValueError is raised when the Jacobi defect reaches 1e-9.
    """
    if lambda_order > 2:
        raise ValueError("general vertical star products support order <= 2 only")
    sp = StarProduct(lambda_order, theta)
    if jacobi_samples is not None:
        defect = jacobi_defect(theta, jacobi_samples)
        if defect >= 1e-9:
            raise ValueError(f"theta is not Poisson: Jacobi defect {defect:.2e}")
    return sp


# ---------------------------------------------------------------------------
# derived operations and structural checks
# ---------------------------------------------------------------------------


def associativity_defect(sp: StarProduct, f, g, h, samples) -> np.ndarray:
    """Per-order max |(f*g)*h - f*(g*h)| over the samples (NaN if one is NaN)."""
    N = sp.lambda_order
    defects = [np.zeros(N + 1)]
    inner_orders = [N - t for t in range(N + 1)]
    value_orders = [0] * (N + 1)
    for x in samples:
        F, G, H = ([eval_jet(k, x, 2 * N, fiber=sp.n)] for k in (f, g, h))
        fg = sp.star_jets(F, G, x, inner_orders)
        left = sp.star_jets(fg, [H[0]], x, value_orders)
        gh = sp.star_jets(G, H, x, inner_orders)
        right = sp.star_jets([F[0]], gh, x, value_orders)
        defects.append([abs(a.value - b.value) for a, b in zip(left, right)])
    return np.max(defects, axis=0)


def midpoint_chart(qq) -> tuple:
    """(p, v) coordinates of a pair of points: p = (q + q')/2, v = (q' - q)/2."""
    qq = np.asarray(qq, dtype=float)
    n = qq.shape[0] // 2
    q, qp = qq[:n], qq[n:]
    return np.concatenate([(q + qp) / 2, (qp - q) / 2])


def midpoint_pullback(f: SmoothMap, n: int) -> SmoothMap:
    """Pull a function of (q, q') back to midpoint coordinates (p, v):
    (p, v) -> f(p - v, p + v)."""
    eye = np.eye(n)
    A = np.block([[eye, -eye], [eye, eye]])
    return sf.pullback_affine(f, A, np.zeros(2 * n))


def pair_picture_star(sp: StarProduct, f: SmoothMap, g: SmoothMap, qq) -> FormalSeries:
    """Star product of two-point observables evaluated at (q, q'), computed by
    transport through midpoint coordinates."""
    if sp.picture != "tm":
        raise ValueError("pair picture requires a tangent-bundle star product")
    pv = midpoint_chart(qq)
    return sp.star_at(midpoint_pullback(f, sp.n), midpoint_pullback(g, sp.n), pv)


def check_verticality(sp: StarProduct, pairs, samples) -> float:
    """Max per-order |f * pi^*u - f u| for (f, u) pairs; u depends only on the
    base point (or is constant, in the fiber picture).  Both products and the
    pointwise f u come from one walk of (f, u) per point."""
    N = sp.lambda_order
    values = [0] * (N + 1)
    defects = [0.0]  # folded by np.max, which keeps a NaN that Python's max drops
    for f, u in pairs:
        for x in samples:
            F, U = eval_jets([f, u], x, N, fiber=sp.n)
            prod = F.value * U.value
            for s in (sp.star_jets([F], [U], x, values), sp.star_jets([U], [F], x, values)):
                defects += [abs(s[0].value - prod), *(abs(j.value) for j in s[1:])]
    return float(np.max(defects))


def check_hermitean(sp: StarProduct, pairs, samples) -> float:
    """Max per-order |conj(f * g) - conj(g) * conj(f)|.  The jets of conj(f)
    are the conjugated jets of f, so one walk of (f, g) per point serves both
    sides."""
    N = sp.lambda_order
    values = [0] * (N + 1)
    defects = [0.0]
    for f, g in pairs:
        for x in samples:
            F, G = eval_jets([f, g], x, N, fiber=sp.n)
            lhs = sp.star_jets([F], [G], x, values)
            rhs = sp.star_jets([G.conjugate()], [F.conjugate()], x, values)
            defects += [abs(np.conj(a.value) - b.value) for a, b in zip(lhs, rhs)]
    return float(np.max(defects))


def check_flip_symmetry(sp: StarProduct, pairs, samples) -> float:
    """Max per-order violation of tau^*(f * g) = tau^*f * tau^*g with
    tau(p, v) = (p, -v).  The fiber jet of tau^*f at x is that of f at tau x
    times (-1)^|alpha|, so one walk of (f, g) at tau x serves both sides."""
    N = sp.lambda_order
    values = [0] * (N + 1)
    sign = np.array([(-1.0) ** sum(a) for a in multi_indices(sp.n, N)])
    defects = [0.0]
    for f, g in pairs:
        tau = np.array([1.0] * (f.dim - sp.n) + [-1.0] * sp.n)  # the fiber is the trailing n
        for x in samples:
            F, G = eval_jets([f, g], tau * x, N, fiber=sp.n)
            lhs = sp.star_jets([F], [G], tau * x, values)  # tau^*(f*g) at x
            Ft, Gt = ([Jet(sp.n, N, tuple(x), J.c * sign)] for J in (F, G))
            rhs = sp.star_jets(Ft, Gt, x, values)
            defects += [abs(a.value - b.value) for a, b in zip(lhs, rhs)]
    return float(np.max(defects))
