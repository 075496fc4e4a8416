"""Truncated multivariate Taylor (jet) arithmetic.

Coefficients are stored normalized, c[alpha] = (d^alpha f)(x0) / alpha!, so the
truncated product is a plain Cauchy product.  Multi-indices are enumerated in
graded order, which makes truncation to a lower order a prefix slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def multi_indices(dim: int, order: int) -> tuple:
    """All multi-indices alpha with |alpha| <= order, graded ordering."""

    def comps(total, k):
        if k == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in comps(total - first, k - 1):
                yield (first,) + rest

    out = []
    for total in range(order + 1):
        out.extend(comps(total, dim))
    return tuple(out)


@lru_cache(maxsize=None)
def index_lookup(dim: int, order: int) -> dict:
    return {a: i for i, a in enumerate(multi_indices(dim, order))}


def n_coeffs(dim: int, order: int) -> int:
    return len(multi_indices(dim, order))


@lru_cache(maxsize=None)
def _mul_table(dim: int, order: int):
    """Index triples (ia, ib, iout) with |alpha_ia| + |alpha_ib| <= order."""
    mi = multi_indices(dim, order)
    idx = index_lookup(dim, order)
    ia, ib, iout = [], [], []
    for i, a in enumerate(mi):
        rem = order - sum(a)
        for j in range(n_coeffs(dim, rem)):
            b = mi[j]
            ia.append(i)
            ib.append(j)
            iout.append(idx[tuple(x + y for x, y in zip(a, b))])
    return (np.asarray(ia), np.asarray(ib), np.asarray(iout))


def cauchy_product(a: np.ndarray, b: np.ndarray, dim: int, order: int) -> np.ndarray:
    """Truncated product of coefficient arrays over their last axis.  The
    leading axes broadcast, so one call multiplies a whole stack of jets."""
    ia, ib, iout = _mul_table(dim, order)
    prod = a.take(ia, axis=-1) * b.take(ib, axis=-1)
    out = np.zeros(prod.shape[:-1] + (n_coeffs(dim, order),), dtype=prod.dtype)
    np.add.at(out, (..., iout), prod)
    return out


@lru_cache(maxsize=None)
def _deriv_table(dim: int, order: int, axes):
    """Maps an order-`order` jet to the jets of its partials d_i, i in axes
    (order-1), stacked: src and fac have one row per axis."""
    if order < 1:
        raise ValueError("cannot differentiate an order-0 jet")
    idx = index_lookup(dim, order)
    tgt = multi_indices(dim, order - 1)
    src = np.asarray([[idx[a[:i] + (a[i] + 1,) + a[i + 1:]] for a in tgt] for i in axes])
    fac = np.asarray([[a[i] + 1 for a in tgt] for i in axes], dtype=float)
    return src, fac


def partials(c: np.ndarray, dim: int, order: int, K: int) -> np.ndarray:
    """All partials d_i, i < dim, of order-`order` coefficient arrays (last
    axis), truncated to order K: shape c.shape[:-1] + (dim, n_coeffs)."""
    src, fac = _deriv_table(dim, order, tuple(range(dim)))
    m = n_coeffs(dim, K)
    return fac[:, :m] * c.take(src[:, :m], axis=-1)


@dataclass(frozen=True, eq=False)
class Jet:
    """Truncated Taylor expansion of a smooth function at a point."""

    dim: int
    order: int
    base: tuple
    c: np.ndarray  # complex128, length n_coeffs(dim, order)

    @property
    def value(self):
        return self.c[0]

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError("cannot extend a jet by truncation")
        return Jet(self.dim, order, self.base, self.c[: n_coeffs(self.dim, order)].copy())

    def deriv(self, i: int) -> "Jet":
        """Jet of the i-th partial derivative, one order lower."""
        src, fac = _deriv_table(self.dim, self.order, (i,))
        return Jet(self.dim, self.order - 1, self.base, fac[0] * self.c[src[0]])

    def conjugate(self) -> "Jet":
        """Jet of conj(f): the variables are real, so the jets of conj(f) are
        the conjugated jets of f."""
        return Jet(self.dim, self.order, self.base, self.c.conj())

    def _check(self, other: "Jet"):
        if (self.dim, self.order) != (other.dim, other.order) or self.base != other.base:
            raise ValueError("jet shape mismatch")

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.dim, self.order, self.base, self.c + other.c)
        out = self.c.copy()
        out[0] += other
        return Jet(self.dim, self.order, self.base, out)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.dim, self.order, self.base, -self.c)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -complex(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.dim, self.order, self.base, self.c * other)
        self._check(other)
        return Jet(self.dim, self.order, self.base,
                   cauchy_product(self.c, other.c, self.dim, self.order))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers not supported on jets")
        out = jet_constant(1.0, self.base, self.dim, self.order)
        for _ in range(k):
            out = out * self
        return out


def jet_constant(value, base, dim: int, order: int) -> Jet:
    c = np.zeros(n_coeffs(dim, order), dtype=complex)
    c[0] = value
    return Jet(dim, order, tuple(base), c)


def jet_variable(i: int, x0, dim: int, order: int) -> Jet:
    """Jet of the coordinate function v -> v^i expanded at x0."""
    if not 0 <= i < dim:
        raise ValueError(f"coordinate index {i} out of range for dim {dim}")
    x0 = tuple(x0)
    c = np.zeros(n_coeffs(dim, order), dtype=complex)
    c[0] = x0[i]
    if order >= 1:
        e_i = tuple(1 if j == i else 0 for j in range(dim))
        c[index_lookup(dim, order)[e_i]] = 1.0
    return Jet(dim, order, x0, c)


def jet_compose_univariate(outer_taylor, inner: Jet) -> Jet:
    """Compose Taylor coefficients of a univariate function with a jet.

    `outer_taylor` are the normalized Taylor coefficients of the outer function
    at the point inner.value; evaluation is Horner in the nilpotent part.
    """
    outer = np.asarray(outer_taylor, dtype=complex)
    if len(outer) != inner.order + 1:
        raise ValueError("outer Taylor length must be inner.order + 1")
    h = inner + (-inner.value)  # nilpotent part
    out = jet_constant(outer[-1], inner.base, inner.dim, inner.order)
    for k in range(len(outer) - 2, -1, -1):
        out = out * h + outer[k]
    return out

