"""Truncated formal power series in the deformation parameter.

Coefficients are complex scalars or any objects supporting + and * (e.g.
SmoothMap trees); the deformation parameter is real, so conjugation acts
coefficientwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ZERO_TOL = 1e-9  # coefficient-vanishing threshold for positivity decisions


@dataclass(frozen=True, eq=False)
class FormalSeries:
    order: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient count must be order + 1")

    def _check(self, other: "FormalSeries"):
        if self.order != other.order:
            raise ValueError("series order mismatch")

    def __add__(self, other):
        if not isinstance(other, FormalSeries):
            return FormalSeries(self.order, (self.coeffs[0] + other,) + self.coeffs[1:])
        self._check(other)
        return FormalSeries(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return FormalSeries(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FormalSeries):
            return FormalSeries(self.order, tuple(a * other for a in self.coeffs))
        self._check(other)
        out = [0.0 * self.coeffs[0]] * (self.order + 1)
        for r in range(self.order + 1):
            acc = None
            for s in range(r + 1):
                term = self.coeffs[s] * other.coeffs[r - s]
                acc = term if acc is None else acc + term
            out[r] = acc
        return FormalSeries(self.order, tuple(out))

    __rmul__ = __mul__

    def conjugate(self) -> "FormalSeries":
        return FormalSeries(self.order, tuple(np.conj(a) for a in self.coeffs))

    def substitute(self, lambda_num: float):
        """Collapse the series at a numeric deformation parameter."""
        return sum(a * lambda_num ** r for r, a in enumerate(self.coeffs))

    def real(self) -> "FormalSeries":
        return FormalSeries(self.order, tuple(np.real(a) for a in self.coeffs))


def is_formally_positive(a: FormalSeries, tol: float = ZERO_TOL) -> str:
    """Sign of the lowest non-vanishing coefficient: 'positive', 'zero' or
    'negative'.  Coefficients must be (numerically) real; a NaN coefficient
    has no sign and raises ArithmeticError."""
    coeffs = [complex(c) for c in a.coeffs]
    if np.isnan(coeffs).any():
        raise ArithmeticError("formal positivity of a series with a NaN coefficient")
    for c in coeffs:
        if abs(c.imag) > tol:
            raise ValueError("formal positivity is defined for real series only")
    for c in coeffs:
        if abs(c.real) > tol:
            return "positive" if c.real > 0 else "negative"
    return "zero"
