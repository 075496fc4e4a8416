"""Formal series in the deformation parameter: truncated ring arithmetic and
the ordered-ring positivity test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertstar.formal import FormalSeries, is_formally_positive

coeff = st.floats(min_value=-10, max_value=10, allow_nan=False)
# zero, or far enough from ZERO_TOL that no product crosses it: nearer the
# tolerance the verdict on a product is not the product of the verdicts
clear_coeff = st.just(0.0) | st.floats(1e-4, 10) | st.floats(-10, -1e-4)


def series(order=3, coeff=coeff):
    return st.tuples(*([coeff] * (order + 1))).map(
        lambda t: FormalSeries(3, tuple(complex(c) for c in t)))


def test_construction_validates_length():
    with pytest.raises(ValueError):
        FormalSeries(2, (1.0,))


def test_truncated_product():
    a = FormalSeries(2, (1.0, 2.0, 0.0))
    b = FormalSeries(2, (3.0, 0.0, 1.0))
    assert (a * b).coeffs == (3.0, 6.0, 1.0)


def test_substitute():
    a = FormalSeries(2, (1.0, -1.0, 2.0))
    assert a.substitute(0.1) == pytest.approx(1.0 - 0.1 + 0.02)


def test_lambda_is_positive():
    lam = FormalSeries(3, (0j, 1 + 0j, 0j, 0j))
    assert is_formally_positive(lam) == "positive"
    assert is_formally_positive(FormalSeries(3, (0j,) * 4)) == "zero"
    assert is_formally_positive(-lam) == "negative"


def test_lowest_coefficient_decides():
    a = FormalSeries(3, (0.0, 0.0, -0.5, 100.0))
    assert is_formally_positive(a) == "negative"


def test_imaginary_coefficients_rejected():
    a = FormalSeries(1, (1.0, 1.0j))
    with pytest.raises(ValueError):
        is_formally_positive(a)


@pytest.mark.parametrize("coeffs", [(np.nan, 1.0), (0.0, np.nan), (1.0, complex(0.0, np.nan))])
def test_nan_coefficient_has_no_sign(coeffs):
    # abs(nan) > tol is False: a NaN used to read as a vanishing coefficient
    with pytest.raises(ArithmeticError, match="NaN"):
        is_formally_positive(FormalSeries(1, coeffs))


def test_conjugate_is_coefficientwise():
    a = FormalSeries(1, (1.0 + 2.0j, -1.0j))
    assert a.conjugate().coeffs == (1.0 - 2.0j, 1.0j)


@settings(max_examples=80, deadline=None)
@given(series(), series(), series())
def test_ring_laws(a, b, c):
    assert np.allclose((a * b).coeffs, (b * a).coeffs)
    assert np.allclose(((a * b) * c).coeffs, (a * (b * c)).coeffs, atol=1e-9)
    assert np.allclose((a * (b + c)).coeffs, (a * b + a * c).coeffs, atol=1e-9)


@settings(max_examples=80, deadline=None)
@given(series(coeff=clear_coeff), series(coeff=clear_coeff))
def test_positivity_respects_ring_operations(a, b):
    # positive + positive and positive * positive stay positive; the product
    # may truncate to zero when the leading orders are deep enough
    if is_formally_positive(a) == "positive" and is_formally_positive(b) == "positive":
        assert is_formally_positive(a + b) == "positive"
        assert is_formally_positive(a * b) in ("positive", "zero")
        lead_a = min(i for i, c in enumerate(a.coeffs) if abs(c) > 1e-9)
        lead_b = min(i for i, c in enumerate(b.coeffs) if abs(c) > 1e-9)
        if lead_a + lead_b <= a.order:
            assert is_formally_positive(a * b) == "positive"


def test_scalar_mixing():
    a = FormalSeries(2, (0j, 1 + 0j, 0j))
    assert (2.0 * a).coeffs == (0j, 2.0 + 0j, 0j)
    assert (a + 1.0).coeffs[0] == 1.0 + 0j
