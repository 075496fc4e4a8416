import numpy as np
import pytest

from vertstar import smoothfn as sf


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


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)
