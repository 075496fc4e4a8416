import numpy as np
import pytest

from vertstar import smoothfn as sf
from vertstar.jets import Jet, jet_constant
from vertstar.smoothfn import SmoothMap


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


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)
