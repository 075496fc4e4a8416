"""Deformed states: coherent-state corrections of point evaluations,
expectation values, variances, uncertainty relations, and the distance and
light-cone observables on noncommutative Minkowski space.

The canonical state over a point is the heat-smeared evaluation
omega = delta_v o exp(lambda Delta_g / 4), truncated at the working order in
lambda: omega(f) = E[f(v + sqrt(lambda) Y)] with Y ~ N(0, g/2).  On jets it is
one fixed linear functional, the vector of Gaussian moments mu_alpha =
E[Y^alpha].  The bare delta (no smearing) is kept around as the standard
non-positive counterexample.

Where the product's constant_theta_at reads a constant Theta at the base (the
bases at which star_jets takes the Moyal kernel), omega(f * g) is one pairing
of the jets of f and g with the moments K of the formal Gaussian pair of
covariance (1/2)[[g, g + i Theta], [g - i Theta, g]]; other bases take the
product's star_jets.  mu and K come from one Isserlis recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import smoothfn as sf
from .formal import FormalSeries, is_formally_positive
from .jets import index_lookup, jet_constant, multi_indices, n_coeffs
from .smoothfn import SmoothMap, eval_jet, eval_jets
from .starprod import StarProduct


@dataclass(eq=False)
class CoherentState:
    """Evaluation at `base` composed with the truncated heat semigroup
    exp(lambda Delta_g / 4) acting on the fiber variables, the trailing n
    coordinates of `base` (a point v of the fiber, or (p, v))."""

    base: tuple
    n: int
    order: int
    metric_inv: np.ndarray = None
    smearing: bool = True  # False: the bare (non-positive) delta functional

    def __post_init__(self):
        self.base = tuple(float(x) for x in self.base)
        if len(self.base) < self.n:
            raise ValueError(f"base has fewer than n = {self.n} coordinates")
        if self.metric_inv is None:
            self.metric_inv = np.eye(self.n)
        self.metric_inv = np.asarray(self.metric_inv, dtype=float)
        g = self.metric_inv
        if g.shape != (self.n, self.n):
            raise ValueError(f"metric_inv must be an n x n matrix, n = {self.n}")
        if not np.allclose(g, g.T) or np.any(np.linalg.eigvalsh(g) <= 0):
            raise ValueError("metric_inv must be symmetric positive definite")
        self._moments = _moment_table(self.n, 2 * self.order, g.tobytes())

    # -- expectation ---------------------------------------------------------

    def expect_jets(self, H) -> FormalSeries:
        """Expectation of a series of jets at `base`; coefficient r collects
        sum_{|alpha| = 2k} c_alpha mu_alpha of H_{r-k}, the degree-2k block
        of its coefficients against the Gaussian moments (k = 0 alone for the
        bare delta); the jets are in the n fiber variables."""
        N = self.order
        mu = self._moments
        out = [0j] * (N + 1)
        for s, jet in enumerate(H):
            if s > N or jet is None:
                continue
            if jet.dim != self.n:
                raise ValueError(f"jet has {jet.dim} variables, the state has n = {self.n}")
            top = N - s if self.smearing else 0
            if jet.order < 2 * top:
                raise ValueError("jet order insufficient for the smearing order")
            for k in range(top + 1):
                lo, hi = n_coeffs(self.n, 2 * k - 1), n_coeffs(self.n, 2 * k)
                out[s + k] += jet.c[lo:hi] @ mu[lo:hi]
        return FormalSeries(N, tuple(out))

    def expect(self, f: SmoothMap) -> FormalSeries:
        return self.expect_jets([eval_jet(f, self.base, 2 * self.order, fiber=self.n)])

    def star_expect(self, sp: StarProduct, f: SmoothMap, g: SmoothMap) -> FormalSeries:
        """omega(f * g) from one walk of (f, g)."""
        F, G = eval_jets([f, g], self.base, 2 * self.order, fiber=self.n)
        return self._star_expect_jets(sp, [F], [G])

    def _star_expect_jets(self, sp: StarProduct, F, G) -> FormalSeries:
        """omega(F * G) for series F, G of fiber jets at `base` of order 2N:
        where theta's jet at the base is a constant Theta, the pairing
        omega_t = sum_{a+b+s=t} F[a]^T K^(s) G[b] with the |alpha| + |beta| =
        2s block of the pair moments K (built only as far as F and G have
        nonzero coefficients), else expect_jets of star_jets."""
        N, n = self.order, self.n
        # a product of another order, or a point of another domain, is left to
        # star_jets, which raises
        same = sp.lambda_order == N and len(self.base) == sp.theta.ambient_dim
        Theta = sp.constant_theta_at(self.base) if same else None
        if Theta is None:
            orders = [2 * (N - t) for t in range(N + 1)]
            return self.expect_jets(sp.star_jets(F, G, self.base, orders))
        dF, dG = _degree(F), _degree(G)
        g = self.metric_inv if self.smearing else np.zeros((n, n))
        s, i, j, K = _pair_moments(n, dF, dG, min(dF + dG, 2 * N), g.tobytes(),
                                   np.asarray(Theta, dtype=float).tobytes())
        out = np.zeros(N + 1, dtype=complex)
        for a in range(min(len(F), N + 1)):
            for b in range(min(len(G), N + 1 - a)):
                e = np.searchsorted(s, N - a - b, side="right")  # the blocks s <= N - a - b
                np.add.at(out, s[:e] + a + b, F[a].c[i[:e]] * K[:e] * G[b].c[j[:e]])
        return FormalSeries(N, tuple(out))

    # -- variance and uncertainty --------------------------------------------

    def variance(self, sp: StarProduct, f: SmoothMap) -> FormalSeries:
        """omega(conj(f - m) * (f - m)) with m = omega(f), from one walk of f:
        the jets of conj(f) are the conjugated jets of f."""
        return self._variance_jets(sp, eval_jet(f, self.base, 2 * self.order, fiber=self.n))

    def _variance_jets(self, sp: StarProduct, fj) -> FormalSeries:
        """The variance of f from its fiber jet fj of order 2 * order."""
        m = self.expect_jets([fj]).coeffs
        G = [fj - m[0]] + [jet_constant(-c, fj.base, fj.dim, fj.order) for c in m[1:]]
        return self._star_expect_jets(sp, [J.conjugate() for J in G], G)

    def uncertainty_check(self, sp: StarProduct, f: SmoothMap, g: SmoothMap) -> dict:
        """4 Var(f) Var(g) >= |omega([f, g]_*)|^2 for Hermitean f, g; one walk
        of (f, g) serves both variances and the commutator."""
        F, G = eval_jets([f, g], self.base, 2 * self.order, fiber=self.n)
        lhs = 4.0 * (self._variance_jets(sp, F) * self._variance_jets(sp, G))
        comm = self._star_expect_jets(sp, [F], [G]) - self._star_expect_jets(sp, [G], [F])
        rhs = comm * comm.conjugate()
        verdict = is_formally_positive((lhs - rhs).real())
        return {"lhs": lhs, "rhs": rhs, "holds": verdict in ("positive", "zero"),
                "verdict": verdict}

    # -- positivity ----------------------------------------------------------

    def positivity_scan(self, sp: StarProduct, rng, count: int = 100) -> dict:
        """omega(conj(f) * f) must not be formally negative for random complex
        cubic polynomials f in the fiber variables.  One walk of f per draw
        serves f and its centred probe; the jets of conj(f) are the conjugated
        jets of f."""
        dim = len(self.base)
        monos = [m for m in multi_indices(dim, 3) if not any(m[:dim - self.n])]
        checked = 0
        for _ in range(count):
            coeffs = rng.uniform(-1, 1, len(monos)) + 1j * rng.uniform(-1, 1, len(monos))
            f = sf.polynomial({m: c for m, c in zip(monos, coeffs)}, dim)
            F = eval_jet(f, self.base, 2 * self.order, fiber=self.n)
            # also probe the centered function: subtracting the value at the
            # base kills the dominant order-0 coefficient |f(base)|^2, which
            # otherwise masks sign defects at higher orders
            for probe, P in ((f, F), (f - complex(F.value), F - F.value)):
                s = self._star_expect_jets(sp, [P.conjugate()], [P])
                checked += 1
                if is_formally_positive(s.real()) == "negative":
                    return {"ok": False, "witness": probe, "witness_series": s,
                            "checked": checked}
        return {"ok": True, "witness": None, "witness_series": None,
                "checked": checked}


def bare_delta(base, n: int, order: int, metric_inv=None) -> CoherentState:
    """The undeformed point evaluation (not positive for the deformed product)."""
    return CoherentState(base, n, order, metric_inv=metric_inv, smearing=False)


def _degree(H) -> int:
    """The highest |alpha| with a nonzero coefficient in a series of jets."""
    last = max(np.flatnonzero(J.c).max(initial=0) for J in H)
    return sum(multi_indices(H[0].dim, H[0].order)[last])


def _gaussian_moments(C, degree: int) -> np.ndarray:
    """E[Y^gamma] at every |gamma| <= degree, in the graded order of
    multi_indices, for the centred formal Gaussian Y with the symmetric (real
    or complex) covariance C, by Isserlis' integration by parts:
    E[Y^gamma] = sum_j C_ij (gamma - e_i)_j E[Y^(gamma - e_i - e_j)], with i
    the first nonzero index of gamma."""
    C, lookup = np.asarray(C).tolist(), index_lookup(len(C), degree)
    mu = [1.0] + [0.0] * (len(lookup) - 1)
    for k, gamma in enumerate(multi_indices(len(C), degree)):
        if k and sum(gamma) % 2 == 0:
            i = next(i for i, a in enumerate(gamma) if a)
            rest = gamma[:i] + (gamma[i] - 1,) + gamma[i + 1:]
            mu[k] = sum(C[i][j] * a * mu[lookup[rest[:j] + (a - 1,) + rest[j + 1:]]]
                        for j, a in enumerate(rest) if a)
    return np.array(mu)


@lru_cache(maxsize=256)
def _moment_table(n: int, degree: int, g: bytes) -> np.ndarray:
    """mu_alpha = E[Y^alpha], Y ~ N(0, g/2), keyed by content."""
    mu = _gaussian_moments(np.frombuffer(g).reshape(n, n) / 2, degree)
    mu.flags.writeable = False
    return mu


@lru_cache(maxsize=256)
def _pair_moments(n: int, dF: int, dG: int, D: int, g: bytes, Theta: bytes) -> tuple:
    """K_{alpha beta} = E[Z_1^alpha Z_2^beta] for the formal Gaussian pair with
    covariance (1/2)[[g, g + i Theta], [g - i Theta, g]], at |alpha| <= dF,
    |beta| <= dG and |alpha| + |beta| = 2s <= D: arrays (s, i, j, K) in the
    order of s, with i and j the graded indices of alpha and beta.  Keyed by
    content."""
    g, iT = np.frombuffer(g).reshape(n, n), 1j * np.frombuffer(Theta).reshape(n, n)
    K = _gaussian_moments(np.block([[g, g + iT], [g - iT, g]]) / 2, D)
    lookup = index_lookup(n, D)
    s, i, j, k = np.array([(sum(c) // 2, lookup[c[:n]], lookup[c[n:]], k)
                           for k, c in enumerate(multi_indices(2 * n, D))
                           if sum(c) % 2 == 0 and sum(c[:n]) <= dF and sum(c[n:]) <= dG]).T
    return s, i, j, K[k]


# ---------------------------------------------------------------------------
# quadratic observables and their closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticObservable:
    """f_A(v) = v^t A v on the fiber, with the heat-smearing identities for
    quadratic forms available in closed form."""

    A: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        object.__setattr__(self, "A", (A + A.T) / 2)

    def fn(self, dim: int) -> SmoothMap:
        """f_A on R^dim, of its trailing n coordinates (the fiber)."""
        n = self.A.shape[0]
        M = np.zeros((dim, dim))
        M[dim - n:, dim - n:] = self.A
        return sf.quadratic_form(M)

    def expect_closed_form(self, state: CoherentState) -> FormalSeries:
        """f_A(v) + (lambda/2) tr(g A), exact at every order."""
        v = np.asarray(state.base[-state.n:])
        g = state.metric_inv
        coeffs = [complex(v @ self.A @ v)] + [0j] * state.order
        if state.order >= 1:
            coeffs[1] = complex(np.trace(g @ self.A) / 2)
        return FormalSeries(state.order, tuple(coeffs))


def minkowski_metric(n: int = 4) -> np.ndarray:
    eta = -np.eye(n)
    eta[0, 0] = 1.0
    return eta


def lorentz_square(n: int = 4, dim: int = None) -> SmoothMap:
    """The Lorentz distance square f_eta, eta = diag(+, -, ..., -), of the
    trailing n coordinates of R^dim (dim = n by default)."""
    return QuadraticObservable(minkowski_metric(n)).fn(dim or n)


# ---------------------------------------------------------------------------
# light cone and causal structure
# ---------------------------------------------------------------------------


def lightcone_v0(lam: float, spatial_norm: float) -> float:
    """Positive root of the deformed Lorentz square: v0 = sqrt(lam + |s|^2)."""
    if lam < 0:
        raise ValueError("the deformation parameter must be nonnegative")
    return float(np.sqrt(lam + spatial_norm ** 2))


def expectation_root(lam: float, spatial_norm: float, n: int = 4,
                     order: int = 2, metric_inv=None) -> float:
    """v0 at which the numeric expectation of the Lorentz square vanishes,
    found by bracketing and bisection on the generic expectation pipeline."""
    from scipy import optimize  # here, so that importing vertstar loads no scipy

    f_eta = lorentz_square(n)

    def h(v0):
        base = np.zeros(n)
        base[0] = v0
        base[1] = spatial_norm
        state = CoherentState(base, n, order, metric_inv=metric_inv)
        return float(np.real(state.expect(f_eta).substitute(lam)))

    hi = np.sqrt(lam + spatial_norm ** 2) + 1.0
    return float(optimize.brentq(h, 0.0, hi, xtol=1e-14, rtol=8.9e-16))


def causal_class(v, lam: float, tol: float = 1e-12) -> str:
    """Causal type of a fiber vector against the deformed cone
    v0^2 = lam + |s|^2."""
    v = np.asarray(v, dtype=float)
    q = v[0] ** 2 - float(v[1:] @ v[1:]) - lam
    if q > tol:
        return "timelike"
    if q < -tol:
        return "spacelike"
    return "lightlike"


def lightcone_profile(lam: float, spatial_norms, n: int = 4, order: int = 2,
                      verify: bool = False) -> list:
    """Rows (spatial_norm, v0_classical, v0_deformed) of the deformed light
    cone; with verify=True the closed form is checked against the root of the
    numeric expectation."""
    rows = []
    for s in spatial_norms:
        s = float(s)
        v0 = lightcone_v0(lam, s)
        if verify:
            root = expectation_root(lam, s, n=n, order=order)
            if abs(root - v0) > 1e-10:
                raise ArithmeticError(
                    f"light-cone root {root!r} deviates from closed form {v0!r}")
        rows.append((s, abs(s), v0))
    return rows
