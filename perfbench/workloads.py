"""The four benchmark workloads, their seeded inputs and their checks.

Each workload is a closed loop with one client.  `setup()` builds the fixed
objects, `warmup()` fills the lru_cache index tables, `op(k)` is the timed
operation (it cycles through a seeded input pool), `check(k, out)` decides
whether op k was correct and `control()` runs an untimed once-per-run check.
Inputs come only from the workload seed; nothing is imported from `tests/`.

Ops call vertstar through module attributes (`poisson.jacobi_defect`, not a
name imported from it), so the tracer's patches see them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import vertstar.cli as vcli
from vertstar import jets, poisson, smoothfn as sf, starprod, states

N = 4          # physical fiber dimension of the in-process workloads
R, EPS = 1.0, 0.25  # plateau radius and ramp width of the ball-compact theta
PERFBENCH = Path(__file__).resolve().parent


def symplectic(n: int) -> np.ndarray:
    """Standard symplectic Theta (blocks [[0, 1], [-1, 0]])."""
    theta = np.zeros((n, n))
    for k in range(n // 2):
        theta[2 * k, 2 * k + 1] = 1.0
        theta[2 * k + 1, 2 * k] = -1.0
    return theta


def region(v) -> str:
    """Where a fiber vector sits relative to the support of the ball theta."""
    s = float(np.linalg.norm(v))
    if s < R:
        return "plateau"
    return "annulus" if s <= R + EPS else "outside"


class Workload:
    """Defaults: a warm-up that does nothing, no control check, one work unit
    per op, ops run in this process."""

    units_per_op = 1
    in_process = True

    def __init__(self, seed: int):
        self.seed = seed

    def warmup(self):
        pass

    def control(self) -> bool:
        return True


class JacobiBall(Workload):
    """Jacobi defect of the ball-compact n=4 theta over blocks of points."""

    name = "jacobi-ball"
    BLOCKS = 64   # the run cycles through this many seeded blocks
    units_per_op = 4  # points per block; one point is one work unit

    def setup(self):
        self.theta = poisson.build_ball_compact_theta(N, symplectic(N), R, EPS)
        pts = poisson.fiber_samples(self.theta, 8 * self.BLOCKS, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        pts = [pts[i] for i in rng.permutation(len(pts))]
        # An annulus point costs about twice another point.  Blocks hold 0,
        # 1, 1 and 2 annulus points in turn (a quarter of all points; the
        # sampler puts about a fifth there), so the median and the 90th
        # percentile op each fall inside one fixed class of blocks instead of
        # on the machine's noise.
        ring = iter([x for x in pts if region(x[N:]) == "annulus"])
        rest = iter([x for x in pts if region(x[N:]) != "annulus"])
        self.blocks = []
        for b in range(self.BLOCKS):
            k = (0, 1, 1, 2)[b % 4]
            self.blocks.append([next(ring) for _ in range(k)]
                               + [next(rest) for _ in range(self.units_per_op - k)])
        self.points = [x for block in self.blocks for x in block]
        first = {}
        for x in self.points:
            first.setdefault(region(x[N:]), x)
        if len(first) != 3:
            raise ValueError("sample pool misses a support region")
        self.warm_block = list(first.values())
        self.tol = vcli.TOLERANCES["jacobi"]

    def warmup(self):
        poisson.jacobi_defect(self.theta, self.warm_block)

    def op(self, k):
        return poisson.jacobi_defect(self.theta, self.blocks[k % self.BLOCKS])

    def check(self, k, out) -> bool:
        return out <= self.tol

    def control(self) -> bool:
        """A non-Poisson theta must fail on the same points, so an op that
        returns 0 without looking cannot pass."""
        naive = poisson.naive_scaled_theta(N, symplectic(N), R, EPS)
        return poisson.jacobi_defect(naive, self.points) > 1e-3


def random_poly(rng, monos, terms: int, complex_coeffs: bool = False):
    """`terms` distinct monomials from `monos` with U(-1, 1) coefficients
    (real and imaginary parts independent when complex)."""
    pick = rng.choice(len(monos), terms, replace=False)
    coeffs = rng.uniform(-1, 1, terms)
    if complex_coeffs:
        coeffs = coeffs + 1j * rng.uniform(-1, 1, terms)
    return sf.polynomial({monos[i]: c for i, c in zip(pick, coeffs)}, len(monos[0]))


class MoyalAssoc(Workload):
    """Associativity defect of the order-3 constant Moyal product."""

    name = "moyal-assoc"
    TRIPLES = 256
    # monomials per polynomial: every fourth triple is a dense homogeneous
    # cubic (all 20 monomials) and costs about twice the others, so the
    # median and the 90th percentile op each fall inside one class
    TERMS = (6, 6, 6, 20)
    TOL = 1e-10   # acceptance criterion 5
    units_per_op = 16  # fixed block of points; one triple at one point is one unit

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.sp = starprod.moyal_constant(N, symplectic(N), 3, picture="fiber")
        self.points = rng.uniform(-1, 1, (self.units_per_op, N))
        cubic = [m for m in jets.multi_indices(N, 3) if sum(m) == 3]
        self.triples = [tuple(random_poly(rng, cubic, self.TERMS[k % 4]) for _ in range(3))
                        for k in range(self.TRIPLES)]

    def warmup(self):
        self.op(0)

    def op(self, k):
        f, g, h = self.triples[k % self.TRIPLES]
        return starprod.associativity_defect(self.sp, f, g, h, self.points)

    def check(self, k, out) -> bool:
        return len(out) == 4 and float(np.max(out)) <= self.TOL


class CoherentVertical(Workload):
    """Coherent-state variance and star expectation for the order-2 general
    vertical product of the ball-compact n=4 theta on one fiber."""

    name = "coherent-vertical"
    STRATA = 32     # |v| strata of width 0.05 over [0, 1.6]: 20 plateau,
    WIDTH = 0.05    # 5 annulus and 7 outside, so each region has a fixed share
    PER_STRATUM = 3
    TERMS = 6       # monomials of degree <= 3 per observable
    IMAG_TOL = 1e-12
    MOYAL_TOL = 1e-10

    def setup(self):
        theta = poisson.restrict_to_fiber(
            poisson.build_ball_compact_theta(N, symplectic(N), R, EPS), np.zeros(N))
        self.sp = starprod.general_vertical(theta, 2)
        self.ref = starprod.moyal_constant(N, symplectic(N), 2)
        rng = np.random.default_rng(self.seed)
        monos = jets.multi_indices(N, 3)
        self.cases = []
        for k in rng.permutation(np.repeat(np.arange(self.STRATA), self.PER_STRATUM)):
            d = rng.normal(size=N)
            v = d / np.linalg.norm(d) * self.WIDTH * (k + rng.uniform(0.0, 1.0))
            self.cases.append((v, random_poly(rng, monos, self.TERMS, True),
                               random_poly(rng, monos, self.TERMS, True)))
        first = {}
        for case in self.cases:
            first.setdefault(region(case[0]), case)
        self.warm_cases = list(first.values())

    def _run(self, v, f, g):
        st = states.CoherentState(v, N, 2)
        return st.variance(self.sp, f), st.star_expect(self.sp, f, g)

    def warmup(self):
        # one state per support region: the annulus alone builds the
        # one-variable jet tables of the radial profiles
        for case in self.warm_cases:
            self._run(*case)

    def op(self, k):
        return self._run(*self.cases[k % len(self.cases)])

    def check(self, k, out) -> bool:
        v, f, g = self.cases[k % len(self.cases)]
        var, se = out
        if max(abs(np.imag(c)) for c in var.coeffs) > self.IMAG_TOL:
            return False
        where = region(v)
        st = states.CoherentState(v, N, 2)
        if where == "plateau":
            ref = st.star_expect(self.ref, f, g)
            return max(abs(a - b) for a, b in zip(se.coeffs, ref.coeffs)) <= self.MOYAL_TOL
        if where == "outside":
            # criterion 11: beyond the support the product is pointwise
            return se.coeffs == st.expect(f * g).coeffs
        return True


class CliCheck(Workload):
    """`vertstar check all` in a fresh interpreter, one battery per op."""

    name = "cli-check"
    SAMPLES = 8   # samples.count of the generated config
    in_process = False

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed)
        self.workdir = Path(workdir)
        self.child_raws = []
        self.set_mode("plain")

    def setup(self):
        self.config = self.workdir / "cli-check-config.json"
        self.config.write_text(json.dumps({
            "n": 2,
            "star_mode": "general_vertical",
            "theta_spec": {"kind": "ball_compact", "r": R, "eps": EPS},
            "samples": {"count": self.SAMPLES},
        }))
        # battery cost depends on the command's seed by several percent, so
        # a run cycles through distinct seeds to average that out
        self.cli_seeds = [int(s) for s in
                          np.random.default_rng(self.seed).integers(0, 2**31, 64)]

    def set_mode(self, mode: str, profile_file: Path | None = None):
        """Run the child plainly, under the tracer, or under cProfile."""
        self.mode = mode
        if mode == "plain":
            self.prefix = [sys.executable, "-m", "vertstar.cli"]
        elif mode == "traced":
            self.prefix = [sys.executable, str(PERFBENCH / "clitrace.py")]
        else:
            self.prefix = [sys.executable, "-m", "cProfile", "-o", str(profile_file),
                           "-m", "vertstar.cli"]

    def op(self, k):
        proc = subprocess.run(
            self.prefix + ["check", "all", "--config", str(self.config),
                           "--seed", str(self.cli_seeds[k % len(self.cli_seeds)])],
            capture_output=True, text=True, timeout=120)
        if self.mode == "traced":
            self.child_raws.append(json.loads(proc.stderr.strip().splitlines()[-1]))
        return proc

    def check(self, k, proc) -> bool:
        if proc.returncode != 0:
            return False
        payload = json.loads(proc.stdout)
        names = [r["name"] for r in payload["reports"]]
        return names == list(vcli.TOLERANCES) and all(r["ok"] for r in payload["reports"])


def make(name: str, seed: int, workdir: Path):
    if name == CliCheck.name:
        return CliCheck(seed, workdir)
    for cls in (JacobiBall, MoyalAssoc, CoherentVertical):
        if cls.name == name:
            return cls(seed)
    raise ValueError(f"unknown workload {name!r}")

