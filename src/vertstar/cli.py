"""Command-line drivers: light-cone profiles, distance measurements,
structural checks, and the two-point (pair) demo.

Exit codes: 0 success, 1 check violation, 2 invalid configuration, 3 numeric
failure.  All randomness flows through a seeded numpy PCG64 generator, so a
fixed config and seed reproduce output files byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import poisson, smoothfn as sf, starprod
from .formal import FormalSeries
from .poisson import VerticalMultivector, standard_symplectic
from .starprod import StarProduct
from .states import CoherentState, causal_class, lightcone_profile, lorentz_square

SCHEMA_VERSION = 1
TOLERANCES = {
    "assoc": 1e-8,
    "jacobi": 1e-9,
    "vertical": 1e-12,
    "flip": 1e-12,
    "hermitean": 1e-12,
    "positivity": 0.0,
    "uncertainty": 1e-10,
    "pair-consistency": 1e-10,
}


class ConfigError(ValueError):
    pass


@dataclass
class ThetaSpec:
    kind: str = "constant"  # constant | commuting_compact | ball_compact
    Theta: np.ndarray = None
    r: float = 1.0
    eps: float = 0.25


@dataclass
class ExperimentConfig:
    n: int = 4
    theta: ThetaSpec = field(default_factory=ThetaSpec)
    star_mode: str = "moyal_constant"
    N_lambda: int = 2
    lambda_num: float = None
    metric_inv: np.ndarray = None
    sample_count: int = 100
    seed: int = 0
    out_path: str = None
    out_format: str = "json"


def _convert(kind, value, name: str):
    """kind(value), or a ConfigError naming the field it came from; NaN and
    infinities are rejected."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be numeric, not {value!r}") from exc
    if not np.isfinite(out).all():
        raise ConfigError(f"{name} must be finite, not {value!r}")
    return out


def _integer(value, name: str) -> int:
    """An integer field: a JSON integer or an integral float, not a bool."""
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float)
                                       and value.is_integer()):
        raise ConfigError(f"{name} must be an integer, not {value!r}")
    return int(value)


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = ExperimentConfig()
    known = {"n", "theta_spec", "star_mode", "N_lambda", "lambda_num",
             "metric_inv", "samples", "output"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for section in ("theta_spec", "samples", "output"):
        if not isinstance(raw.get(section, {}), dict):
            raise ConfigError(f"{section} must be a JSON object")
    cfg.n = _integer(raw.get("n", cfg.n), "n")
    if cfg.n < 1:
        raise ConfigError("n must be >= 1")
    cfg.N_lambda = _integer(raw.get("N_lambda", cfg.N_lambda), "N_lambda")
    if not 0 <= cfg.N_lambda <= 6:
        raise ConfigError("N_lambda must be between 0 and 6")
    cfg.star_mode = raw.get("star_mode", cfg.star_mode)
    if cfg.star_mode not in ("moyal_constant", "moyal_fiberwise", "general_vertical"):
        raise ConfigError(f"unknown star_mode {cfg.star_mode!r}")
    if raw.get("lambda_num") is not None:
        cfg.lambda_num = _convert(float, raw["lambda_num"], "lambda_num")
        if cfg.lambda_num < 0:
            raise ConfigError("lambda_num must be nonnegative")
    if raw.get("metric_inv") is not None:
        cfg.metric_inv = _convert(partial(np.asarray, dtype=float), raw["metric_inv"], "metric_inv")
        if cfg.metric_inv.shape != (cfg.n, cfg.n):
            raise ConfigError("metric_inv must be an n x n matrix")
        g = cfg.metric_inv
        if not np.allclose(g, g.T) or np.any(np.linalg.eigvalsh(g) <= 0):
            raise ConfigError("metric_inv must be symmetric positive definite")
    ts = raw.get("theta_spec", {})
    kinds = ("constant", "commuting_compact", "ball_compact")
    cfg.theta.kind = ts.get("kind", cfg.theta.kind)
    if cfg.theta.kind not in kinds:
        raise ConfigError(f"theta_spec.kind must be one of {kinds}")
    if ts.get("Theta") is not None:
        Theta = _convert(partial(np.asarray, dtype=float), ts["Theta"], "theta_spec.Theta")
        if Theta.shape != (cfg.n, cfg.n):
            raise ConfigError("theta_spec.Theta must be an n x n matrix")
        try:
            cfg.theta.Theta = poisson.check_antisymmetric(Theta)
        except ValueError as exc:
            raise ConfigError(f"theta_spec.{exc}") from exc
    cfg.theta.r = _convert(float, ts.get("r", cfg.theta.r), "theta_spec.r")
    cfg.theta.eps = _convert(float, ts.get("eps", cfg.theta.eps), "theta_spec.eps")
    if cfg.theta.r <= 0 or cfg.theta.eps <= 0:
        raise ConfigError("theta_spec.r and .eps must be positive")
    samples = raw.get("samples", {})
    cfg.sample_count = _integer(samples.get("count", cfg.sample_count), "samples.count")
    if cfg.sample_count < 1:
        raise ConfigError("samples.count must be >= 1")
    cfg.seed = _integer(samples.get("seed", cfg.seed), "samples.seed")
    if cfg.seed < 0:
        raise ConfigError("samples.seed must be >= 0")
    output = raw.get("output", {})
    cfg.out_path = output.get("path", cfg.out_path)
    cfg.out_format = output.get("format", cfg.out_format)
    if cfg.out_format not in ("json", "csv"):
        raise ConfigError("output.format must be 'json' or 'csv'")
    return cfg


def load_config(path) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(raw)


def build_theta(cfg: ExperimentConfig) -> VerticalMultivector:
    Theta = cfg.theta.Theta if cfg.theta.Theta is not None else standard_symplectic(cfg.n)
    if cfg.theta.kind == "constant":
        return poisson.constant_theta(cfg.n, Theta)
    if cfg.theta.kind == "commuting_compact":
        return poisson.build_commuting_compact_theta(cfg.n, Theta, cfg.theta.r, cfg.theta.eps)
    return poisson.build_ball_compact_theta(cfg.n, Theta, cfg.theta.r, cfg.theta.eps)


def build_star(cfg: ExperimentConfig) -> StarProduct:
    """The configured star product on the tangent bundle; restrict it to a
    fiber for the fiber commands."""
    Theta = cfg.theta.Theta if cfg.theta.Theta is not None else standard_symplectic(cfg.n)
    if cfg.star_mode != "general_vertical" and cfg.theta.kind != "constant":
        raise ConfigError(f"star_mode {cfg.star_mode!r} needs theta_spec.kind 'constant'")
    if cfg.star_mode == "moyal_constant":
        return starprod.moyal_constant(cfg.n, Theta, cfg.N_lambda, "tm")
    if cfg.star_mode == "moyal_fiberwise":
        fn = [[sf.constant(t, cfg.n) if t else None for t in row] for row in Theta]
        return starprod.moyal_fiberwise(cfg.n, fn, cfg.N_lambda)
    if cfg.N_lambda > 2:
        raise ConfigError(f"general_vertical supports order <= 2, not {cfg.N_lambda}")
    return starprod.general_vertical(build_theta(cfg), cfg.N_lambda)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def series_to_json(s: FormalSeries) -> list:
    return [[float(np.real(c)), float(np.imag(c))] for c in s.coeffs]


def write_output(payload, cfg: ExperimentConfig, csv_rows=None, csv_header=None):
    """Emit JSON (the full payload) or CSV (the tabular part) to the
    configured destination; stdout when no path is set."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:  # NaN and infinities are not JSON
        raise ArithmeticError(f"{payload['command']}: the output is not finite") from exc
    if cfg.out_format == "csv":
        if csv_rows is None:
            raise ConfigError("csv output is not available for this command")
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(csv_header)
        for row in csv_rows:
            w.writerow([repr(float(x)) if isinstance(x, float) else x for x in row])
        text = buf.getvalue()
    if cfg.out_path:
        with open(cfg.out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_lightcone(cfg: ExperimentConfig, args) -> int:
    if cfg.lambda_num is None:
        raise ConfigError("lightcone requires lambda_num (--lambda)")
    if cfg.n < 2:
        raise ConfigError(f"lightcone needs a time and a space axis, n >= 2, not {cfg.n}")
    if args.grid_points < 1:
        raise ConfigError("--grid-points must be >= 1")
    grid = np.linspace(args.grid_min, args.grid_max, args.grid_points)
    rows = lightcone_profile(cfg.lambda_num, grid, n=cfg.n, order=cfg.N_lambda,
                             metric_inv=cfg.metric_inv, verify=args.verify)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "lightcone",
        "lambda": cfg.lambda_num,
        "n": cfg.n,
        "rows": [{"spatial_norm": s, "v0_classical": c, "v0_deformed": d}
                 for s, c, d in rows],
    }
    write_output(payload, cfg, csv_rows=rows,
                 csv_header=("spatial_norm", "v0_classical", "v0_deformed"))
    return 0


def cmd_distance(cfg: ExperimentConfig, args) -> int:
    v = np.asarray(_convert(lambda s: [float(x) for x in s.split(",")], args.v, "--v"))
    if v.shape[0] != cfg.n:
        raise ConfigError(f"--v must have {cfg.n} components")
    sp = build_star(cfg).restrict(np.zeros(cfg.n))
    state = CoherentState(v, cfg.n, cfg.N_lambda, metric_inv=cfg.metric_inv)
    f_eta = lorentz_square(cfg.n)
    expectation = state.expect(f_eta)
    variance = state.variance(sp, f_eta)
    lam = cfg.lambda_num if cfg.lambda_num is not None else 0.0
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "distance",
        "v": [float(x) for x in v],
        "expectation": series_to_json(expectation),
        "variance": series_to_json(variance),
        "causal_class": causal_class(expectation, lam),
    }
    if cfg.lambda_num is not None:
        payload["expectation_numeric"] = float(np.real(expectation.substitute(lam)))
        payload["variance_numeric"] = float(np.real(variance.substitute(lam)))
    write_output(payload, cfg)
    return 0


def _random_fiber_polys(cfg, rng, count, offset=None):
    dim = 2 * cfg.n
    offset = offset if offset is not None else cfg.n
    out = []
    for _ in range(count):
        coeffs = {}
        for _t in range(4):
            m = [0] * dim
            for _d in range(int(rng.integers(0, 4))):  # degree <= 3
                m[offset + int(rng.integers(0, cfg.n))] += 1
            coeffs[tuple(m)] = coeffs.get(tuple(m), 0.0) + rng.uniform(-1, 1)
        out.append(sf.polynomial(coeffs, dim))
    return out


def run_check(cfg: ExperimentConfig, which: str) -> dict:
    """One structural check; returns {name, defect, tolerance, ok, detail}."""
    rng = np.random.default_rng(cfg.seed)
    detail = {}
    if which == "jacobi":
        theta = build_theta(cfg)
        samples = poisson.fiber_samples(theta, cfg.sample_count, seed=cfg.seed)
        defect = poisson.jacobi_defect(theta, samples)
    elif which == "assoc":
        sp = build_star(cfg)
        fs = _random_fiber_polys(cfg, rng, 3 * min(cfg.sample_count, 50))
        pts = rng.uniform(-1, 1, (min(cfg.sample_count, 50), 2 * cfg.n))
        if cfg.theta.kind != "constant":
            # reach the transition annulus of the support, where d theta != 0
            pts[:, cfg.n:] *= cfg.theta.r + cfg.theta.eps
        defect = np.max([starprod.associativity_defect(
            sp, fs[3 * k], fs[3 * k + 1], fs[3 * k + 2], [pts[k]]) for k in range(len(pts))])
    elif which == "vertical":
        sp = build_star(cfg)
        fs = _random_fiber_polys(cfg, rng, cfg.sample_count)
        # the partners: polynomials in the base coordinates alone
        us = _random_fiber_polys(cfg, rng, cfg.sample_count, offset=0)
        pts = rng.uniform(-1, 1, (min(cfg.sample_count, 20), 2 * cfg.n))
        defect = starprod.check_verticality(sp, list(zip(fs, us)), pts)
    elif which in ("flip", "hermitean"):
        sp = build_star(cfg)
        fs = _random_fiber_polys(cfg, rng, 2 * min(cfg.sample_count, 50))
        pts = rng.uniform(-1, 1, (10, 2 * cfg.n))
        pairs = list(zip(fs[::2], fs[1::2]))
        check = starprod.check_flip_symmetry if which == "flip" else starprod.check_hermitean
        defect = check(sp, pairs, pts)
    elif which == "positivity":
        sp = build_star(cfg).restrict(np.zeros(cfg.n))
        state = CoherentState(np.zeros(cfg.n), cfg.n, cfg.N_lambda,
                              metric_inv=cfg.metric_inv)
        report = state.positivity_scan(sp, rng, count=cfg.sample_count)
        defect = 0.0 if report["ok"] else 1.0
        detail["checked"] = report["checked"]
    elif which == "uncertainty":
        sp = build_star(cfg).restrict(np.zeros(cfg.n))
        state = CoherentState(np.zeros(cfg.n), cfg.n, cfg.N_lambda,
                              metric_inv=cfg.metric_inv)
        f = sf.coordinate(0, cfg.n)
        g = sf.coordinate(1, cfg.n)
        rep = state.uncertainty_check(sp, f, g)
        gap = rep["lhs"] - rep["rhs"]
        defect = 0.0 if rep["holds"] else float(
            max(abs(np.real(c)) for c in gap.coeffs))
        detail["lhs"] = series_to_json(rep["lhs"])
        detail["rhs"] = series_to_json(rep["rhs"])
    elif which == "pair-consistency":
        sp = build_star(cfg)
        n = cfg.n
        eye = np.eye(n)
        Ainv = np.block([[eye / 2, eye / 2], [-eye / 2, eye / 2]])
        fs = _random_fiber_polys(cfg, rng, 2 * min(cfg.sample_count, 50))
        pts = rng.uniform(-1, 1, (min(cfg.sample_count, 50), 2 * n))
        defects = [0.0]
        for k, (f, g) in enumerate(zip(fs[::2], fs[1::2])):
            pv = pts[k % len(pts)]
            qq = np.concatenate([pv[:n] - pv[n:], pv[:n] + pv[n:]])
            F = sf.pullback_affine(f, Ainv, np.zeros(2 * n))
            G = sf.pullback_affine(g, Ainv, np.zeros(2 * n))
            direct = sp.star_at(f, g, pv)
            via_pairs = starprod.pair_picture_star(sp, F, G, qq)
            defects += [abs(a - b) for a, b in zip(direct.coeffs, via_pairs.coeffs)]
        defect = np.max(defects)  # np.max keeps a NaN that Python's max drops
    else:
        raise ConfigError(f"unknown check {which!r}")
    if np.isnan(defect):
        raise ArithmeticError(f"check {which}: the defect is NaN")
    tol = TOLERANCES[which]
    return {"name": which, "defect": float(defect), "tolerance": tol,
            "ok": bool(defect <= tol), **detail}


def cmd_check(cfg: ExperimentConfig, args) -> int:
    names = list(TOLERANCES) if args.which == "all" else [args.which]
    reports = [run_check(cfg, name) for name in names]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "check",
        "reports": reports,
        "ok": all(r["ok"] for r in reports),
    }
    write_output(payload, cfg,
                 csv_rows=[(r["name"], r["defect"], r["tolerance"], int(r["ok"]))
                           for r in reports],
                 csv_header=("check", "defect", "tolerance", "ok"))
    return 0 if payload["ok"] else 1


def cmd_pairs_demo(cfg: ExperimentConfig, args) -> int:
    """Commutator of two-point coordinate observables along a separation ray:
    noncommutative near the diagonal, exactly commutative beyond the support."""
    if args.grid_points < 1:
        raise ConfigError("--grid-points must be >= 1")
    if cfg.theta.kind == "constant":
        cfg.theta.kind = "ball_compact"
    cfg.star_mode = "general_vertical"
    sp = build_star(cfg)
    n = cfg.n
    # observables: the first coordinate of each of the two points
    f = sf.coordinate(0, 2 * n)
    g = sf.coordinate(n + 1 if n > 1 else n, 2 * n)
    direction = np.zeros(n)
    direction[0] = 1.0
    R = sp.theta.support_radius or (cfg.theta.r + cfg.theta.eps)
    seps = np.linspace(0.0, 2.2 * R, args.grid_points)
    rows = []
    for s in seps:
        q = -0.5 * s * direction
        qp = 0.5 * s * direction
        qq = np.concatenate([q, qp])
        comm = (starprod.pair_picture_star(sp, f, g, qq)
                - starprod.pair_picture_star(sp, g, f, qq))
        mag = float(max(abs(c) for c in comm.coeffs[1:])) if sp.lambda_order else 0.0
        rows.append((float(s), mag))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "pairs-demo",
        "support_radius": sp.theta.support_radius,
        "rows": [{"separation": s, "commutator_magnitude": m} for s, m in rows],
    }
    write_output(payload, cfg, csv_rows=rows,
                 csv_header=("separation", "commutator_magnitude"))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="vertstar",
        description="Vertical star products and deformed states on flat space.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp_):
        sp_.add_argument("--config", help="JSON config file")
        sp_.add_argument("--lambda", dest="lambda_num", type=float,
                         help="numeric deformation parameter")
        sp_.add_argument("--order", type=int, help="truncation order in lambda")
        sp_.add_argument("--seed", type=int, help="RNG seed (numpy PCG64)")
        sp_.add_argument("--out", help="output path (default: stdout)")
        sp_.add_argument("--format", choices=["json", "csv"], help="output format")

    lc = sub.add_parser("lightcone", help="deformed light-cone profile")
    common(lc)
    lc.add_argument("--grid-min", type=float, default=0.0)
    lc.add_argument("--grid-max", type=float, default=1.0)
    lc.add_argument("--grid-points", type=int, default=21)
    lc.add_argument("--verify", action="store_true",
                    help="check each root against the expectation pipeline")

    d = sub.add_parser("distance", help="distance-square measurement at a fiber point")
    common(d)
    d.add_argument("--v", required=True, help="comma-separated fiber point")

    c = sub.add_parser("check", help="structural checks")
    common(c)
    c.add_argument("which", choices=list(TOLERANCES) + ["all"])

    pd = sub.add_parser("pairs-demo",
                        help="two-point commutator across the support radius")
    common(pd)
    pd.add_argument("--grid-points", type=int, default=12)
    return p


def apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.lambda_num is not None:
        if _convert(float, args.lambda_num, "--lambda") < 0:
            raise ConfigError("lambda must be nonnegative")
        cfg.lambda_num = args.lambda_num
    if args.order is not None:
        if not 0 <= args.order <= 6:
            raise ConfigError("order must be between 0 and 6")
        cfg.N_lambda = args.order
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("seed must be >= 0")
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_path = args.out
    if args.format is not None:
        cfg.out_format = args.format
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = apply_overrides(load_config(args.config), args)
        if args.command == "lightcone":
            return cmd_lightcone(cfg, args)
        if args.command == "distance":
            return cmd_distance(cfg, args)
        if args.command == "check":
            return cmd_check(cfg, args)
        return cmd_pairs_demo(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
