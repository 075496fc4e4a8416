"""Command-line surface: config validation, output emission, exit codes, and
seed reproducibility."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from vertstar import cli, smoothfn as sf
from vertstar.cli import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    main,
    run_check,
    standard_symplectic,
)
from vertstar.states import CoherentState, lorentz_square


NAN, INF = float("nan"), float("inf")
BALL2 = {"star_mode": "general_vertical", "samples": {"count": 8}}
DIAG2 = np.diag([2.0, 1.0, 1.0, 1.0]).tolist()


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_config_defaults_and_validation():
    cfg = config_from_dict({})
    assert cfg.n == 4 and cfg.N_lambda == 2 and cfg.out_format == "json"
    with pytest.raises(ConfigError):
        config_from_dict({"n": 0})
    with pytest.raises(ConfigError):
        config_from_dict({"N_lambda": 9})
    with pytest.raises(ConfigError):
        config_from_dict({"star_mode": "weyl"})
    with pytest.raises(ConfigError):
        config_from_dict({"bogus": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"output": {"format": "yaml"}})
    with pytest.raises(ConfigError):
        config_from_dict({"theta_spec": {"kind": "constant", "r": -1.0}})


def test_lightcone_csv(capsys):
    code, out, _ = run(["lightcone", "--lambda", "0.01", "--grid-points", "3",
                        "--grid-max", "1.0", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "spatial_norm,v0_classical,v0_deformed"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[2]) == pytest.approx(0.1)


def test_lightcone_requires_lambda(capsys):
    code, _out, err = run(["lightcone"], capsys)
    assert code == 2
    assert "lambda" in err


def test_distance_json(capsys):
    code, out, _ = run(["distance", "--v", "1,0,0,0", "--lambda", "0.01"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["expectation"][0] == [1.0, 0.0]
    assert payload["expectation"][1] == [-1.0, 0.0]
    assert payload["causal_class"] == "timelike"
    assert payload["expectation_numeric"] == pytest.approx(0.99)


def test_distance_rejects_bad_point(capsys):
    code, _out, err = run(["distance", "--v", "1,0"], capsys)
    assert code == 2


def test_check_all_passes(capsys):
    code, out, _ = run(["check", "all", "--seed", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"]
    names = {r["name"] for r in payload["reports"]}
    assert names == {"assoc", "jacobi", "vertical", "flip", "hermitean",
                     "positivity", "uncertainty", "pair-consistency"}


def test_check_detects_jacobi_violation(tmp_path, capsys):
    # the bump-scaled constant bivector is not Poisson in 4-dim fibers; the
    # ball-supported constructor is, so only a hand-built spec can fail --
    # emulate by checking the library-level report for the naive structure
    from vertstar import poisson
    th = poisson.naive_scaled_theta(4, standard_symplectic(4), 1.0, 0.25)
    samples = poisson.fiber_samples(th, 200, seed=0)
    assert poisson.jacobi_defect(th, samples) > 1e-3


def test_seed_reproducibility(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for path in (out1, out2):
        code = main(["check", "positivity", "--seed", "7", "--out", str(path)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_file_roundtrip(tmp_path, capsys):
    cfg = {
        "n": 2,
        "theta_spec": {"kind": "ball_compact", "r": 1.0, "eps": 0.25},
        "star_mode": "general_vertical",
        "N_lambda": 2,
        "samples": {"count": 20, "seed": 3},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(["check", "jacobi", "--config", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["ok"]


def test_pairs_demo_commutator_dies_off(capsys):
    code, out, _ = run(["pairs-demo", "--format", "csv", "--grid-points", "8",
                        "--order", "1"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    mags = [float(m) for _s, m in rows]
    assert mags[0] > 0.5          # noncommutative at coincidence
    assert mags[-1] == 0.0        # classical at large separation


def test_run_check_unknown_name():
    with pytest.raises(ConfigError):
        run_check(ExperimentConfig(), "bogus")


def test_lie_linear_kind_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"theta_spec": {"kind": "lie_linear"}}))
    code, _out, err = run(["check", "assoc", "--config", str(path)], capsys)
    assert code == 2
    assert "theta_spec.kind" in err


def test_zero_samples_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"theta_spec": {"kind": "ball_compact"},
                                "samples": {"count": 0}}))
    code, out, err = run(["check", "all", "--config", str(path)], capsys)
    assert code == 2
    assert out == "" and "samples.count" in err


def test_assoc_check_reaches_transition_annulus(monkeypatch):
    # the commuting-compact theta has d theta != 0 only where some
    # 1 < |v^a| < 1.25; a product that is wrong only there must fail the check
    from vertstar import starprod
    cfg = config_from_dict({"n": 4, "theta_spec": {"kind": "commuting_compact"},
                            "star_mode": "general_vertical",
                            "samples": {"count": 20, "seed": 1}})
    seen = []
    real = starprod.associativity_defect

    def spy(sp, f, g, h, pts):
        seen.extend(pts)
        return real(sp, f, g, h, pts)

    monkeypatch.setattr(starprod, "associativity_defect", spy)
    assert run_check(cfg, "assoc")["ok"]
    v = np.abs(np.array(seen)[:, 4:])
    assert ((v > 1.0) & (v < 1.25)).any(axis=0).all()
    monkeypatch.setattr(starprod, "C2_WEIGHTS", (-1.0 / 8.0, 0.0))
    assert not run_check(cfg, "assoc")["ok"]


@pytest.mark.parametrize("raw, argv", [
    ({"n": 2, "metric_inv": [[1, 0], [0, -1]]}, ["distance", "--v", "1,0"]),
    ({"n": 3, "theta_spec": {"Theta": [[0, 1, 0], [1, 0, 0], [0, 0, 0]]}},
     ["check", "assoc"]),
    # asymmetric by 9e-6: no relative tolerance may let it through
    ({"n": 2, "theta_spec": {"Theta": [[0, 1], [-1.000009, 0]]}}, ["check", "hermitean"]),
])
def test_invalid_metric_or_theta_rejected(tmp_path, capsys, raw, argv):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(argv + ["--config", str(path)], capsys)
    assert code == 2
    assert out == "" and err.startswith("config error:")


@pytest.mark.parametrize("raw, argv", [
    (None, ["check", "assoc", "--seed", "-1"]),
    ({"samples": {"seed": -3}}, ["check", "assoc"]),
    (None, ["lightcone", "--lambda", "0.01", "--grid-points", "-1"]),
    (None, ["pairs-demo", "--grid-points", "-2"]),
    (None, ["distance", "--v", "a,b,c,d"]),
    (None, ["distance", "--v", "1,,0,0"]),
    ({"n": "four"}, ["check", "assoc"]),
    ({"samples": {"count": None}}, ["check", "assoc"]),
    ({"theta_spec": {"r": "wide"}}, ["check", "assoc"]),
    ({"lambda_num": [0.1]}, ["distance", "--v", "1,0,0,0"]),
    ({"metric_inv": [["a"]]}, ["distance", "--v", "1,0,0,0"]),
    # integer fields take integers only: int() would truncate 2.7 and read "3"
    ({"n": 2.7, "samples": {"count": 8}}, ["distance", "--v", "1,0"]),
    ({"n": True}, ["distance", "--v", "1"]),
    ({"n": "3"}, ["distance", "--v", "1,0,0"]),
    ({"N_lambda": 1.5}, ["check", "uncertainty"]),
    ({"samples": {"count": 8.5}}, ["check", "assoc"]),
    ({"samples": {"seed": "1"}}, ["check", "assoc"]),
    # every section is an object
    ({"theta_spec": 3}, ["check", "assoc"]),
    ({"samples": [8]}, ["check", "assoc"]),
    ({"output": "out.json"}, ["distance", "--v", "1,0,0,0"]),
    # NaN and infinities, one case per numeric input
    ({"lambda_num": NAN}, ["distance", "--v", "1,0,0,0"]),
    (None, ["lightcone", "--lambda", "nan"]),
    (None, ["distance", "--v", "1,0,0,0", "--lambda", "inf"]),
    ({"metric_inv": [[1, 0, 0, 0], [0, INF, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
     ["distance", "--v", "1,0,0,0"]),
    ({"n": 2, "theta_spec": {"Theta": [[0, NAN], [NAN, 0]]}}, ["distance", "--v", "1,0"]),
    ({"n": 2, **BALL2, "theta_spec": {"kind": "ball_compact", "r": NAN}}, ["check", "all"]),
    ({"n": 2, **BALL2, "theta_spec": {"kind": "ball_compact", "r": NAN}}, ["pairs-demo"]),
    ({"theta_spec": {"eps": INF}}, ["check", "assoc"]),
    (None, ["distance", "--v", "1,nan,0,0"]),
    (None, ["distance", "--v", "inf,0,0,0"]),
    # the cone needs a space axis
    ({"n": 1}, ["lightcone", "--lambda", "0.04"]),
    ({"n": 1}, ["lightcone", "--lambda", "0.04", "--verify"]),
])
def test_malformed_input_is_a_config_error(tmp_path, capsys, raw, argv):
    # exit 1 means a check failed; malformed input must not reach it
    if raw is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        argv = argv + ["--config", str(path)]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == "" and err.startswith("config error:")


def test_moyal_fiberwise_commands(tmp_path, capsys):
    # the fiber commands restrict the tangent-bundle product to the fiber
    # over p = 0, where the fiberwise Moyal product is Moyal with Theta(0)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"star_mode": "moyal_fiberwise", "samples": {"count": 8}}))
    code, out, _ = run(["check", "all", "--seed", "1", "--config", str(path)], capsys)
    assert code == 0
    reports = json.loads(out)["reports"]
    assert len(reports) == 8 and all(r["ok"] for r in reports)
    code, out, _ = run(["distance", "--v", "1,0,0,0", "--config", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["variance"] == [[0.0, 0.0], [2.0, 0.0], [2.0, 0.0]]


@pytest.mark.parametrize("argv", [
    ["check", "positivity"], ["check", "uncertainty"], ["check", "all"],
    ["check", "assoc"], ["distance", "--v", "0.1,0.1"], ["pairs-demo"],
])
def test_general_vertical_order_above_two_rejected(tmp_path, capsys, argv):
    # the vertical product stops at lambda^2: a higher order is a config
    # error, never a crash or a product of lower order
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "star_mode": "general_vertical",
                                "theta_spec": {"kind": "ball_compact"},
                                "samples": {"count": 8}}))
    code, out, err = run(argv + ["--config", str(path), "--order", "3"], capsys)
    assert code == 2
    assert out == "" and err.startswith("config error:")


def test_import_loads_no_scipy():
    code = ("import sys, vertstar.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


def test_integral_float_is_an_integer():
    cfg = config_from_dict({"n": 2.0, "samples": {"count": 8.0}})
    assert (cfg.n, cfg.sample_count) == (2, 8) and isinstance(cfg.n, int)


@pytest.mark.parametrize("raw", [
    {"n": 4, "theta_spec": {"kind": "commuting_compact"}},
    {"n": 2, "star_mode": "moyal_fiberwise", "theta_spec": {"kind": "ball_compact"}},
])
def test_moyal_modes_reject_a_varying_theta(tmp_path, capsys, raw):
    # the Moyal modes build a constant Theta: any other theta_spec.kind would
    # be silently replaced by the constant product
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**raw, "samples": {"count": 8}}))
    code, out, err = run(["check", "all", "--config", str(path)], capsys)
    assert code == 2
    assert out == "" and "theta_spec.kind" in err
    # pairs-demo switches to the general vertical product itself
    code, _, _ = run(["pairs-demo", "--grid-points", "3", "--config", str(path)], capsys)
    assert code == 0


@pytest.mark.parametrize("which", ["assoc", "pair-consistency"])
def test_nan_defect_is_a_numeric_failure(tmp_path, capsys, which, monkeypatch):
    # a NaN observable makes every defect NaN; the folds used to drop it and
    # pass (a NaN Theta is a config error now)
    real = cli._random_fiber_polys
    monkeypatch.setattr(cli, "_random_fiber_polys", lambda *a, **k: [
        f + sf.constant(NAN, f.dim) for f in real(*a, **k)])
    raw = {"n": 2, "samples": {"count": 4}}
    with pytest.raises(ArithmeticError, match="NaN"):
        run_check(config_from_dict(raw), which)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(["check", which, "--config", str(path)], capsys)
    assert code == 3
    assert out == "" and err.startswith("numeric failure:")


def test_pairs_demo_reports_only_a_declared_support_radius(tmp_path, capsys):
    # commuting_compact at n >= 3 declares no support radius
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 3, "theta_spec": {"kind": "commuting_compact"}}))
    code, out, _ = run(["pairs-demo", "--grid-points", "3", "--config", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["support_radius"] is None
    assert payload["rows"][-1]["separation"] == pytest.approx(2.2 * 1.25)
    code, out, _ = run(["pairs-demo", "--grid-points", "3"], capsys)
    assert code == 0 and json.loads(out)["support_radius"] == 1.25


@pytest.mark.parametrize("raw, extra", [
    ({"n": 2}, []), ({"n": 3}, []), ({"metric_inv": DIAG2}, []), (None, ["--order", "0"]),
])
def test_lightcone_follows_n_metric_and_order(tmp_path, capsys, raw, extra):
    # v0^2 = lambda + |s|^2, the cone of n = 4, g = 1 and order >= 1, is wrong
    # for each: every printed v0 must zero the pipeline's expectation
    argv = ["lightcone", "--lambda", "0.04", "--grid-max", "2.0", "--grid-points", "5",
            "--verify", *extra]
    if raw is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        argv += ["--config", str(path)]
    code, out, _ = run(argv, capsys)
    assert code == 0
    cfg = cli.apply_overrides(config_from_dict(raw or {}), cli.build_parser().parse_args(argv))
    for row in json.loads(out)["rows"]:
        base = (row["v0_deformed"], row["spatial_norm"]) + (0.0,) * (cfg.n - 2)
        st = CoherentState(base, cfg.n, cfg.N_lambda, metric_inv=cfg.metric_inv)
        assert abs(st.expect(lorentz_square(cfg.n)).substitute(0.04)) <= 1e-12


@pytest.mark.parametrize("raw, v", [({"n": 3}, "0.16,0,0"), ({"metric_inv": DIAG2}, "0.16,0,0,0")])
def test_distance_class_is_the_sign_of_its_expectation(tmp_path, capsys, raw, v):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    code, out, _ = run(["distance", "--v", v, "--lambda", "0.04", "--config", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["expectation_numeric"] == pytest.approx(0.0056)
    assert payload["causal_class"] == "timelike"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("raw, argv, message", [
    (None, ["distance", "--v", "1e200,0,0,0"], "NaN"),
    (None, ["lightcone", "--lambda", "0.04", "--grid-max", "1e200"], "not finite"),
    # g = diag(5, 1, 1, 1): v0^2 = |s|^2 - lambda, no real root at |s|^2 < lambda
    ({"metric_inv": np.diag([5.0, 1.0, 1.0, 1.0]).tolist()},
     ["lightcone", "--lambda", "0.04", "--grid-points", "3"], "|s| = 0.0"),
])
def test_no_finite_answer_is_a_numeric_failure(tmp_path, capsys, raw, argv, message):
    if raw is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        argv = argv + ["--config", str(path)]
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == "" and err.startswith("numeric failure:") and message in err


def test_lightcone_verify_needs_no_scipy():
    code = ("import sys; sys.modules['scipy'] = None; from vertstar.cli import main; "
            "sys.exit(main(['lightcone', '--lambda', '0.04', '--verify']))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
