"""Write the outputs of a fixed list of `vertstar` commands into one directory.

    python tests/cli_snapshot.py OUTDIR

runs the commands through `vertstar.cli.main` of the checkout this file is
in, one `--out` file per command, and records every exit code in
OUTDIR/exit_codes.txt.  Running it in two checkouts and comparing the two
directories with `diff -r` shows whether a change moved any output bit.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vertstar.cli import main  # noqa: E402

BALL = {"star_mode": "general_vertical", "theta_spec": {"kind": "ball_compact"}}
CONFIGS = {
    "default": None,
    "ball2": {"n": 2, **BALL, "samples": {"count": 8}},
    "ball4": {"n": 4, **BALL, "samples": {"count": 8}},
    # order 1: theta enters only at jet order 0
    "ball2-order1": {"n": 2, **BALL, "N_lambda": 1, "samples": {"count": 8}},
    "commuting2": {"n": 2, "star_mode": "general_vertical",
                   "theta_spec": {"kind": "commuting_compact"}, "samples": {"count": 8}},
    # a plateau with no declared support radius
    "commuting3": {"n": 3, "star_mode": "general_vertical",
                   "theta_spec": {"kind": "commuting_compact"}, "samples": {"count": 8}},
    "fiberwise2": {"n": 2, "star_mode": "moyal_fiberwise", "N_lambda": 3,
                   "samples": {"count": 8}},
    "ball3-dense": {"n": 3, **BALL,
                    "theta_spec": {"kind": "ball_compact",
                                   "Theta": [[0.0, 1.0, -0.5], [-1.0, 0.0, 0.75],
                                             [0.5, -0.75, 0.0]]},
                    "metric_inv": [[1.0, 0.25, 0.0], [0.25, 2.0, -0.5], [0.0, -0.5, 1.5]],
                    "samples": {"count": 8}},
}


def commands(configs: dict) -> dict:
    """Output name -> argument list; configs maps a config name to its file."""
    def cfg(name):
        return ["--config", configs[name]] if configs[name] else []

    out = {f"check-{name}-seed{seed}": ["check", "all", "--seed", str(seed), *cfg(name)]
           for name in CONFIGS for seed in (1, 2, 3)}
    out["distance-plateau"] = ["distance", "--v", "0.3,0.2,0.1,0.4", "--lambda", "0.01"]
    out["distance-annulus4"] = ["distance", "--v", "0.6,0.6,0.5,0.3", "--lambda", "0.01",
                                *cfg("ball4")]
    out["distance-ball3"] = ["distance", "--v", "0.7,0.6,0.5", "--lambda", "0.01",
                             *cfg("ball3-dense")]
    out["lightcone-verify"] = ["lightcone", "--lambda", "0.04", "--grid-max", "3.0",
                               "--grid-points", "8", "--verify"]
    out["pairs-demo"] = ["pairs-demo", "--order", "2"]
    return out


def snapshot(outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    configs = {}
    for name, raw in CONFIGS.items():
        configs[name] = None
        if raw is not None:
            configs[name] = str(outdir / f"config-{name}.json")
            Path(configs[name]).write_text(json.dumps(raw, indent=2) + "\n")
    codes = []
    for name, args in commands(configs).items():
        code = main([*args, "--out", str(outdir / f"{name}.out")])
        codes.append(f"{name} {code}\n")
    (outdir / "exit_codes.txt").write_text("".join(codes))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/cli_snapshot.py OUTDIR")
    snapshot(Path(sys.argv[1]))
