"""Per-layer tracing of vertstar from outside the package.

`Tracer.install()` replaces every public function, public method and
arithmetic operator of the seven layer modules with a timing wrapper.  A
function is patched under every name that binds it in any loaded `vertstar`
module, because `starprod`, `poisson`, `states` and `cli` import names such as
`eval_jet` with `from .smoothfn import ...`; patching only the defining module
would miss their calls.  Classes are shared objects, so their methods are
patched once.

Every wrapped call is one span.  A layer's self time is the duration of its
spans minus the part covered by nested spans (of any layer).  Counts are per
call, nested calls included.  The lru_cache index tables are read through
their `cache_info()`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("jets", "smoothfn", "formal", "poisson", "starprod", "states", "cli")

# operators that a public class routes its arithmetic through
_OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__neg__", "__pow__", "__call__"}

JET_TABLES = ("_mul_table", "_deriv_table")
PAIR_TABLES = ("_pair_enum", "_pair_fill", "_pair_step", "_pair_diag")
ELEMENTARIES = ("ExpElem", "BumpElem", "BumpSqElem", "BallRampElem")

# the keys of vertstar.cli.TOLERANCES, fixed here so that the metric names
# stay those declared in BENCHMARK.json
CHECKS = ("assoc", "jacobi", "vertical", "flip", "hermitean", "positivity",
          "uncertainty", "pair-consistency")

MUL_GRID = tuple((d, o) for d in (2, 4, 8) for o in (2, 4, 6))


def unit_of(name: str) -> str:
    """Unit of a per-layer metric: times and counts are per work unit."""
    if name.startswith("jets.mul_us."):
        return "us"
    if name == "trace.overhead_ratio":
        return "ratio"
    if name == "jets.mul_coeffs_mean":
        return "count"
    return "ms/unit" if "_ms" in name else "count/unit"


def _layer_module(layer):
    return sys.modules[f"vertstar.{layer}"]


def table_misses() -> dict:
    """Cumulative misses of the lru_cache index tables, per table group."""
    jets = _layer_module("jets")
    starprod = _layer_module("starprod")
    return {
        "jets": sum(getattr(jets, t).cache_info().misses for t in JET_TABLES),
        "starprod": sum(getattr(starprod, t).cache_info().misses for t in PAIR_TABLES),
    }


class Tracer:
    """Span and count recorder for one process; install, run, uninstall."""

    def __init__(self):
        self.calls = Counter()        # "layer:qualname" -> calls
        self.incl_s = Counter()       # "layer:qualname" -> inclusive seconds
        self.self_s = Counter()       # layer -> self seconds
        self.run_check_s = Counter()  # check name -> seconds in run_check
        # mul_jet_calls (Jet x Jet products), mul_macs, mul_coeffs,
        # bracket_components
        self.totals = Counter()
        self.active = [False]  # wrappers record only while True
        self.misses = {}  # lru_cache table misses between install and uninstall
        self._stack = []
        self._patches = []
        self._misses0 = None

    # -- patching -------------------------------------------------------------

    def _wrap(self, layer, fn, hook=None):
        key = f"{layer}:{fn.__qualname__}"
        stack = self._stack
        calls, incl_s, self_s = self.calls, self.incl_s, self.self_s
        clock = time.perf_counter
        active = self.active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self_s[layer] += dt - frame[0]
                calls[key] += 1
                incl_s[key] += dt
            if hook is not None:
                hook(args, kwargs, out, dt)
            return out

        return wrapper

    def _hooks(self):
        jets = _layer_module("jets")
        sizes = {}

        def jet_mul(args, kwargs, out, dt):
            a, b = args
            if isinstance(b, jets.Jet):
                shape = (a.dim, a.order)
                if shape not in sizes:
                    sizes[shape] = len(jets._mul_table(*shape)[0])
                self.totals["mul_jet_calls"] += 1
                self.totals["mul_macs"] += sizes[shape]
                self.totals["mul_coeffs"] += len(a.c)

        def schouten(args, kwargs, out, dt):
            self.totals["bracket_components"] += len(out.components)

        def run_check(args, kwargs, out, dt):
            which = args[1] if len(args) > 1 else kwargs["which"]
            self.run_check_s[which] += dt

        return {"Jet.__mul__": jet_mul, "schouten": schouten, "run_check": run_check}

    def install(self):
        hooks = self._hooks()
        wrappers = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = _layer_module(layer)
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    wrappers[id(obj)] = self._wrap(layer, obj, hooks.get(obj.__qualname__))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (not attr.startswith("_")
                                                       or attr in _OPERATORS):
                            self._patch(obj, attr, self._wrap(layer, fn, hooks.get(fn.__qualname__)))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "vertstar" or modname.startswith("vertstar.")):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(mod, name, wrappers[id(obj)])
        self._misses0 = table_misses()

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def enable(self):
        self.active[0] = True

    def disable(self):
        self.active[0] = False

    def uninstall(self):
        self.active[0] = False
        self.misses = {k: v - self._misses0[k] for k, v in table_misses().items()}
        for owner, name, old in reversed(self._patches):
            setattr(owner, name, old)
        self._patches.clear()

    # -- reporting ------------------------------------------------------------

    def raw(self) -> dict:
        """Plain totals, mergeable across processes with `merge_raw`."""
        return {"calls": dict(self.calls), "incl_s": dict(self.incl_s),
                "self_s": dict(self.self_s), "run_check_s": dict(self.run_check_s),
                "totals": dict(self.totals), "table_misses": dict(self.misses)}


def merge_raw(parts) -> dict:
    out = {}
    for p in parts:
        for k, v in p.items():
            out.setdefault(k, Counter()).update(v)
    return {k: dict(v) for k, v in out.items()}


def per_layer_metrics(raw: dict, units: int) -> dict:
    """The per-layer metrics, per work unit (times in ms), from merged totals."""
    calls = raw["calls"]
    incl = raw["incl_s"]
    totals = raw["totals"]
    muls = totals.get("mul_jet_calls", 0)

    def n(key):
        return calls.get(key, 0) / units

    def ms(key):
        return 1e3 * incl.get(key, 0.0) / units

    def self_ms(layer):
        return 1e3 * raw["self_s"].get(layer, 0.0) / units

    def layer_calls(layer):
        return sum(v for k, v in calls.items() if k.startswith(layer + ":")) / units

    taylor = sum(calls.get(f"smoothfn:{cls}.{m}", 0)
                 for cls in ELEMENTARIES for m in ("taylor", "value"))
    out = {
        "jets.self_ms": self_ms("jets"),
        "jets.mul_calls": muls / units,
        "jets.mul_macs": totals.get("mul_macs", 0) / units,
        "jets.mul_coeffs_mean": totals.get("mul_coeffs", 0) / muls if muls else 0.0,
        "jets.compose_calls": n("jets:jet_compose_univariate"),
        "jets.laplacian_calls": n("jets:jet_laplacian"),
        "jets.table_builds": raw["table_misses"].get("jets", 0) / units,
        "smoothfn.self_ms": self_ms("smoothfn"),
        "smoothfn.eval_jet_calls": n("smoothfn:eval_jet"),
        "smoothfn.evaluate_calls": n("smoothfn:evaluate"),
        "smoothfn.taylor_calls": taylor / units,
        "formal.self_ms": self_ms("formal"),
        "formal.series_ops": layer_calls("formal"),
        "poisson.self_ms": self_ms("poisson"),
        "poisson.jacobi_defect_ms": ms("poisson:jacobi_defect"),
        "poisson.schouten_calls": n("poisson:schouten"),
        "poisson.bracket_components": totals.get("bracket_components", 0) / units,
        "poisson.build_ms": ms("poisson:schouten"),
        "starprod.self_ms": self_ms("starprod"),
        "starprod.star_jets_calls": n("starprod:StarProduct.star_jets"),
        "starprod.star_jets_ms": ms("starprod:StarProduct.star_jets"),
        "starprod.assoc_defect_ms": ms("starprod:associativity_defect"),
        "starprod.solve_C2_calls": n("starprod:solve_C2"),
        "starprod.solve_C2_ms": ms("starprod:solve_C2"),
        "starprod.table_builds": raw["table_misses"].get("starprod", 0) / units,
        "states.self_ms": self_ms("states"),
        "states.variance_ms": ms("states:CoherentState.variance"),
        "states.star_expect_ms": ms("states:CoherentState.star_expect"),
        "states.expect_jets_calls": n("states:CoherentState.expect_jets"),
        "cli.self_ms": self_ms("cli"),
        "cli.build_star_calls": n("cli:build_star"),
    }
    for check in CHECKS:
        out[f"cli.run_check_ms.{check}"] = 1e3 * raw["run_check_s"].get(check, 0.0) / units
    return out


def mul_microprobe(seed: int, batch_s: float = 0.02, batches: int = 5) -> dict:
    """Microseconds per `Jet.__mul__` of two dense random jets over the
    dim x order grid; median over batches of repeated products."""
    import numpy as np
    from vertstar.jets import Jet, n_coeffs

    rng = np.random.default_rng(seed)
    out = {}
    for dim, order in MUL_GRID:
        m = n_coeffs(dim, order)
        base = tuple(float(x) for x in rng.uniform(-1, 1, dim))
        a = Jet(dim, order, base, rng.normal(size=m) + 1j * rng.normal(size=m))
        b = Jet(dim, order, base, rng.normal(size=m) + 1j * rng.normal(size=m))
        a * b  # builds the index table
        t0 = time.perf_counter()
        a * b
        single = max(time.perf_counter() - t0, 1e-7)
        reps = max(1, int(batch_s / single))
        per = []
        for _ in range(batches):
            t0 = time.perf_counter()
            for _ in range(reps):
                a * b
            per.append((time.perf_counter() - t0) / reps)
        per.sort()
        out[f"jets.mul_us.d{dim}o{order}"] = 1e6 * per[len(per) // 2]
    return out
