"""Per-layer tracing of mildsde from outside the package.

``Tracer`` wraps the public entry points of the ``noise``, ``solver``,
``analysis``, ``model`` and ``textio`` layers, plus the ``cli`` experiment
registry, without editing the package.  A target is replaced under every
name that refers to it in every loaded ``mildsde`` module, because the
package imports most of them by name (``analysis`` calls its own
``sample_wiener`` binding, ``solver`` its own ``jump_cell_counts``), so
patching the defining module alone would miss those calls.  Every replaced
attribute is put back by ``uninstall``.

Each call is one span.  A layer's self time is its span minus the spans
nested in it; the time the tracer spends on its own bookkeeping is charged
to no layer.  Experiment spans are the exception: they are the roots that
split the run by registry entry, so they report the whole span.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from mildsde import cli
from mildsde.errors import BlowUpError, StiffnessWarning


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# --- counters: (args, kwargs, result) -> dict of counts, plus a distinct key

def _ensemble_steps(args, kwargs, result):
    grid = _arg(args, kwargs, 1, "grid")
    paths = _arg(args, kwargs, 6, "paths")
    members = len(paths) if paths is not None else _arg(args, kwargs, 5, "ensemble_size")
    return {"member_steps": members * grid.steps}


def _solve_steps(args, kwargs, result):
    return {"member_steps": _arg(args, kwargs, 1, "noise")[0].grid.steps}


def _energy_steps(args, kwargs, result):
    return {"steps": _arg(args, kwargs, 4, "noise")[0].grid.steps}


def _poisson_jumps(args, kwargs, result):
    return {"jumps": result.count}


def _written_bytes(args, kwargs, result):
    paths = result if isinstance(result, list) else [result]
    return {"bytes": sum(p.stat().st_size for p in paths)}


def _wiener_key(args, kwargs):
    q, grid, seed = (_arg(args, kwargs, i, n) for i, n in enumerate(("q", "grid", "seed")))
    return np.asarray(q, dtype=float).tobytes(), grid.horizon, grid.steps, int(seed)


def _poisson_key(args, kwargs):
    marks, horizon, seed = (_arg(args, kwargs, i, n)
                            for i, n in enumerate(("marks", "horizon", "seed")))
    return marks.atoms, marks.weights, float(horizon), int(seed)


def _margin_key(args, kwargs):
    spec = _arg(args, kwargs, 0, "spec")
    return (spec.fingerprint(), _arg(args, kwargs, 1, "sample_count"),
            _arg(args, kwargs, 2, "seed"), kwargs.get("radius", 3.0), kwargs.get("alpha"))


@dataclass(frozen=True)
class Target:
    """One traced entry point: the layer metric it feeds and what it counts."""

    layer: str
    module: str
    attr: str
    count: object = None          # (args, kwargs, result) -> {counter: int}
    key: object = None            # (args, kwargs) -> hashable input identity
    blowups: bool = False
    stiffness: bool = False


TARGETS = (
    Target("analysis.ensemble", "mildsde.analysis", "_solve_ensemble",
           count=_ensemble_steps, blowups=True),
    Target("analysis.weak_solution_residual", "mildsde.analysis", "weak_solution_residual"),
    Target("solver.solve", "mildsde.solver", "solve_exp_euler",
           count=_solve_steps, blowups=True, stiffness=True),
    Target("solver.solve", "mildsde.solver", "solve_resolvent_implicit",
           count=_solve_steps, blowups=True, stiffness=True),
    Target("solver.solve", "mildsde.solver", "solve_yosida_explicit",
           count=_solve_steps, blowups=True, stiffness=True),
    Target("solver.ito_energy_terms", "mildsde.solver", "ito_energy_terms", count=_energy_steps),
    Target("solver.solve_linear_data", "mildsde.solver", "solve_linear_data"),
    Target("noise.sample_wiener", "mildsde.noise", "sample_wiener", key=_wiener_key),
    Target("noise.sample_poisson", "mildsde.noise", "sample_poisson",
           count=_poisson_jumps, key=_poisson_key),
    Target("noise.poisson_integral", "mildsde.noise", "poisson_integral"),
    Target("noise.quadratic_mark_sum", "mildsde.noise", "quadratic_mark_sum"),
    Target("noise.jump_cell_counts", "mildsde.noise", "jump_cell_counts"),
    Target("noise.coarsen_wiener", "mildsde.noise", "coarsen_wiener"),
    Target("model.check_dissipativity_triplet", "mildsde.model", "check_dissipativity_triplet",
           key=_margin_key),
    Target("textio.write", "mildsde.textio", "write_report", count=_written_bytes),
    Target("textio.write", "mildsde.textio", "write_plot_data", count=_written_bytes),
    Target("textio.write", "mildsde.textio", "write_manifest", count=_written_bytes),
)

# What each layer reports beyond .calls and .s: its counters, then its rates as
# (name, numerator, denominator, scale).  A layer a workload never calls reports
# its measured 0 calls, 0 s and 0 counts, and its rates read 0 too.
DERIVED = {
    "analysis.ensemble": (("member_steps", "blowups"),
                          (("us_per_member_step", "s", "member_steps", 1e6),)),
    "solver.solve": (("member_steps", "stiffness_warnings", "blowups"),
                     (("us_per_member_step", "s", "member_steps", 1e6),)),
    "solver.ito_energy_terms": (("steps",), (("us_per_step", "s", "steps", 1e6),)),
    "noise.sample_wiener": ((), (("us_per_path", "s", "calls", 1e6),
                                 ("distinct_frac", "distinct", "calls", 1.0))),
    "noise.sample_poisson": (("jumps",), (("us_per_path", "s", "calls", 1e6),
                                          ("distinct_frac", "distinct", "calls", 1.0))),
    "model.check_dissipativity_triplet": ((), (("distinct_frac", "distinct", "calls", 1.0),)),
    "textio.write": (("bytes",), ()),
}


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)
    keys: set = field(default_factory=set)

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value


class Tracer:
    """Installs span wrappers on the package and aggregates them per layer."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.layers = {t.layer: LayerStats() for t in targets}
        self.experiment_s = {name: 0.0 for name in cli.EXPERIMENTS}
        self.experiment_calls = {name: 0 for name in cli.EXPERIMENTS}
        self.missing = []
        self._stack = []
        self._restore = []

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "mildsde" or name.startswith("mildsde."))]
        for target in self.targets:
            original = getattr(sys.modules.get(target.module), target.attr, None)
            if original is None:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self._wrap(target, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapper)
        registry = cli.EXPERIMENTS
        for name, builder in list(registry.items()):
            self._restore.append((registry, name, builder))
            registry[name] = self._wrap_experiment(name, builder)

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans -------------------------------------------------------------

    def _wrap(self, target, fn):
        stats = self.layers[target.layer]
        stack = self._stack

        def span(*args, **kwargs):
            entered = perf_counter()
            frame = [0.0]
            stack.append(frame)
            caught = None
            blew_up = False
            start = perf_counter()
            try:
                if target.stiffness:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            except BlowUpError:
                blew_up = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                stats.calls += 1
                stats.self_s += (end - start) - frame[0]
                if target.blowups:
                    stats.add("blowups", int(blew_up))
                if caught is not None:
                    stats.add("stiffness_warnings",
                              sum(issubclass(w.category, StiffnessWarning) for w in caught))
                    for w in caught:
                        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
                if target.key is not None:
                    stats.keys.add(target.key(args, kwargs))
                if stack:
                    stack[-1][0] += perf_counter() - entered
            if target.count is not None:
                counted = perf_counter()
                for name, value in target.count(args, kwargs, result).items():
                    stats.add(name, value)
                if stack:
                    stack[-1][0] += perf_counter() - counted
            return result

        span.__wrapped__ = fn
        return span

    def _wrap_experiment(self, name, builder):
        stack = self._stack

        def span(config):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return builder(config)
            finally:
                self.experiment_s[name] += perf_counter() - start
                self.experiment_calls[name] += 1
                stack.pop()

        span.__wrapped__ = builder
        return span

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics; a layer none of whose targets exists is left out."""
        missing_layers = {t.layer for t in self.targets} - {
            t.layer for t in self.targets if f"{t.module}.{t.attr}" not in self.missing}
        out = {}
        for layer, stats in self.layers.items():
            if layer in missing_layers:
                continue
            counters, rates = DERIVED.get(layer, ((), ()))
            values = {"calls": stats.calls, "s": stats.self_s, "distinct": len(stats.keys)}
            values.update((name, stats.counts.get(name, 0)) for name in counters)
            for name in ("calls", "s") + counters:
                out[f"{layer}.{name}"] = values[name]
            for name, num, den, scale in rates:
                out[f"{layer}.{name}"] = scale * values[num] / values[den] if values[den] else 0.0
        for name, seconds in self.experiment_s.items():
            out[f"analysis.{name}.s"] = seconds
        return out

    def idle(self) -> list:
        """The layers and experiments that were never called."""
        idle = [layer for layer, stats in self.layers.items() if stats.calls == 0]
        idle += [f"analysis.{name}" for name, calls in self.experiment_calls.items()
                 if calls == 0]
        return sorted(idle)
