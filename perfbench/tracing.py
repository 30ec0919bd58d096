"""In-memory span tracing of csrskit's public functions, from outside the package.

A Tracer replaces each traced function by a wrapper in every ``csrskit``
module namespace that holds it, so a call is recorded as its calling module
sees it: ``csrskit.phasematch.effective_core_index`` is traced as well as
``csrskit.core_model.effective_core_index``, and ``ModeLabel.bessel_zero``
reaches the traced ``csrskit.core_model.bessel_zero``.  Nothing under
``src/`` is edited; the originals are put back when the tracer exits.

Each span has an id, a parent id, a name, a start and an end (ns).  Every
span stays in memory and is written out by ``write_spans`` when the run
ends.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Stat:
    calls: int = 0
    results: int = 0
    total_ns: int = 0
    self_ns: int = 0
    #: exceptions that left the span's module (its parent is in another module)
    rejections: int = 0
    #: accumulated per-call facts: child-call counts and result-derived values
    extra: dict = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value


@dataclass(frozen=True)
class Target:
    """One traced function.

    name: span name, ``<module>.<function>``.
    owner: dotted path of the module or class that defines the function.
    attr: attribute name on the owner.
    children: span names whose calls inside this span are counted per call.
    on_result: maps a return value to {stat: value} facts accumulated per call.
    """

    name: str
    owner: str
    attr: str
    children: tuple[str, ...] = ()
    on_result: object = None


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.stats: dict[str, Stat] = {t.name: Stat() for t in targets}
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._stack: list[list] = []  # [span_id, name, start_ns, child_ns]
        self._next_id = 1
        self._active = True
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            owner = _resolve(target.owner)
            original = owner.__dict__[target.attr]
            wrapper = self._wrap(target, original)
            holders = [owner]
            if isinstance(owner, type(sys)):
                holders += [m for n, m in sorted(sys.modules.items()) if n.startswith("csrskit") and m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        self._active = False
        try:
            yield
        finally:
            self._active = True

    def span(self, name: str):
        """Context manager for a root span opened by the benchmark itself."""
        return _Span(self, name)

    def _open(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter_ns(), 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> int:
        end = time.perf_counter_ns()
        self._stack.pop()
        duration = end - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((frame[0], parent[0] if parent else 0, frame[1], frame[2], end))
        return duration

    def _wrap(self, target: Target, original):
        stat = self.stats[target.name]
        module = target.name.split(".", 1)[0]
        children = [(c, self.stats[c]) for c in target.children]
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._active:
                return original(*args, **kwargs)
            before = [s.calls for _, s in children]
            frame = tracer._open(target.name)
            try:
                result = original(*args, **kwargs)
            except Exception:
                parent = tracer._stack[-2] if len(tracer._stack) > 1 else None
                if parent is None or parent[1].split(".", 1)[0] != module:
                    stat.rejections += 1
                raise
            finally:
                duration = tracer._close(frame)
                stat.calls += 1
                stat.total_ns += duration
                stat.self_ns += duration - frame[3]
                for (child, s), b in zip(children, before):
                    stat.add(child, s.calls - b)
            stat.results += 1
            if target.on_result is not None:
                for key, value in target.on_result(result).items():
                    stat.add(key, value)
            return result

        traced.__wrapped__ = original
        return traced

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,parent_id,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write("%d,%d,%s,%d,%d\n" % span)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.frame)


def _resolve(dotted: str):
    module_name, _, rest = dotted.partition(":")
    obj = importlib.import_module(module_name)
    for part in filter(None, rest.split(".")):
        obj = getattr(obj, part)
    return obj


def _pressure_solution(sol) -> dict:
    return {"iterations": sol.iterations}


def _length_optimum(opt) -> dict:
    interior = 1e-3 * (1 + 1e-6) < opt.length_m < 1e3 * (1 - 1e-6)
    return {"interior": 1.0 if interior else 0.0}


def _fit_result(fit) -> dict:
    return {"iterations": fit.iterations, "converged": 1.0 if fit.converged else 0.0}


def _flags(flags) -> dict:
    return {"flags": len(flags)}


#: Every traced public function.  Child counts give evaluation counts per call.
TARGETS = [
    Target("core_model.bessel_zero", "csrskit.core_model", "bessel_zero"),
    Target("core_model.gas_index", "csrskit.core_model", "gas_index"),
    Target("core_model.effective_core_index", "csrskit.core_model", "effective_core_index"),
    Target("phasematch.delta_beta", "csrskit.phasematch", "delta_beta"),
    Target(
        "phasematch.optimal_pressure",
        "csrskit.phasematch",
        "optimal_pressure",
        children=("phasematch.delta_beta",),
        on_result=_pressure_solution,
    ),
    Target("phasematch.pressure_acceptance", "csrskit.phasematch", "pressure_acceptance", children=("phasematch.delta_beta",)),
    Target(
        "phasematch.infer_wall_thickness",
        "csrskit.phasematch",
        "infer_wall_thickness",
        children=("phasematch.delta_beta", "phasematch.optimal_pressure"),
    ),
    Target("efficiency.predicted_efficiency", "csrskit.efficiency", "predicted_efficiency"),
    Target("efficiency.optimal_length", "csrskit.efficiency", "optimal_length", on_result=_length_optimum),
    Target("efficiency.loss_bookkeeping", "csrskit.efficiency", "loss_bookkeeping"),
    Target("fitting.fit_cutback", "csrskit.fitting", "fit_cutback"),
    Target("fitting.fit_efficiency_length", "csrskit.fitting", "fit_efficiency_length"),
    Target("fitting.fit_bend_saturation", "csrskit.fitting", "fit_bend_saturation", on_result=_fit_result),
    Target("bendloss.critical_bend_radius", "csrskit.bendloss", "critical_bend_radius"),
    Target("bendloss.mode_accessibility", "csrskit.bendloss", "mode_accessibility"),
    Target("raman_screen.load_catalog", "csrskit.raman_screen", "load_catalog"),
    Target("raman_screen.screen", "csrskit.raman_screen", "screen", on_result=_flags),
    Target("config.load_config", "csrskit.config", "load_config"),
    Target("config.normalized_json", "csrskit.config:ToolkitConfig", "normalized_json"),
    Target("config.digest", "csrskit.config:ToolkitConfig", "digest"),
]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the traced functions, by metric name (no units)."""
    s = tracer.stats

    def per_call(name: str, scale: float) -> float:
        st = s[name]
        return st.total_ns / st.calls / scale if st.calls else 0.0

    def mean(name: str, key: str, over_results: bool = False) -> float:
        st = s[name]
        n = st.results if over_results else st.calls
        return st.extra.get(key, 0.0) / n if n else 0.0

    def self_ms(module: str) -> float:
        return sum(st.self_ns for name, st in s.items() if name.startswith(module + ".")) / 1e6

    def rejections(module: str) -> float:
        return float(sum(st.rejections for name, st in s.items() if name.startswith(module + ".")))

    us, ms = 1e3, 1e6
    return {
        "config.load_config.ms_per_call": per_call("config.load_config", ms),
        "config.normalized_json.us_per_call": per_call("config.normalized_json", us),
        "config.digest.us_per_call": per_call("config.digest", us),
        "core_model.effective_core_index.calls": float(s["core_model.effective_core_index"].calls),
        "core_model.effective_core_index.us_per_call": per_call("core_model.effective_core_index", us),
        "core_model.effective_core_index.self_ms": s["core_model.effective_core_index"].self_ns / 1e6,
        "core_model.bessel_zero.calls": float(s["core_model.bessel_zero"].calls),
        "core_model.bessel_zero.us_per_call": per_call("core_model.bessel_zero", us),
        "core_model.gas_index.calls": float(s["core_model.gas_index"].calls),
        "core_model.gas_index.us_per_call": per_call("core_model.gas_index", us),
        "core_model.rejections": rejections("core_model"),
        "core_model.self_ms": self_ms("core_model"),
        "phasematch.delta_beta.calls": float(s["phasematch.delta_beta"].calls),
        "phasematch.delta_beta.us_per_call": per_call("phasematch.delta_beta", us),
        "phasematch.optimal_pressure.ms_per_call": per_call("phasematch.optimal_pressure", ms),
        "phasematch.optimal_pressure.delta_beta_per_call": mean("phasematch.optimal_pressure", "phasematch.delta_beta"),
        "phasematch.optimal_pressure.iterations_mean": mean("phasematch.optimal_pressure", "iterations", True),
        "phasematch.pressure_acceptance.ms_per_call": per_call("phasematch.pressure_acceptance", ms),
        "phasematch.pressure_acceptance.delta_beta_per_call": mean(
            "phasematch.pressure_acceptance", "phasematch.delta_beta"
        ),
        "phasematch.infer_wall_thickness.ms_per_call": per_call("phasematch.infer_wall_thickness", ms),
        "phasematch.infer_wall_thickness.optimal_pressure_per_call": mean(
            "phasematch.infer_wall_thickness", "phasematch.optimal_pressure"
        ),
        "phasematch.infer_wall_thickness.delta_beta_per_call": mean(
            "phasematch.infer_wall_thickness", "phasematch.delta_beta"
        ),
        "phasematch.self_ms": self_ms("phasematch"),
        "phasematch.rejections": rejections("phasematch"),
        "efficiency.predicted_efficiency.calls": float(s["efficiency.predicted_efficiency"].calls),
        "efficiency.predicted_efficiency.us_per_call": per_call("efficiency.predicted_efficiency", us),
        "efficiency.optimal_length.us_per_call": per_call("efficiency.optimal_length", us),
        "efficiency.optimal_length.interior_ratio": mean("efficiency.optimal_length", "interior", True),
        "efficiency.self_ms": self_ms("efficiency"),
        "fitting.fit_cutback.us_per_call": per_call("fitting.fit_cutback", us),
        "fitting.fit_efficiency_length.us_per_call": per_call("fitting.fit_efficiency_length", us),
        "fitting.fit_bend_saturation.us_per_call": per_call("fitting.fit_bend_saturation", us),
        "fitting.fit_bend_saturation.iterations_mean": mean("fitting.fit_bend_saturation", "iterations", True),
        "fitting.fit_bend_saturation.converged_ratio": mean("fitting.fit_bend_saturation", "converged", True),
        "fitting.self_ms": self_ms("fitting"),
        "raman_screen.load_catalog.ms_per_call": per_call("raman_screen.load_catalog", ms),
        "raman_screen.screen.us_per_call": per_call("raman_screen.screen", us),
        "raman_screen.screen.flags_per_call": mean("raman_screen.screen", "flags", True),
        "bendloss.mode_accessibility.us_per_call": per_call("bendloss.mode_accessibility", us),
        "bendloss.critical_bend_radius.calls": float(s["bendloss.critical_bend_radius"].calls),
    }
