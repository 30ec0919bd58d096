"""design-sweep: warm, in-process design-tool calls on seeded fiber designs.

Each design perturbs the shipped one: wall thickness, core radius,
temperature, fiber length (log-uniform 0.3-3 m) and the number of table
points (log-uniform 51-201).  Per design the ops are the phase-match table
over the shipped pressure window, the optimal pressure solved over that
window, the pressure acceptance at the design length, and on a third of the
designs the wall-thickness inversion of a p_opt generated from the hidden
true thickness.  Designs inside the wall-resonance guard band or without a
root in the window stay in the traffic: their ops must raise the typed
error the benchmark predicts.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path

import numpy as np

from csrskit import phasematch as pm
from csrskit.core_model import ResonanceProximityError

from common import Record, drive, lhs_rows, load, log_uniform, untraced_then_traced
from tracing import TARGETS, Tracer

# Untraced references for the output checks (ops call through the module).
_delta_beta = pm.delta_beta
_optimal_pressure = pm.optimal_pressure
_sinc2 = pm.phase_matching_factor

WINDOW = (60.0, 110.0)  # the range of the shipped sweeps.pressure_bar (101 points)
#: Table points per design, log-uniform.  A fixed size made every table cost
#: the same, so the run's median op (a table) jumped between the machine's
#: fast and slow phases instead of following their mix.
TABLE_POINTS = (51, 201)  # geometric mean 101
INVERSION_BRACKET_BAR = (1.0, 200.0)
THICKNESS_RANGE_UM = (1.235, 1.297)  # the top ~11 % lies in the probe's m=3 guard band
BLOCK = 12
#: p_opt and acceptance edges of the shipped design at the seed commit
SHIPPED = json.loads(Path(__file__).with_name("baseline.json").read_text(encoding="utf-8"))["shipped_design"]


@dataclass
class Design:
    geom: object
    temperature_k: float
    length_m: float
    pressures: tuple  # the table's grid over WINDOW
    invert: bool
    bracket_um: tuple[float, float]
    rejected: bool  # predicted by the closed-form resonance positions
    bracket_rejected: bool


def in_guard_band(thickness_um: float, wall_index: float, wavelengths_nm, exclusion_rel: float) -> bool:
    """True when a wavelength lies within exclusion_rel of a wall resonance
    lambda_m = (2 t / m) sqrt(n_w^2 - 1)."""
    lam1 = 2.0 * thickness_um * 1e3 * math.sqrt(wall_index**2 - 1.0)
    for lam in wavelengths_nm:
        m_near = lam1 / lam
        for m in {max(1, math.floor(m_near)), max(1, math.ceil(m_near))}:
            if abs(lam - lam1 / m) <= exclusion_rel * lam1 / m:
                return True
    return False


class Setup:
    def __init__(self, config):
        self.scheme = config.scheme()
        self.geom = config.fiber_geometry()
        self.gas = config.gas_dispersion()
        self.variant = config.index_variant()
        self.exclusion = config.resonance_exclusion_rel()
        self.wall_index = float(self.geom.wall_index)
        self.wavelengths = tuple(self.scheme.wavelengths_nm().values())
        self.shipped = Design(
            geom=self.geom, temperature_k=config.temperature_k(), length_m=config.fiber_length_m(),
            pressures=(), invert=False, bracket_um=(0.0, 0.0), rejected=False, bracket_rejected=False,
        )  # fmt: skip

    def designs(self, seed: int):
        rng = random.Random(f"design-sweep:{seed}")
        while True:
            for u in lhs_rows(rng, BLOCK, 8):
                t = THICKNESS_RANGE_UM[0] + u[0] * (THICKNESS_RANGE_UM[1] - THICKNESS_RANGE_UM[0])
                bracket = (t - 0.005 - 0.015 * u[4], t + 0.005 + 0.015 * u[5])
                yield Design(
                    geom=replace(self.geom, wall_thickness_um=t, core_radius_um=22.0 + 2.0 * u[1]),
                    temperature_k=283.0 + 20.0 * u[2],
                    length_m=log_uniform(u[3], 0.3, 3.0),
                    pressures=tuple(np.linspace(*WINDOW, round(log_uniform(u[7], *TABLE_POINTS))).tolist()),
                    invert=u[6] < 1.0 / 3.0,
                    bracket_um=bracket,
                    rejected=self.guarded(t),
                    bracket_rejected=self.guarded(bracket[0]) or self.guarded(bracket[1]),
                )

    def guarded(self, thickness_um: float) -> bool:
        return in_guard_band(thickness_um, self.wall_index, self.wavelengths, self.exclusion)

    def db(self, d: Design, p: float, fn=None) -> float:
        fn = fn or _delta_beta
        return fn(
            self.scheme, p, d.temperature_k, d.geom, self.gas,
            variant=self.variant, resonance_exclusion_rel=self.exclusion,
        )  # fmt: skip

    # -- the ops: each calls csrskit through its module attributes ---------

    def op_table(self, d: Design):
        rows = []
        for p in d.pressures:
            db = self.db(d, p, pm.delta_beta)
            rows.append((p, db, pm.phase_matching_factor(db, d.length_m)))
        return rows

    def op_optimal_pressure(self, d: Design):
        return pm.optimal_pressure(
            self.scheme, d.temperature_k, d.geom, self.gas, bracket=WINDOW,
            variant=self.variant, resonance_exclusion_rel=self.exclusion,
        )  # fmt: skip

    def op_acceptance(self, d: Design, p_opt: float):
        return pm.pressure_acceptance(
            self.scheme, d.temperature_k, d.geom, self.gas, d.length_m, p_opt,
            variant=self.variant, resonance_exclusion_rel=self.exclusion,
        )  # fmt: skip

    def op_inversion(self, d: Design, p_measured: float):
        return pm.infer_wall_thickness(
            p_measured, self.scheme, d.temperature_k, d.geom, self.gas, d.bracket_um,
            pressure_bracket=INVERSION_BRACKET_BAR, variant=self.variant,
            resonance_exclusion_rel=self.exclusion,
        )  # fmt: skip

    def measured_pressure(self, d: Design) -> float:
        """p_opt of the hidden true thickness: the inversion op's input."""
        return _optimal_pressure(
            self.scheme, d.temperature_k, d.geom, self.gas, bracket=INVERSION_BRACKET_BAR,
            variant=self.variant, resonance_exclusion_rel=self.exclusion,
        ).pressure_bar  # fmt: skip

    def op_shipped(self):
        d = self.shipped
        p_opt = self.op_optimal_pressure(d).pressure_bar
        acceptance = self.op_acceptance(d, p_opt)
        return {"p_opt_bar": p_opt, "lower_bar": acceptance.lower_bar, "upper_bar": acceptance.upper_bar}

    # -- the checks ---------------------------------------------------------

    def check_shipped(self, out) -> str:
        """The shipped design against the seed commit's values (baseline.json),
        a reference that does not come from the code under test."""
        if isinstance(out, Exception):
            return "failed"
        ok = all(abs(out[key] - value) <= 1e-8 * abs(value) for key, value in SHIPPED.items())
        return "ok" if ok else "wrong"

    def check_table(self, d: Design, out) -> str:
        if d.rejected:
            return _expect_error(out, ResonanceProximityError)
        if isinstance(out, Exception):
            return "failed"
        ok = len(out) == len(d.pressures) and all(math.isfinite(db) and 0.0 <= s <= 1.0 for _, db, s in out)
        return "ok" if ok else "wrong"

    def check_optimal_pressure(self, d: Design, out, table) -> str:
        if d.rejected:
            return _expect_error(out, ResonanceProximityError)
        if table is None:
            return "failed" if isinstance(out, Exception) else "ok"
        if table[0][1] * table[-1][1] >= 0.0:  # no sign change over the window
            return _expect_error(out, pm.NoRootError)
        if isinstance(out, Exception):
            return "failed"
        p = out.pressure_bar
        if not abs(self.db(d, p)) <= 1e-6:
            return "wrong"
        for (p0, f0, _), (p1, f1, _) in zip(table, table[1:]):
            if f0 * f1 <= 0.0 and p0 <= p <= p1:
                return "ok"
        return "wrong"

    def check_acceptance(self, d: Design, out, p_opt: float) -> str:
        if isinstance(out, Exception):
            return "failed"
        limits = (0.0, 3.0 * p_opt + 10.0)  # pressure_acceptance's default scan limits
        for edge, limit in ((out.lower_bar, limits[0]), (out.upper_bar, limits[1])):
            if edge is None:
                if _sinc2(self.db(d, limit), d.length_m) < 0.5:
                    return "wrong"
            elif not abs(_sinc2(self.db(d, edge), d.length_m) - 0.5) <= 1e-4:
                return "wrong"
        if out.bounded and not (out.lower_bar < p_opt < out.upper_bar):
            return "wrong"
        return "ok"

    def check_inversion(self, d: Design, out) -> str:
        if d.bracket_rejected:
            return _expect_error(out, pm.NoSolutionError)
        if isinstance(out, Exception):
            return "failed"
        return "ok" if abs(out.thickness_um - d.geom.wall_thickness_um) <= 2e-5 else "wrong"


def _expect_error(out, error_type) -> str:
    if isinstance(out, error_type):
        return "ok"
    return "failed" if isinstance(out, Exception) else "wrong"


def design_ops(setup: Setup, d: Design):
    """Yield (kind, call, check) for the ops of one design, in order.

    Later ops read earlier outcomes through `state`, so the generator is
    advanced only after the previous op ran and was checked.
    """
    state = {}

    def check_table(out):
        state["table"] = None if isinstance(out, Exception) else out
        return setup.check_table(d, out)

    yield "table", lambda: setup.op_table(d), check_table

    def check_p(out):
        state["p_opt"] = None if isinstance(out, Exception) else out.pressure_bar
        return setup.check_optimal_pressure(d, out, state["table"])

    yield "optimal_pressure", lambda: setup.op_optimal_pressure(d), check_p

    if state["p_opt"] is not None:
        p_opt = state["p_opt"]
        yield "pressure_acceptance", lambda: setup.op_acceptance(d, p_opt), lambda out: setup.check_acceptance(
            d, out, p_opt
        )
    if d.invert and not d.rejected:
        p_measured = setup.measured_pressure(d)
        yield "infer_wall_thickness", lambda: setup.op_inversion(d, p_measured), lambda out: setup.check_inversion(
            d, out
        )


def all_ops(setup: Setup, seed: int, designs: int | None = None):
    """The shipped-design reference op, then the ops of the seed's designs,
    endless or for the first `designs` designs."""
    yield "shipped", setup.op_shipped, setup.check_shipped
    for d in islice(setup.designs(seed), designs):
        yield from design_ops(setup, d)


def run(ctx, seed: int, seconds: float) -> Record:
    load(ctx)
    return drive(all_ops(Setup(ctx.config), seed), deadline=time.perf_counter() + seconds)


TRACED_DESIGNS = 36


def reference_counts(ctx) -> dict:
    """Evaluation counts on the shipped design (seed-commit values: optimal
    pressure 8 delta_beta calls over (1, 200) bar; acceptance 165 calls at
    1.85 m and 838 at 0.3 m; inversion over 1.26-1.29 um 231 calls)."""
    setup = Setup(ctx.config)
    t_k = ctx.config.temperature_k()
    out = {}
    with Tracer(TARGETS) as tracer:
        sol = pm.optimal_pressure(
            setup.scheme, t_k, setup.geom, setup.gas, variant=setup.variant,
            resonance_exclusion_rel=setup.exclusion,
        )  # fmt: skip
        out["phasematch.optimal_pressure.delta_beta_ref"] = tracer.stats["phasematch.delta_beta"].calls
        for length, key in ((1.85, "delta_beta_ref_1.85m"), (0.3, "delta_beta_ref_0.3m")):
            before = tracer.stats["phasematch.delta_beta"].calls
            pm.pressure_acceptance(
                setup.scheme, t_k, setup.geom, setup.gas, length, sol.pressure_bar,
                variant=setup.variant, resonance_exclusion_rel=setup.exclusion,
            )  # fmt: skip
            out["phasematch.pressure_acceptance." + key] = tracer.stats["phasematch.delta_beta"].calls - before
        before = tracer.stats["phasematch.delta_beta"].calls
        pm.infer_wall_thickness(
            sol.pressure_bar, setup.scheme, t_k, setup.geom, setup.gas, (1.26, 1.29),
            variant=setup.variant, resonance_exclusion_rel=setup.exclusion,
        )  # fmt: skip
        out["phasematch.infer_wall_thickness.delta_beta_ref"] = tracer.stats["phasematch.delta_beta"].calls - before
    return {k: float(v) for k, v in out.items()}


def traced(ctx, seed: int, tracer: Tracer) -> tuple[dict, Record]:
    """Per-layer run over the first TRACED_DESIGNS designs, plus the reference counts."""
    setup = Setup(ctx.config)
    extra, record = untraced_then_traced(lambda: all_ops(setup, seed, TRACED_DESIGNS), tracer)
    extra.update(reference_counts(ctx))
    return extra, record
