"""analysis-batch: warm, in-process analysis jobs on seeded synthetic measurements.

One op is one job: fit a synthetic series (cut-back, efficiency versus
length or bend saturation; 6-60 points, seeded noise), then for the fitted
model under each loss variant take the optimal length for a seeded loss set
(log-uniform 0.001-1 dB/m per beam) and a 100-point efficiency sweep, do the
loss bookkeeping, sweep mode accessibility over bend radius, and screen a
seeded beam set and bandpass against the shipped line catalog.  The job
never evaluates effective_core_index or delta_beta.
"""

from __future__ import annotations

import math
import random
import time
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from csrskit import bendloss, efficiency as eff, fitting, raman_screen
from csrskit.core_model import FiberGeometry

from common import Record, drive, lhs_rows, load, log_uniform, rel_close, untraced_then_traced
from tracing import Tracer

LOSS_DB_PER_M = (0.001, 1.0)
SEARCH_BOUNDS_M = (1e-3, 1e3)  # optimal_length's default search interval
SWEEP_LENGTHS_M = [float(x) for x in np.linspace(0.1, 25.0, 100)]
RADII_M = [float(x) for x in np.linspace(0.05, 0.60, 56)]
FIBER_LENGTH_M = 1.85
SHIPPED_COEFFICIENT = 0.0044
PUMP_POWERS_W = (3.0, 3.0, 0.001)
STRENGTH_THRESHOLD = 0.01
KINDS = ("cutback", "efficiency", "bend")
BLOCK = 12
J01, J11 = 2.404825557695773, 3.8317059702075125  # first zeros of J0 and J1
_LN10 = math.log(10.0)


@dataclass
class Job:
    kind: str
    series: fitting.DataSeries
    truth: dict
    noise_sd: np.ndarray  # per-point noise standard deviation of y
    losses_db: tuple  # pump1, pump2, probe, signal
    fields: tuple  # LightField pump1, pump2, probe
    geom: FiberGeometry
    probe_nm: float
    beams: tuple  # LightField pump1, pump2, probe for screening
    bandpass: raman_screen.BandpassFilter


def jobs(seed: int):
    rows = random.Random(f"analysis-batch:{seed}")
    noise = np.random.default_rng([seed, 3])
    while True:
        for u in lhs_rows(rows, BLOCK, 19):
            yield _job(noise, u)


def _job(rng, u) -> Job:
    kind = KINDS[min(int(u[0] * 3), 2)]
    n = 6 + min(int(u[1] * 55), 54)
    losses = tuple(log_uniform(x, *LOSS_DB_PER_M) for x in u[2:6])
    incoupling = 0.5 + 0.5 * u[6]
    fields = tuple(
        eff.LightField(wavelength_nm=lam, power_w=p, attenuation_db_per_m=a, incoupling=incoupling)
        for lam, p, a in zip((1550.0, 942.0, 914.0), PUMP_POWERS_W, losses[:3])
    )
    z = rng.standard_normal(n)
    if kind == "cutback":
        alpha, intercept = 0.02 + 1.48 * u[7], -3.0 + 2.8 * u[8]
        x = np.sort(rng.uniform(0.2, 20.0, n))
        sd = np.full(n, log_uniform(u[9], 0.001, 0.05))
        y = -alpha * x + intercept + sd * z
        truth = {"alpha_db_per_m": alpha, "intercept_db": intercept}
    elif kind == "efficiency":
        coefficient = 0.001 + 0.009 * u[7]
        x = np.sort(rng.uniform(0.1, 10.0, n))
        eta = coefficient * _shape(x, "lumped-exponential", losses, fields)
        sd = eta * log_uniform(u[9], 1e-3, 3e-2)
        y = eta + sd * z
        truth = {"coefficient_pct_per_w2m2": coefficient}
    else:
        p_max, b, r0 = 60.0 + 50.0 * u[7], 3.0 + 12.0 * u[8], 0.05 + 0.07 * u[10]
        x = np.sort(rng.uniform(r0 + 0.005, r0 + 4.0 / b, n))
        sd = np.full(n, log_uniform(u[9], 0.01, 0.5))
        y = p_max * (1.0 - np.exp(-b * (x - r0))) + sd * z
        truth = {"p_max": p_max, "b": b, "r0": r0}
    core = 18.0 + 10.0 * u[11]
    geom = FiberGeometry(
        core_radius_um=core,
        capillary_inner_radius_um=core * (0.6 + 0.3 * u[12]),
        wall_thickness_um=1.28,
        num_capillaries=7,
    )
    beams = tuple(
        eff.LightField(wavelength_nm=lam, power_w=1.0)
        for lam in (1450.0 + 200.0 * u[13], 900.0 + 100.0 * u[14], 850.0 + 100.0 * u[15])
    )
    return Job(
        kind=kind,
        series=fitting.DataSeries(x=x, y=y),
        truth=truth,
        noise_sd=sd,
        losses_db=losses,
        fields=fields,
        geom=geom,
        probe_nm=800.0 + 200.0 * u[16],
        beams=beams,
        bandpass=raman_screen.BandpassFilter(center_nm=1350.0 + 250.0 * u[17], width_nm=5.0 + 55.0 * u[18]),
    )


# -- the op -----------------------------------------------------------------


def run_job(job: Job, catalog) -> dict:
    """One analysis job, calling csrskit through its module attributes."""
    out = {}
    if job.kind == "cutback":
        out["fit"] = fitting.fit_cutback(job.series)
    elif job.kind == "bend":
        out["fit"] = fitting.fit_bend_saturation(job.series)
    else:
        unit = eff.EfficiencyModel(1.0, "lumped-exponential", job.losses_db[3])
        out["fit"] = fitting.fit_efficiency_length(job.series, unit, *job.fields)
    coefficient = out["fit"].parameters.get("coefficient_pct_per_w2m2", SHIPPED_COEFFICIENT)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", eff.ModelValidityWarning)
        for variant in eff.LOSS_VARIANTS:
            model = eff.EfficiencyModel(coefficient, variant, job.losses_db[3])
            try:
                out["optimum", variant] = eff.optimal_length(model, *job.fields)
            except eff.UnboundedOptimumError as exc:
                out["optimum", variant] = exc
            out["sweep", variant] = [eff.predicted_efficiency(model, *job.fields, L) for L in SWEEP_LENGTHS_M]
        lumped = eff.EfficiencyModel(coefficient, "lumped-exponential", job.losses_db[3])
        per_w2 = eff.predicted_efficiency(lumped, *job.fields, FIBER_LENGTH_M) * 100.0 / _power_product(job.fields)
    out["coefficient"] = coefficient
    out["book"] = eff.loss_bookkeeping(coefficient, per_w2, FIBER_LENGTH_M, *job.losses_db[:3])
    out["access"] = [bendloss.mode_accessibility(job.geom, job.probe_nm, r) for r in RADII_M]
    out["flags"] = raman_screen.screen(list(job.beams[:2]), job.beams[2], catalog, job.bandpass, STRENGTH_THRESHOLD)
    return out


# -- the benchmark's own reference computations and checks -------------------


def _power_product(fields) -> float:
    return fields[0].coupled_power_w * fields[1].coupled_power_w


def _linear(db: float) -> float:
    return db * _LN10 / 10.0


def _shape(lengths, variant: str, losses_db, fields) -> np.ndarray:
    """Efficiency per unit coefficient (%/(W^2 m^2)), the model's closed form."""
    L = np.asarray(lengths, dtype=float)
    a1, a2, ap, a_s = (_linear(x) for x in losses_db)
    base = _power_product(fields) / 100.0
    if variant == "lossless":
        return base * L**2
    if variant == "lumped-exponential":
        return base * L**2 * np.exp(-(a1 + a2 + ap + a_s) * L)
    a = 0.5 * (a1 + a2 + ap - a_s)
    growth = L if a == 0.0 else -np.expm1(-a * L) / a
    return base * np.exp(-a_s * L) * growth**2


def closed_form_length(variant: str, losses_db) -> float:
    """L* = 2 / sum(alpha) (lumped-exponential); ln(1 + 2a/alpha_s) / a with
    a = (alpha_1 + alpha_2 + alpha_p - alpha_s) / 2 (amplitude-integral)."""
    a1, a2, ap, a_s = (_linear(x) for x in losses_db)
    if variant == "lumped-exponential":
        return 2.0 / (a1 + a2 + ap + a_s)
    a = 0.5 * (a1 + a2 + ap - a_s)
    return 2.0 / a_s if a == 0.0 else math.log1p(2.0 * a / a_s) / a


def _fit_verdict(job: Job, fit) -> str:
    x, y, sd = job.series.x, job.series.y, job.noise_sd
    if job.kind == "cutback":
        design = np.column_stack([x, np.ones_like(x)])
        own, *_ = np.linalg.lstsq(design, y, rcond=None)
        got = np.array([-fit.parameters["alpha_db_per_m"], fit.parameters["intercept_db"]])
        if not np.allclose(got, own, rtol=1e-9, atol=1e-9):
            return "wrong"
        cov = np.linalg.inv(design.T @ design) * sd[0] ** 2
        truth = np.array([-job.truth["alpha_db_per_m"], job.truth["intercept_db"]])
        return "ok" if np.all(np.abs(got - truth) <= 6.0 * np.sqrt(np.diag(cov))) else "wrong"
    if job.kind == "efficiency":
        s = _shape(x, "lumped-exponential", job.losses_db, job.fields)
        own = float(np.sum(s * y) / np.sum(s * s))
        got = fit.parameters["coefficient_pct_per_w2m2"]
        spread = math.sqrt(float(np.sum(s * s * sd * sd))) / float(np.sum(s * s))
        ok = rel_close(got, own, 1e-9) and abs(got - job.truth["coefficient_pct_per_w2m2"]) <= 6.0 * spread
        return "ok" if ok else "wrong"
    truth = np.array([job.truth[k] for k in ("p_max", "b", "r0")])
    got = np.array([fit.parameters[k] for k in ("p_max", "b", "r0")])
    p_max, b, r0 = truth
    decay = np.exp(-b * (x - r0))
    jac = np.column_stack([1.0 - decay, p_max * (x - r0) * decay, -p_max * b * decay]) / sd[:, None]
    spread = np.sqrt(np.diag(np.linalg.inv(jac.T @ jac)))
    if fit.converged and np.all(np.abs(got - truth) <= 8.0 * spread):
        return "ok"
    # Damped Gauss-Newton from the automatic start can stop short of the
    # least-squares minimum: the documented defect.  It is recognised only
    # where that minimum demonstrably lies near the truth: the fit is finite,
    # and a re-fit started from the generating parameters converges within
    # 8 sigma of them to a smaller residual.
    if not np.all(np.isfinite(got)):
        return "wrong"
    refit = fitting.fit_bend_saturation(job.series, initial=tuple(truth))
    better = np.array([refit.parameters[k] for k in ("p_max", "b", "r0")])
    if refit.converged and np.all(np.abs(better - truth) <= 8.0 * spread) and refit.residual_norm < fit.residual_norm:
        return "known"
    return "wrong"


def optimum_verdict(job: Job, variant: str, optimum) -> str:
    """Judge optimal_length against its closed form."""
    if variant == "lossless":
        return "ok" if isinstance(optimum, eff.UnboundedOptimumError) else "wrong"
    if isinstance(optimum, Exception):
        return "wrong"
    length = closed_form_length(variant, job.losses_db)
    if rel_close(optimum.length_m, length, 1e-6):
        return "ok"
    # optimal_length searches only SEARCH_BOUNDS_M and hands back the bound it
    # ran into as if it were the optimum: the documented defect
    lo, hi = SEARCH_BOUNDS_M
    if length > hi and rel_close(optimum.length_m, hi, 1e-6) or length < lo and rel_close(optimum.length_m, lo, 1e-6):
        return "known"
    return "wrong"


def check_job(job: Job, out, catalog) -> str:
    if isinstance(out, Exception):
        return "failed"
    verdicts = [_fit_verdict(job, out["fit"])]
    coefficient = out["coefficient"]
    for variant in eff.LOSS_VARIANTS:
        expected = coefficient * _shape(SWEEP_LENGTHS_M, variant, job.losses_db, job.fields)
        verdicts.append("ok" if np.allclose(out["sweep", variant], expected, rtol=1e-9, atol=0.0) else "wrong")
        optimum = out["optimum", variant]
        verdicts.append(optimum_verdict(job, variant, optimum))
        if not isinstance(optimum, Exception):
            eta = coefficient * float(_shape([optimum.length_m], variant, job.losses_db, job.fields)[0])
            verdicts.append("ok" if rel_close(optimum.efficiency, eta, 1e-9) else "wrong")
    book = out["book"]
    total = sum(job.losses_db)
    book_ok = abs(book.total_attenuation_db_per_m - total) <= 1e-9 * max(1.0, total) and abs(
        book.signal_attenuation_db_per_m - job.losses_db[3]
    ) <= 1e-9 * max(1.0, total)
    verdicts.append("ok" if book_ok else "wrong")
    verdicts.append("ok" if _access_ok(job, out["access"]) else "wrong")
    verdicts.append("ok" if _flags_ok(job, out["flags"], catalog) else "wrong")
    for worst in ("wrong", "known"):
        if worst in verdicts:
            return worst
    return "ok"


def _access_ok(job: Job, access) -> bool:
    lam = job.probe_nm * 1e-9

    def marcatili(j: float, radius_um: float) -> float:
        u = j * lam / (2.0 * math.pi * radius_um * 1e-6)
        return 1.0 - 0.5 * u * u

    n_core = marcatili(J01, job.geom.core_radius_um)
    n_clad = marcatili(J11, job.geom.capillary_inner_radius_um)
    d = (job.geom.core_radius_um + job.geom.capillary_inner_radius_um) * 1e-6
    critical = d / (math.sqrt(n_core / n_clad) - 1.0)
    for radius, verdicts in zip(RADII_M, access):
        lp01, lp11 = verdicts
        if not rel_close(lp01.limiting_radius_m, critical, 1e-9):
            return False
        if abs(radius - critical) > 1e-9 * critical and lp01.suppressed != (radius < critical):
            return False
        if lp11.suppressed or lp11.limiting_radius_m is not None:
            return False
    return True


def _flags_ok(job: Job, flags, catalog) -> bool:
    band = job.bandpass
    lo, hi = band.center_nm - 0.5 * band.width_nm, band.center_nm + 0.5 * band.width_nm
    sources = [("pump1", job.beams[0].wavelength_nm), ("pump2", job.beams[1].wavelength_nm)]
    sources.append(("probe", job.beams[2].wavelength_nm))
    expected = []
    for name, lam in sources:
        for line in catalog.lines:
            if line.rel_strength < STRENGTH_THRESHOLD:
                continue
            inv_stokes = 1.0 / lam - line.nu0_cm1 * 1e-7
            landings = [("anti-stokes", 1.0 / (1.0 / lam + line.nu0_cm1 * 1e-7))]
            if inv_stokes > 0:
                landings.append(("stokes", 1.0 / inv_stokes))
            expected += [(name, line, d, w) for d, w in landings if lo <= w <= hi]
    expected.sort(key=lambda f: (-f[1].rel_strength, f[1].nu0_cm1, f[0], f[2]))
    if len(expected) != len(flags):
        return False
    for (name, line, direction, lam), flag in zip(expected, flags):
        if (flag.source, flag.line, flag.direction) != (name, line, direction):
            return False
        if not rel_close(flag.wavelength_nm, lam, 1e-12):
            return False
    return True


# -- runs ---------------------------------------------------------------------


def all_ops(ctx, seed: int, count: int | None = None):
    """(kind, call, check) per job, endless or for the first `count` jobs."""
    for job in islice(jobs(seed), count):
        yield job.kind, partial(run_job, job, ctx.catalog), partial(check_job, job, catalog=ctx.catalog)


def run(ctx, seed: int, seconds: float) -> Record:
    load(ctx)
    return drive(all_ops(ctx, seed), deadline=time.perf_counter() + seconds)


TRACED_JOBS = 600


def traced(ctx, seed: int, tracer: Tracer) -> tuple[dict, Record]:
    """Per-layer run over the first TRACED_JOBS jobs."""
    return untraced_then_traced(lambda: all_ops(ctx, seed, TRACED_JOBS), tracer)
