"""Parameter estimation for the toolkit's three measured curve shapes.

fit_cutback
    Cut-back transmission in dB versus fiber length is linear,
    T = -alpha L + intercept; ordinary (optionally sigma-weighted) least
    squares in the dB domain keeps the problem convex.  The intercept
    absorbs incoupling losses, alpha is reported positive for decaying
    transmission.

fit_efficiency_length
    Conversion efficiency versus length with a fixed loss model is
    linear in the lumped coefficient C; a one-parameter least-squares
    solve recovers C in % / (W^2 m^2).

fit_bend_saturation
    Optimal pressure versus bend radius follows the saturation curve
    p = p_max (1 - exp(-b (r - r0))); fitted by damped Gauss-Newton
    with deterministic auto-initialization (p_max = max y, r0 = min x,
    b from the two-point slope at the small-radius end).

Standard errors come from the Jacobian at the solution scaled by the
reduced chi-square and are reported only when there is at least one
degree of freedom.  Non-convergence is flagged on the result, never
raised; the best iterate is always returned.

The problems are tiny (a 2x2, a 1x1 and a 3x3 system over a few dozen
points), so everything is plain Python floats and ``math``: the normal
equations are accumulated in one pass over the points and solved by
Gaussian elimination with partial pivoting.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from csrskit.efficiency import EfficiencyModel, _efficiency

__all__ = [
    "DataSeries",
    "FitResult",
    "fit_cutback",
    "fit_efficiency_length",
    "fit_bend_saturation",
]


def _reals(values, name: str) -> list[float]:
    """values as a list of Python floats; ValueError unless it is a 1-d sequence of reals."""
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a 1-d sequence of real numbers") from None


@dataclass(frozen=True)
class DataSeries:
    """Measured (x, y) points with optional per-point uncertainties.

    Any sequences of reals are accepted (lists, tuples, 1-d arrays); they
    are validated element by element and stored as given.
    """

    x: Sequence[float]
    y: Sequence[float]
    sigma: Sequence[float] | None = None
    x_unit: str = ""
    y_unit: str = ""

    def __post_init__(self) -> None:
        x, y = _reals(self.x, "x"), _reals(self.y, "y")
        if len(x) != len(y):
            raise ValueError("x and y must have equal length")
        if not x:
            raise ValueError("series must contain at least one point")
        if self.sigma is not None:
            s = _reals(self.sigma, "sigma")
            if len(s) != len(x):
                raise ValueError("sigma must match x in length")
            if not all(math.isfinite(v) and v > 0 for v in s):
                raise ValueError("sigma values must be finite and positive")
        if not (all(map(math.isfinite, x)) and all(map(math.isfinite, y))):
            raise ValueError("series values must be finite")

    def __len__(self) -> int:
        return len(self.x)

    @property
    def weights(self) -> list[float]:
        if self.sigma is None:
            return [1.0] * len(self)
        return [1.0 / (s * s) for s in _reals(self.sigma, "sigma")]

    @classmethod
    def from_csv(cls, path: str | Path, x_unit: str = "", y_unit: str = "") -> "DataSeries":
        """Read a series from CSV with header x,y[,sigma]; '#' comments allowed."""
        path = Path(path)
        xs: list[float] = []
        ys: list[float] = []
        sig: list[float] = []
        header: list[str] | None = None
        for line_number, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            cells = [c.strip() for c in stripped.split(",")]
            if header is None:
                header = cells
                if header[:2] != ["x", "y"] or (len(header) == 3 and header[2] != "sigma") or len(header) > 3:
                    raise ValueError(f"{path}:{line_number}: header must be x,y or x,y,sigma, got {cells}")
                continue
            if len(cells) != len(header):
                raise ValueError(f"{path}:{line_number}: expected {len(header)} fields, got {len(cells)}")
            try:
                values = [float(c) for c in cells]
            except ValueError as exc:
                raise ValueError(f"{path}:{line_number}: non-numeric field ({exc})") from None
            xs.append(values[0])
            ys.append(values[1])
            if len(values) == 3:
                sig.append(values[2])
        if header is None:
            raise ValueError(f"{path}: empty data file")
        return cls(x=xs, y=ys, sigma=sig or None, x_unit=x_unit, y_unit=y_unit)


@dataclass(frozen=True)
class FitResult:
    parameters: dict[str, float]
    standard_errors: dict[str, float] | None
    residual_norm: float
    converged: bool
    iterations: int = 0


def _solve(a: list[list[float]], rhs: list[list[float]]) -> tuple[list[list[float]], bool]:
    """Solve a @ x = r for every r in rhs by Gaussian elimination with partial pivoting.

    Returns the solutions and whether a pivot was exactly zero.  An unknown
    whose column has no nonzero pivot is set to 0: for normal equations
    with an exactly zero Jacobian column that is the minimum-norm
    least-squares step.
    """
    n = len(a)
    rows = [a[i] + [r[i] for r in rhs] for i in range(n)]
    singular = False
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        pivot = rows[p]
        if pivot[k] == 0.0:
            singular = True
            continue
        rows[k], rows[p] = pivot, rows[k]
        for i in range(k + 1, n):
            factor = rows[i][k] / pivot[k]
            if factor:
                rows[i] = [u - factor * v for u, v in zip(rows[i], pivot)]
    solutions = []
    for j in range(n, n + len(rhs)):
        x = [0.0] * n
        for k in range(n - 1, -1, -1):
            row = rows[k]
            if row[k] != 0.0:
                x[k] = (row[j] - sum(row[m] * x[m] for m in range(k + 1, n))) / row[k]
        solutions.append(x)
    return solutions, singular


def _standard_errors(names, normal: list[list[float]], wrss: float, dof: int) -> dict[str, float] | None:
    """sqrt(diag(inv(normal)) * wrss / dof), or None without a degree of freedom or a usable inverse."""
    if dof < 1:
        return None
    n = len(normal)
    columns, singular = _solve(normal, [[float(i == j) for i in range(n)] for j in range(n)])
    variances = [columns[k][k] * (wrss / dof) for k in range(n)]
    if singular or not all(v >= 0 for v in variances):
        return None
    return {name: math.sqrt(v) for name, v in zip(names, variances)}


def fit_cutback(series: DataSeries) -> FitResult:
    """Least-squares line through (length m, transmission dB) cut-back data.

    Returns alpha_db_per_m (positive for decaying transmission) and
    intercept_db.  The normal equations are accumulated about the
    weighted means of x and y, so the size of the intercept adds no
    rounding to the slope or the standard errors: the exact line
    y = 9x - 72 fits with standard errors of exactly 0.
    """
    if len(series) < 3:
        raise ValueError("cut-back fit needs at least 3 points")
    x, y, w = _reals(series.x, "x"), _reals(series.y, "y"), series.weights
    if max(x) == min(x):
        raise ValueError("cut-back fit needs at least two distinct lengths")
    sw = swx = swy = 0.0
    for xi, yi, wi in zip(x, y, w):
        sw += wi
        swx += wi * xi
        swy += wi * yi
    x_mean, y_mean = swx / sw, swy / sw
    suu = suv = 0.0
    for xi, yi, wi in zip(x, y, w):
        wu = wi * (xi - x_mean)
        suu += wu * (xi - x_mean)
        suv += wu * (yi - y_mean)
    if suu == 0.0:
        raise ValueError("cut-back fit: the normal equations are singular")
    slope = suv / suu
    intercept = y_mean - slope * x_mean
    wrss = 0.0
    for xi, yi, wi in zip(x, y, w):
        r = yi - (slope * xi + intercept)
        wrss += wi * (r * r)
    # the centred system is diagonal: var(slope) = s^2 / suu, var(intercept) = s^2 (1/sw + mean^2 / suu)
    variance = wrss / (len(x) - 2)
    return FitResult(
        parameters={"alpha_db_per_m": -slope, "intercept_db": intercept},
        standard_errors={
            "alpha_db_per_m": math.sqrt(variance / suu),
            "intercept_db": math.sqrt(variance * (1.0 / sw + x_mean * x_mean / suu)),
        },
        residual_norm=math.sqrt(wrss),
        converged=True,
        iterations=1,
    )


def fit_efficiency_length(series: DataSeries, model, pump1, pump2, probe) -> FitResult:
    """One-parameter fit of the lumped coefficient C to (length m, eta) data.

    The loss model is held fixed (attenuations come from the fields and
    the model, they are not fitted); only the overall coefficient scales.
    C is reported in % / (W^2 m^2).  Raises ValueError, naming the value,
    unless every length is positive.
    """
    x, y, w = _reals(series.x, "x"), _reals(series.y, "y"), series.weights
    for length in x:
        if not length > 0.0:
            raise ValueError(f"fiber lengths must be positive, got x = {length!r}")
    if all(v == 0 for v in y):
        raise ValueError("all efficiencies are zero; the coefficient is unidentifiable")
    unit = EfficiencyModel(
        coefficient_pct_per_w2m2=1.0,
        loss_variant=model.loss_variant,
        signal_attenuation_db_per_m=model.signal_attenuation_db_per_m,
    )
    p1, p2 = pump1.coupled_power_w, pump2.coupled_power_w
    a1, a2, ap = pump1._alpha_per_m, pump2._alpha_per_m, probe._alpha_per_m  # stored by LightField, in 1/m
    shape = [_efficiency(unit, p1, p2, a1, a2, ap, length) for length in x]
    denom = sum(wi * (s * s) for wi, s in zip(w, shape))
    if denom == 0:
        raise ValueError("model shape vanishes at every supplied length")
    coeff = sum(wi * s * yi for wi, s, yi in zip(w, shape, y)) / denom
    wrss = 0.0
    for wi, s, yi in zip(w, shape, y):
        r = yi - coeff * s
        wrss += wi * (r * r)
    dof = len(x) - 1
    errors = {"coefficient_pct_per_w2m2": math.sqrt((wrss / dof) / denom)} if dof >= 1 else None
    return FitResult(
        parameters={"coefficient_pct_per_w2m2": coeff},
        standard_errors=errors,
        residual_norm=math.sqrt(wrss),
        converged=True,
        iterations=1,
    )


def _exp_or_inf(t: float) -> float:
    """math.exp, but +inf on overflow as an array exp gives, instead of OverflowError."""
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


def _wrss(x, y, sqrt_w, p_max: float, b: float, r0: float) -> float:
    """Weighted sum of squared residuals of the saturation curve; +inf if any residual is not finite."""
    total = 0.0
    try:
        for xi, yi, si in zip(x, y, sqrt_w):
            r = (yi - p_max * (1.0 - math.exp(-b * (xi - r0)))) * si
            total += r * r
    except OverflowError:
        return math.inf
    return math.inf if math.isnan(total) else total


def _normal_equations(x, y, sqrt_w, p_max: float, b: float, r0: float, exp=math.exp):
    """J^T J (3x3) and J^T r (3) of the weighted saturation residuals, in one pass."""
    s00 = s01 = s02 = s11 = s12 = s22 = g0 = g1 = g2 = 0.0
    for xi, yi, si in zip(x, y, sqrt_w):
        d = xi - r0
        decay = exp(-b * d)
        j0 = (1.0 - decay) * si
        j1 = p_max * d * decay * si
        j2 = -p_max * b * decay * si
        r = (yi - p_max * (1.0 - decay)) * si
        s00 += j0 * j0
        s01 += j0 * j1
        s02 += j0 * j2
        s11 += j1 * j1
        s12 += j1 * j2
        s22 += j2 * j2
        g0 += j0 * r
        g1 += j1 * r
        g2 += j2 * r
    return [[s00, s01, s02], [s01, s11, s12], [s02, s12, s22]], [g0, g1, g2]


def _saturation_normal_equations(x, y, sqrt_w, params):
    try:
        return _normal_equations(x, y, sqrt_w, *params)
    except OverflowError:  # only from a start whose residuals already overflow
        return _normal_equations(x, y, sqrt_w, *params, exp=_exp_or_inf)


#: Smallest radius gap, as a share of the radius span, that the automatic start
#: takes its slope from: over radii 1 ulp apart the slope is noise and sent the
#: fit to b ~ 1e8.  Every bend series in the first 20 000 perfbench analysis-batch
#: jobs of seeds 1 and 97 has its first gap above 1.4e-6 of the span.
_START_GAP_SHARE = 1e-6


def _auto_initial(x: list[float], y: list[float]) -> tuple[float, float, float]:
    order = sorted(range(len(x)), key=x.__getitem__)
    xs, ys = [x[i] for i in order], [y[i] for i in order]
    p_max = max(ys)
    if p_max <= 0:
        p_max = 1.0
    r0 = xs[0]
    b = 0.0
    min_gap = _START_GAP_SHARE * (xs[-1] - xs[0])
    for i in range(len(xs) - 1):
        if xs[i + 1] - xs[i] > min_gap:
            slope = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
            b = abs(slope) / p_max
            break
    if b <= 0:
        b = 1.0 / max(xs[-1] - xs[0], 1.0)
    return p_max, b, r0


def _step_below(new: list[float], old: list[float], step_tol: float) -> bool:
    """True when every parameter moved by less than step_tol relative to its old value."""
    return all(abs(c - p) / max(abs(p), 1e-12) < step_tol for c, p in zip(new, old))


def fit_bend_saturation(
    series: DataSeries,
    initial: tuple[float, float, float] | None = None,
    max_iterations: int = 200,
    step_tol: float = 1e-8,
) -> FitResult:
    """Damped Gauss-Newton fit of p = p_max (1 - exp(-b (r - r0))).

    Converged when the largest relative parameter step drops below
    step_tol; otherwise the best iterate is returned with
    converged=False.  When no step halving lowers the weighted SSR the
    fit stops at the current iterate.  It counts as converged only if the
    undamped step passes the step_tol test or the SSR decrease the
    linearised model predicts for it is below step_tol of the SSR (the
    minimum to rounding); a start no step can improve is not converged.
    """
    if len(series) < 4:
        raise ValueError("bend saturation fit needs at least 4 points")
    x, y = _reals(series.x, "x"), _reals(series.y, "y")
    sqrt_w = [math.sqrt(wi) for wi in series.weights]
    params = [float(p) for p in (initial if initial is not None else _auto_initial(x, y))]

    current = _wrss(x, y, sqrt_w, *params)
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        normal, gradient = _saturation_normal_equations(x, y, sqrt_w, params)
        (step,), _ = _solve(normal, [gradient])
        # damping: halve the step until the weighted SSR stops increasing
        scale = 1.0
        for _ in range(30):
            candidate = [p + scale * s for p, s in zip(params, step)]
            new = _wrss(x, y, sqrt_w, *candidate)
            if new <= current:
                break
            scale *= 0.5
        else:
            # No halving lowers the SSR: stop at params.  That is convergence
            # only if the full step is already below step_tol, or if the SSR
            # decrease Gauss-Newton promises for it (step . J^T r) is below
            # step_tol of the SSR, so that rounding at the minimum hides it.
            promised = sum(s * g for s, g in zip(step, gradient))
            converged = promised <= step_tol * current or _step_below(
                [p + s for p, s in zip(params, step)], params, step_tol
            )
            break
        small = _step_below(candidate, params, step_tol)
        params, current = candidate, new
        if small:
            converged = True
            break

    normal, _ = _saturation_normal_equations(x, y, sqrt_w, params)
    errors = _standard_errors(("p_max", "b", "r0"), normal, current, len(x) - 3)
    return FitResult(
        parameters={"p_max": params[0], "b": params[1], "r0": params[2]},
        standard_errors=errors,
        residual_norm=math.sqrt(current),
        converged=converged,
        iterations=iterations,
    )
