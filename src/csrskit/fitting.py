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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from csrskit.efficiency import EfficiencyModel, efficiency_from_powers

__all__ = [
    "DataSeries",
    "FitResult",
    "fit_cutback",
    "fit_efficiency_length",
    "fit_bend_saturation",
]


@dataclass(frozen=True)
class DataSeries:
    """Measured (x, y) points with optional per-point uncertainties."""

    x: np.ndarray
    y: np.ndarray
    sigma: np.ndarray | None = None
    x_unit: str = ""
    y_unit: str = ""

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 1 or x.shape != y.shape:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if x.size == 0:
            raise ValueError("series must contain at least one point")
        if self.sigma is not None:
            s = np.asarray(self.sigma, dtype=float)
            object.__setattr__(self, "sigma", s)
            if s.shape != x.shape:
                raise ValueError("sigma must match x in length")
            if not np.all(np.isfinite(s)) or np.any(s <= 0):
                raise ValueError("sigma values must be finite and positive")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("series values must be finite")

    def __len__(self) -> int:
        return int(self.x.size)

    @property
    def weights(self) -> np.ndarray:
        if self.sigma is None:
            return np.ones_like(self.x)
        return 1.0 / self.sigma**2

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
        sigma = np.array(sig) if sig else None
        return cls(x=np.array(xs), y=np.array(ys), sigma=sigma, x_unit=x_unit, y_unit=y_unit)


@dataclass(frozen=True)
class FitResult:
    parameters: dict[str, float]
    standard_errors: dict[str, float] | None
    residual_norm: float
    converged: bool
    iterations: int = 0


def _linear_errors(design: np.ndarray, weights: np.ndarray, residuals: np.ndarray) -> np.ndarray | None:
    n, p = design.shape
    dof = n - p
    if dof < 1:
        return None
    wrss = float(np.sum(weights * residuals**2))
    cov = np.linalg.inv((design * weights[:, None]).T @ design) * (wrss / dof)
    return np.sqrt(np.diag(cov))


def fit_cutback(series: DataSeries) -> FitResult:
    """Least-squares line through (length m, transmission dB) cut-back data.

    Returns alpha_db_per_m (positive for decaying transmission) and
    intercept_db.
    """
    if len(series) < 3:
        raise ValueError("cut-back fit needs at least 3 points")
    x, y, w = series.x, series.y, series.weights
    if np.ptp(x) == 0:
        raise ValueError("cut-back fit needs at least two distinct lengths")
    design = np.column_stack([x, np.ones_like(x)])
    lhs = (design * w[:, None]).T @ design
    rhs = (design * w[:, None]).T @ y
    slope, intercept = np.linalg.solve(lhs, rhs)
    residuals = y - (slope * x + intercept)
    errors = _linear_errors(design, w, residuals)
    return FitResult(
        parameters={"alpha_db_per_m": -slope, "intercept_db": intercept},
        standard_errors=None if errors is None else {"alpha_db_per_m": errors[0], "intercept_db": errors[1]},
        residual_norm=float(np.sqrt(np.sum(w * residuals**2))),
        converged=True,
        iterations=1,
    )


def fit_efficiency_length(series: DataSeries, model, pump1, pump2, probe, sinc_factor: float = 1.0) -> FitResult:
    """One-parameter fit of the lumped coefficient C to (length m, eta) data.

    The loss model is held fixed (attenuations come from the fields and
    the model, they are not fitted); only the overall coefficient scales.
    C is reported in % / (W^2 m^2).
    """
    if np.all(series.y == 0):
        raise ValueError("all efficiencies are zero; the coefficient is unidentifiable")
    unit = EfficiencyModel(
        coefficient_pct_per_w2m2=1.0,
        loss_variant=model.loss_variant,
        signal_attenuation_db_per_m=model.signal_attenuation_db_per_m,
    )
    shape = np.array(
        [
            efficiency_from_powers(
                unit,
                pump1.coupled_power_w,
                pump2.coupled_power_w,
                pump1.attenuation_db_per_m,
                pump2.attenuation_db_per_m,
                probe.attenuation_db_per_m,
                length,
                sinc_factor,
            )
            for length in series.x
        ]
    )
    w = series.weights
    denom = float(np.sum(w * shape**2))
    if denom == 0:
        raise ValueError("model shape vanishes at every supplied length")
    coeff = float(np.sum(w * shape * series.y) / denom)
    residuals = series.y - coeff * shape
    dof = len(series) - 1
    errors = None
    if dof >= 1:
        wrss = float(np.sum(w * residuals**2))
        errors = {"coefficient_pct_per_w2m2": math.sqrt((wrss / dof) / denom)}
    return FitResult(
        parameters={"coefficient_pct_per_w2m2": coeff},
        standard_errors=errors,
        residual_norm=float(np.sqrt(np.sum(w * residuals**2))),
        converged=True,
        iterations=1,
    )


def _saturation(x: np.ndarray, p_max: float, b: float, r0: float) -> np.ndarray:
    with np.errstate(over="ignore"):
        return p_max * (1.0 - np.exp(-b * (x - r0)))


def _saturation_jacobian(x: np.ndarray, p_max: float, b: float, r0: float) -> np.ndarray:
    with np.errstate(over="ignore"):
        decay = np.exp(-b * (x - r0))
    return np.column_stack([1.0 - decay, p_max * (x - r0) * decay, -p_max * b * decay])


def _auto_initial(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    order = np.argsort(x)
    xs, ys = x[order], y[order]
    p_max = float(np.max(ys))
    if p_max <= 0:
        p_max = 1.0
    r0 = float(np.min(xs))
    distinct = np.nonzero(np.diff(xs) > 0)[0]
    if distinct.size:
        i = distinct[0]
        slope = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
        b = abs(slope) / p_max
    else:
        b = 0.0
    if b <= 0:
        b = 1.0 / max(np.ptp(xs), 1.0)
    return p_max, b, r0


def fit_bend_saturation(
    series: DataSeries,
    initial: tuple[float, float, float] | None = None,
    max_iterations: int = 200,
    step_tol: float = 1e-8,
) -> FitResult:
    """Damped Gauss-Newton fit of p = p_max (1 - exp(-b (r - r0))).

    Converged when the largest relative parameter step drops below
    step_tol; otherwise the best iterate is returned with
    converged=False.
    """
    if len(series) < 4:
        raise ValueError("bend saturation fit needs at least 4 points")
    x, y, w = series.x, series.y, series.weights
    sqrt_w = np.sqrt(w)
    params = np.array(initial if initial is not None else _auto_initial(x, y), dtype=float)

    def wrss(p: np.ndarray) -> float:
        res = (y - _saturation(x, *p)) * sqrt_w
        res = np.where(np.isfinite(res), res, np.inf)
        return float(np.sum(res**2))

    current = wrss(params)
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        residuals = (y - _saturation(x, *params)) * sqrt_w
        jac = _saturation_jacobian(x, *params) * sqrt_w[:, None]
        try:
            step = np.linalg.solve(jac.T @ jac, jac.T @ residuals)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, residuals, rcond=None)
        # damping: halve the step until the weighted SSR stops increasing
        scale = 1.0
        for _ in range(30):
            candidate = params + scale * step
            if wrss(candidate) <= current:
                break
            scale *= 0.5
        else:
            candidate = params  # no productive step found at any damping
        new = wrss(candidate)
        rel_step = np.max(np.abs(candidate - params) / np.maximum(np.abs(params), 1e-12))
        params, current = candidate, new
        if rel_step < step_tol:
            converged = True
            break

    residuals = y - _saturation(x, *params)
    jac = _saturation_jacobian(x, *params)
    errors = None
    dof = len(series) - 3
    if dof >= 1:
        wrss_final = float(np.sum(w * residuals**2))
        try:
            cov = np.linalg.inv((jac * w[:, None]).T @ jac) * (wrss_final / dof)
            diag = np.diag(cov)
            if np.all(diag >= 0):
                se = np.sqrt(diag)
                errors = {"p_max": se[0], "b": se[1], "r0": se[2]}
        except np.linalg.LinAlgError:
            errors = None
    return FitResult(
        parameters={"p_max": params[0], "b": params[1], "r0": params[2]},
        standard_errors=errors,
        residual_norm=float(np.sqrt(np.sum(w * residuals**2))),
        converged=converged,
        iterations=iterations,
    )
