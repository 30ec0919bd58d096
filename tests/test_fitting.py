import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from csrskit.efficiency import EfficiencyModel, LightField, predicted_efficiency
from csrskit.fitting import DataSeries, _solve, fit_bend_saturation, fit_cutback, fit_efficiency_length
from tests.conftest import REPO_ROOT

SEED_BASE = 20260811
DATA = {kind: REPO_ROOT / "data" / f"{kind}_synthetic.csv" for kind in ("cutback", "efficiency", "bend")}


def cutback_series(alpha: float, intercept: float = -0.8, n: int = 20, noise: float = 0.0, seed=None):
    x = np.linspace(0.0, 2.0, n)
    y = -alpha * x + intercept
    if noise:
        rng = np.random.default_rng(seed)
        y = y + rng.normal(0.0, noise, x.size)
    return DataSeries(x, y, x_unit="m", y_unit="dB")


def saturation(x, p_max, b, r0):
    return p_max * (1.0 - np.exp(-b * (x - r0)))


class TestDataSeries:
    def test_from_csv(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("# cut-back data\nx,y,sigma\n0.5,-1.0,0.2\n1.0,-1.5,0.2\n2.0,-2.4,0.3\n")
        series = DataSeries.from_csv(path)
        assert len(series) == 3
        assert series.sigma is not None
        assert series.x[2] == 2.0

    def test_from_csv_without_sigma(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("x,y\n0.5,-1.0\n1.0,-1.5\n")
        series = DataSeries.from_csv(path)
        assert series.sigma is None

    def test_malformed_rows_reported_with_line_number(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("x,y\n0.5,-1.0\nzebra,-1.5\n")
        with pytest.raises(ValueError, match=":3"):
            DataSeries.from_csv(path)
        path.write_text("length,power\n0.5,-1.0\n")
        with pytest.raises(ValueError, match="header"):
            DataSeries.from_csv(path)

    def test_keeps_the_sequences_it_is_given(self):
        x, y, sigma = np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([0.1, 0.2])
        series = DataSeries(x, y, sigma=sigma)
        assert series.x is x and series.y is y and series.sigma is sigma
        listed = DataSeries([1.0, 2.0], (3, 4))
        assert listed.x == [1.0, 2.0] and listed.y == (3, 4)
        assert listed.weights == [1.0, 1.0]
        assert series.weights == pytest.approx([100.0, 25.0], rel=1e-15)

    def test_invariants(self):
        with pytest.raises(ValueError):
            DataSeries(np.array([1.0, 2.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="1-d sequence"):
            DataSeries(np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError, match="1-d sequence"):
            DataSeries([1.0, None], [1.0, 2.0])
        with pytest.raises(ValueError):
            DataSeries([], [])
        with pytest.raises(ValueError):
            DataSeries(np.array([1.0, np.inf]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            DataSeries(np.array([1.0, 2.0]), np.array([1.0, 2.0]), sigma=np.array([0.1, 0.0]))


class TestFitCutback:
    @pytest.mark.parametrize("alpha", [0.07, 0.37, 0.93])
    def test_noiseless_exact_recovery(self, alpha):
        res = fit_cutback(cutback_series(alpha))
        assert res.parameters["alpha_db_per_m"] == pytest.approx(alpha, abs=1e-10)
        assert res.parameters["intercept_db"] == pytest.approx(-0.8, abs=1e-10)
        assert res.residual_norm < 1e-8
        assert res.converged

    def test_scale_equivariance(self):
        series = cutback_series(0.37, noise=0.2, seed=3)
        scaled = DataSeries(series.x * 2.0, series.y)
        res = fit_cutback(series)
        res_scaled = fit_cutback(scaled)
        assert res_scaled.parameters["alpha_db_per_m"] == pytest.approx(
            res.parameters["alpha_db_per_m"] / 2.0, rel=1e-12
        )
        assert res_scaled.parameters["intercept_db"] == pytest.approx(
            res.parameters["intercept_db"], rel=1e-12
        )

    def test_needs_three_points_and_spread(self):
        with pytest.raises(ValueError):
            fit_cutback(DataSeries(np.array([0.0, 1.0]), np.array([0.0, -1.0])))
        with pytest.raises(ValueError):
            fit_cutback(DataSeries(np.ones(5), np.linspace(0, 1, 5)))

    def test_monte_carlo_three_sigma_coverage(self):
        # 3 SE should cover the generating slope in at least 99 % of
        # seeded replicates (Student-t with 18 dof predicts about 99.2 %)
        hits = 0
        n_rep = 1000
        for k in range(n_rep):
            series = cutback_series(0.37, noise=0.2, seed=[SEED_BASE, 370, k])
            res = fit_cutback(series)
            se = res.standard_errors["alpha_db_per_m"]
            if abs(res.parameters["alpha_db_per_m"] - 0.37) <= 3.0 * se:
                hits += 1
        assert hits / n_rep >= 0.99

    def test_standard_errors_shrink_like_inverse_sqrt_n(self):
        means = {}
        for n in (10, 40, 160):
            ses = []
            for k in range(150):
                series = cutback_series(0.37, n=n, noise=0.2, seed=[7, n, k])
                ses.append(fit_cutback(series).standard_errors["alpha_db_per_m"])
            means[n] = float(np.mean(ses))
        assert means[10] / means[40] == pytest.approx(2.0, rel=0.2)
        assert means[40] / means[160] == pytest.approx(2.0, rel=0.2)

    def test_sigma_weighting_changes_result(self):
        x = np.linspace(0.0, 2.0, 8)
        y = -0.5 * x + np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        flat = fit_cutback(DataSeries(x, y))
        down = fit_cutback(DataSeries(x, y, sigma=np.array([0.1] * 7 + [10.0])))
        assert down.parameters["alpha_db_per_m"] == pytest.approx(0.5, abs=1e-3)
        assert flat.parameters["alpha_db_per_m"] != pytest.approx(0.5, abs=1e-3)


class TestFitEfficiencyLength:
    MODEL = EfficiencyModel(0.0044, "lumped-exponential", signal_attenuation_db_per_m=0.79)
    FIELDS = (
        LightField(1550.0, 3.0, 0.07),
        LightField(942.0, 3.0, 0.37),
        LightField(914.0, 0.001, 0.93),
    )

    def eta(self, lengths):
        from csrskit.efficiency import predicted_efficiency

        return np.array([predicted_efficiency(self.MODEL, *self.FIELDS, length_m=l) for l in lengths])

    def test_noiseless_self_consistency(self):
        lengths = np.array([0.27, 1.16, 1.47, 1.85])
        series = DataSeries(lengths, self.eta(lengths))
        res = fit_efficiency_length(series, self.MODEL, *self.FIELDS)
        assert res.parameters["coefficient_pct_per_w2m2"] == pytest.approx(0.0044, rel=1e-12)
        assert res.residual_norm < 1e-8

    def test_single_point_closed_form(self):
        # lossless model: C = eta / (P1 P2 L^2), in percent
        model = EfficiencyModel(1.0, "lossless")
        f1 = LightField(1550.0, 3.0)
        f2 = LightField(942.0, 3.0)
        pr = LightField(914.0, 0.001)
        eta = 0.006 * 9.0 / 100.0
        series = DataSeries(np.array([1.85]), np.array([eta]))
        res = fit_efficiency_length(series, model, f1, f2, pr)
        assert res.parameters["coefficient_pct_per_w2m2"] == pytest.approx(
            100.0 * eta / (9.0 * 1.85**2), rel=1e-12
        )
        assert res.standard_errors is None  # zero degrees of freedom

    def test_monte_carlo_two_sigma_coverage(self):
        # 10 % relative noise is heteroscedastic, so the known sigmas are
        # passed as weights; 2 SE coverage with 3 degrees of freedom follows
        # Student-t (about 86 %), require at least 80 % over seeded replicates
        lengths = np.array([0.27, 1.16, 1.47, 1.85])
        clean = self.eta(lengths)
        hits = 0
        n_rep = 400
        for k in range(n_rep):
            rng = np.random.default_rng([SEED_BASE, 44, k])
            noisy = clean * (1.0 + 0.1 * rng.standard_normal(clean.size))
            res = fit_efficiency_length(
                DataSeries(lengths, noisy, sigma=0.1 * clean), self.MODEL, *self.FIELDS
            )
            se = res.standard_errors["coefficient_pct_per_w2m2"]
            if abs(res.parameters["coefficient_pct_per_w2m2"] - 0.0044) <= 2.0 * se:
                hits += 1
        assert hits / n_rep >= 0.80

    def test_all_zero_efficiency_rejected(self):
        series = DataSeries(np.array([0.5, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            fit_efficiency_length(series, self.MODEL, *self.FIELDS)

    @pytest.mark.parametrize("x", [[-1.0, -2.0, 1.0], [0.5, 0.0, 1.0]])
    def test_non_positive_length_is_named(self, x):
        # [-1, -2, 1] gave C = 0.000199 %/(W^2 m^2)
        series = DataSeries(x, [0.001, 0.002, 0.001])
        bad = next(v for v in x if v <= 0.0)
        with pytest.raises(ValueError, match=rf"^fiber lengths must be positive, got x = {bad!r}$"):
            fit_efficiency_length(series, self.MODEL, *self.FIELDS)


class TestFitBendSaturation:
    X = np.linspace(0.12, 0.60, 12)

    def test_noiseless_recovery(self):
        y = saturation(self.X, 83.0, 8.0, 0.10)
        res = fit_bend_saturation(DataSeries(self.X, y))
        assert res.converged
        assert res.parameters["p_max"] == pytest.approx(83.0, rel=1e-6)
        assert res.parameters["b"] == pytest.approx(8.0, rel=1e-6)
        assert res.parameters["r0"] == pytest.approx(0.10, rel=1e-6)
        assert res.residual_norm < 1e-8

    def test_fitted_model_limits(self):
        y = saturation(self.X, 83.0, 8.0, 0.10)
        res = fit_bend_saturation(DataSeries(self.X, y))
        p = res.parameters
        assert saturation(np.array([1e9]), **p)[0] == pytest.approx(p["p_max"], rel=1e-12)
        assert saturation(np.array([p["r0"]]), **p)[0] == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        y = saturation(self.X, 83.0, 8.0, 0.10) + rng.normal(0.0, 1.0, self.X.size)
        order = rng.permutation(self.X.size)
        res_a = fit_bend_saturation(DataSeries(self.X, y))
        res_b = fit_bend_saturation(DataSeries(self.X[order], y[order]))
        for name in ("p_max", "b", "r0"):
            assert res_b.parameters[name] == pytest.approx(res_a.parameters[name], rel=1e-6)

    def test_explicit_initial_guess(self):
        y = saturation(self.X, 83.0, 8.0, 0.10)
        res = fit_bend_saturation(DataSeries(self.X, y), initial=(60.0, 4.0, 0.05))
        assert res.parameters["p_max"] == pytest.approx(83.0, rel=1e-6)

    def test_non_convergence_flagged_not_raised(self):
        y = saturation(self.X, 83.0, 8.0, 0.10)
        res = fit_bend_saturation(DataSeries(self.X, y), initial=(1.0, 100.0, 0.5), max_iterations=2)
        assert not res.converged
        assert np.isfinite(res.residual_norm)

    def test_start_with_overflowing_residuals_is_flagged_not_raised(self):
        # exp(-b (r - r0)) overflows at every point of this start, as in the numpy version
        y = saturation(self.X, 83.0, 8.0, 0.10)
        res = fit_bend_saturation(DataSeries(self.X, y), initial=(83.0, 8000.0, 1.0), max_iterations=5)
        assert (res.converged, res.iterations, res.standard_errors) == (False, 5, None)
        assert not np.isfinite(res.residual_norm)

    def test_start_no_step_improves_is_not_converged(self):
        # every halved step from this start overflows, so the fit cannot leave it
        series = DataSeries.from_csv(DATA["bend"])
        stuck = fit_bend_saturation(series, initial=(20.0, 200.0, 0.0))
        assert (stuck.converged, stuck.iterations) == (False, 1)
        assert stuck.parameters == {"p_max": 20.0, "b": 200.0, "r0": 0.0}
        auto = fit_bend_saturation(series)
        assert (auto.converged, auto.iterations) == (True, 5)

    def test_start_ignores_radii_one_ulp_apart(self):
        # the slope of the first two radii, 1 ulp apart, once started the fit at a
        # step function: b = 1.37e8, p_max = 42.0, residual_norm 21.7, "converged"
        x = [0.1120018208035401, 0.11200182080354011, 0.25, 0.5, 1.0]
        y = [8.280282084878102, 8.280282144482747, 25.813030516144618, 43.85121907624897, 56.39671992628152]
        res = fit_bend_saturation(DataSeries(x, y))
        assert res.converged
        assert res.parameters["b"] < 100.0
        assert res.residual_norm < 1e-6
        assert res.parameters == pytest.approx({"p_max": 60.0, "b": 3.0, "r0": 0.0625}, rel=1e-6)

    def test_minimum_within_rounding_is_converged(self):
        # at iteration 9 no halving lowers the SSR (0.2343...) and the full step
        # is 8e-8 relative, but Gauss-Newton promises a decrease of only 1e-14
        x = [0.2578187666007299, 0.31251593703612934, 0.32582304894921177, 0.34260810837479444,
             0.3619852040912442, 0.37941120620306706, 0.4275294057632899, 0.4311529527632114,
             0.4934843709441225, 0.5094004113933532, 0.5368870857694193]  # fmt: skip
        y = [54.28465493416857, 59.45166323583064, 60.18333658328274, 61.66490278096801,
             62.83340239890246, 63.52055842563842, 65.62997491999779, 65.698499571021,
             67.33659964571486, 67.24369202593817, 68.03793444983009]  # fmt: skip
        res = fit_bend_saturation(DataSeries(x, y))
        assert (res.converged, res.iterations) == (True, 9)
        assert res.residual_norm == pytest.approx(math.sqrt(0.23430683896204813), rel=1e-12)

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            fit_bend_saturation(DataSeries(self.X[:3], saturation(self.X[:3], 83.0, 8.0, 0.10)))

    def test_monte_carlo_three_sigma_coverage(self):
        hits_p = hits_r = 0
        n_rep = 500
        xb = np.linspace(0.12, 0.60, 25)
        clean = saturation(xb, 83.0, 8.0, 0.10)
        for k in range(n_rep):
            rng = np.random.default_rng([SEED_BASE, 6, k])
            res = fit_bend_saturation(DataSeries(xb, clean + rng.normal(0.0, 1.0, xb.size)))
            se = res.standard_errors
            assert res.converged
            if abs(res.parameters["p_max"] - 83.0) <= 3.0 * se["p_max"]:
                hits_p += 1
            if abs(res.parameters["r0"] - 0.10) <= 3.0 * se["r0"]:
                hits_r += 1
        assert hits_p / n_rep >= 0.98
        assert hits_r / n_rep >= 0.98


# -- numpy references for the pure-Python fits --------------------------------


def _numpy_normal_fit(design, y, w):
    """Weighted linear least squares through numpy: parameters, standard errors, residual norm."""
    lhs = (design * w[:, None]).T @ design
    params = np.linalg.solve(lhs, (design * w[:, None]).T @ y)
    lstsq, *_ = np.linalg.lstsq(design * np.sqrt(w)[:, None], y * np.sqrt(w), rcond=None)
    np.testing.assert_allclose(params, lstsq, rtol=1e-8, atol=1e-10)
    wrss = float(np.sum(w * (y - design @ params) ** 2))
    dof = len(y) - design.shape[1]
    errors = np.sqrt(np.diag(np.linalg.inv(lhs)) * wrss / dof) if dof >= 1 else None
    return params, errors, np.sqrt(wrss)


def _numpy_bend_errors(x, y, w, p_max, b, r0):
    """Residual norm, standard errors and the normal matrix's condition number at given parameters, through numpy."""
    decay = np.exp(-b * (x - r0))
    residuals = y - p_max * (1.0 - decay)
    jac = np.column_stack([1.0 - decay, p_max * (x - r0) * decay, -p_max * b * decay])
    wrss = float(np.sum(w * residuals**2))
    normal = (jac * w[:, None]).T @ jac
    cond = np.linalg.cond(normal)
    errors = np.sqrt(np.diag(np.linalg.inv(normal)) * wrss / (len(x) - 3)) if cond < 1e8 else None
    return np.sqrt(wrss), errors, cond


def _numpy_auto_start(x, y):
    """The automatic start on numpy arrays: p_max = max y, r0 = min x, b from the first two distinct x."""
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    p_max = float(np.max(ys)) if np.max(ys) > 0 else 1.0
    i = np.nonzero(np.diff(xs) > 0)[0][0]
    b = abs((ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])) / p_max
    return p_max, b, float(xs[0])


def _numpy_bend_fit(x, y, w, initial, max_iterations=200, step_tol=1e-8):
    """Damped Gauss-Newton on numpy arrays: np.linalg.solve, and lstsq when it is singular."""
    sqrt_w = np.sqrt(w)

    def wrss(p):
        with np.errstate(over="ignore"):
            res = (y - p[0] * (1.0 - np.exp(-p[1] * (x - p[2])))) * sqrt_w
        return float(np.sum(np.where(np.isfinite(res), res, np.inf) ** 2))

    params = np.array(initial, dtype=float)
    current = wrss(params)
    for iterations in range(1, max_iterations + 1):
        p_max, b, r0 = params
        decay = np.exp(-b * (x - r0))
        residuals = (y - p_max * (1.0 - decay)) * sqrt_w
        jac = np.column_stack([1.0 - decay, p_max * (x - r0) * decay, -p_max * b * decay]) * sqrt_w[:, None]
        try:
            step = np.linalg.solve(jac.T @ jac, jac.T @ residuals)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, residuals, rcond=None)
        scale = 1.0
        for _ in range(30):
            candidate = params + scale * step
            if wrss(candidate) <= current:
                break
            scale *= 0.5
        else:
            candidate = params
        rel_step = np.max(np.abs(candidate - params) / np.maximum(np.abs(params), 1e-12))
        params, current = candidate, wrss(candidate)
        if rel_step < step_tol:
            return params, iterations, True
    return params, max_iterations, False


def _arrays(series):
    w = np.ones(len(series)) if series.sigma is None else 1.0 / np.asarray(series.sigma, dtype=float) ** 2
    return np.asarray(series.x, dtype=float), np.asarray(series.y, dtype=float), w


_SIGMA = st.floats(min_value=0.01, max_value=1.0)


@st.composite
def _cutback_series(draw):
    n = draw(st.integers(min_value=3, max_value=30))
    x = draw(st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=n, max_size=n))
    assume(max(x) - min(x) > 0.5)
    y = draw(st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=n, max_size=n))
    sigma = draw(st.none() | st.lists(_SIGMA, min_size=n, max_size=n))
    return DataSeries(x, y, sigma=sigma)


def _exact_line_fit(series):
    """Weighted least-squares line in exact rational arithmetic, from the fit's own float
    weights: (slope, intercept), their standard errors, and the residual norm."""
    x, y, w = ([Fraction(v) for v in values] for values in (series.x, series.y, series.weights))
    sw, swx, swy = sum(w), sum(wi * xi for wi, xi in zip(w, x)), sum(wi * yi for wi, yi in zip(w, y))
    swxx = sum(wi * xi * xi for wi, xi in zip(w, x))
    swxy = sum(wi * xi * yi for wi, xi, yi in zip(w, x, y))
    det = sw * swxx - swx * swx
    slope, intercept = (sw * swxy - swx * swy) / det, (swxx * swy - swx * swxy) / det
    wrss = sum(wi * (yi - slope * xi - intercept) ** 2 for wi, xi, yi in zip(w, x, y))
    scale = wrss / (len(x) - 2)
    errors = [math.sqrt(sw / det * scale), math.sqrt(swxx / det * scale)]
    return [float(slope), float(intercept)], errors, math.sqrt(wrss)


@given(series=_cutback_series())
@settings(max_examples=200, deadline=None)
# an exact line, y = x, with one sigma of 0.01: the fit's residual norm is 0, which a
# floating-point reference misses by more than the 1e-12 bound
@example(
    series=DataSeries(
        x=[0.0] * 8 + [7.0] + [0.0] * 5 + [1.0, 0.75, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0],
        y=[0.0] * 8 + [7.0] + [0.0] * 5 + [1.0, 0.75, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0],
        sigma=[1.0] * 8 + [0.01] + [1.0] * 6 + [0.5] + [1.0] * 7 + [0.75, 1.0, 1.0, 1.0],
    )
)
# the exact line y = 9x - 72: uncentred normal equations gave standard errors of 2.3e-13
# and 1.98e-12 by rounding on the -72 dB intercept, where the exact ones are 0
@example(series=DataSeries(x=[9.0, 9.0, 8.0], y=[9.0, 9.0, 0.0]))
def test_cutback_matches_exact_least_squares(series):
    params, errors, norm = _exact_line_fit(series)
    res = fit_cutback(series)
    got = [-res.parameters["alpha_db_per_m"], res.parameters["intercept_db"]]
    np.testing.assert_allclose(got, params, rtol=1e-9, atol=1e-10)
    se = [res.standard_errors["alpha_db_per_m"], res.standard_errors["intercept_db"]]
    np.testing.assert_allclose(se, errors, rtol=1e-7, atol=1e-12)
    assert res.residual_norm == pytest.approx(norm, rel=1e-9, abs=1e-12)


_EFFICIENCY_MODEL = EfficiencyModel(0.0044, "lumped-exponential", signal_attenuation_db_per_m=0.79)
_EFFICIENCY_UNIT = EfficiencyModel(1.0, "lumped-exponential", signal_attenuation_db_per_m=0.79)
_EFFICIENCY_FIELDS = (LightField(1550.0, 3.0, 0.07), LightField(942.0, 3.0, 0.37), LightField(914.0, 0.001, 0.93))


def _efficiency_shape(lengths):
    return np.array([predicted_efficiency(_EFFICIENCY_UNIT, *_EFFICIENCY_FIELDS, length) for length in lengths])


@given(
    points=st.lists(
        st.tuples(st.floats(min_value=0.1, max_value=10.0), st.floats(min_value=0.5, max_value=1.5), _SIGMA),
        min_size=1,
        max_size=12,
    ),
    weighted=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_efficiency_fit_matches_numpy_normal_equation(points, weighted):
    lengths = [length for length, _, _ in points]
    etas = [0.0044 * s * factor for s, (_, factor, _) in zip(_efficiency_shape(lengths), points)]
    sigma = [rel * eta for (_, _, rel), eta in zip(points, etas)] if weighted else None
    series = DataSeries(lengths, etas, sigma=sigma)
    x, y, w = _arrays(series)
    params, errors, norm = _numpy_normal_fit(_efficiency_shape(x)[:, None], y, w)
    res = fit_efficiency_length(series, _EFFICIENCY_MODEL, *_EFFICIENCY_FIELDS)
    assert res.parameters["coefficient_pct_per_w2m2"] == pytest.approx(params[0], rel=1e-12)
    # a residual norm at rounding level, as for a single point, is compared on the scale of the data
    assert res.residual_norm == pytest.approx(norm, rel=1e-9, abs=1e-12 * math.sqrt(float(np.sum(w * y**2))))
    if errors is None:
        assert res.standard_errors is None
    else:
        se = res.standard_errors["coefficient_pct_per_w2m2"]
        assert se == pytest.approx(errors[0], rel=1e-9, abs=1e-12 * params[0])


def test_linear_fits_match_numpy_on_the_data_files():
    series = DataSeries.from_csv(DATA["cutback"])
    x, y, w = _arrays(series)
    params, errors, norm = _numpy_normal_fit(np.column_stack([x, np.ones_like(x)]), y, w)
    res = fit_cutback(series)
    np.testing.assert_allclose([-res.parameters["alpha_db_per_m"], res.parameters["intercept_db"]], params, rtol=1e-12)
    # exact data: the residual and the standard errors are rounding noise in both
    assert res.residual_norm < 1e-13 and norm < 1e-13
    assert max(res.standard_errors.values()) < 1e-13 and max(errors) < 1e-13

    series = DataSeries.from_csv(DATA["efficiency"])
    x, y, w = _arrays(series)
    params, errors, norm = _numpy_normal_fit(_efficiency_shape(x)[:, None], y, w)
    res = fit_efficiency_length(series, _EFFICIENCY_MODEL, *_EFFICIENCY_FIELDS)
    assert res.parameters["coefficient_pct_per_w2m2"] == pytest.approx(params[0], rel=1e-12)
    assert res.residual_norm == pytest.approx(norm, rel=1e-6)
    assert res.standard_errors["coefficient_pct_per_w2m2"] == pytest.approx(errors[0], rel=1e-6)


@pytest.mark.parametrize(
    "initial,iterations",
    [
        (None, 5),  # the automatic start
        ((83.0, 0.0, 0.1), 8),  # b = 0: two Jacobian columns are exactly zero, and numpy falls back to lstsq
        ((83.0, 50.0, 0.0), 8),  # damped candidates whose exp overflows must count as an infinite SSR
    ],
)
def test_bend_fit_follows_the_numpy_gauss_newton_path(initial, iterations):
    series = DataSeries.from_csv(DATA["bend"])
    x, y, w = _arrays(series)
    res = fit_bend_saturation(series, initial=initial)
    params, ref_iterations, ref_converged = _numpy_bend_fit(x, y, w, initial or _numpy_auto_start(x, y))
    assert (res.iterations, res.converged) == (ref_iterations, ref_converged) == (iterations, True)
    got = [res.parameters[k] for k in ("p_max", "b", "r0")]
    np.testing.assert_allclose(got, params, rtol=1e-12)
    np.testing.assert_allclose(got, [83.0, 8.0, 0.1], rtol=1e-12)


@st.composite
def _bend_series(draw):
    p_max = draw(st.floats(min_value=60.0, max_value=110.0))
    b = draw(st.floats(min_value=3.0, max_value=15.0))
    r0 = draw(st.floats(min_value=0.05, max_value=0.12))
    # radii on a grid of 200 steps over the rise: no two points nearly coincide, and
    # the points span at least half the rise, so that all three parameters are identifiable
    steps = draw(st.lists(st.integers(min_value=0, max_value=200), min_size=8, max_size=40, unique=True))
    assume(max(steps) - min(steps) >= 100)
    x = [r0 + 0.005 + (4.0 / b) * k / 200 for k in sorted(steps)]
    n = len(x)
    noise = draw(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=n, max_size=n))
    # exact data, or data off by a constant (which the model absorbs), leave standard errors of rounding noise
    assume(max(noise) - min(noise) > 0.1)
    sd = draw(st.floats(min_value=0.01, max_value=0.5))
    y = [p_max * (1.0 - math.exp(-b * (xi - r0))) + sd * z for xi, z in zip(x, noise)]
    sigma = draw(st.none() | st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=n, max_size=n))
    return DataSeries(x, y, sigma=None if sigma is None else [sd * s for s in sigma])


@given(series=_bend_series())
@settings(max_examples=150, deadline=None)
def test_bend_fit_matches_numpy(series):
    x, y, w = _arrays(series)
    res = fit_bend_saturation(series)
    got = [res.parameters[k] for k in ("p_max", "b", "r0")]
    assume(all(math.isfinite(v) for v in got))
    norm, errors, cond = _numpy_bend_errors(x, y, w, *got)
    assert res.residual_norm == pytest.approx(norm, rel=1e-9)
    # where the fit ran off into a degenerate corner (the spurious minima of the
    # automatic start), rounding decides the path and the inverse; compare the rest
    assume(res.converged and cond < 1e8)
    np.testing.assert_allclose([res.standard_errors[k] for k in ("p_max", "b", "r0")], errors, rtol=1e-6)
    params, _, converged = _numpy_bend_fit(x, y, w, _numpy_auto_start(x, y))
    assert converged
    np.testing.assert_allclose(got, params, rtol=1e-6)


@given(
    jac=st.lists(st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=3, max_size=3), min_size=3, max_size=8),
    rhs=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=3, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_solve_matches_numpy(jac, rhs):
    matrix = np.array(jac).T @ np.array(jac) + np.eye(3)
    (got,), singular = _solve(matrix.tolist(), [rhs])
    assert not singular
    np.testing.assert_allclose(got, np.linalg.solve(matrix, rhs), rtol=1e-9, atol=1e-12)


def test_solve_leaves_a_zero_column_at_the_minimum_norm_step():
    jac = np.array([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 3.0, 0.0]])
    r = np.array([1.0, 1.0, 2.0])
    (got,), singular = _solve((jac.T @ jac).tolist(), [(jac.T @ r).tolist()])
    assert singular
    np.testing.assert_allclose(got, np.linalg.lstsq(jac, r, rcond=None)[0], rtol=1e-15)
