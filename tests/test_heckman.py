import math

import numpy as np
import pytest
from scipy.special import ndtri

from cdmpanel import (
    CollinearityError,
    ConvergenceError,
    HeckmanSpec,
    ValidationError,
    VcovSpec,
    from_long,
    heckman_two_step,
    inverse_mills,
    predict_linear_index,
    probit_fit,
)
from cdmpanel import synthdgp


def imr_oracle(z: float) -> float:
    """phi(z)/Phi(z) via math.erfc, an implementation independent of the package."""
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    cdf = 0.5 * math.erfc(-z / math.sqrt(2.0))
    return pdf / cdf


class TestInverseMills:
    def test_matches_erfc_oracle_on_grid(self):
        for z in (-6.0, -3.0, 0.0, 3.0, 6.0):
            expected = imr_oracle(z)
            got = inverse_mills(z)
            assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_at_zero_sqrt_two_over_pi(self):
        assert abs(inverse_mills(0.0) - math.sqrt(2.0 / math.pi)) < 1e-9

    def test_minus_three_frozen_value(self):
        # frozen from the erfc oracle: imr_oracle(-3) = 3.283098654930...
        assert inverse_mills(-3.0) == pytest.approx(3.2831, abs=1e-3)

    def test_far_right_tail_vanishes(self):
        assert inverse_mills(8.0) < 1e-13

    def test_deep_left_tail_stable(self):
        # log-space evaluation must not overflow; imr(z) ~ -z for z << 0
        got = inverse_mills(-40.0)
        assert np.isfinite(got) and abs(got - (40.0 + 1.0 / 40.0)) < 0.01

    def test_strictly_decreasing_and_positive(self):
        grid = np.linspace(-10, 10, 401)
        vals = inverse_mills(grid)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)

    def test_non_finite_input_errors(self):
        with pytest.raises(ValidationError):
            inverse_mills(np.nan)
        with pytest.raises(ValidationError):
            inverse_mills(np.inf)


class TestProbit:
    def test_constant_only_mean_841(self):
        n = 1000
        y = np.concatenate([np.ones(841), np.zeros(159)])
        ds = from_long([f"E{i}" for i in range(n)], [2010] * n, {"d": y})
        fit = probit_fit(ds, "d", [])
        assert fit.coefficients["_cons"] == pytest.approx(float(ndtri(0.841)), abs=1e-4)

    def test_constant_only_mean_half_is_zero(self):
        y = np.array([1.0, 0.0] * 50)
        ds = from_long([f"E{i}" for i in range(100)], [2010] * 100, {"d": y})
        fit = probit_fit(ds, "d", [])
        assert abs(fit.coefficients["_cons"]) < 1e-10

    def test_slope_recovery_within_three_se(self):
        rng = np.random.default_rng(123)
        n = 5000
        x = rng.normal(size=n)
        y = ((0.2 + 0.7 * x + rng.normal(size=n)) > 0).astype(float)
        ds = from_long([f"E{i}" for i in range(n)], [2010] * n, {"x": x, "d": y})
        fit = probit_fit(ds, "d", ["x"])
        assert abs(fit.coefficients["x"] - 0.7) < 3 * fit.se("x")

    def test_perfect_separation_fails_to_converge(self):
        x = np.array([-2.0, -1.0, 1.0, 2.0] * 5)
        y = (x > 0).astype(float)
        ds = from_long([f"E{i}" for i in range(20)], [2010] * 20, {"x": x, "d": y})
        with pytest.raises(ConvergenceError):
            probit_fit(ds, "d", ["x"])

    def test_non_binary_dependent_errors(self):
        ds = from_long(["A", "B"], [2010, 2010], {"d": [0.0, 2.0]})
        with pytest.raises(ValidationError, match="binary"):
            probit_fit(ds, "d", [])

    def test_gradient_and_hessian_match_finite_differences(self):
        from cdmpanel.estim import EntityLayout
        from cdmpanel.heckman import _probit_parts

        rng = np.random.default_rng(61)
        n = 80
        X = np.column_stack([rng.normal(size=n), np.ones(n)])
        y = ((0.4 * X[:, 0] + rng.normal(size=n)) > 0).astype(float)
        theta = np.array([0.2, -0.1])
        layout = EntityLayout.from_codes(np.zeros(n, dtype=np.intp), 1, X.shape[1], 0)  # no entity effects
        ll, grad, hess = _probit_parts(theta, y, X, layout)
        eps = 1e-6
        for j in range(2):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += eps
            tm[j] -= eps
            lp, gp, _ = _probit_parts(tp, y, X, layout)
            lm, gm, _ = _probit_parts(tm, y, X, layout)
            assert grad[j] == pytest.approx((lp - lm) / (2 * eps), rel=1e-5, abs=1e-6)
            for i in range(2):
                assert hess.A[i, j] == pytest.approx((gp[i] - gm[i]) / (2 * eps), rel=1e-4, abs=1e-5)

    def test_year_dummies_enter_as_indicators(self):
        rng = np.random.default_rng(3)
        n_e, n_t = 300, 3
        ents = np.repeat([f"E{i}" for i in range(n_e)], n_t)
        yrs = list(range(2010, 2010 + n_t)) * n_e
        shift = {2010: 0.0, 2011: 0.6, 2012: -0.4}
        idx = np.array([shift[y] for y in yrs])
        y = ((idx + 0.3 + rng.normal(size=n_e * n_t)) > 0).astype(float)
        ds = from_long(ents, yrs, {"d": y})
        fit = probit_fit(ds, "d", [], fe_dims=("year",))
        assert "year=2011" in fit.coefficients
        assert "year=2012" in fit.coefficients
        assert abs(fit.coefficients["year=2011"] - 0.6) < 3 * fit.se("year=2011")

    def test_entity_effects_refused_with_the_spec_message(self):
        # a probit with entity effects is inconsistent at a fixed number of
        # periods: probit_fit refuses them before any fit, as HeckmanSpec does
        rng = np.random.default_rng(9)
        n_e, n_t = 40, 5
        x = rng.normal(size=n_e * n_t)
        d = ((0.5 * x + rng.normal(size=n_e * n_t)) > 0).astype(float)
        yrs = list(range(2010, 2010 + n_t)) * n_e
        ds = from_long(np.repeat([f"E{i}" for i in range(n_e)], n_t), yrs,
                       {"d": d, "x": x, "by_year": np.array(yrs, dtype=float)})
        with pytest.raises(ValidationError) as refused:
            probit_fit(ds, "d", ["x"], fe_dims=("entity",))
        with pytest.raises(ValidationError) as spec_refused:
            base_spec(fe_dims=("entity",))
        assert str(refused.value) == str(spec_refused.value)
        # a regressor that the year effects span is still named
        with pytest.raises(CollinearityError, match="column 'by_year'"):
            probit_fit(ds, "d", ["x", "by_year"], fe_dims=("year",))


def two_step_panel(seed=0, n_entities=400, n_periods=5, rho=-0.5):
    cfg = synthdgp.DgpConfig(
        n_entities=n_entities,
        n_periods=n_periods,
        seed=seed,
        selection=synthdgp.SelectionConfig(rho_sel=rho),
    )
    return synthdgp.generate_panel(cfg)


def base_spec(**kw):
    return HeckmanSpec(
        outcome="RDINT",
        selection="D",
        outcome_regressors=("X1",),
        exclusion_restrictions=("Z",),
        **kw,
    )


class TestTwoStep:
    def test_exclusion_overlap_rejected_before_fitting(self):
        with pytest.raises(ValidationError, match="selection equation only"):
            HeckmanSpec(
                outcome="RDINT",
                selection="D",
                outcome_regressors=("EPD", "X1"),
                exclusion_restrictions=("EPD",),
            )

    def test_entity_effects_refused_by_the_spec(self):
        with pytest.raises(ValidationError, match="entity fixed effects are not supported.*incidental"):
            base_spec(fe_dims=("entity", "year"))

    def test_outcome_among_regressors_refused_by_the_spec(self):
        with pytest.raises(ValidationError, match="dependent 'RDINT' appears among the regressors"):
            HeckmanSpec(outcome="RDINT", selection="D", outcome_regressors=("RDINT", "X1"),
                        exclusion_restrictions=("Z",))

    def test_imr_column_refused_before_the_probit(self):
        # Z separates the selection perfectly, so a probit would fail first
        n = 40
        z = np.linspace(-1.0, 1.0, n)
        d = (z > 0).astype(float)
        ds = from_long([f"E{i}" for i in range(n)], [2010] * n,
                       {"Z": z, "X1": np.cos(z), "D": d, "RDINT": np.where(d == 1, z, np.nan), "IMR": z})
        with pytest.raises(ConvergenceError):
            probit_fit(ds, "D", ["Z", "X1"])
        with pytest.raises(ValidationError, match="column 'IMR' already exists"):
            heckman_two_step(ds, base_spec())

    def test_two_step_corrects_selection_bias(self):
        ds = two_step_panel(seed=11)
        fit = heckman_two_step(ds, base_spec())
        assert abs(fit.outcome.coefficients["X1"] - 0.5) < 3 * fit.outcome.se("X1")
        # lambda targets rho * sigma_u = -0.5
        assert fit.lambda_ == pytest.approx(-0.5, abs=0.12)
        assert fit.lambda_ == pytest.approx(fit.rho * fit.sigma, abs=1e-8)
        assert 0 < fit.imr_vif < 10
        assert np.mean(list(fit.step2_vif.values())) < 10

    def test_rho_clamped_when_sigma_small(self):
        # outcome equal to a multiple of the IMR leaves no residual variance,
        # forcing |lambda/sigma| > 1 and the clamp
        rng = np.random.default_rng(8)
        n = 500
        z = rng.normal(size=n)
        x = rng.normal(size=n)
        d = ((0.3 + z + 0.5 * x + rng.normal(size=n)) > 0).astype(float)
        ds = from_long([f"E{i}" for i in range(n)] , [2010] * n,
                       {"Z": z, "X1": x, "D": d, "RDINT": np.where(d == 1, 0.0, np.nan)})
        # outcome = 2 * IMR of the true index, only visible through the fit
        fit0 = probit_fit(ds, "D", ["Z", "X1"])
        from cdmpanel.estim import linear_index

        imr = inverse_mills(linear_index(fit0, ds))
        y = np.where(d == 1, 2.0 * imr, np.nan)
        ds = from_long([f"E{i}" for i in range(n)], [2010] * n,
                       {"Z": z, "X1": x, "D": d, "RDINT": y})
        fit = heckman_two_step(ds, base_spec())
        assert abs(fit.rho) == 1.0
        assert fit.sigma == pytest.approx(abs(fit.lambda_), abs=1e-10)
        assert fit.lambda_ == pytest.approx(fit.rho * fit.sigma, abs=1e-8)

    def test_collinear_imr_advises_exclusion_restrictions(self):
        # constant-only selection equation makes the IMR constant
        rng = np.random.default_rng(4)
        n = 200
        x = rng.normal(size=n)
        d = (rng.random(n) < 0.7).astype(float)
        y = np.where(d == 1, x + rng.normal(size=n), np.nan)
        ds = from_long([f"E{i}" for i in range(n)], [2010] * n, {"X1": x, "D": d, "RDINT": y})
        spec = HeckmanSpec(
            outcome="RDINT", selection="D", outcome_regressors=(), exclusion_restrictions=()
        )
        with pytest.raises(CollinearityError, match="exclusion restrictions"):
            heckman_two_step(ds, spec)

    def test_missing_outcome_on_selected_rows_errors(self):
        ds = from_long(["A", "B"], [2010, 2010],
                       {"Z": [0.1, 0.2], "X1": [1.0, 2.0], "D": [1.0, 1.0],
                        "RDINT": [np.nan, 1.0]})
        with pytest.raises(ValidationError, match="missing on 1 selected"):
            heckman_two_step(ds, base_spec())

    def test_selection_name_that_is_not_an_identifier(self):
        # step 2 picks its rows by the selection column's values, so a name
        # such as "R&D" is not parsed as an expression
        ds = two_step_panel(seed=5, n_entities=60, n_periods=4)
        fit = heckman_two_step(ds, base_spec())
        renamed = heckman_two_step(
            ds.with_column("R&D", ds.column("D")),
            HeckmanSpec(outcome="RDINT", selection="R&D", outcome_regressors=("X1",), exclusion_restrictions=("Z",)),
        )
        assert renamed.outcome.coefficients == fit.outcome.coefficients
        assert renamed.outcome.n_obs == fit.outcome.n_obs
        assert renamed.outcome.n_dropped == ds.n_rows - renamed.outcome.n_obs

    def test_bootstrap_se_method_recorded(self):
        ds = two_step_panel(seed=3, n_entities=80, n_periods=4)
        spec = base_spec(vcov=VcovSpec("cluster_bootstrap", replications=25, seed=42))
        fit = heckman_two_step(ds, spec)
        assert fit.outcome.se_method == "cluster_bootstrap(B=25, seed=42)"
        assert fit.outcome.se("X1") > 0


class TestPredict:
    def test_prediction_at_origin_is_intercept(self):
        ds = two_step_panel(seed=5, n_entities=200, n_periods=4)
        fit = heckman_two_step(ds, base_spec())
        zero = from_long(["Q"], [2010], {"Z": [0.0], "X1": [0.0], "D": [1.0], "RDINT": [0.0]})
        pred = predict_linear_index(fit, zero)
        assert pred[0] == pytest.approx(fit.outcome.coefficients["_cons"], abs=1e-12)

    def test_nondisclosing_rows_predicted_too(self):
        ds = two_step_panel(seed=6, n_entities=200, n_periods=4)
        fit = heckman_two_step(ds, base_spec())
        pred = predict_linear_index(fit, ds)
        non_disclosing = ds.column("D") == 0.0
        assert np.isfinite(pred[non_disclosing]).all()
        assert int(np.isfinite(pred).sum()) > int((ds.column("D") == 1.0).sum())

    def test_linearity_in_regressors(self):
        ds = two_step_panel(seed=7, n_entities=200, n_periods=4)
        fit = heckman_two_step(ds, base_spec())
        a = from_long(["Q"], [2010], {"Z": [0.0], "X1": [1.0], "D": [1.0], "RDINT": [0.0]})
        b = from_long(["Q"], [2010], {"Z": [0.0], "X1": [3.0], "D": [1.0], "RDINT": [0.0]})
        pa = predict_linear_index(fit, a)[0]
        pb = predict_linear_index(fit, b)[0]
        assert pb - pa == pytest.approx(2.0 * fit.outcome.coefficients["X1"], rel=1e-10)

    def test_missing_regressor_column_errors(self):
        ds = two_step_panel(seed=9, n_entities=100, n_periods=4)
        fit = heckman_two_step(ds, base_spec())
        bare = from_long(["Q"], [2010], {"Z": [0.0], "D": [1.0], "RDINT": [0.0]})
        with pytest.raises(ValidationError, match="X1"):
            predict_linear_index(fit, bare)

    def test_rows_missing_regressors_predict_missing(self):
        ds = two_step_panel(seed=10, n_entities=100, n_periods=4)
        fit = heckman_two_step(ds, base_spec())
        q = from_long(["Q", "R"], [2010, 2010],
                      {"Z": [0.0, 0.0], "X1": [np.nan, 1.0], "D": [1.0, 1.0], "RDINT": [0.0, 0.0]})
        pred = predict_linear_index(fit, q)
        assert np.isnan(pred[0]) and np.isfinite(pred[1])
